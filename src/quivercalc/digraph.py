"""Finite directed graphs (quivers) with named vertices and edges.

Vertices and edges are opaque strings.  Degenerate loops are never stored:
every vertex implicitly carries one, and graph morphisms are allowed to
collapse a real edge onto the degenerate loop at a vertex.  All enumeration
follows declaration order, so results are reproducible.

Every graph traversal of the package lives here, written with explicit
stacks, so that no graph size runs into Python's recursion limit.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, NamedTuple


class QuivercalcError(ValueError):
    """Bad input to quivercalc.  Every error the package raises on purpose
    is one of these; the command line reports it as one line, exit code 2."""


class UnknownVertex(QuivercalcError):
    pass


class UnknownEdge(QuivercalcError):
    pass


class NotACover(QuivercalcError):
    """The two pieces of a would-be closed cover do not exhaust the graph."""


class Incomposable(QuivercalcError):
    """Two morphisms whose endpoints do not match were composed."""


def check_names(names, what: str) -> None:
    """Names read from JSON must come as a list of strings."""
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise QuivercalcError(f"{what} names must be a list of strings")


class Edge(NamedTuple):
    eid: str
    src: str
    tgt: str


class Valence(NamedTuple):
    incoming: int
    outgoing: int


class Digraph:
    """A finite directed graph.  Immutable once built."""

    def __init__(self, vertices: Iterable[str], edges: Iterable):
        self.vertices = tuple(vertices)
        es = []
        for e in edges:
            if isinstance(e, Edge):
                es.append(e)
            else:
                eid, src, tgt = e
                es.append(Edge(eid, src, tgt))
        self.edges = tuple(es)

        if len(set(self.vertices)) != len(self.vertices):
            raise QuivercalcError("duplicate vertex names")
        if len(set(e.eid for e in self.edges)) != len(self.edges):
            raise QuivercalcError("duplicate edge names")
        self._vset = set(self.vertices)
        for e in self.edges:
            if e.src not in self._vset:
                raise UnknownVertex(f"edge {e.eid!r} has undeclared source {e.src!r}")
            if e.tgt not in self._vset:
                raise UnknownVertex(f"edge {e.eid!r} has undeclared target {e.tgt!r}")

        self._by_id = {e.eid: e for e in self.edges}
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self._eindex = {e.eid: i for i, e in enumerate(self.edges)}
        self._out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        self._in: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            self._out[e.src].append(e)
            self._in[e.tgt].append(e)

    def edge(self, eid: str) -> Edge:
        if eid not in self._by_id:
            raise UnknownEdge(f"unknown edge {eid!r}")
        return self._by_id[eid]

    def has_vertex(self, v: str) -> bool:
        return v in self._vset

    def has_edge(self, eid: str) -> bool:
        return eid in self._by_id

    def out_edges(self, v: str) -> list[Edge]:
        if v not in self._vset:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return list(self._out[v])

    def in_edges(self, v: str) -> list[Edge]:
        if v not in self._vset:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return list(self._in[v])

    def valence(self, v: str) -> Valence:
        return Valence(len(self.in_edges(v)), len(self.out_edges(v)))

    def vertex_index(self, v: str) -> int:
        if v not in self._vindex:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return self._vindex[v]

    def edge_index(self, eid: str) -> int:
        if eid not in self._eindex:
            raise UnknownEdge(f"unknown edge {eid!r}")
        return self._eindex[eid]

    def subgraph(self, vertices: Iterable[str], edge_ids: Iterable[str]) -> "Digraph":
        vset = set(vertices)
        for x in vset:
            if x not in self._vset:
                raise UnknownVertex(f"unknown vertex {x!r}")
        vs = [v for v in self.vertices if v in vset]
        eids = set(edge_ids)
        es = []
        for e in self.edges:
            if e.eid in eids:
                if e.src not in vset or e.tgt not in vset:
                    raise QuivercalcError(
                        f"edge {e.eid!r} of the subgraph has an endpoint "
                        "outside the chosen vertex set"
                    )
                es.append(e)
        missing = eids - set(e.eid for e in es)
        if missing:
            raise UnknownEdge(f"unknown edge {sorted(missing)[0]!r}")
        return Digraph(vs, es)

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Digraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    # serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.eid, "src": e.src, "tgt": e.tgt} for e in self.edges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Digraph":
        if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
            raise QuivercalcError("digraph JSON needs 'vertices' and 'edges'")
        edges = [(e["id"], e["src"], e["tgt"]) for e in data["edges"]]
        check_names(data["vertices"], "vertex")
        check_names([eid for eid, _, _ in edges], "edge")
        return cls(data["vertices"], edges)

    def to_dot(self, name: str = "G") -> str:
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for e in self.edges:
            lines.append(f'  "{e.src}" -> "{e.tgt}" [label="{e.eid}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def standard_digraph(kind: str, size: int | None = None) -> Digraph:
    """The standard shapes: linear(p), cyclic(n), bouquet(k), point, interval.

    linear(p) is a directed chain with p edges (p = 0 gives a point);
    cyclic(n) is a directed n-cycle (n >= 1, so cyclic(1) is one loop);
    bouquet(k) is one vertex with k loops; interval = linear(1).
    """
    if kind == "point":
        return Digraph(["0"], [])
    if kind == "interval":
        kind, size = "linear", 1
    if size is None:
        raise QuivercalcError(f"standard digraph {kind!r} needs a size")
    if kind == "linear":
        if size < 0:
            raise QuivercalcError("linear(p) needs p >= 0")
        vs = [str(i) for i in range(size + 1)]
        es = [(f"e{i}", str(i), str(i + 1)) for i in range(size)]
        return Digraph(vs, es)
    if kind == "cyclic":
        if size < 1:
            raise QuivercalcError("cyclic(n) needs n >= 1; there is no empty cycle")
        vs = [str(i) for i in range(size)]
        es = [(f"e{i}", str(i), str((i + 1) % size)) for i in range(size)]
        return Digraph(vs, es)
    if kind == "bouquet":
        if size < 0:
            raise QuivercalcError("bouquet(k) needs k >= 0")
        return Digraph(["0"], [(f"e{i}", "0", "0") for i in range(size)])
    raise QuivercalcError(f"unknown standard digraph kind {kind!r}")


def disjoint_union(graphs: list[Digraph], prefixes: list[str] | None = None) -> Digraph:
    """Disjoint union; name clashes are resolved by the given prefixes."""
    if prefixes is None:
        all_vs = [v for g in graphs for v in g.vertices]
        all_es = [e.eid for g in graphs for e in g.edges]
        if len(set(all_vs)) == len(all_vs) and len(set(all_es)) == len(all_es):
            prefixes = ["" for _ in graphs]
        else:
            prefixes = [f"{i}." for i in range(len(graphs))]
    if len(prefixes) != len(graphs):
        raise QuivercalcError("need one prefix per graph")
    vs, es = [], []
    for g, p in zip(graphs, prefixes):
        vs.extend(p + v for v in g.vertices)
        es.extend((p + e.eid, p + e.src, p + e.tgt) for e in g.edges)
    return Digraph(vs, es)


# --- structure of a digraph ---------------------------------------------


class DigraphShape(NamedTuple):
    connected: bool
    cyclically_directed: bool
    linearly_directed: bool
    valences: dict


def reachable(start: Hashable, step: Callable[[Hashable], Iterable]) -> set:
    """Everything reachable from start, where step(x) lists the neighbours
    of x; start itself included."""
    seen = {start}
    stack = [start]
    while stack:
        for y in step(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def weak_components(d: Digraph) -> list[list[str]]:
    """Connected components of the underlying undirected graph,
    each listed in vertex declaration order."""
    adj: dict[str, list[str]] = {v: [] for v in d.vertices}
    for e in d.edges:
        adj[e.src].append(e.tgt)
        adj[e.tgt].append(e.src)
    comp_of: dict[str, int] = {}
    comps: list[list[str]] = []
    for v in d.vertices:
        if v not in comp_of:
            for u in reachable(v, adj.__getitem__):
                comp_of[u] = len(comps)
            comps.append([])
        comps[comp_of[v]].append(v)
    return comps


def strong_components(d: Digraph) -> list[list[str]]:
    """Strongly connected components in reverse topological order: every
    edge between two components points into an earlier one.

    Tarjan, "Depth-first search and linear graph algorithms", SIAM J.
    Comput. 1 (1972), run with an explicit stack of edge iterators.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    open_: list[str] = []          # Tarjan's stack of unfinished vertices
    on_open: set[str] = set()
    comps: list[list[str]] = []
    for root in d.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        open_.append(root)
        on_open.add(root)
        work = [(root, iter(d._out[root]))]
        while work:
            v, it = work[-1]
            for e in it:
                w = e.tgt
                if w not in index:
                    index[w] = low[w] = len(index)
                    open_.append(w)
                    on_open.add(w)
                    work.append((w, iter(d._out[w])))
                    break
                if w in on_open:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(open_.pop())
                        on_open.discard(comp[-1])
                    comps.append(comp)
    return comps


def has_directed_cycle(d: Digraph) -> bool:
    return (any(e.src == e.tgt for e in d.edges)
            or any(len(c) > 1 for c in strong_components(d)))


def walks(d: Digraph, start: str, end: str, max_len: int) -> Iterator[tuple]:
    """Every walk start -> end with at most max_len edges, as a tuple of edge
    ids, depth first with edges in declaration order."""
    if max_len < 0:
        raise QuivercalcError(f"a length cap must be >= 0, not {max_len}")
    if start == end:
        yield ()
    walk: list[str] = []
    stack = [iter(d._out[start])] if max_len else []
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if walk:
                walk.pop()
            continue
        walk.append(e.eid)
        if e.tgt == end:
            yield tuple(walk)
        if len(walk) < max_len:
            stack.append(iter(d._out[e.tgt]))
        else:
            walk.pop()


def classify_digraph(d: Digraph) -> DigraphShape:
    """Connectivity and the two distinguished shapes.

    A graph is cyclically directed when it is connected and every vertex has
    exactly one incoming and one outgoing edge (it is then a directed cycle);
    linearly directed when it is connected, acyclic, and every vertex has at
    most one incoming and one outgoing edge (a directed chain).
    """
    valences = {v: d.valence(v) for v in d.vertices}
    connected = len(weak_components(d)) == 1
    cyclic = connected and all(val == (1, 1) for val in valences.values())
    linear = (
        connected
        and all(val.incoming <= 1 and val.outgoing <= 1 for val in valences.values())
        and not has_directed_cycle(d)
    )
    return DigraphShape(connected, cyclic, linear, valences)


# --- closed covers --------------------------------------------------------


class ClosedCover:
    """Two subgraphs covering the whole graph, with their intersection.

    Only that the pieces are subgraphs is checked here; make_closed_cover
    also checks that they cover.
    """

    def __init__(self, ambient: Digraph, left: Digraph, right: Digraph):
        self.ambient = ambient
        self.left = left
        self.right = right
        for piece in (left, right):
            if not (all(ambient.has_vertex(v) for v in piece.vertices)
                    and all(ambient.has_edge(e.eid) and ambient.edge(e.eid) == e
                            for e in piece.edges)):
                raise QuivercalcError("a piece of the cover is not a subgraph "
                                      "of the graph")
        vs = [v for v in ambient.vertices
              if left.has_vertex(v) and right.has_vertex(v)]
        es = [e.eid for e in ambient.edges
              if left.has_edge(e.eid) and right.has_edge(e.eid)]
        self.intersection = ambient.subgraph(vs, es)


def make_closed_cover(d: Digraph, left, right) -> ClosedCover:
    """Build a closed cover from two (vertices, edge_ids) pairs.

    Raises NotACover if the union misses a vertex or an edge, and the usual
    subgraph errors if a piece is not actually a subgraph.
    """
    lv, le = left
    rv, re_ = right
    lg = d.subgraph(lv, le)
    rg = d.subgraph(rv, re_)
    missing_v = [v for v in d.vertices
                 if not (lg.has_vertex(v) or rg.has_vertex(v))]
    missing_e = [e.eid for e in d.edges
                 if not (lg.has_edge(e.eid) or rg.has_edge(e.eid))]
    if missing_v or missing_e:
        raise NotACover(f"uncovered vertices {missing_v}, edges {missing_e}")
    return ClosedCover(d, lg, rg)


# --- the exit-path category ----------------------------------------------


def exit_path(d: Digraph):
    """The exit-path category of a digraph.

    Objects: one per vertex ("v:x") and one per edge ("e:f").  Besides
    identities there is one morphism v:x -> e:f for every way x occurs as an
    endpoint of f (a self-loop contributes two).  No two non-identity
    morphisms are composable, so the composition table holds only identity
    laws.  The category is a poset exactly when the graph has no self-loops.
    """
    from .fincat import FinCat

    objects = [f"v:{v}" for v in d.vertices] + [f"e:{e.eid}" for e in d.edges]
    ids = {ob: f"id:{ob}" for ob in objects}
    morphisms = [(ids[ob], ob, ob) for ob in objects]
    for e in d.edges:
        morphisms.append((f"src:{e.eid}", f"v:{e.src}", f"e:{e.eid}"))
        morphisms.append((f"tgt:{e.eid}", f"v:{e.tgt}", f"e:{e.eid}"))
    compose = {}
    for mid, src, tgt in morphisms:
        compose[(ids[tgt], mid)] = mid
        compose[(mid, ids[src])] = mid
    return FinCat(objects, morphisms, ids, compose)
