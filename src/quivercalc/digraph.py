"""Finite directed graphs (quivers) with named vertices and edges.

Vertices and edges are opaque strings.  Degenerate loops are never stored:
every vertex implicitly carries one, and graph morphisms are allowed to
collapse a real edge onto the degenerate loop at a vertex.  All enumeration
follows declaration order, so results are reproducible.

A Digraph keeps one adjacency, on indices, built in one pass over the
edges: per edge the indices of its endpoints, and per vertex the indices of
its out-edges, of their targets and of the sources of its in-edges.  Every
search below runs on these lists and turns indices back into names only
where it yields; names are looked up only at the boundary.

Every graph traversal of the package lives here, written with explicit
stacks, so that no graph size runs into Python's recursion limit.  A search
visits only what can answer it: walks enter only vertices that can still
reach their end, and components label each vertex once, then read each edge.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
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


def json_arrows(entries, what: str) -> list[tuple]:
    """(id, src, tgt) of each entry of a JSON list of {"id", "src", "tgt"}
    objects, the edges of a digraph or the morphisms of a category, with
    src and tgt strings; an error names the first entry, counted from 0,
    that is not such an object."""
    if not isinstance(entries, list):
        raise QuivercalcError(f"{what}s must be a list of objects with "
                              "'id', 'src' and 'tgt'")
    try:
        arrows = [(e["id"], e["src"], e["tgt"]) for e in entries]
        if all(isinstance(s, str) and isinstance(t, str) for _, s, t in arrows):
            return arrows
    except (KeyError, TypeError):
        pass
    for n, entry in enumerate(entries):     # one of them raises
        if not isinstance(entry, dict):
            raise QuivercalcError(f"{what} entry {n} is not an object with "
                                  "'id', 'src' and 'tgt'")
        for key in ("id", "src", "tgt"):
            if key not in entry:
                raise QuivercalcError(f"{what} entry {n} has no {key!r}")
        for key in ("src", "tgt"):
            if not isinstance(entry[key], str):
                raise QuivercalcError(f"{what} entry {n} has a non-string {key!r}")


class Edge(NamedTuple):
    eid: str
    src: str
    tgt: str


class Valence(NamedTuple):
    incoming: int
    outgoing: int


class Digraph:
    """A finite directed graph.  Immutable once built, so it keeps what its
    searches find: its last backward search (see reaching), its weak
    components (see weak_components) and its cycle length bound (see
    emm.cycle_length_bound)."""

    def __init__(self, vertices: Iterable[str], edges: Iterable):
        self.vertices = tuple(vertices)
        self.edges = tuple(map(Edge._make, edges))

        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        if len(self._vindex) != len(self.vertices):
            raise QuivercalcError("duplicate vertex names")
        self._eindex = {e.eid: i for i, e in enumerate(self.edges)}
        if len(self._eindex) != len(self.edges):
            raise QuivercalcError("duplicate edge names")

        # the one adjacency, on indices: per edge its endpoints, per vertex
        # its out-edges, their targets, and the source of each in-edge
        index = self._vindex
        n = len(self.vertices)
        out: list[list[int]] = [[] for _ in itertools.repeat(None, n)]
        succ: list[list[int]] = [[] for _ in itertools.repeat(None, n)]
        pred: list[list[int]] = [[] for _ in itertools.repeat(None, n)]
        src, tgt = [], []
        for j, e in enumerate(self.edges):
            s = index.get(e.src)
            if s is None:
                raise UnknownVertex(f"edge {e.eid!r} has undeclared source {e.src!r}")
            t = index.get(e.tgt)
            if t is None:
                raise UnknownVertex(f"edge {e.eid!r} has undeclared target {e.tgt!r}")
            src.append(s)
            tgt.append(t)
            out[s].append(j)
            succ[s].append(t)
            pred[t].append(s)
        self._out, self._succ, self._pred = out, succ, pred
        self._src, self._tgt = tuple(src), tuple(tgt)
        # (target, the vertices that can reach it): the last backward search
        self._reach: tuple[int, set[int]] | None = None
        # the weak components, found by the first weak_components call
        self._weak: tuple[tuple[str, ...], ...] | None = None
        # emm.cycle_length_bound's answer, -1 until it is first asked
        self._bound: int | None = -1

    def edge(self, eid: str) -> Edge:
        try:
            return self.edges[self._eindex[eid]]
        except KeyError:
            raise UnknownEdge(f"unknown edge {eid!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._vindex

    def has_edge(self, eid: str) -> bool:
        return eid in self._eindex

    def out_edges(self, v: str) -> list[Edge]:
        return [self.edges[j] for j in self._out[self.vertex_index(v)]]

    def in_edges(self, v: str) -> list[Edge]:
        i = self.vertex_index(v)
        tgt = self._tgt
        return [self.edges[j] for j in sorted(
            j for u in set(self._pred[i]) for j in self._out[u] if tgt[j] == i)]

    def valence(self, v: str) -> Valence:
        i = self.vertex_index(v)
        return Valence(len(self._pred[i]), len(self._out[i]))

    def vertex_index(self, v: str) -> int:
        if v not in self._vindex:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return self._vindex[v]

    def edge_index(self, eid: str) -> int:
        if eid not in self._eindex:
            raise UnknownEdge(f"unknown edge {eid!r}")
        return self._eindex[eid]

    def subgraph(self, vertices: Iterable[str], edge_ids: Iterable[str]) -> "Digraph":
        vertices, edge_ids = list(vertices), list(edge_ids)
        for x in vertices:
            self.vertex_index(x)
        vset = set(vertices)
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
        for x in edge_ids:
            self.edge_index(x)
        return Digraph(vs, es)

    def __eq__(self, other):
        if self is other:
            return True
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
        edges = json_arrows(data["edges"], "edge")
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


def component_labels(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The connected components of the graph on 0..n-1 whose edges are the
    given pairs: label[i] is the component of i, the components numbered
    in order of their least members."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * n
    count = 0
    for i in range(n):
        if label[i] < 0:
            for j in reachable(i, adj.__getitem__):
                label[j] = count
            count += 1
    return label


def weak_components(d: Digraph) -> list[list[str]]:
    """Connected components of the underlying undirected graph,
    each listed in vertex declaration order.

    The graph keeps them, so only the first call for a graph searches;
    every call returns new lists."""
    if d._weak is None:
        label = component_labels(len(d.vertices), zip(d._src, d._tgt))
        comps: list[list[str]] = [[] for _ in range(max(label, default=-1) + 1)]
        for v, c in zip(d.vertices, label):
            comps[c].append(v)
        d._weak = tuple(map(tuple, comps))
    return [list(c) for c in d._weak]


def strong_components(d: Digraph) -> list[list[str]]:
    """Strongly connected components in reverse topological order: every
    edge between two components points into an earlier one.

    Tarjan, "Depth-first search and linear graph algorithms", SIAM J.
    Comput. 1 (1972), run with an explicit stack of successor iterators.
    """
    succ, names = d._succ, d.vertices
    n = len(names)
    index = [-1] * n
    low = [0] * n
    on_open = [False] * n
    open_: list[int] = []          # Tarjan's stack of unfinished vertices
    comps: list[list[str]] = []
    seen = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = seen
        seen += 1
        open_.append(root)
        on_open[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = seen
                    seen += 1
                    open_.append(w)
                    on_open[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_open[w]:
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
                        on_open[comp[-1]] = False
                    comps.append([names[w] for w in comp])
    return comps


def reaching(d: Digraph, end: int) -> set[int]:
    """The indices of the vertices that can reach the vertex of index end,
    end included; callers must not change the set.

    The graph keeps the last answer, so the searches of one hom-set
    (hom_is_finite, then walks) search backward from its target once.  It
    keeps only the last, so memory does not grow with the targets asked.
    """
    slot = d._reach
    if slot is None or slot[0] != end:
        slot = d._reach = (end, reachable(end, d._pred.__getitem__))
    return slot[1]


def walks(d: Digraph, start: str, end: str, max_len: int) -> list[tuple]:
    """Every walk start -> end with at most max_len edges, as a tuple of edge
    ids, ordered by length, then by edge indices: depth first with edges in
    declaration order, filed by length, entering only vertices that can
    still reach end (Johnson's pruning, as in lyndon_words)."""
    s, t = d.vertex_index(start), d.vertex_index(end)
    if max_len < 0:
        raise QuivercalcError(f"a length cap must be >= 0, not {max_len}")
    back = reaching(d, t)
    out, succ, tgt = d._out, d._succ, d._tgt
    eids = tuple(d._eindex)                 # edge ids, in declaration order
    # steps[v]: the edges out of v into back; the graph's own lists when all
    # vertices are in back, else each listed when a step first enters v
    steps = out if len(back) == len(out) else [None] * len(out)
    found: dict[int, list[tuple]] = defaultdict(list, {0: [()]} if s == t else {})
    walk: list[str] = []
    stack = [(j for j in out[s] if tgt[j] in back)] if max_len and s in back else []
    while stack:
        for j in stack[-1]:
            walk.append(eids[j])
            n, w = len(walk), tgt[j]
            if w == t:
                found[n].append(tuple(walk))
            if n < max_len:
                step = steps[w]
                if step is None:
                    step = steps[w] = out[w] if back.issuperset(succ[w]) else [
                        j for j in out[w] if tgt[j] in back]
                stack.append(iter(step))
                break
            walk.pop()
        else:
            stack.pop()
            if walk:
                walk.pop()
    return list(itertools.chain.from_iterable(found[n] for n in sorted(found)))


def labellings(d: Digraph, hom: list[dict], pre: list[dict]
               ) -> Iterator[tuple[tuple, list]]:
    """Each labelling of d's vertices by indices into hom under which each
    edge s -> t, labelled a -> b, has a non-empty entry hom[a][b] (keys
    ascend; pre[b][a] is hom[a][b]), in lexicographic order, with the
    entries of its edges.  Forward checking (Haralick & Elliott, 1980): each
    vertex is offered only the labels its loops and labelled neighbours allow."""
    n, ends, pred, succ = len(d.vertices), list(zip(d._src, d._tgt)), d._pred, d._succ
    labels, lab, its, v = range(len(hom)), [0] * n, [None] * n, 0
    if not n:
        yield (), []
    while 0 <= v < n:
        if its[v] is None:
            offer = labels
            for u in pred[v]:
                if u < v:
                    r = hom[lab[u]]
                    offer = r if offer is labels else filter(r.__contains__, offer)
            for u in succ[v]:
                if u < v:
                    r = pre[lab[u]]
                    offer = r if offer is labels else filter(r.__contains__, offer)
            if v in pred[v]:
                offer = filter(lambda b: b in hom[b], offer)
            its[v] = iter(offer)
        for lab[v] in its[v]:
            if v + 1 < n:
                v += 1
                break
            yield tuple(lab), [hom[lab[s]][lab[t]] for s, t in ends]
        else:
            its[v] = None
            v -= 1


def lyndon_rotation(seq) -> tuple[int, int]:
    """(start, period) of a nonempty sequence read cyclically: its least
    rotation is seq[start:] + seq[:start], and period is the length of its
    primitive root, so the sequence is primitive exactly when period ==
    len(seq).  This is the one place the package decides either.

    Duval's factorization of seq + seq into Lyndon words (Duval,
    "Factorizing words over an ordered alphabet", J. Algorithms 4 (1983)):
    the last run of equal Lyndon factors that starts before len(seq) starts
    at the least rotation, and its factor is the primitive root.
    """
    n = len(seq)
    if not n:
        raise QuivercalcError("an empty sequence has no least rotation")
    s = tuple(seq) * 2
    i = 0
    while i < n:
        # s[i:j] is a power of the Lyndon word s[i:i + j - k], then a
        # proper prefix of it
        start, j, k = i, i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        period = j - k
        while i <= k:
            i += period
    return start, period


def lyndon_words(d: Digraph, max_len: int) -> list[tuple[int, ...]]:
    """Every closed walk with 1..max_len edges whose sequence of edge
    indices is a Lyndon word, i.e. strictly less than each of its proper
    rotations, as that word; ordered by length, then lexicographically.
    These are the primitive closed walks up to rotation, each once, in its
    least rotation.

    A Lyndon word starts with its least letter, so after a first edge i the
    search takes only edges of index >= i, and only into vertices that can
    still reach i's source over such edges: it never extends a walk that
    cannot close up (the pruning of Johnson, "Finding all the elementary
    circuits of a directed graph", SIAM J. Comput. 4 (1975), applied to
    closed walks).  It also extends only prenecklaces, prefixes of some
    necklace: a prenecklace a_1..a_n whose longest Lyndon prefix has length
    p extends by b exactly when b >= a_(n+1-p), keeping p when b equals it
    and making n+1 the new p otherwise; it is a Lyndon word when p = n
    (Ruskey, Savage & Wang, "Generating necklaces", J. Algorithms 13
    (1992)).
    """
    if max_len < 0:
        raise QuivercalcError(f"a length cap must be >= 0, not {max_len}")
    if not max_len:
        return []
    src, tgt, out = d._src, d._tgt, d._out
    into: list[list[int]] = [[] for _ in d.vertices]    # in-edges, in order
    for j, t in enumerate(tgt):
        into[t].append(j)
    found: dict[int, list[tuple]] = defaultdict(list)    # by length, as in walks
    for i, end in enumerate(src):
        back = reachable(end, lambda v: [src[j] for j in into[v] if j >= i])
        if tgt[i] not in back:
            continue
        # usable[v]: the edges out of v that the search may take, as
        # (index, target), in index order
        usable = {v: [(j, tgt[j]) for j in out[v] if j >= i and tgt[j] in back]
                  for v in back}
        if tgt[i] == end:
            found[1].append((i,))
        word = [i]
        # a frame extends the word of length n, whose Lyndon prefix has
        # length p, from the end of its walk, by letters >= word[n - p]
        stack = [(iter(usable[tgt[i]]), 1, 1)] if max_len > 1 else []
        while stack:
            it, n, p = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                continue
            j, w = nxt
            least = word[n - p]
            if j < least:
                continue
            del word[n:]
            word.append(j)
            if j > least:
                p = n + 1
                if w == end:
                    found[p].append(tuple(word))
            if n + 1 < max_len:
                stack.append((iter(usable[w]), n + 1, p))
    return list(itertools.chain.from_iterable(found[n] for n in sorted(found)))


def classify_digraph(d: Digraph) -> DigraphShape:
    """Connectivity and the two distinguished shapes.

    A graph is cyclically directed when it is connected and every vertex has
    exactly one incoming and one outgoing edge (it is then a directed cycle);
    linearly directed when it is connected, acyclic, and every vertex has at
    most one incoming and one outgoing edge (a directed chain).  A connected
    graph of such valences is a directed cycle or a directed chain, so the
    chains are the connected ones of those valences that are not cycles.
    """
    pred, out = d._pred, d._out
    valences = {v: Valence(len(pred[i]), len(out[i]))
                for i, v in enumerate(d.vertices)}
    connected = len(weak_components(d)) == 1
    cyclic = connected and all(val == (1, 1) for val in valences.values())
    linear = (
        connected and not cyclic
        and all(val.incoming <= 1 and val.outgoing <= 1 for val in valences.values())
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
