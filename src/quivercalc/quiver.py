"""Paths, free categories, and quiver morphisms.

The free category on a digraph has the vertices as objects and directed edge
paths as morphisms (the empty path at a vertex is its identity).  A quiver
morphism sends vertices to vertices and each edge to a PATH in the target --
possibly empty, which collapses the edge.  These are more flexible than
strict graph maps and compose by path substitution.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .digraph import (Digraph, Incomposable, QuivercalcError, UnknownVertex,
                      labellings, reaching, standard_digraph, walks,
                      weak_components)


class Path:
    """A head-to-tail chain of edges in a fixed digraph.

    The edges are listed in traversal order: the path (e1, e2) means e1
    followed by e2, so its composite in the free category is e2∘e1.
    """

    __slots__ = ("graph", "start", "edges", "end")

    def __init__(self, graph: Digraph, start: str, edges: Iterable[str]):
        self.graph = graph
        self.start = start
        self.edges = tuple(edges)
        if not graph.has_vertex(start):
            raise UnknownVertex(f"unknown vertex {start!r}")
        at = start
        for eid in self.edges:
            e = graph.edge(eid)
            if e.src != at:
                raise QuivercalcError(f"edge {eid!r} starts at {e.src!r}, not {at!r}")
            at = e.tgt
        self.end = at

    @classmethod
    def _trusted(cls, graph: Digraph, start: str, end: str,
                 walks: Iterable[tuple]) -> list["Path"]:
        """One path per walk, each known to chain from start to end, such as
        the walks that digraph.walks built from the graph's own edges;
        nothing is checked."""
        new = cls.__new__
        paths = []
        for w in walks:
            p = new(cls)
            p.graph = graph
            p.start = start
            p.edges = w
            p.end = end
            paths.append(p)
        return paths

    @classmethod
    def empty(cls, graph: Digraph, v: str) -> "Path":
        return cls(graph, v, ())

    @classmethod
    def of_edge(cls, graph: Digraph, eid: str) -> "Path":
        return cls(graph, graph.edge(eid).src, (eid,))

    @property
    def length(self) -> int:
        return len(self.edges)

    def then(self, other: "Path") -> "Path":
        if self.graph != other.graph or self.end != other.start:
            raise Incomposable("paths do not chain")
        return Path(self.graph, self.start, self.edges + other.edges)

    def vertices(self) -> list[str]:
        """All visited vertices in order, endpoints included."""
        out = [self.start]
        for eid in self.edges:
            out.append(self.graph.edge(eid).tgt)
        return out

    def key(self) -> tuple:
        return (self.length, tuple(self.graph.edge_index(e) for e in self.edges))

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return (self.graph == other.graph and self.start == other.start
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.start, self.edges))

    def __repr__(self):
        if not self.edges:
            return f"Path(∅ at {self.start})"
        return f"Path({'·'.join(self.edges)})"


def path_words(graph: Digraph, src: str, tgt: str, max_len: int) -> list[tuple]:
    """The edge ids of every path src -> tgt of length <= max_len, sorted by
    length then by edge indices lexicographically."""
    # walks come in lexicographic order, so a stable sort by length suffices
    return sorted(walks(graph, src, tgt, max_len), key=len)


def enumerate_paths(graph: Digraph, src: str, tgt: str, max_len: int) -> list[Path]:
    """The paths of path_words, in its order; each walk chains by
    construction, so no edge is looked up again."""
    return Path._trusted(graph, src, tgt, path_words(graph, src, tgt, max_len))


def hom_is_finite(graph: Digraph, src: str, tgt: str) -> tuple[bool, int | None]:
    """Whether the free category has finitely many morphisms src -> tgt,
    and the exact count when it does.

    The hom-set is infinite exactly when some directed cycle lies on a route
    from src to tgt.  A depth-first search from src that enters only
    vertices that can reach tgt visits exactly the vertices of those routes,
    and meets such a cycle exactly when an edge leads back into its own
    stack.  Otherwise its finishing order, reversed, is a topological order
    of the routes, along which the paths from src to each vertex add up.
    """
    s, t = graph.vertex_index(src), graph.vertex_index(tgt)
    succ = graph._succ
    back = reaching(graph, t)
    if s not in back:
        return (True, 0)
    open_ = {s: True}          # visited vertex -> still on the stack
    finished = []
    stack = [(s, iter(succ[s]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w in back:
                if w not in open_:
                    open_[w] = True
                    stack.append((w, iter(succ[w])))
                    break
                if open_[w]:
                    return (False, None)
        else:
            stack.pop()
            open_[v] = False
            finished.append(v)
    count = dict.fromkeys(finished, 0)
    count[s] = 1
    for v in reversed(finished):
        c = count[v]
        for w in succ[v]:
            if w in back:
                count[w] += c
    return (True, count[t])


# --- monotone maps of finite ordinals --------------------------------------


class DeltaMor:
    """A monotone map [p] -> [q] between finite ordinals, given by its
    value list (length p+1)."""

    def __init__(self, p: int, q: int, values: Iterable[int]):
        self.p = p
        self.q = q
        self.values = tuple(values)
        if p < 0 or q < 0:
            raise QuivercalcError("ordinals [p], [q] need p, q >= 0")
        if len(self.values) != p + 1:
            raise QuivercalcError("need one value per point of [p]")
        for v in self.values:
            if not 0 <= v <= q:
                raise QuivercalcError(f"value {v} outside [0..{q}]")
        for a, b in zip(self.values, self.values[1:]):
            if a > b:
                raise QuivercalcError("values must be monotone")

    @classmethod
    def identity(cls, p: int) -> "DeltaMor":
        return cls(p, p, range(p + 1))

    def __call__(self, i: int) -> int:
        return self.values[i]

    def __eq__(self, other):
        if not isinstance(other, DeltaMor):
            return NotImplemented
        return (self.p, self.q, self.values) == (other.p, other.q, other.values)

    def __hash__(self):
        return hash((self.p, self.q, self.values))

    def __repr__(self):
        return f"DeltaMor([{self.p}]→[{self.q}]: {list(self.values)})"


def compose_delta(g: DeltaMor, f: DeltaMor) -> DeltaMor:
    if f.q != g.p:
        raise Incomposable("ordinal maps not composable")
    return DeltaMor(f.p, g.q, [g(v) for v in f.values])


def factor_active_closed(f: DeltaMor) -> tuple[DeltaMor, DeltaMor]:
    """The unique factorization of a monotone map as an endpoint-preserving
    (active) map followed by a convex inclusion (closed map)."""
    lo, hi = f.values[0], f.values[-1]
    mid = hi - lo
    active = DeltaMor(f.p, mid, [v - lo for v in f.values])
    closed = DeltaMor(mid, f.q, [lo + j for j in range(mid + 1)])
    return active, closed


def is_active_delta(f: DeltaMor) -> bool:
    return f.values[0] == 0 and f.values[-1] == f.q


def is_closed_delta(f: DeltaMor) -> bool:
    return all(b == a + 1 for a, b in zip(f.values, f.values[1:]))


# --- quiver morphisms -------------------------------------------------------


class QuiverMor:
    """Vertices to vertices, edges to paths; empty paths collapse edges."""

    def __init__(self, source: Digraph, target: Digraph,
                 vertex_map: dict, edge_paths: dict):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.edge_paths = dict(edge_paths)

        for v in source.vertices:
            if v not in self.vertex_map:
                raise UnknownVertex(f"vertex {v!r} has no image")
            target.vertex_index(self.vertex_map[v])
        for e in source.edges:
            p = self.edge_paths.get(e.eid)
            if p is None:
                raise QuivercalcError(f"edge {e.eid!r} has no image path")
            if p.graph != target:
                raise QuivercalcError(
                    f"image path of {e.eid!r} lives in the wrong graph")
            if p.start != self.vertex_map[e.src] or p.end != self.vertex_map[e.tgt]:
                raise QuivercalcError(
                    f"image path of {e.eid!r} has the wrong endpoints")

    @classmethod
    def identity(cls, d: Digraph) -> "QuiverMor":
        return cls(d, d, {v: v for v in d.vertices},
                   {e.eid: Path.of_edge(d, e.eid) for e in d.edges})

    def map_path(self, p: Path) -> Path:
        if p.graph != self.source:
            raise QuivercalcError("path lives in the wrong graph")
        return Path(self.target, self.vertex_map[p.start],
                    [e for eid in p.edges for e in self.edge_paths[eid].edges])

    def __eq__(self, other):
        if not isinstance(other, QuiverMor):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.vertex_map == other.vertex_map
                and self.edge_paths == other.edge_paths)

    def __hash__(self):
        return hash((tuple(sorted(self.vertex_map.items())),
                     tuple(sorted((k, p.edges) for k, p in self.edge_paths.items()))))

    def __repr__(self):
        return f"QuiverMor({self.vertex_map}, " + \
            "{" + ", ".join(f"{e}↦{list(p.edges)}"
                            for e, p in self.edge_paths.items()) + "})"


def compose_quiver_mor(g: QuiverMor, f: QuiverMor) -> QuiverMor:
    """g∘f by path substitution."""
    if f.target != g.source:
        raise Incomposable("quiver morphisms not composable")
    vmap = {v: g.vertex_map[f.vertex_map[v]] for v in f.source.vertices}
    paths = {e.eid: g.map_path(f.edge_paths[e.eid]) for e in f.source.edges}
    return QuiverMor(f.source, g.target, vmap, paths)


@dataclass
class QuiverMorClass:
    idle: bool
    closed: bool
    creation: bool
    active: bool
    refinement: bool


def classify_quiver_mor(f: QuiverMor) -> QuiverMorClass:
    """Which of the five structural classes a quiver morphism belongs to.

    idle: nothing is stretched (every image path has length <= 1).
    closed: an isomorphism onto a subgraph (injective, no collapsing).
    creation: idle and surjective on vertices and on edges.
    active: every target edge appears in some image path.
    refinement: an iso-composite of single-edge subdivisions; the image paths
    cut the target's edges into disjoint runs whose interior vertices are
    fresh and used exactly once.
    """
    paths = list(f.edge_paths.values())
    idle = all(p.length <= 1 for p in paths)

    vmap_values = [f.vertex_map[v] for v in f.source.vertices]
    v_injective = len(set(vmap_values)) == len(vmap_values)
    v_surjective = set(vmap_values) == set(f.target.vertices)

    unit_edges = [p.edges[0] for p in paths if p.length == 1]
    closed = (idle and v_injective
              and all(p.length == 1 for p in paths)
              and len(set(unit_edges)) == len(unit_edges))

    hit_edges = set(unit_edges)
    creation = idle and v_surjective and hit_edges == set(e.eid for e in f.target.edges)

    used = set()
    for p in paths:
        used.update(p.edges)
    active = used >= set(e.eid for e in f.target.edges)

    refinement = _is_refinement(f, v_injective)
    return QuiverMorClass(idle, closed, creation, active, refinement)


def _is_refinement(f: QuiverMor, v_injective: bool) -> bool:
    # (1) injective on vertices, (2) no collapsed edges,
    # (3) each target edge traversed exactly once over all image paths,
    # (4) each non-image target vertex is strictly inside exactly one image
    #     path position, and image vertices are never strictly inside one.
    if not v_injective:
        return False
    if any(p.length == 0 for p in f.edge_paths.values()):
        return False
    edge_uses: dict[str, int] = {}
    interior_uses: dict[str, int] = {}
    for e in f.source.edges:
        p = f.edge_paths[e.eid]
        for eid in p.edges:
            edge_uses[eid] = edge_uses.get(eid, 0) + 1
        for w in p.vertices()[1:-1]:
            interior_uses[w] = interior_uses.get(w, 0) + 1
    if any(n != 1 for n in edge_uses.values()):
        return False
    if set(edge_uses) != set(e.eid for e in f.target.edges):
        return False
    image = set(f.vertex_map.values())
    for w in f.target.vertices:
        inside = interior_uses.get(w, 0)
        if w in image:
            if inside != 0:
                return False
        elif inside != 1:
            return False
    return True


def delta_mor_to_quiver(f: DeltaMor) -> QuiverMor:
    """A monotone map [p] -> [q] as a quiver morphism of directed chains."""
    src = standard_digraph("linear", f.p)
    tgt = standard_digraph("linear", f.q)
    vmap = {str(i): str(f(i)) for i in range(f.p + 1)}
    paths = {}
    for i in range(f.p):
        a, b = f(i), f(i + 1)
        paths[f"e{i}"] = Path(tgt, str(a), [f"e{j}" for j in range(a, b)])
    return QuiverMor(src, tgt, vmap, paths)


# --- components and hom counting --------------------------------------------


def components(d: Digraph) -> list[Digraph]:
    """The weakly connected components, as subgraphs; d itself when it is
    one component."""
    comps = weak_components(d)
    if len(comps) == 1:
        return [d]
    label = {v: c for c, verts in enumerate(comps) for v in verts}
    edges = [[] for _ in comps]
    for e in d.edges:
        edges[label[e.src]].append(e)
    return [Digraph(verts, es) for verts, es in zip(comps, edges)]


def _path_options(tgt: Digraph, a: str, b: str,
                  path_cap: int | None) -> tuple[list[Path], bool]:
    """All candidate image paths a -> b, those up to path_cap edges long;
    second value says the list is exact, i.e. holds every path a -> b."""
    finite, count = hom_is_finite(tgt, a, b)
    if path_cap is None:
        if not finite:
            raise QuivercalcError(f"infinitely many paths {a!r} -> {b!r}; "
                                  "a path cap is required")
        path_cap = len(tgt.edges)   # the routes are acyclic: no edge repeats
    paths = enumerate_paths(tgt, a, b, path_cap)
    return paths, finite and len(paths) == count


def _first_infinite(src: Digraph, infinite: set) -> tuple[int, int]:
    """The pair in infinite that the vertex assignments, in product order,
    meet first: the least, over the edges (ahead, back or loop), of the
    least assignment putting the edge on one, read edge by edge."""
    ends = list(zip(src._src, src._tgt))
    ahead, back = min(infinite), min(infinite, key=lambda p: p[::-1])
    loop = min((p for p in infinite if p[0] == p[1]), default=None)
    least = [{s: p[0], t: p[1]} for s, t in ends
             for p in [ahead if s < t else back if t < s else loop] if p]
    # the order of the full assignments, read off their nonzero entries
    at = min(least, key=lambda x: [(-v, x[v]) for v in sorted(x) if x[v]]).get
    return next(p for p in ((at(s, 0), at(t, 0)) for s, t in ends)
                if p in infinite)


def enumerate_quiver_mors(src: Digraph, tgt: Digraph,
                          path_cap: int | None = None, limit: int | None = None
                          ) -> tuple[list[QuiverMor], int, bool]:
    """The quiver morphisms src -> tgt (only the first `limit` with a limit),
    how many there are, and whether path_cap cut the paths of a pair of
    target vertices that the vertex assignments meet (every pair; only each
    (a, a) for a source of loops; none for one without edges).  With no
    cap, the first infinite pair met raises."""
    vs, es = tgt.vertices, [e.eid for e in src.edges]
    n, loops = len(vs) if es else 0, src._src == src._tgt
    pairs = [(a, b) for a in range(n) for b in range(n) if a == b or not loops]
    infinite = {(a, b) for a, b in pairs if path_cap is None
                and not hom_is_finite(tgt, vs[a], vs[b])[0]}
    if infinite:    # raises, naming the first infinite pair met
        _path_options(tgt, *(vs[i] for i in _first_infinite(src, infinite)), None)
    hom, pre = [{} for _ in vs], [{} for _ in vs]
    table = {(a, b): _path_options(tgt, vs[a], vs[b], path_cap) for a, b in pairs}
    for (a, b), (paths, _) in table.items():
        if paths:
            hom[a][b] = pre[b][a] = paths
    mors, count = [], 0
    for assignment, options in labellings(src, hom, pre):
        k = math.prod(map(len, options))
        room = k if limit is None else min(k, limit - len(mors))
        if room:
            vmap = {v: vs[a] for v, a in zip(src.vertices, assignment)}
            mors.extend(QuiverMor(src, tgt, vmap, dict(zip(es, choice)))
                        for choice in itertools.islice(itertools.product(*options),
                                                       room))
        count += k
    return mors, count, not all(exact for _, exact in table.values())


def hom_quiver_count(src: Digraph, tgt: Digraph,
                     path_cap: int | None = None) -> tuple[int, bool]:
    """Count quiver morphisms componentwise: a product over source components
    of a sum over target components, each read from the option table with
    no morphism built."""
    total = 1
    truncated = False
    tgt_comps = components(tgt)
    for cs in components(src):
        ways = 0
        for ct in tgt_comps:
            _, count, trunc = enumerate_quiver_mors(cs, ct, path_cap, limit=0)
            ways += count
            truncated = truncated or trunc
        total *= ways
    return total, truncated
