"""Disjoint unions of circles and connected quivers, and maps between them.

An object here is a finite list of circles together with a finite list of
connected digraphs.  Maps are described per TARGET component: a target
circle either winds around a source circle (with a positive weight), sits at
a vertex of a source quiver, or wraps a directed cycle of a source quiver a
positive number of times; a target quiver receives a quiver morphism FROM it
INTO a source quiver (quivers embed contravariantly).  There are no maps
from a circle to a quiver, so hom-sets whose target has a quiver but whose
source has none are empty.

Factorization homology assigns to such an object: one trace class per
circle, one representation per quiver; maps act by power operators, traces,
holonomy around cycles, and pullback of representations.  Cutting edges of a
graph (or a circle) yields a two-stage gluing whose coequalizer recovers the
invariant of the glued object -- verify_excision checks this exhaustively.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .digraph import (Digraph, Incomposable, QuivercalcError, UnknownEdge,
                      classify_digraph, standard_digraph, strong_components,
                      walks)
from .quiver import (Path, QuiverMor, compose_quiver_mor, components,
                     enumerate_quiver_mors)
# enumerate_reps and pullback_rep are no longer called here; perfbench's
# traced run still wraps them under these names
from .fincat import (FinCat, Representation, compile_pullback, enumerate_reps,
                     index_program, path_steps, pullback_rep, rep_tuples)
from .hochschild import UnionFind, compute_hh, least_rotation_index, psi


# --- directed cycles --------------------------------------------------------


class DirectedCycle:
    """A constant cycle at a vertex, or a primitive closed walk up to
    rotation (stored in its least rotation)."""

    def __init__(self, graph: Digraph, vertex: str | None, edges=()):
        self.graph = graph
        self.edges = tuple(edges)
        if self.edges:
            if vertex is not None:
                raise QuivercalcError("a walk determines its own basepoint")
            p = Path(graph, graph.edge(self.edges[0]).src, self.edges)
            if p.end != p.start:
                raise QuivercalcError("cycle walks must close up")
            if primitive_period(self.edges) != len(self.edges):
                raise QuivercalcError("cycle walks must be primitive")
            self.edges = _least_edge_rotation(graph, self.edges)
            self.vertex = graph.edge(self.edges[0]).src
        else:
            if vertex is None:
                raise QuivercalcError("a constant cycle needs a vertex")
            graph.vertex_index(vertex)
            self.vertex = vertex

    @classmethod
    def constant(cls, graph: Digraph, vertex: str) -> "DirectedCycle":
        return cls(graph, vertex)

    @classmethod
    def walk(cls, graph: Digraph, edges) -> "DirectedCycle":
        return cls(graph, None, edges)

    @property
    def is_constant(self) -> bool:
        return not self.edges

    @property
    def length(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, DirectedCycle):
            return NotImplemented
        return (self.graph == other.graph and self.vertex == other.vertex
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertex, self.edges))

    def __repr__(self):
        if self.is_constant:
            return f"DirectedCycle(at {self.vertex})"
        return f"DirectedCycle({'·'.join(self.edges)})"


def primitive_period(edges) -> int:
    """The smallest d dividing len(edges) with the sequence d-periodic."""
    n = len(edges)
    for d in range(1, n):
        if n % d == 0 and edges[d:] + edges[:d] == tuple(edges):
            return d
    return n


def _least_edge_rotation(graph: Digraph, edges) -> tuple:
    idx = least_rotation_index([graph.edge_index(e) for e in edges])
    return tuple(edges[idx:] + edges[:idx])


def enumerate_directed_cycles(graph: Digraph, max_len: int) -> list[DirectedCycle]:
    """Constant cycles at every vertex, then primitive closed walks up to
    rotation of length <= max_len, ordered by (length, edge indices)."""
    out = [DirectedCycle.constant(graph, v) for v in graph.vertices]
    seen: set[tuple] = set()
    cycles: list[DirectedCycle] = []
    for v in graph.vertices:
        for walk in walks(graph, v, v, max_len):
            # the least rotation starts with the least edge, so only the
            # walks that do are candidates
            if (walk and min(walk, key=graph.edge_index) == walk[0]
                    and primitive_period(walk) == len(walk)):
                z = DirectedCycle.walk(graph, walk)
                if z.edges not in seen:
                    seen.add(z.edges)
                    cycles.append(z)
    cycles.sort(key=lambda z: (z.length,
                               tuple(graph.edge_index(e) for e in z.edges)))
    return out + cycles


def cycle_length_bound(graph: Digraph) -> int | None:
    """A bound on primitive cycle length, or None when none exists.

    Primitive closed walks are bounded exactly when every strongly connected
    piece is a bare simple cycle; two distinct loops through a common vertex
    already generate primitive walks of unbounded length.
    """
    bound = 0
    for comp in strong_components(graph):
        cset = set(comp)
        internal = [e for e in graph.edges if e.src in cset and e.tgt in cset]
        if not internal:
            continue
        outs: dict[str, int] = {v: 0 for v in comp}
        for e in internal:
            outs[e.src] += 1
        if any(n != 1 for n in outs.values()) or len(internal) != len(comp):
            return None
        bound = max(bound, len(comp))
    return bound


# --- objects ----------------------------------------------------------------


class MObject:
    """circles: how many circle components; quivers: the connected graphs."""

    def __init__(self, circles: int, quivers):
        self.circles = circles
        self.quivers = tuple(quivers)
        if not isinstance(circles, int) or circles < 0:
            raise QuivercalcError(
                f"the circle count must be an integer >= 0, not {circles!r}")
        for q in self.quivers:
            if not classify_digraph(q).connected:
                raise QuivercalcError("component quivers must be connected; "
                                      "split the graph first")

    def __eq__(self, other):
        if not isinstance(other, MObject):
            return NotImplemented
        return self.circles == other.circles and self.quivers == other.quivers

    def __hash__(self):
        return hash((self.circles, self.quivers))

    def __repr__(self):
        return f"MObject({self.circles} circles, {len(self.quivers)} quivers)"

    def to_json(self) -> dict:
        return {"circles": self.circles,
                "quivers": [q.to_json() for q in self.quivers]}

    @classmethod
    def from_json(cls, data: dict) -> "MObject":
        if not isinstance(data, dict) or "circles" not in data or "quivers" not in data:
            raise QuivercalcError("object JSON needs 'circles' and 'quivers'")
        quivers = []
        for qj in data["quivers"]:
            quivers.extend(components(Digraph.from_json(qj)))
        return cls(data["circles"], quivers)


def mobject_of_digraph(d: Digraph) -> MObject:
    return MObject(0, components(d))


def circle_object(k: int = 1) -> MObject:
    return MObject(k, [])


# --- morphisms ---------------------------------------------------------------


@dataclass(frozen=True)
class CircleEndo:
    circle: int          # source circle index
    weight: int          # winding, >= 1


@dataclass(frozen=True)
class VertexToCircle:
    quiver: int          # source quiver index
    vertex: str


@dataclass(frozen=True)
class CycleToCircle:
    quiver: int
    cycle: DirectedCycle  # nonconstant
    weight: int           # >= 1


@dataclass(frozen=True)
class QuivPart:
    quiver: int          # source quiver index
    mor: QuiverMor       # target quiver -> that source quiver


class MMor:
    """One component description per target circle and per target quiver."""

    def __init__(self, source: MObject, target: MObject,
                 circle_parts, quiver_parts):
        self.source = source
        self.target = target
        self.circle_parts = tuple(circle_parts)
        self.quiver_parts = tuple(quiver_parts)
        if len(self.circle_parts) != target.circles:
            raise QuivercalcError("need one component per target circle")
        if len(self.quiver_parts) != len(target.quivers):
            raise QuivercalcError("need one component per target quiver")

        for part in self.circle_parts:
            if isinstance(part, CircleEndo):
                if not 0 <= part.circle < source.circles:
                    raise QuivercalcError(f"no source circle {part.circle}")
                if part.weight < 1:
                    raise QuivercalcError("circle weights are >= 1")
            elif isinstance(part, VertexToCircle):
                source.quivers[part.quiver].vertex_index(part.vertex)
            elif isinstance(part, CycleToCircle):
                if part.cycle.graph != source.quivers[part.quiver]:
                    raise QuivercalcError("the cycle lies in another quiver")
                if part.cycle.is_constant:
                    raise QuivercalcError("constant cycles are vertex components")
                if part.weight < 1:
                    raise QuivercalcError("circle weights are >= 1")
            else:
                raise QuivercalcError(f"not a circle component: {part!r}")
        for beta, part in enumerate(self.quiver_parts):
            if not isinstance(part, QuivPart):
                raise QuivercalcError(f"not a quiver component: {part!r}")
            if part.mor.source != target.quivers[beta]:
                raise QuivercalcError(f"quiver component {beta} starts "
                                      "at the wrong quiver")
            if part.mor.target != source.quivers[part.quiver]:
                raise QuivercalcError(f"quiver component {beta} ends "
                                      "at the wrong quiver")

    def __eq__(self, other):
        if not isinstance(other, MMor):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.circle_parts == other.circle_parts
                and self.quiver_parts == other.quiver_parts)

    def __hash__(self):
        return hash((self.circle_parts, self.quiver_parts))

    def __repr__(self):
        return f"MMor({list(self.circle_parts)}, {list(self.quiver_parts)})"


def identity_m(m: MObject) -> MMor:
    return MMor(m, m,
                [CircleEndo(i, 1) for i in range(m.circles)],
                [QuivPart(a, QuiverMor.identity(q))
                 for a, q in enumerate(m.quivers)])


def hom_m(source: MObject, target: MObject, max_len: int = 6,
          max_weight: int = 3, path_cap: int = 4) -> tuple[list[MMor], bool]:
    """All maps source -> target under the given caps, plus a truncation
    flag: False means the list is provably complete, True means some family
    (weights, long cycles, long image paths) was cut off."""
    truncated = False

    circle_options: list = []
    if target.circles:
        opts = []
        for i in range(source.circles):
            opts.extend(CircleEndo(i, w) for w in range(1, max_weight + 1))
        if source.circles:
            truncated = True  # weights are unbounded
        for a, q in enumerate(source.quivers):
            opts.extend(VertexToCircle(a, v) for v in q.vertices)
        for a, q in enumerate(source.quivers):
            bound = cycle_length_bound(q)
            if bound is None or bound > max_len:
                truncated = True
            cycles = [z for z in enumerate_directed_cycles(q, max_len)
                      if not z.is_constant]
            if cycles:
                truncated = True  # weights again
            opts.extend(CycleToCircle(a, z, w)
                        for z in cycles for w in range(1, max_weight + 1))
        circle_options = [opts] * target.circles

    quiver_options = []
    for beta, tq in enumerate(target.quivers):
        opts = []
        for a, sq in enumerate(source.quivers):
            mors, trunc = enumerate_quiver_mors(tq, sq, path_cap)
            truncated = truncated or trunc
            opts.extend(QuivPart(a, f) for f in mors)
        quiver_options.append(opts)

    out = []
    for combo in itertools.product(*circle_options, *quiver_options):
        cparts = combo[:target.circles]
        qparts = combo[target.circles:]
        out.append(MMor(source, target, cparts, qparts))
    return out, truncated


def _push_cycle(q: QuiverMor, z: DirectedCycle):
    """Map a cycle through a quiver morphism; returns either
    ('vertex', v) when everything collapses or ('walk', primitive, k)."""
    edges: list[str] = []
    for eid in z.edges:
        edges.extend(q.edge_paths[eid].edges)
    if not edges:
        base = z.vertex
        return ("vertex", q.vertex_map[base])
    p = primitive_period(tuple(edges))
    return ("walk", tuple(edges[:p]), len(edges) // p)


def compose_m(g: MMor, f: MMor) -> MMor:
    """g∘f; rewrite each of g's component descriptions through f."""
    if f.target != g.source:
        raise Incomposable("maps of one-manifold objects not composable")

    cparts = []
    for part in g.circle_parts:
        if isinstance(part, CircleEndo):
            inner = f.circle_parts[part.circle]
            if isinstance(inner, CircleEndo):
                cparts.append(CircleEndo(inner.circle, inner.weight * part.weight))
            elif isinstance(inner, VertexToCircle):
                cparts.append(inner)
            else:
                cparts.append(CycleToCircle(inner.quiver, inner.cycle,
                                            inner.weight * part.weight))
        elif isinstance(part, VertexToCircle):
            qp = f.quiver_parts[part.quiver]
            cparts.append(VertexToCircle(qp.quiver,
                                         qp.mor.vertex_map[part.vertex]))
        else:
            qp = f.quiver_parts[part.quiver]
            pushed = _push_cycle(qp.mor, part.cycle)
            if pushed[0] == "vertex":
                cparts.append(VertexToCircle(qp.quiver, pushed[1]))
            else:
                _, edges, k = pushed
                zz = DirectedCycle.walk(qp.mor.target, edges)
                cparts.append(CycleToCircle(qp.quiver, zz, part.weight * k))

    qparts = []
    for part in g.quiver_parts:
        qp = f.quiver_parts[part.quiver]
        qparts.append(QuivPart(qp.quiver, compose_quiver_mor(qp.mor, part.mor)))
    return MMor(f.source, g.target, cparts, qparts)


def quiv_op_mmor(q: QuiverMor) -> MMor:
    """A quiver morphism Γ -> Ξ, viewed as a map of objects in the OTHER
    direction: components of Ξ map to components of Γ contravariantly."""
    source = mobject_of_digraph(q.target)
    target = mobject_of_digraph(q.source)
    src_comps = list(target.quivers)     # components of q.source
    tgt_comps = list(source.quivers)     # components of q.target

    where: dict[str, int] = {}
    for a, comp in enumerate(tgt_comps):
        for v in comp.vertices:
            where[v] = a

    parts = []
    for comp in src_comps:
        imgs = {where[q.vertex_map[v]] for v in comp.vertices}
        if len(imgs) != 1:
            raise QuivercalcError("a connected piece maps into one component")
        a = imgs.pop()
        tq = tgt_comps[a]
        vmap = {v: q.vertex_map[v] for v in comp.vertices}
        paths = {e.eid: Path(tq, q.edge_paths[e.eid].start,
                             q.edge_paths[e.eid].edges)
                 for e in comp.edges}
        parts.append(QuivPart(a, QuiverMor(comp, tq, vmap, paths)))
    return MMor(source, target, (), parts)


# --- factorization homology --------------------------------------------------
#
# Inside the library an element of an invariant is one flat tuple of
# indices: a class index (into compute_hh(category).classes) per circle,
# then each quiver's representation tuple (see fincat.rep_tuples).  Trace
# classes and Representations are built only by fact_namer, for
# fact_homology, fact_map and the command line.


def _blocks(m: MObject) -> list[tuple[int, int]]:
    """(start, end) of each quiver's representation tuple in an element."""
    out, at = [], m.circles
    for q in m.quivers:
        out.append((at, at + len(q.vertices) + len(q.edges)))
        at = out[-1][1]
    return out


def fact_tuples(category: FinCat, m: MObject) -> list[tuple]:
    """The elements of the invariant as index tuples, in canonical order:
    the full product of the trace classes per circle and the
    representations per quiver."""
    classes = compute_hh(category).classes
    slots = [[(i,) for i in range(len(classes))]] * m.circles + \
            [rep_tuples(category, q) for q in m.quivers]
    if len(slots) == 1:
        return slots[0]
    return [tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*slots)]


def fact_namer(category: FinCat, m: MObject):
    """Index tuple -> (trace classes, representations)."""
    classes = compute_hh(category).classes
    blocks = list(zip(m.quivers, _blocks(m)))

    def name(x: tuple) -> tuple:
        return (tuple(classes[i] for i in x[:m.circles]),
                tuple(Representation.from_indices(category, q, x[a:b])
                      for q, (a, b) in blocks))

    return name


def fact_homology(category: FinCat, m: MObject) -> list[tuple]:
    """One trace class per circle and one representation per quiver; the
    full product, enumerated in canonical order."""
    return list(map(fact_namer(category, m), fact_tuples(category, m)))


def _circle_map(category: FinCat, source: MObject, part):
    """One target circle's class index, as a function of a source element."""
    hh = compute_hh(category)
    index = {cls.rep: i for i, cls in enumerate(hh.classes)}
    if isinstance(part, CircleEndo):
        def power(x):
            return index[psi(category, part.weight, hh.classes[x[part.circle]]).rep]
        return power
    start = _blocks(source)[part.quiver][0]
    q = source.quivers[part.quiver]
    if isinstance(part, VertexToCircle):
        at = start + q.vertex_index(part.vertex)

        def trace(x):
            return index[hh.class_of(category.identity(category.objects[x[at]])).rep]
        return trace
    word = index_program(category, (), [path_steps(
        q, Path(q, part.cycle.vertex, part.cycle.edges), start)])

    def holonomy(x):
        endo = category.morphisms[word(x)[0]].mid
        return index[psi(category, part.weight, endo).rep]
    return holonomy


def _compile_mmor(category: FinCat, f: MMor):
    """The induced map on index tuples, compiled once for category."""
    circles = [_circle_map(category, f.source, part) for part in f.circle_parts]
    blocks = _blocks(f.source)
    pulls = [compile_pullback(category, part.mor, blocks[part.quiver][0])
             for part in f.quiver_parts]
    if not circles and len(pulls) == 1:
        return pulls[0]

    def apply(x: tuple) -> tuple:
        out = tuple([c(x) for c in circles])
        for pull in pulls:
            out += pull(x)
        return out

    return apply


def fact_map(category: FinCat, f: MMor):
    """The induced map on invariants, covariant in the object map."""
    run = _compile_mmor(category, f)
    name = fact_namer(category, f.target)
    classes = compute_hh(category).classes

    def apply(elem: tuple) -> tuple:
        cls, reps = elem
        if (len(cls) != f.source.circles or len(reps) != len(f.source.quivers)
                or any(c not in classes for c in cls)
                or any(r.graph != q for r, q in zip(reps, f.source.quivers))):
            raise QuivercalcError("the element does not belong to the "
                                  "source's invariant")
        x = tuple(classes.index(c) for c in cls) + \
            tuple(itertools.chain.from_iterable(r.indices() for r in reps))
        return name(run(x))

    return apply


# --- excision ----------------------------------------------------------------


class ExcisionSite:
    """A graph with a chosen set of cut edges, or a bare circle.

    Cutting severs each chosen edge; gluing stage p re-joins the stumps
    through a directed chain with p interior vertices.  For the circle,
    stage p is the directed (p+1)-cycle.
    """

    def __init__(self, kind: str, graph: Digraph | None, cut_edges):
        self.kind = kind
        self.graph = graph
        self.cut_edges = tuple(cut_edges)
        self._cut = set(self.cut_edges)
        if kind == "graph":
            if not isinstance(graph, Digraph):
                raise QuivercalcError("a graph site needs a digraph")
            for s in self.cut_edges:
                if not graph.has_edge(s):
                    raise UnknownEdge(f"unknown cut edge {s!r}")
            if len(self._cut) != len(self.cut_edges):
                raise QuivercalcError("cut edges are listed twice")
        elif kind != "circle" or graph is not None or self.cut_edges:
            raise QuivercalcError("a site is a graph with cut edges, "
                                  "or a bare circle")

    def __repr__(self):
        if self.kind == "circle":
            return "ExcisionSite(circle)"
        return f"ExcisionSite({self.graph!r}, cuts={list(self.cut_edges)})"

    # stage graphs ------------------------------------------------------

    def level_graph(self, p: int) -> Digraph:
        if p < 0:
            raise QuivercalcError(f"stages are numbered from 0, not {p}")
        if self.kind == "circle":
            return standard_digraph("cyclic", p + 1)
        g = self.graph
        cuts = [e for e in g.edges if e.eid in self._cut]
        vs = list(g.vertices)
        for e in cuts:
            vs.extend(f"{e.eid}:w{i}" for i in range(p + 1))
        es = []
        for e in g.edges:
            if e.eid not in self._cut:
                es.append((e.eid, e.src, e.tgt))
                continue
            chain = [e.src] + [f"{e.eid}:w{i}" for i in range(p + 1)] + [e.tgt]
            es.extend((f"{e.eid}:c{i}", chain[i], chain[i + 1])
                      for i in range(p + 2))
        return Digraph(vs, es)

    def level(self, p: int) -> MObject:
        return mobject_of_digraph(self.level_graph(p))

    def face_maps(self) -> tuple[QuiverMor, QuiverMor]:
        """The two ways the one-joint stage includes into the two-joint
        stage: each weld vertex goes to the first or the second joint, and
        the middle chain edge is absorbed on the respective side."""
        g0, g1 = self.level_graph(0), self.level_graph(1)
        if self.kind == "circle":
            a = QuiverMor(g0, g1, {"0": "0"},
                          {"e0": Path(g1, "0", ("e0", "e1"))})
            b = QuiverMor(g0, g1, {"0": "1"},
                          {"e0": Path(g1, "1", ("e1", "e0"))})
            return a, b

        va = {v: v for v in self.graph.vertices}
        vb = dict(va)
        pa, pb = {}, {}
        for e in self.graph.edges:
            s = e.eid
            if s not in self._cut:
                pa[s] = Path.of_edge(g1, s)
                pb[s] = Path.of_edge(g1, s)
                continue
            va[f"{s}:w0"] = f"{s}:w0"
            vb[f"{s}:w0"] = f"{s}:w1"
            pa[f"{s}:c0"] = Path(g1, e.src, (f"{s}:c0",))
            pa[f"{s}:c1"] = Path(g1, f"{s}:w0", (f"{s}:c1", f"{s}:c2"))
            pb[f"{s}:c0"] = Path(g1, e.src, (f"{s}:c0", f"{s}:c1"))
            pb[f"{s}:c1"] = Path(g1, f"{s}:w1", (f"{s}:c2",))
        return (QuiverMor(g0, g1, va, pa), QuiverMor(g0, g1, vb, pb))

    def refinement(self, p: int) -> QuiverMor:
        """The original graph refined into stage p: each cut edge becomes
        its chain.  Only for graph sites."""
        if self.kind != "graph":
            raise QuivercalcError("only graph sites have a refinement map")
        gp = self.level_graph(p)
        vmap = {v: v for v in self.graph.vertices}
        paths = {}
        for e in self.graph.edges:
            if e.eid in self._cut:
                paths[e.eid] = Path(gp, e.src,
                                    tuple(f"{e.eid}:c{i}" for i in range(p + 2)))
            else:
                paths[e.eid] = Path.of_edge(gp, e.eid)
        return QuiverMor(self.graph, gp, vmap, paths)

    def total(self) -> MObject:
        return (circle_object(1) if self.kind == "circle"
                else mobject_of_digraph(self.graph))

    def glue_mmor(self) -> MMor:
        """Stage 0 mapping onto the glued object."""
        if self.kind == "graph":
            return quiv_op_mmor(self.refinement(0))
        g0 = self.level_graph(0)
        m0 = mobject_of_digraph(g0)
        z = DirectedCycle.walk(m0.quivers[0], ("e0",))
        return MMor(m0, circle_object(1), (CycleToCircle(0, z, 1),), ())


def make_excision_site(graph, cut_edges=()) -> ExcisionSite:
    if graph == "circle":
        return ExcisionSite("circle", None, ())
    return ExcisionSite("graph", graph, cut_edges)


@dataclass
class ExcisionVerdict:
    ok: bool
    stage0: int
    stage1: int
    coequalizer: int
    direct: int
    note: str = ""


def verify_excision(category: FinCat, site: ExcisionSite) -> ExcisionVerdict:
    """Coequalize the two stage maps on invariants and compare with the
    invariant of the glued object.

    The two face maps run stage 0 -> stage 1 on graphs, hence stage 1 ->
    stage 0 on invariants; gluing induces stage 0 -> glued.  The verdict is
    ok when gluing coequalizes the pair and the induced map from the
    coequalizer is a bijection.  It runs on index tuples (see fact_tuples),
    in fact_homology's order.
    """
    fa, fb = site.face_maps()
    x0 = fact_tuples(category, site.level(0))
    x1 = fact_tuples(category, site.level(1))
    map_a = _compile_mmor(category, quiv_op_mmor(fa))
    map_b = _compile_mmor(category, quiv_op_mmor(fb))

    index = {elem: i for i, elem in enumerate(x0)}
    uf = UnionFind(range(len(x0)))
    for y in x1:
        uf.union(index[map_a(y)], index[map_b(y)])
    coeq = uf.classes()

    glue = _compile_mmor(category, site.glue_mmor())
    direct = fact_tuples(category, site.total())
    direct_index = {elem: i for i, elem in enumerate(direct)}

    note = ""
    ok = True
    glued_of_root: dict[int, int] = {}
    for i, elem in enumerate(x0):
        g = glue(elem)
        if g not in direct_index:
            ok, note = False, "gluing left the invariant of the glued object"
            break
        root = uf.find(i)
        if root in glued_of_root and glued_of_root[root] != direct_index[g]:
            ok, note = False, "gluing does not coequalize the two stage maps"
            break
        glued_of_root[root] = direct_index[g]
    if ok:
        image = set(glued_of_root.values())
        if len(image) != len(coeq):
            ok, note = False, "induced map from the coequalizer is not injective"
        elif len(image) != len(direct):
            ok, note = False, "induced map from the coequalizer is not surjective"
    return ExcisionVerdict(ok, len(x0), len(x1), len(coeq), len(direct), note)
