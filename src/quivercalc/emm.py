"""Disjoint unions of circles and connected quivers, and maps between them.

An object here is a finite list of circles together with a finite list of
connected digraphs.  Maps are described per TARGET component: a target
circle either winds around a source circle (with a positive weight) or wraps
a directed cycle of a source quiver a positive number of times, where a
constant cycle, wrapped once, sits at a vertex; a target quiver receives a
quiver morphism FROM it INTO a source quiver (quivers embed
contravariantly).  There are no maps from a circle to a quiver, so hom-sets
whose target has a quiver but whose source has none are empty.

Factorization homology assigns to such an object: one trace class per
circle, one representation per quiver; maps act by power operators, traces,
holonomy around cycles, and pullback of representations.  Cutting edges of a
graph (or a circle) yields a two-stage gluing whose coequalizer recovers the
invariant of the glued object -- verify_excision checks this exhaustively.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# classify_digraph, enumerate_reps, pullback_rep and psi are no longer
# called here; perfbench's traced run still wraps them under these names
from .digraph import (Digraph, Incomposable, QuivercalcError, UnknownEdge,
                      classify_digraph, component_labels, lyndon_rotation,
                      lyndon_words, standard_digraph, strong_components,
                      weak_components)
from .quiver import (DeltaMor, Path, QuiverMor, compose_quiver_mor, components,
                     enumerate_quiver_mors, is_active_delta, lift_mor)
from .fincat import (FinCat, Representation, compile_pullback, enumerate_reps,
                     index_program, path_steps, pullback_rep, rep_count,
                     rep_tuples, validated)
from .hochschild import _powers, compute_hh, psi


# --- directed cycles --------------------------------------------------------


class DirectedCycle:
    """A constant cycle at a vertex, or a primitive closed walk up to
    rotation, stored in the rotation whose edge indices are least.

    A walk is checked on its word of edge indices: consecutive edges chain
    and the last returns to the start of the first.  The word is then read
    once by lyndon_rotation, which both rejects a proper power and finds
    the rotation to store; vertex is the basepoint of that rotation.
    """

    def __init__(self, graph: Digraph, vertex: str | None, edges=()):
        self.graph = graph
        self.edges = tuple(edges)
        if self.edges:
            if vertex is not None:
                raise QuivercalcError("a walk determines its own basepoint")
            word = [graph.edge_index(e) for e in self.edges]
            src, tgt = graph._src, graph._tgt
            at = first = src[word[0]]
            for j in word:
                if src[j] != at:
                    raise QuivercalcError(
                        f"edge {graph.edges[j].eid!r} starts at "
                        f"{graph.vertices[src[j]]!r}, not {graph.vertices[at]!r}")
                at = tgt[j]
            if at != first:
                raise QuivercalcError("cycle walks must close up")
            start, period = lyndon_rotation(word)
            if period != len(word):
                raise QuivercalcError("cycle walks must be primitive")
            self.edges = self.edges[start:] + self.edges[:start]
            self.vertex = graph.vertices[src[word[start]]]
        else:
            if vertex is None:
                raise QuivercalcError("a constant cycle needs a vertex")
            graph.vertex_index(vertex)
            self.vertex = vertex

    @classmethod
    def _trusted(cls, graph: Digraph, words) -> list["DirectedCycle"]:
        """One cycle per Lyndon word of edge indices, such as lyndon_words
        returns, based at its first edge's source; nothing is checked."""
        eids, src, names = [e.eid for e in graph.edges], graph._src, graph.vertices
        cycles = []
        for w in words:
            z = cls.__new__(cls)
            z.graph = graph
            z.edges = tuple([eids[j] for j in w])
            z.vertex = names[src[w[0]]]
            cycles.append(z)
        return cycles

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


def enumerate_directed_cycles(graph: Digraph, max_len: int,
                              bound: int | None = -1) -> list[DirectedCycle]:
    """Constant cycles at every vertex, then primitive closed walks up to
    rotation of length <= max_len and <= bound, if any (cycle_length_bound
    unless given), ordered by (length, edge indices)."""
    out = [DirectedCycle.constant(graph, v) for v in graph.vertices]
    bound = cycle_length_bound(graph) if bound == -1 else bound
    # a primitive closed walk is kept once, from its least rotation: the
    # walks whose edge indices form a Lyndon word, which come in this order
    return out + DirectedCycle._trusted(graph, lyndon_words(
        graph, max_len if bound is None else min(max_len, bound)))


def cycle_length_bound(graph: Digraph) -> int | None:
    """A bound on primitive cycle length, or None when none exists.

    Primitive closed walks are bounded exactly when every strongly connected
    piece is a bare simple cycle; two distinct loops through a common vertex
    already generate primitive walks of unbounded length.  Each vertex of a
    piece with an inner edge has an inner edge out, so the piece is a bare
    cycle exactly when none has two.
    """
    comps = strong_components(graph)
    label = {v: c for c, comp in enumerate(comps) for v in comp}
    inside = dict.fromkeys(graph.vertices, 0)
    for e in graph.edges:
        if label[e.src] == label[e.tgt]:
            inside[e.src] += 1
    if any(k > 1 for k in inside.values()):
        return None
    return max((len(comp) for comp in comps if inside[comp[0]]), default=0)


# --- objects ----------------------------------------------------------------


class MObject:
    """circles: how many circle components; quivers: the connected graphs."""

    def __init__(self, circles: int, quivers):
        self.circles = circles
        self.quivers = tuple(quivers)
        if type(circles) is not int or circles < 0:     # bool is no count
            raise QuivercalcError(
                f"the circle count must be an integer >= 0, not {circles!r}")
        for q in self.quivers:
            if len(weak_components(q)) != 1:
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
        if not isinstance(data["quivers"], list):
            raise QuivercalcError("'quivers' must be a list of digraphs")
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
class CycleToCircle:
    quiver: int
    cycle: DirectedCycle  # a constant cycle sits at its vertex
    weight: int           # >= 1, and 1 on a constant cycle


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

        def check_index(i, what: str, count: int) -> None:
            if type(i) is not int:          # bool is no index
                raise QuivercalcError(f"source {what} indices are integers, "
                                      f"not {i!r}")
            if not 0 <= i < count:
                raise QuivercalcError(f"no source {what} {i}")

        def check_weight(w) -> None:
            if type(w) is not int:
                raise QuivercalcError(f"circle weights are integers, not {w!r}")
            if w < 1:
                raise QuivercalcError("circle weights are >= 1")

        def source_quiver(i: int) -> Digraph:
            check_index(i, "quiver", len(source.quivers))
            return source.quivers[i]

        for part in self.circle_parts:
            if isinstance(part, CircleEndo):
                check_index(part.circle, "circle", source.circles)
                check_weight(part.weight)
            elif isinstance(part, CycleToCircle):
                if part.cycle.graph != source_quiver(part.quiver):
                    raise QuivercalcError("the cycle lies in another quiver")
                check_weight(part.weight)
                if part.cycle.is_constant and part.weight != 1:
                    raise QuivercalcError("a constant cycle winds once")
            else:
                raise QuivercalcError(f"not a circle component: {part!r}")
        for beta, part in enumerate(self.quiver_parts):
            if not isinstance(part, QuivPart):
                raise QuivercalcError(f"not a quiver component: {part!r}")
            if part.mor.source != target.quivers[beta]:
                raise QuivercalcError(f"quiver component {beta} starts "
                                      "at the wrong quiver")
            if part.mor.target != source_quiver(part.quiver):
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
          max_weight: int = 3, path_cap: int = 4, limit: int | None = None
          ) -> tuple[list[MMor], int, bool]:
    """The maps source -> target under the given caps (only the first
    `limit` with a limit), how many there are, and a truncation flag: False
    means the count is provably complete, True means some family (weights,
    long cycles, long image paths) was cut off.

    The maps are the product of one option list per target circle and per
    target quiver, so the count is the product of the lists' lengths, and
    the first `limit` maps read no list past its first `limit` options."""
    truncated = False
    factors: list = []          # (first options, how many) per target part

    if target.circles:
        opts = []
        for i in range(source.circles):
            opts.extend(CircleEndo(i, w) for w in range(1, max_weight + 1))
        if source.circles:
            truncated = True  # weights are unbounded
        # every quiver's constant cycles come before any other cycle
        bounds = [cycle_length_bound(q) for q in source.quivers]
        cycles = [enumerate_directed_cycles(q, max_len, b)
                  for q, b in zip(source.quivers, bounds)]
        for a, zs in enumerate(cycles):
            opts.extend(CycleToCircle(a, z, 1) for z in zs if z.is_constant)
        # a cycle winds round a circle any number of times
        truncated = truncated or any(b != 0 for b in bounds)
        for a, zs in enumerate(cycles):
            opts.extend(CycleToCircle(a, z, w) for z in zs if not z.is_constant
                        for w in range(1, max_weight + 1))
        factors += [(opts[:limit], len(opts))] * target.circles

    for tq in target.quivers:
        opts, count = [], 0
        for a, sq in enumerate(source.quivers):
            room = None if limit is None else limit - len(opts)
            mors, n, trunc = enumerate_quiver_mors(tq, sq, path_cap, room)
            truncated = truncated or trunc
            opts.extend(QuivPart(a, f) for f in mors)
            count += n
        factors.append((opts, count))

    c = target.circles
    combos = itertools.islice(itertools.product(*(o for o, _ in factors)), limit)
    maps = [MMor(source, target, combo[:c], combo[c:]) for combo in combos]
    return maps, math.prod(n for _, n in factors), truncated


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
            elif inner.cycle.is_constant:       # a vertex winds once
                cparts.append(inner)
            else:
                cparts.append(CycleToCircle(inner.quiver, inner.cycle,
                                            inner.weight * part.weight))
        else:
            qp = f.quiver_parts[part.quiver]
            z, q = part.cycle, qp.mor.target
            edges = qp.mor.map_path(Path(z.graph, z.vertex, z.edges)).edges
            if not edges:       # the whole cycle collapses to a vertex
                cparts.append(CycleToCircle(qp.quiver, DirectedCycle.constant(
                    q, qp.mor.vertex_map[z.vertex]), 1))
            else:               # it winds len/p times around a p-cycle
                _, p = lyndon_rotation([q.edge_index(e) for e in edges])
                cparts.append(CycleToCircle(qp.quiver,
                                            DirectedCycle.walk(q, edges[:p]),
                                            part.weight * len(edges) // p))

    qparts = []
    for part in g.quiver_parts:
        qp = f.quiver_parts[part.quiver]
        qparts.append(QuivPart(qp.quiver, compose_quiver_mor(qp.mor, part.mor)))
    return MMor(f.source, g.target, cparts, qparts)


def quiv_op_mmor(q: QuiverMor) -> MMor:
    """A quiver morphism Γ -> Ξ, viewed as a map of objects in the OTHER
    direction: components of Ξ map to components of Γ contravariantly.
    When Γ and Ξ are each one component, q itself is the one part."""
    source = mobject_of_digraph(q.target)
    target = mobject_of_digraph(q.source)
    src_comps = list(target.quivers)     # components of q.source
    tgt_comps = list(source.quivers)     # components of q.target

    where = {v: a for a, comp in enumerate(tgt_comps) for v in comp.vertices}

    parts = []
    for comp in src_comps:
        # q sends edges to paths, so a connected piece lands in one component
        a = where[q.vertex_map[comp.vertices[0]]]
        tq = tgt_comps[a]
        if comp is q.source and tq is q.target:
            parts.append(QuivPart(a, q))
            continue
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
# then each quiver's representation tuple (see fincat.rep_tuples).  The
# compiled maps take a block (a list) of elements at a time.  Trace
# classes and Representations are built only by fact_namer, for
# fact_homology, fact_map and the command line.


def _blocks(m: MObject) -> list[tuple[int, int]]:
    """(start, end) of each quiver's representation tuple in an element
    (not a block of elements, which the compiled maps take)."""
    out, at = [], m.circles
    for q in m.quivers:
        out.append((at, at + len(q.vertices) + len(q.edges)))
        at = out[-1][1]
    return out


def fact_tuples(category: FinCat, m: MObject,
                limit: int | None = None) -> list[tuple]:
    """The elements of the invariant as index tuples, in canonical order:
    the full product of the trace classes per circle and the
    representations per quiver.  With a limit, only the first `limit`,
    for which no factor is read past its first `limit` elements."""
    # trace classes only where a circle needs them
    classes = range(len(compute_hh(category))) if m.circles else ()
    slots = [[(i,) for i in classes][:limit]] * m.circles + \
            [rep_tuples(category, q, limit) for q in m.quivers]
    if len(slots) == 1:
        return slots[0]
    return [tuple(itertools.chain.from_iterable(combo)) for combo in
            itertools.islice(itertools.product(*slots), limit)]


def fact_count(category: FinCat, m: MObject) -> int:
    """len(fact_tuples(category, m)): |HH|^circles · Π |Rep(quiver)|."""
    classes = len(compute_hh(category)) ** m.circles if m.circles else 1
    return classes * math.prod(rep_count(category, q) for q in m.quivers)


def fact_namer(category: FinCat, m: MObject):
    """Index tuple -> (trace classes, representations)."""
    classes = compute_hh(category).classes if m.circles else ()
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
    """One target circle's class index, as a block map: source elements to
    1-tuples.  Each row's loop, a class representative or the holonomy
    around a cycle (the identity at a constant cycle's vertex), goes to the
    class of its w-th power."""
    hh = compute_hh(category)
    if isinstance(part, CircleEndo):
        reps = [category.morphism_index(cls.rep) for cls in hh.classes]

        def loops(block):
            return [reps[x[part.circle]] for x in block]
    else:
        q, z = source.quivers[part.quiver], part.cycle
        holonomy = index_program(category, (), [path_steps(
            q, Path(q, z.vertex, z.edges), _blocks(source)[part.quiver][0])])

        def loops(block):
            return [m for m, in holonomy(block)]
    t, index = category.int_table, hh.class_index
    return lambda block: [(index[m],) for m in _powers(t, loops(block), part.weight)]


def _compile_mmor(category: FinCat, f: MMor):
    """The induced map on blocks of index tuples, compiled once for
    category."""
    blocks = _blocks(f.source)
    parts = ([_circle_map(category, f.source, part) for part in f.circle_parts]
             + [compile_pullback(category, part.mor, blocks[part.quiver][0])
                for part in f.quiver_parts])
    if len(parts) == 1:
        return parts[0]

    def apply(block: list) -> list:
        if not parts:           # the empty object: zip(*[]) would drop rows
            return [()] * len(block)
        return [tuple(itertools.chain.from_iterable(row))
                for row in zip(*[part(block) for part in parts])]

    return apply


def fact_map(category: FinCat, f: MMor):
    """The induced map on invariants, covariant in the object map."""
    run = _compile_mmor(category, f)
    name = fact_namer(category, f.target)
    classes = compute_hh(category).classes if f.source.circles else ()

    def apply(elem: tuple) -> tuple:
        cls, reps = elem
        if (len(cls) != f.source.circles or len(reps) != len(f.source.quivers)
                or any(c not in classes for c in cls)
                or any(r.graph != q for r, q in zip(reps, f.source.quivers))):
            raise QuivercalcError("the element does not belong to the "
                                  "source's invariant")
        x = tuple(classes.index(c) for c in cls) + \
            tuple(itertools.chain.from_iterable(r.indices() for r in reps))
        return name(run([x])[0])

    return apply


# --- excision ----------------------------------------------------------------
#
# The lifts of a graph site's stage maps on each cut's chain, active maps of
# Delta that quiver.lift_mor applies: the faces are the inner cofaces [2] ->
# [3]; sigma_k is the codegeneracy [3] -> [2] that repeats point 0 on k's
# chain and point 1 elsewhere; refinement(p) is (0, p+2), [1] -> [p+2].
INNER_COFACES = (DeltaMor(2, 3, (0, 1, 3)), DeltaMor(2, 3, (0, 2, 3)))
CODEGENERACIES = (DeltaMor(3, 2, (0, 0, 1, 2)), DeltaMor(3, 2, (0, 1, 1, 2)))


class ExcisionSite:
    """A graph with a chosen set of cut edges, or a bare circle.

    Cutting severs each chosen edge; gluing stage p re-joins the stumps
    through a directed chain with p+1 interior vertices.  For the circle,
    stage p is the directed (p+1)-cycle.

    On a graph site, cut edge k = s -> t is at stage p the chain of points
    s, k:w0, ..., k:wp, t and edges k:c0, ..., k:c(p+1); at stage -1, the
    uncut graph, it is s, t and k.  A map between stages fixes the rest of
    the graph and lifts each cut's chain by an active map of Delta: one of
    INNER_COFACES or CODEGENERACIES, or (0, p+2) into stage p.
    """

    def __init__(self, kind: str, graph: Digraph | None, cut_edges):
        self.kind = kind
        self.graph = graph
        self.cut_edges = tuple(cut_edges)
        self._cut = set(self.cut_edges)
        self._levels: dict[int, tuple] = {}     # see _level
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
        """Stage p's graph, built on the first call for p and kept."""
        return self._level(p)[0]

    def level(self, p: int) -> MObject:
        """Stage p as an object, built with its graph and kept."""
        return self._level(p)[1]

    def _level(self, p: int) -> tuple[Digraph, MObject, dict, dict]:
        """Stage p's graph and object, its chains and its uncut edges' paths."""
        if p not in self._levels:
            if p < 0:
                raise QuivercalcError(f"stages are numbered from 0, not {p}")
            if self.kind == "circle":       # one chain, the cycle itself
                g, fixed = standard_digraph("cyclic", p + 1), {}
                chains = {"": (g.vertices, tuple(e.eid for e in g.edges))}
            else:
                chains, vs, es = self._chains(p), list(self.graph.vertices), []
                for points, edges in chains.values():
                    vs.extend(points[1:-1])
                    es.extend(zip(edges, points, points[1:]))
                g = Digraph(vs, es)
                fixed = {k: Path.of_edge(g, k) for k in chains if k not in self._cut}
            self._levels[p] = (g, mobject_of_digraph(g), chains, fixed)
        return self._levels[p]

    def _chains(self, p: int) -> dict:
        """Each edge's chain at stage p, in graph order, as (points, edges);
        an uncut edge is its own chain.  The one place chain names are made."""
        out = {}
        for e in self.graph.edges:
            k = e.eid
            out[k] = (((e.src, *[f"{k}:w{i}" for i in range(p + 1)], e.tgt),
                       tuple([f"{k}:c{i}" for i in range(p + 2)]))
                      if k in self._cut and p >= 0 else ((e.src, e.tgt), (k,)))
        return out

    def _stage_mor(self, p: int, q: int, lifts) -> QuiverMor:
        """The map from stage p (-1: the uncut graph) to stage q by one lift
        per cut in cut order, each active [p+2] -> [q+2] or QuivercalcError."""
        source, _, chains, _ = ((self.graph, None, self._chains(p), None)
                                if p < 0 else self._level(p))
        target, _, images, fixed = self._level(q)
        cuts = self.cut_edges
        runs = [(chains[k], images[k], f.values) for k, f in zip(cuts, lifts)
                if is_active_delta(f) and (f.p, f.q) == (p + 2, q + 2)]
        if len(runs) != len(cuts) or len(lifts) != len(cuts):
            raise QuivercalcError(f"a stage map {p} -> {q} takes one active "
                                  f"map [{p + 2}] -> [{q + 2}] per cut")
        return lift_mor(source, target, {v: v for v in self.graph.vertices},
                        dict(fixed), runs)

    def face_maps(self) -> tuple[QuiverMor, QuiverMor]:
        """The two inclusions of the one-joint stage into the two-joint
        stage: each weld vertex goes to the first or the second joint."""
        if self.kind == "circle":   # EpiMor(1, 2, [v], [2]) on the kept graphs
            (g0, _, c0, _), (g1, _, c1, _) = self._level(0), self._level(1)
            return tuple(lift_mor(g0, g1, {}, {}, [(c0[""], c1[""], (v, v + 2))])
                         for v in (0, 1))
        (a, b), n = INNER_COFACES, len(self.cut_edges)
        return self._stage_mor(0, 1, (a,) * n), self._stage_mor(0, 1, (b,) * n)

    def degeneracies(self) -> tuple[QuiverMor, ...]:
        """The degeneracies of the two-joint stage onto the one-joint stage,
        one sigma_k per cut edge k, in cut order.  Only for graph sites."""
        if self.kind != "graph":
            raise QuivercalcError("only graph sites have degeneracies")
        cuts = self.cut_edges
        return tuple(self._stage_mor(1, 0, [CODEGENERACIES[s != k] for s in cuts])
                     for k in cuts)

    def refinement(self, p: int) -> QuiverMor:
        """The original graph refined into stage p: each cut edge becomes
        its chain.  Only for graph sites."""
        if self.kind != "graph":
            raise QuivercalcError("only graph sites have a refinement map")
        return self._stage_mor(-1, p, [DeltaMor(1, p + 2, (0, p + 2))]
                               * len(self.cut_edges))

    def total(self) -> MObject:
        return (circle_object(1) if self.kind == "circle"
                else mobject_of_digraph(self.graph))

    def glue_mmor(self) -> MMor:
        """Stage 0 mapping onto the glued object."""
        if self.kind == "graph":
            return quiv_op_mmor(self.refinement(0))
        m0 = self.level(0)
        z = DirectedCycle.walk(m0.quivers[0], ("e0",))
        return MMor(m0, circle_object(1), (CycleToCircle(0, z, 1),), ())


def make_excision_site(graph, cut_edges=()) -> ExcisionSite:
    return (ExcisionSite("circle", None, cut_edges) if graph == "circle"
            else ExcisionSite("graph", graph, cut_edges))


@dataclass
class ExcisionVerdict:
    ok: bool
    stage0: int
    stage1: int
    coequalizer: int
    direct: int
    note: str = ""


BLOCK = 2048    # rows mapped at once: a whole stage would cost its own size again


def _chunks(xs: list):
    """xs in blocks of BLOCK rows."""
    return (xs[start:start + BLOCK] for start in range(0, len(xs), BLOCK))


def _normal_form_steps(site: ExcisionSite) -> list[QuiverMor]:
    """N_k = sigma_k after the first face, one per cut edge k, as quiver
    morphisms of stage 0.  The premises of the normal form are checked on
    them before any row is mapped: sigma_k after the second face is the
    identity, each N_k is idempotent, and every two commute.  On a site
    that violates one, QuivercalcError."""
    face_a, face_b = site.face_maps()
    steps = []
    for k, sigma in zip(site.cut_edges, site.degeneracies()):
        if compose_quiver_mor(sigma, face_b) != QuiverMor.identity(sigma.target):
            raise QuivercalcError(f"the degeneracy at cut edge {k!r} does "
                                  "not undo the second face map")
        n_k = compose_quiver_mor(sigma, face_a)
        if compose_quiver_mor(n_k, n_k) != n_k:
            raise QuivercalcError(f"the normal form step at cut edge {k!r} "
                                  "is not idempotent")
        for j, n_j in zip(site.cut_edges, steps):
            if compose_quiver_mor(n_j, n_k) != compose_quiver_mor(n_k, n_j):
                raise QuivercalcError(f"the normal form steps at cut edges "
                                      f"{j!r} and {k!r} do not commute")
        steps.append(n_k)
    return steps


def _coequalizer_labels(category: FinCat, site: ExcisionSite,
                        x0: list) -> tuple[int, list[int]]:
    """Stage 1's size, and each stage-0 row's class in the coequalizer,
    numbered by least member (see verify_excision)."""
    if site.kind == "graph":
        steps = [_compile_mmor(category, quiv_op_mmor(n_k))
                 for n_k in _normal_form_steps(site)]
        first: dict[tuple, int] = {}
        label = []
        for block in _chunks(x0):
            for n_k in steps:
                block = n_k(block)
            label.extend(first.setdefault(y, len(first)) for y in block)
        return fact_count(category, site.level(1)), label
    x1 = fact_tuples(category, site.level(1))
    index = {elem: i for i, elem in enumerate(x0)}
    map_a, map_b = (_compile_mmor(category, quiv_op_mmor(f))
                    for f in site.face_maps())
    pairs = ((index[a], index[b]) for block in _chunks(x1)
             for a, b in zip(map_a(block), map_b(block)))
    return len(x1), component_labels(len(x0), pairs)


def verify_excision(category: FinCat, site: ExcisionSite) -> ExcisionVerdict:
    """Coequalize the two stage maps on invariants and compare with the
    invariant of the glued object.

    The two face maps run stage 0 -> stage 1 on graphs, hence stage 1 ->
    stage 0 on invariants; gluing induces stage 0 -> glued.  The verdict is
    ok when gluing coequalizes the pair and the induced map from the
    coequalizer is a bijection.  It runs on index tuples (see fact_tuples),
    in fact_homology's order, and maps stages in blocks of BLOCK rows.

    On a graph site stage 1 is counted (fact_count), and the classes of
    the coequalizer are the fibres of one map on stage 0, the normal form
    N = N_1...N_n, one step per cut k.  Write the chain of a stage-1 row at
    a cut as u, v, w: its first face puts (u, w∘v) on that cut's one-joint
    chain, its second (v∘u, w), and both copy the rest.  N_k replaces the
    pair (p, q) at cut k by (id, q∘p), so by the category laws both faces
    of a row have the same N, and N is constant on each class.  Conversely,
    x and N_k(x) are the faces of one row, the degenerate row of x: N_k is
    compiled as sigma_k (site.degeneracies()) after the first face, and
    sigma_k after the second face is the identity.  As the N_k are
    idempotent and commute, x, N_1(x), N_2 N_1(x), ..., N(x) is a chain of
    such pairs, so each fibre of N lies in one class (_normal_form_steps
    checks these premises first).  Each block of stage 0 runs through N_1,
    ..., N_n in turn, and a row's label is the order in which its normal
    form first appears; rows are read in increasing index, so the classes
    are numbered by least member.  A category that has not passed
    validate_fincat is validated first, and its error raised, on every
    site.  A circle site maps its whole stage 1 through both faces (at most
    M^2 composable round trips) and labels the components of those pairs.
    """
    validated(category)
    x0 = fact_tuples(category, site.level(0))
    stage1, label = _coequalizer_labels(category, site, x0)
    coeq = max(label, default=-1) + 1

    glue = _compile_mmor(category, site.glue_mmor())
    direct = fact_tuples(category, site.total())
    direct_index = {elem: i for i, elem in enumerate(direct)}

    note = ""
    ok = True
    glued_of_comp: dict[int, int] = {}
    images = itertools.chain.from_iterable(map(glue, _chunks(x0)))
    for i, g in enumerate(images):
        if g not in direct_index:
            ok, note = False, "gluing left the invariant of the glued object"
            break
        c = label[i]
        if c in glued_of_comp and glued_of_comp[c] != direct_index[g]:
            ok, note = False, "gluing does not coequalize the two stage maps"
            break
        glued_of_comp[c] = direct_index[g]
    if ok:
        image = set(glued_of_comp.values())
        if len(image) != coeq:
            ok, note = False, "induced map from the coequalizer is not injective"
        elif len(image) != len(direct):
            ok, note = False, "induced map from the coequalizer is not surjective"
    return ExcisionVerdict(ok, len(x0), stage1, coeq, len(direct), note)
