"""Finite categories presented by explicit composition tables, and their
representations on directed graphs.

A representation of a graph in a category C picks an object per vertex and a
morphism per edge with matching endpoints; equivalently, a functor out of the
free category on the graph.  Representations can be enumerated directly or
recovered as a limit over the exit-path category of the graph -- the second
route is kept deliberately independent and is used to cross-check the first.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple

from .digraph import (ClosedCover, Digraph, Incomposable, QuivercalcError,
                      check_names, exit_path)


class MissingIdentity(QuivercalcError):
    pass


class NotAssociative(QuivercalcError):
    pass


class BadComposite(QuivercalcError):
    pass


class Mor(NamedTuple):
    mid: str
    src: str
    tgt: str


class FinCat:
    """A finite category: objects, morphisms, identities, composition table.

    The table maps (g, f) with src(g) = tgt(f) to g∘f ("f then g").
    Construction checks only that names resolve; the categorical laws are
    checked by validate_fincat.
    """

    def __init__(self, objects: Iterable[str], morphisms: Iterable,
                 identities: dict, compose: dict):
        self.objects = tuple(objects)
        ms = []
        for m in morphisms:
            if isinstance(m, Mor):
                ms.append(m)
            else:
                mid, src, tgt = m
                ms.append(Mor(mid, src, tgt))
        self.morphisms = tuple(ms)
        # read-only, because int_table and hh_table are compiled from them once
        self.identities = MappingProxyType(dict(identities))
        self.table = MappingProxyType(dict(compose))

        if len(set(self.objects)) != len(self.objects):
            raise QuivercalcError("duplicate object names")
        if len(set(m.mid for m in self.morphisms)) != len(self.morphisms):
            raise QuivercalcError("duplicate morphism names")
        self._by_id = {m.mid: m for m in self.morphisms}
        oset = set(self.objects)
        for m in self.morphisms:
            if m.src not in oset or m.tgt not in oset:
                raise QuivercalcError(f"morphism {m.mid!r} has undeclared endpoints")
        for x, i in self.identities.items():
            if x not in oset:
                raise QuivercalcError(f"identity for undeclared object {x!r}")
            if i not in self._by_id:
                raise QuivercalcError(f"identity {i!r} is not a declared morphism")
        for (g, f), h in self.table.items():
            for mid in (g, f, h):
                if mid not in self._by_id:
                    raise QuivercalcError(f"composition table mentions unknown {mid!r}")

        self._oindex = {x: i for i, x in enumerate(self.objects)}
        self._mindex = {m.mid: i for i, m in enumerate(self.morphisms)}
        self._hom: dict[tuple, list] = {}
        for m in self.morphisms:
            self._hom.setdefault((m.src, m.tgt), []).append(m.mid)
        self._identity_set = set(self.identities.values())
        self._int_table = None    # compiled by int_table on first use
        self.hh_table = None      # trace classes, filled by compute_hh

    def mor(self, mid: str) -> Mor:
        if mid not in self._by_id:
            raise QuivercalcError(f"unknown morphism {mid!r}")
        return self._by_id[mid]

    def src(self, mid: str) -> str:
        return self.mor(mid).src

    def tgt(self, mid: str) -> str:
        return self.mor(mid).tgt

    def identity(self, x: str) -> str:
        if x not in self.identities:
            raise MissingIdentity(f"object {x!r} has no identity")
        return self.identities[x]

    def is_identity(self, mid: str) -> bool:
        return mid in self._identity_set

    def hom(self, x: str, y: str) -> list[str]:
        return list(self._hom.get((x, y), []))

    def endomorphisms(self) -> list[str]:
        return [m.mid for m in self.morphisms if m.src == m.tgt]

    def comp(self, g: str, f: str) -> str:
        """g∘f, i.e. f followed by g."""
        if self.tgt(f) != self.src(g):
            raise Incomposable(f"{g!r} after {f!r}")
        if (g, f) not in self.table:
            raise BadComposite(f"composite of {g!r} after {f!r} missing from table")
        return self.table[(g, f)]

    def object_index(self, x: str) -> int:
        try:
            return self._oindex[x]
        except KeyError:
            raise QuivercalcError(f"unknown object {x!r}") from None

    def morphism_index(self, mid: str) -> int:
        try:
            return self._mindex[mid]
        except KeyError:
            raise QuivercalcError(f"unknown morphism {mid!r}") from None

    def int_table(self) -> "IntTable":
        """The category on indices, compiled on first use and kept."""
        if self._int_table is None:
            self._int_table = IntTable(self)
        return self._int_table

    def __repr__(self):
        return f"FinCat({len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    # serialization -------------------------------------------------------

    def to_json(self) -> dict:
        pairs = sorted(self.table.items(),
                       key=lambda kv: (self._mindex[kv[0][0]], self._mindex[kv[0][1]]))
        return {
            "objects": list(self.objects),
            "morphisms": [{"id": m.mid, "src": m.src, "tgt": m.tgt}
                          for m in self.morphisms],
            "ids": {x: self.identities[x] for x in self.objects},
            "compose": [[g, f, h] for (g, f), h in pairs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FinCat":
        for key in ("objects", "morphisms", "ids", "compose"):
            if not isinstance(data, dict) or key not in data:
                raise QuivercalcError(f"category JSON needs {key!r}")
        morphisms = [(m["id"], m["src"], m["tgt"]) for m in data["morphisms"]]
        check_names(data["objects"], "object")
        check_names([mid for mid, _, _ in morphisms], "morphism")
        compose = {(g, f): h for g, f, h in data["compose"]}
        return cls(data["objects"], morphisms, data["ids"], compose)


class IntTable:
    """A FinCat on indices into its objects and morphisms.

    src[m], tgt[m]: object indices.  identity[x]: a morphism index, or -1
    for an object without one.  comp[g][f]: the index of g∘f, or -1 where
    the table has no entry; every table entry is kept, composable or not,
    so validate_fincat can check the table itself.  into[x], out[x]: the
    morphisms with target, resp. source, x, in declaration order; hom[x][y]
    those from x to y.
    """

    def __init__(self, c: FinCat):
        oindex, mindex = c._oindex, c._mindex
        self.src = [oindex[m.src] for m in c.morphisms]
        self.tgt = [oindex[m.tgt] for m in c.morphisms]
        self.identity = [mindex[c.identities[x]] if x in c.identities else -1
                         for x in c.objects]
        n = len(c.morphisms)
        self.comp = [[-1] * n for _ in range(n)]
        for (g, f), h in c.table.items():
            self.comp[mindex[g]][mindex[f]] = mindex[h]
        self.into: list[list[int]] = [[] for _ in c.objects]
        self.out: list[list[int]] = [[] for _ in c.objects]
        self.hom: list[list[list[int]]] = [[[] for _ in c.objects]
                                           for _ in c.objects]
        for m in range(n):
            self.into[self.tgt[m]].append(m)
            self.out[self.src[m]].append(m)
            self.hom[self.src[m]][self.tgt[m]].append(m)


def validate_fincat(c: FinCat) -> None:
    """Check the category laws; raises on the first failure.

    MissingIdentity: an object without an identity, or an identity that is
    not neutral.  BadComposite: a table entry for a non-composable pair, a
    composite with the wrong endpoints, or a composable pair missing from
    the table.  NotAssociative: a failing triple (f, g, h), i.e.
    (f∘g)∘h != f∘(g∘h).

    Associativity is checked by Light's test: the morphisms g with
    (f∘g)∘h = f∘(g∘h) for all composable f, h are closed under composition
    (Clifford & Preston, The Algebraic Theory of Semigroups I, 1961, §1.2),
    and identities are among them once they are neutral.  So it suffices
    to test the middle position on a generating set.
    """
    t = c.int_table()
    src, tgt, comp, ident = t.src, t.tgt, t.comp, t.identity
    names = [m.mid for m in c.morphisms]

    for x, (name, i) in enumerate(zip(c.objects, ident)):
        if i < 0:
            raise MissingIdentity(f"object {name!r} has no identity")
        if src[i] != x or tgt[i] != x:
            raise MissingIdentity(f"identity of {name!r} is not an endomorphism of it")

    for g, row in enumerate(comp):
        for f, h in enumerate(row):
            if h < 0:
                continue
            if tgt[f] != src[g]:
                raise BadComposite(f"table entry for non-composable pair "
                                   f"({names[g]!r}, {names[f]!r})")
            if src[h] != src[f] or tgt[h] != tgt[g]:
                raise BadComposite(f"{names[g]!r}∘{names[f]!r} = {names[h]!r} "
                                   "has the wrong endpoints")
    for g, row in enumerate(comp):
        for f in t.into[src[g]]:
            if row[f] < 0:
                raise BadComposite(f"missing composite {names[g]!r}∘{names[f]!r}")

    for f, name in enumerate(names):
        if comp[ident[tgt[f]]][f] != f:
            raise MissingIdentity(f"id∘{name!r} differs from {name!r}")
        if comp[f][ident[src[f]]] != f:
            raise MissingIdentity(f"{name!r}∘id differs from {name!r}")

    for g in _generators(t):
        hs = t.into[src[g]]
        gh = [comp[g][h] for h in hs]
        pick_h, pick_gh = itemgetter(*hs), itemgetter(*gh)
        for f in t.out[tgt[g]]:
            row_f = comp[f]
            row_fg = comp[row_f[g]]
            if pick_h(row_fg) != pick_gh(row_f):
                h = next(h for h, k in zip(hs, gh) if row_fg[h] != row_f[k])
                raise NotAssociative(f"({names[f]!r}, {names[g]!r}, {names[h]!r})")


def _generators(t: IntTable) -> list[int]:
    """Morphism indices that generate every non-identity under composition.

    Greedy in declaration order: a morphism not yet reached becomes a
    generator, and the reached set is closed again by composing each new
    member with every member on both sides.  Only table lookups are used,
    so no associativity is assumed; the table must be complete and its
    identities neutral.
    """
    comp, src, tgt = t.comp, t.src, t.tgt
    reached = [False] * len(comp)
    for i in t.identity:
        reached[i] = True
    into: list[list[int]] = [[] for _ in t.into]   # reached, by target
    out: list[list[int]] = [[] for _ in t.out]     # reached, by source
    gens = []
    for m in range(len(comp)):
        if reached[m]:
            continue
        gens.append(m)
        reached[m] = True
        work = [m]
        while work:
            a = work.pop()
            into[tgt[a]].append(a)
            out[src[a]].append(a)
            row = comp[a]
            for h in [row[b] for b in into[src[a]]] + [comp[b][a] for b in out[tgt[a]]]:
                if not reached[h]:
                    reached[h] = True
                    work.append(h)
    return gens


# --- constructors ---------------------------------------------------------


def monoid_category(elements: list[str], table: dict, unit: str,
                    object_name: str = "*") -> FinCat:
    """One-object category from a monoid multiplication table.

    table[(a, b)] is the product "b then a", matching composition order.
    """
    morphisms = [(e, object_name, object_name) for e in elements]
    return FinCat([object_name], morphisms, {object_name: unit}, dict(table))


def cyclic_group_category(n: int) -> FinCat:
    if n < 1:
        raise QuivercalcError(f"the cyclic group C_n needs n >= 1, not {n}")
    elements = [f"g{i}" for i in range(n)]
    table = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}"
             for i in range(n) for j in range(n)}
    return monoid_category(elements, table, "g0")


def _perm_name(p: tuple) -> str:
    return "p" + "".join(str(i) for i in p)


def symmetric_group_category(n: int) -> FinCat:
    """B(S_n); permutations in itertools order, (σ∘τ)(i) = σ(τ(i))."""
    if not 1 <= n <= 6:
        raise QuivercalcError(f"symmetric groups are built for 1 <= n <= 6, not {n}")
    perms = list(itertools.permutations(range(n)))
    name = {p: _perm_name(p) for p in perms}
    table = {(name[s], name[t]): name[tuple(map(s.__getitem__, t))]
             for s in perms for t in perms}
    return monoid_category(list(name.values()), table, name[tuple(range(n))])


def poset_category(elements: list[str], leq: Iterable[tuple]) -> FinCat:
    """Category of a poset: one morphism x -> y per related pair x <= y.

    leq must contain all related pairs (reflexivity is added, transitivity
    is required and checked by closing the table).
    """
    rel = set(leq) | {(x, x) for x in elements}
    morphisms = [(f"le:{x}:{y}", x, y) for x in elements for y in elements
                 if (x, y) in rel]
    table = {}
    for (x, y) in rel:
        for (y2, z) in rel:
            if y == y2:
                if (x, z) not in rel:
                    raise QuivercalcError(f"relation not transitive at {(x, y, z)}")
                table[(f"le:{y}:{z}", f"le:{x}:{y}")] = f"le:{x}:{z}"
    ids = {x: f"le:{x}:{x}" for x in elements}
    return FinCat(elements, morphisms, ids, table)


def chain_poset_category(n: int) -> FinCat:
    """The linear order 0 < 1 < ... < n-1 as a category."""
    elements = [str(i) for i in range(n)]
    leq = [(str(i), str(j)) for i in range(n) for j in range(i, n)]
    return poset_category(elements, leq)


def walking_arrow_category() -> FinCat:
    """Two objects and a single non-identity morphism between them."""
    return poset_category(["0", "1"], [("0", "1")])


# --- functors -------------------------------------------------------------


class Functor:
    def __init__(self, source: FinCat, target: FinCat,
                 object_map: dict, morphism_map: dict):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.morphism_map = dict(morphism_map)

        for x in source.objects:
            if x not in self.object_map:
                raise QuivercalcError(f"object {x!r} has no image")
            target.object_index(self.object_map[x])
        for m in source.morphisms:
            if m.mid not in self.morphism_map:
                raise QuivercalcError(f"morphism {m.mid!r} has no image")
            im = target.mor(self.morphism_map[m.mid])
            if (im.src, im.tgt) != (self.object_map[m.src], self.object_map[m.tgt]):
                raise QuivercalcError(f"image of {m.mid!r} has the wrong endpoints")
        for x in source.objects:
            if self.morphism_map[source.identity(x)] != target.identity(self.object_map[x]):
                raise QuivercalcError(f"identity of {x!r} not preserved")
        for (g, f), h in source.table.items():
            if source.tgt(f) != source.src(g):
                continue
            got = target.comp(self.morphism_map[g], self.morphism_map[f])
            if got != self.morphism_map[h]:
                raise QuivercalcError(f"composition not preserved at ({g!r}, {f!r})")

    def __call__(self, mid: str) -> str:
        return self.morphism_map[mid]


# --- representations ------------------------------------------------------


class Representation:
    """An object per vertex and a compatible morphism per edge."""

    def __init__(self, category: FinCat, graph: Digraph,
                 vertex_labels: dict, edge_labels: dict):
        self.category = category
        self.graph = graph
        self.vertex_labels = dict(vertex_labels)
        self.edge_labels = dict(edge_labels)

        try:
            for v in graph.vertices:
                category.object_index(self.vertex_labels[v])
            for e in graph.edges:
                m = category.mor(self.edge_labels[e.eid])
                want = (self.vertex_labels[e.src], self.vertex_labels[e.tgt])
                if (m.src, m.tgt) != want:
                    raise QuivercalcError(
                        f"label of edge {e.eid!r} has endpoints "
                        f"{(m.src, m.tgt)}, expected {want}")
        except KeyError as missing:     # the only lookups here are labels
            raise QuivercalcError(
                f"no label for vertex or edge {missing.args[0]!r}") from None

    @classmethod
    def from_indices(cls, category: FinCat, graph: Digraph,
                     x: tuple) -> "Representation":
        """The representation an index tuple stands for (see rep_tuples)."""
        nv = len(graph.vertices)
        return cls(category, graph,
                   {v: category.objects[i] for v, i in zip(graph.vertices, x)},
                   {e.eid: category.morphisms[m].mid
                    for e, m in zip(graph.edges, x[nv:])})

    def indices(self) -> tuple:
        """The index tuple of this representation (see rep_tuples)."""
        c = self.category
        return (tuple(c._oindex[self.vertex_labels[v]] for v in self.graph.vertices)
                + tuple(c._mindex[self.edge_labels[e.eid]] for e in self.graph.edges))

    def key(self) -> tuple:
        return (tuple(self.vertex_labels[v] for v in self.graph.vertices),
                tuple(self.edge_labels[e.eid] for e in self.graph.edges))

    def restrict(self, sub: Digraph) -> "Representation":
        return Representation(
            self.category, sub,
            {v: self.vertex_labels[v] for v in sub.vertices},
            {e.eid: self.edge_labels[e.eid] for e in sub.edges})

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.graph == other.graph
                and self.vertex_labels == other.vertex_labels
                and self.edge_labels == other.edge_labels)

    def __hash__(self):
        return hash((self.graph, self.key()))

    def __repr__(self):
        vs = ", ".join(f"{v}={self.vertex_labels[v]}" for v in self.graph.vertices)
        es = ", ".join(f"{e.eid}={self.edge_labels[e.eid]}" for e in self.graph.edges)
        return f"Rep({vs} | {es})"


def rep_tuples(category: FinCat, graph: Digraph) -> list[tuple]:
    """All representations as index tuples: an object index per vertex,
    then a morphism index per edge, in declaration order.  The list is
    sorted, which is enumerate_reps' order, since indices follow the
    declaration order of objects and morphisms."""
    hom = category.int_table().hom
    ends = [(graph.vertex_index(e.src), graph.vertex_index(e.tgt))
            for e in graph.edges]
    out: list[tuple] = []
    for objs in itertools.product(range(len(category.objects)),
                                  repeat=len(graph.vertices)):
        options = [hom[objs[s]][objs[t]] for s, t in ends]
        out.extend(objs + choice for choice in itertools.product(*options))
    return out


def enumerate_reps(category: FinCat, graph: Digraph) -> list[Representation]:
    """All representations, lexicographic in (vertex labels, edge labels)
    with objects and morphisms taken in declaration order."""
    return [Representation.from_indices(category, graph, x)
            for x in rep_tuples(category, graph)]


def limit_sections(shape: FinCat, carriers: dict, actions: dict) -> list[dict]:
    """Sections of a set-valued diagram on a finite category.

    carriers[x] is a list for each object x; actions[m] for each non-identity
    morphism m: x -> y maps an element chosen at y back to the required
    element at x.  A section picks one element per object so that every
    action constraint holds.  Returned in lexicographic carrier order.
    """
    order = list(shape.objects)
    pos = {x: i for i, x in enumerate(order)}
    constraints: dict[str, list] = {x: [] for x in order}
    for m in shape.morphisms:
        if shape.is_identity(m.mid):
            continue
        act = actions[m.mid]
        # check each constraint as soon as both of its ends are assigned
        later = m.tgt if pos[m.tgt] >= pos[m.src] else m.src
        constraints[later].append(
            lambda s, m=m, act=act: act(s[m.tgt]) == s[m.src])

    if not order:
        return [{}]
    sections: list[dict] = []
    section: dict = {}
    # a depth-first search with one carrier iterator per assigned object
    pending = [iter(carriers[order[0]])]
    while pending:
        x = order[len(pending) - 1]
        for val in pending[-1]:
            section[x] = val
            if all(chk(section) for chk in constraints[x]):
                break
        else:
            pending.pop()
            section.pop(x, None)
            continue
        if len(pending) == len(order):
            sections.append(dict(section))
        else:
            pending.append(iter(carriers[order[len(pending)]]))
    return sections


def rep_via_exit_limit(category: FinCat, graph: Digraph) -> list[Representation]:
    """Representations computed as a limit over the exit-path category.

    Vertex objects carry all objects of C, edge objects all morphisms of C,
    and the two incidence morphisms of an edge constrain a chosen morphism's
    source and target.  This shares no code with enumerate_reps beyond the
    data types, and serves as its oracle.
    """
    shape = exit_path(graph)
    carriers = {}
    for v in graph.vertices:
        carriers[f"v:{v}"] = list(category.objects)
    for e in graph.edges:
        carriers[f"e:{e.eid}"] = [m.mid for m in category.morphisms]
    actions = {}
    for e in graph.edges:
        actions[f"src:{e.eid}"] = category.src
        actions[f"tgt:{e.eid}"] = category.tgt
    out = []
    for s in limit_sections(shape, carriers, actions):
        vlab = {v: s[f"v:{v}"] for v in graph.vertices}
        elab = {e.eid: s[f"e:{e.eid}"] for e in graph.edges}
        out.append(Representation(category, graph, vlab, elab))
    return out


def path_steps(graph: Digraph, path, offset: int) -> tuple:
    """A path of graph as an index_program step: the position of its start
    vertex and of each of its edges in graph's index tuple, which starts at
    `offset` of the program's argument."""
    nv = len(graph.vertices)
    return (offset + graph.vertex_index(path.start),
            [offset + nv + graph.edge_index(eid) for eid in path.edges])


def index_program(category: FinCat, vertex_pos, edge_steps) -> Callable:
    """A map of index tuples, compiled once: x goes to the tuple of x[p] for
    p in vertex_pos, followed, for each step (start, positions) in
    edge_steps, by the composite of the morphisms x[p] for p in positions,
    starting from the identity at the object x[start].

    The category must pass validate_fincat.  A missing identity or
    composite raises MissingIdentity or BadComposite, as FinCat.identity
    and FinCat.comp do, so a -1 of the compiled table is never used as an
    index.
    """
    t = category.int_table()
    comp, ident = t.comp, t.identity

    def run(x: tuple) -> tuple:
        out = [x[p] for p in vertex_pos]
        for start, positions in edge_steps:
            m = ident[x[start]]
            if m < 0:
                raise MissingIdentity(
                    f"object {category.objects[x[start]]!r} has no identity")
            for p in positions:
                g = x[p]
                h = comp[g][m]
                if h < 0:
                    raise BadComposite(
                        f"composite of {category.morphisms[g].mid!r} after "
                        f"{category.morphisms[m].mid!r} missing from table")
                m = h
            out.append(m)
        return tuple(out)

    return run


def compile_pullback(category: FinCat, qmor, offset: int) -> Callable:
    """pullback_rep along qmor on index tuples: it reads the target graph's
    tuple from position `offset` of its argument and returns the source
    graph's tuple."""
    tgt = qmor.target
    return index_program(
        category,
        [offset + tgt.vertex_index(qmor.vertex_map[v]) for v in qmor.source.vertices],
        [path_steps(tgt, qmor.edge_paths[e.eid], offset) for e in qmor.source.edges])


def compose_along_path(rep: Representation, path) -> str:
    """The composite morphism a representation assigns to an edge path
    (identity at the starting vertex's label for the empty path)."""
    c = rep.category
    run = index_program(c, (), [path_steps(rep.graph, path, 0)])
    return c.morphisms[run(rep.indices())[0]].mid


def pullback_rep(qmor, rep: Representation) -> Representation:
    """Restrict a representation of the target graph along a quiver morphism.

    Vertices pull back through the vertex map; an edge picks up the composite
    of its image path (collapsed edges get identities).
    """
    if rep.graph != qmor.target:
        raise QuivercalcError("representation lives on a different graph")
    pull = compile_pullback(rep.category, qmor, 0)
    return Representation.from_indices(rep.category, qmor.source,
                                       pull(rep.indices()))


# --- the closed-sheaf condition -------------------------------------------


@dataclass
class SheafVerdict:
    ok: bool
    total: int
    left: int
    right: int
    intersection: int
    fiber_product: int
    witness: str | None = None


def _restriction(graph: Digraph, sub: Digraph) -> Callable:
    """Restriction of index tuples from a graph to a subgraph."""
    nv = len(graph.vertices)
    positions = ([graph.vertex_index(v) for v in sub.vertices]
                 + [nv + graph.edge_index(e.eid) for e in sub.edges])
    return lambda x: tuple([x[p] for p in positions])


def check_closed_sheaf(category: FinCat, cover: ClosedCover) -> SheafVerdict:
    """Check that restriction identifies Rep(whole) with the fiber product
    of Rep(left) and Rep(right) over Rep(intersection).

    The fiber product is a hash join of Rep(left) with Rep(right) on the
    restriction to the intersection.  Restrictions of one representation
    always agree there, so the image lies in the fiber product, and the two
    are equal exactly when they have the same size.
    """
    whole = rep_tuples(category, cover.ambient)
    left = rep_tuples(category, cover.left)
    right = rep_tuples(category, cover.right)
    inter = rep_tuples(category, cover.intersection)

    left_key = _restriction(cover.left, cover.intersection)
    right_key = _restriction(cover.right, cover.intersection)
    by_key: dict[tuple, list[tuple]] = {}
    for b in right:
        by_key.setdefault(right_key(b), []).append(b)
    fiber = sum(len(by_key.get(left_key(a), ())) for a in left)

    to_left = _restriction(cover.ambient, cover.left)
    to_right = _restriction(cover.ambient, cover.right)
    image: set[tuple] = set()
    repeated = None
    for x in whole:
        pair = (to_left(x), to_right(x))
        if pair in image:
            repeated = x
        image.add(pair)

    witness = None
    if repeated is not None:
        r = Representation.from_indices(category, cover.ambient, repeated)
        witness = f"restriction not injective at {r!r}"
    elif len(image) != fiber:
        def key(graph, x):
            return Representation.from_indices(category, graph, x).key()
        unglued = min((key(cover.left, a), key(cover.right, b))
                      for a in left for b in by_key.get(left_key(a), ())
                      if (a, b) not in image)
        witness = f"unglued compatible pair: {unglued}"
    return SheafVerdict(witness is None, len(whole), len(left), len(right),
                        len(inter), fiber, witness)
