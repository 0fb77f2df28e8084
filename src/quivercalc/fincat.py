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
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple

from .digraph import (ClosedCover, Digraph, Incomposable, QuivercalcError,
                      check_names, json_arrows, labellings)


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


class IntTable(NamedTuple):
    """A FinCat on indices into its objects and morphisms.

    src[m], tgt[m]: object indices.  identity[x]: a morphism index, or -1
    for an object without one.  into[x], out[x]: the morphisms with target,
    resp. source, x, in declaration order; at[f] is f's position in
    into[tgt[f]], and hom[x] maps y to the morphisms from x to y.
    comp[g][at[f]]: the index of g∘f for each f composable with g, or -1
    where the table has no entry; each row comp[g] is a tuple, so no caller
    can change the table behind validate_fincat's back.  Table entries for
    non-composable pairs are kept apart in stray, so validate_fincat can
    report them.
    """
    src: list[int]
    tgt: list[int]
    identity: list[int]
    into: list[list[int]]
    out: list[list[int]]
    at: list[int]
    hom: list[dict[int, list[int]]]
    comp: list[tuple[int, ...]]
    stray: dict[tuple[int, int], int]


class FinCat:
    """A finite category: objects, morphisms, identities, composition table.

    compose is a list of triples (g, f, h), lists or tuples, each saying
    g∘f = h ("f then g"), as the JSON format does; they are read in order,
    and a repeated (g, f) keeps its last h.  Construction resolves every
    name to its index once, into int_table, the only stored form of the
    category; it checks only that the names resolve, and validate_fincat
    checks the categorical laws.
    """

    def __init__(self, objects: Iterable[str], morphisms: Iterable,
                 identities: dict, compose: list):
        self.objects = tuple(objects)
        self.morphisms = tuple(Mor(*m) for m in morphisms)
        identities = dict(identities)

        self._oindex = oindex = {x: i for i, x in enumerate(self.objects)}
        if len(oindex) != len(self.objects):
            raise QuivercalcError("duplicate object names")
        self._mindex = mindex = {m.mid: i for i, m in enumerate(self.morphisms)}
        if len(mindex) != len(self.morphisms):
            raise QuivercalcError("duplicate morphism names")
        src, tgt, at = [], [], []
        into: list[list[int]] = [[] for _ in oindex]
        out: list[list[int]] = [[] for _ in oindex]
        hom: list[dict[int, list[int]]] = [{} for _ in oindex]
        for i, m in enumerate(self.morphisms):
            if m.src not in oindex or m.tgt not in oindex:
                raise QuivercalcError(f"morphism {m.mid!r} has undeclared endpoints")
            x, y = oindex[m.src], oindex[m.tgt]
            src.append(x)
            tgt.append(y)
            at.append(len(into[y]))
            into[y].append(i)
            out[x].append(i)
            hom[x].setdefault(y, []).append(i)
        identity = [-1] * len(self.objects)
        for x, i in identities.items():
            if x not in oindex:
                raise QuivercalcError(f"identity for undeclared object {x!r}")
            if i not in mindex:
                raise QuivercalcError(f"identity {i!r} is not a declared morphism")
            identity[oindex[x]] = mindex[i]
        comp = [[-1] * len(into[x]) for x in src]
        stray: dict[tuple[int, int], int] = {}
        # a string or a dict of three names would unpack as a triple
        if not _TRIPLE_TYPES.issuperset(map(type, compose)) and not all(
                isinstance(entry, (list, tuple)) for entry in compose):
            raise QuivercalcError(_compose_fault(compose, mindex))
        try:
            for g, f, h in compose:
                gi, fi, hi = mindex[g], mindex[f], mindex[h]
                if tgt[fi] == src[gi]:
                    comp[gi][at[fi]] = hi
                else:
                    stray[gi, fi] = hi
        except (KeyError, TypeError, ValueError):
            raise QuivercalcError(_compose_fault(compose, mindex)) from None
        self.int_table = IntTable(src, tgt, identity, into, out, at, hom,
                                  list(map(tuple, comp)), stray)
        self.hh_table = None      # trace classes, filled by compute_hh
        self.generators = None    # set by validate_fincat once the laws hold

    @property
    def identities(self) -> MappingProxyType:
        """object -> its identity, by name, in object order; read-only."""
        return MappingProxyType({
            x: self.morphisms[i].mid
            for x, i in zip(self.objects, self.int_table.identity) if i >= 0})

    @cached_property
    def relation(self) -> tuple[list[dict], list[dict]]:
        """labellings' relation: int_table.hom, keys ascending, and its transpose."""
        hom = [dict(sorted(h.items())) for h in self.int_table.hom]
        return hom, [{x: h[y] for x, h in enumerate(hom) if y in h}
                     for y in range(len(hom))]

    @property
    def table(self) -> MappingProxyType:
        """(g, f) -> g∘f, by name, in index order of (g, f): a read-only dict
        built from int_table on each access; comp looks up one composite."""
        t, names = self.int_table, [m.mid for m in self.morphisms]
        entries = [(g, f, h) for g, row in enumerate(t.comp)
                   for f, h in zip(t.into[t.src[g]], row) if h >= 0]
        if t.stray:
            entries = sorted(entries + [(g, f, h) for (g, f), h in t.stray.items()])
        return MappingProxyType({(names[g], names[f]): names[h]
                                 for g, f, h in entries})

    def mor(self, mid: str) -> Mor:
        return self.morphisms[self.morphism_index(mid)]

    def src(self, mid: str) -> str:
        return self.mor(mid).src

    def tgt(self, mid: str) -> str:
        return self.mor(mid).tgt

    def identity(self, x: str) -> str:
        i = self.int_table.identity[self.object_index(x)]
        if i < 0:
            raise MissingIdentity(f"object {x!r} has no identity")
        return self.morphisms[i].mid

    def is_identity(self, mid: str) -> bool:
        """Whether mid is the identity of its source."""
        m = self._mindex.get(mid)
        return m is not None and self.int_table.identity[self.int_table.src[m]] == m

    def hom(self, x: str, y: str) -> list[str]:
        if x not in self._oindex or y not in self._oindex:
            return []
        ms = self.int_table.hom[self._oindex[x]].get(self._oindex[y], [])
        return [self.morphisms[m].mid for m in ms]

    def endomorphisms(self) -> list[str]:
        return [m.mid for m in self.morphisms if m.src == m.tgt]

    def comp(self, g: str, f: str) -> str:
        """g∘f, i.e. f followed by g."""
        fi, gi = self.morphism_index(f), self.morphism_index(g)
        t = self.int_table
        if t.tgt[fi] != t.src[gi]:
            raise Incomposable(f"{g!r} after {f!r}")
        h = t.comp[gi][t.at[fi]]
        if h < 0:
            raise BadComposite(f"composite of {g!r} after {f!r} missing from table")
        return self.morphisms[h].mid

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

    def __repr__(self):
        return f"FinCat({len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    # serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "objects": list(self.objects),
            "morphisms": [{"id": m.mid, "src": m.src, "tgt": m.tgt}
                          for m in self.morphisms],
            "ids": dict(self.identities),
            "compose": [[g, f, h] for (g, f), h in self.table.items()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FinCat":
        for key in ("objects", "morphisms", "ids", "compose"):
            if not isinstance(data, dict) or key not in data:
                raise QuivercalcError(f"category JSON needs {key!r}")
        morphisms = json_arrows(data["morphisms"], "morphism")
        check_names(data["objects"], "object")
        check_names([mid for mid, _, _ in morphisms], "morphism")
        ids, compose = data["ids"], data["compose"]
        if not (isinstance(ids, dict)
                and all(isinstance(i, str) for i in ids.values())):
            raise QuivercalcError("'ids' must map objects to morphism names")
        if not isinstance(compose, list):
            raise QuivercalcError("'compose' must be a list of [g, f, h] triples")
        return cls(data["objects"], morphisms, ids, compose)


_TRIPLE_TYPES = frozenset({list, tuple})


def _compose_fault(compose, mindex: dict) -> str:
    """What is wrong with a composition table that does not resolve: its
    first entry, counted from 0, that is no triple of names, wherever it
    stands, else its first unknown name."""
    for n, entry in enumerate(compose):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                and all(isinstance(mid, str) for mid in entry)):
            return f"compose entry {n} is not a [g, f, h] triple"
    unknown = next(mid for entry in compose for mid in entry if mid not in mindex)
    return f"composition table mentions unknown {unknown!r}"


def validate_fincat(c: FinCat) -> None:
    """Check the category laws; raises on the first failure.

    MissingIdentity: an object without an identity, or an identity that is
    not neutral.  BadComposite: a table entry for a non-composable pair, a
    composite with the wrong endpoints, or a composable pair missing from
    the table.  NotAssociative: a failing triple (f, g, h), i.e.
    (f∘g)∘h != f∘(g∘h).

    The entries are checked a whole row at a time (_rows_well_formed);
    only a table that fails this pass is scanned entry by entry, to name
    its first bad entry.

    Associativity is checked by Light's test: the morphisms g with
    (f∘g)∘h = f∘(g∘h) for all composable f, h are closed under composition
    (Clifford & Preston, The Algebraic Theory of Semigroups I, 1961, §1.2),
    and identities are among them once they are neutral.  So it suffices
    to test the middle position on a generating set, one row f at a time.
    When every check passes, that set is stored as c.generators, which
    also marks c as validated; the trace classes are computed from it.
    """
    t = c.int_table
    src, tgt, comp, ident, at = t.src, t.tgt, t.comp, t.identity, t.at
    names = [m.mid for m in c.morphisms]

    for x, (name, i) in enumerate(zip(c.objects, ident)):
        if i < 0:
            raise MissingIdentity(f"object {name!r} has no identity")
        if src[i] != x or tgt[i] != x:
            raise MissingIdentity(f"identity of {name!r} is not an endomorphism of it")

    # the first bad entry in index order: a stray one, or the first composite
    # with the wrong endpoints; looked for only in a table that has one
    if not _rows_well_formed(t):
        wrong = ((g, f) for g, row in enumerate(comp)
                 for f, h in zip(t.into[src[g]], row)
                 if h >= 0 and (src[h] != src[f] or tgt[h] != tgt[g]))
        first = min(itertools.chain(t.stray, itertools.islice(wrong, 1)), default=None)
        if first is not None:
            g, f = first
            if first in t.stray:
                raise BadComposite(f"table entry for non-composable pair "
                                   f"({names[g]!r}, {names[f]!r})")
            raise BadComposite(f"{names[g]!r}∘{names[f]!r} = "
                               f"{names[comp[g][at[f]]]!r} has the wrong endpoints")
        for g, row in enumerate(comp):
            for f, h in zip(t.into[src[g]], row):
                if h < 0:
                    raise BadComposite(f"missing composite {names[g]!r}∘{names[f]!r}")

    for f, name in enumerate(names):
        if comp[ident[tgt[f]]][at[f]] != f:
            raise MissingIdentity(f"id∘{name!r} differs from {name!r}")
        if comp[f][at[ident[src[f]]]] != f:
            raise MissingIdentity(f"{name!r}∘id differs from {name!r}")

    # comp[g] lists g∘h for h in into[src[g]]; so does comp[f∘g], which has
    # the same source, for (f∘g)∘h; comp[f] picked at the positions of the
    # g∘h lists f∘(g∘h)
    gens = _generators(t)
    for g in gens:
        pick = _getter([at[k] for k in comp[g]])
        for f in t.out[tgt[g]]:
            row_f = comp[f]
            row_fg = comp[row_f[at[g]]]
            if pick(row_f) != row_fg:
                h = next(h for h, a, b in zip(t.into[src[g]], row_fg, pick(row_f))
                         if a != b)
                raise NotAssociative(f"({names[f]!r}, {names[g]!r}, {names[h]!r})")
    c.generators = gens


def validated(c: FinCat) -> IntTable:
    """c's integer table, once c has passed validate_fincat: a category not
    validated yet is validated now, and its first fault raised."""
    if c.generators is None:
        validate_fincat(c)
    return c.int_table


def _rows_well_formed(t: IntTable) -> bool:
    """Whether t has no stray entry and each row g has no gap, and
    composites with the sources of into[src g] and the target tgt[g]: a
    few whole-row operations per row."""
    if t.stray:
        return False
    src, tgt = t.src, t.tgt
    src_into = [tuple(map(src.__getitem__, fs)) for fs in t.into]
    for g, row in enumerate(t.comp):
        pick = _getter(row)
        if (-1 in row or pick(src) != src_into[src[g]]
                or pick(tgt).count(tgt[g]) != len(row)):
            return False
    return True


def _getter(positions) -> Callable:
    """itemgetter(*positions), which returns a tuple for any number of
    positions, one or none included."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        p = positions[0]
        return lambda row: (row[p],)
    return lambda row: ()


def _generators(t: IntTable) -> list[int]:
    """Morphism indices that generate every non-identity under composition.

    Greedy in declaration order: a morphism not yet reached becomes a
    generator, and the reached set is closed again under composition with
    a generator on the left: the new generator m is composed with every
    reached morphism into src m, and every newly reached morphism with
    every generator out of its target.  So everything reached is a product
    s∘b of a generator s and a reached b, and the generators' closure
    under composition is every morphism.  On an associative table the
    reached set is the closure of the generators so far at every step, so
    the greedy picks what a two-sided closure would.  Only table lookups
    are used, so no associativity is assumed; the table must be complete
    and its identities neutral.  O(M·|gens| + the reached morphisms seen
    once per generator).
    """
    comp, src, tgt, at = t.comp, t.src, t.tgt, t.at
    reached = [False] * len(comp)
    for i in t.identity:
        reached[i] = True
    into: list[list[int]] = [[] for _ in t.into]   # reached, by target
    left: list[list[int]] = [[] for _ in t.out]    # generators, by source
    gens = []
    for m in range(len(comp)):
        if reached[m]:
            continue
        gens.append(m)
        left[src[m]].append(m)
        reached[m] = True
        work = [m]
        row = comp[m]
        for h in [row[at[a]] for a in into[src[m]]]:
            if not reached[h]:
                reached[h] = True
                work.append(h)
        while work:
            b = work.pop()
            into[tgt[b]].append(b)
            a = at[b]
            for s in left[tgt[b]]:
                h = comp[s][a]
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
    return _one_object(elements, [(a, b, c) for (a, b), c in table.items()],
                       unit, object_name)


def _one_object(elements: list[str], compose: list, unit: str,
                x: str = "*") -> FinCat:
    """The one object x, with the elements as its morphisms."""
    return FinCat([x], [(e, x, x) for e in elements], {x: unit}, compose)


def cyclic_group_category(n: int) -> FinCat:
    if n < 1:
        raise QuivercalcError(f"the cyclic group C_n needs n >= 1, not {n}")
    return _one_object([f"g{i}" for i in range(n)],
                       [(f"g{i}", f"g{j}", f"g{(i + j) % n}")
                        for i in range(n) for j in range(n)], "g0")


def _perm_name(p: tuple) -> str:
    return "p" + "".join(str(i) for i in p)


def symmetric_group_category(n: int) -> FinCat:
    """B(S_n); permutations in itertools order, (σ∘τ)(i) = σ(τ(i))."""
    if not 1 <= n <= 6:
        raise QuivercalcError(f"symmetric groups are built for 1 <= n <= 6, not {n}")
    perms = list(itertools.permutations(range(n)))
    name = {p: _perm_name(p) for p in perms}
    compose = [(name[s], name[t], name[tuple(map(s.__getitem__, t))])
               for s in perms for t in perms]
    return _one_object(list(name.values()), compose, name[tuple(range(n))])


def poset_category(elements: list[str], leq: Iterable[tuple]) -> FinCat:
    """Category of a poset: one morphism x -> y per related pair x <= y.

    leq must contain all related pairs (reflexivity is added, transitivity
    is required and checked by closing the table).
    """
    leq = list(leq)
    rel = set(leq) | {(x, x) for x in elements}
    declared = set(elements)
    for pair in leq:
        if not declared.issuperset(pair):
            raise QuivercalcError(
                f"related pair {pair} has an undeclared element")
    # the pairs in declaration order, indexed by their smaller element
    above = {x: [y for y in elements if (x, y) in rel] for x in elements}
    morphisms = [(f"le:{x}:{y}", x, y) for x in elements for y in above[x]]
    compose = []
    for x in elements:
        for y in above[x]:
            for z in above[y]:
                if (x, z) not in rel:
                    raise QuivercalcError(f"relation not transitive at {(x, y, z)}")
                compose.append((f"le:{y}:{z}", f"le:{x}:{y}", f"le:{x}:{z}"))
    ids = {x: f"le:{x}:{x}" for x in elements}
    return FinCat(elements, morphisms, ids, compose)


def chain_poset_category(n: int) -> FinCat:
    """The linear order 0 < 1 < ... < n-1 as a category."""
    elements = [str(i) for i in range(n)]
    leq = [(str(i), str(j)) for i in range(n) for j in range(i, n)]
    return poset_category(elements, leq)


def walking_arrow_category() -> FinCat:
    """Two objects and a single non-identity morphism between them."""
    return poset_category(["0", "1"], [("0", "1")])


def exit_path(d: Digraph) -> FinCat:
    """The exit-path category of a digraph.

    Objects: one per vertex ("v:x") and one per edge ("e:f").  Besides
    identities there is one morphism v:x -> e:f for every way x occurs as an
    endpoint of f (a self-loop contributes two).  No two non-identity
    morphisms are composable, so the composition table holds only identity
    laws.  The category is a poset exactly when the graph has no self-loops.
    """
    objects = [f"v:{v}" for v in d.vertices] + [f"e:{e.eid}" for e in d.edges]
    ids = {ob: f"id:{ob}" for ob in objects}
    morphisms = [(ids[ob], ob, ob) for ob in objects]
    for e in d.edges:
        morphisms.append((f"src:{e.eid}", f"v:{e.src}", f"e:{e.eid}"))
        morphisms.append((f"tgt:{e.eid}", f"v:{e.tgt}", f"e:{e.eid}"))
    compose = [t for mid, src, tgt in morphisms
               for t in ((ids[tgt], mid, mid), (mid, ids[src], mid))]
    return FinCat(objects, morphisms, ids, compose)


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


def rep_tuples(category: FinCat, graph: Digraph,
               limit: int | None = None) -> list[tuple]:
    """All representations as index tuples: an object index per vertex,
    then a morphism index per edge, in declaration order.  The list is
    sorted, which is enumerate_reps' order, since indices follow the
    declaration order of objects and morphisms.  With a limit, only the
    first `limit`, taken from a lazy enumeration that stops there."""
    return list(itertools.islice(itertools.chain.from_iterable(
        map(objs.__add__, itertools.product(*options))
        for objs, options in labellings(graph, *category.relation)), limit))


def rep_count(category: FinCat, graph: Digraph) -> int:
    """len(rep_tuples(category, graph)), without building the tuples."""
    return sum(math.prod(map(len, options))
               for _, options in labellings(graph, *category.relation))


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
    """A map of blocks of index tuples, compiled once: each tuple x of a
    block (a list) goes to the tuple of x[p] for p in vertex_pos, followed,
    for each step (start, positions) in edge_steps, by the composite of the
    morphisms x[p] for p in positions.  The block is transposed once and
    run a column at a time, one pass per path edge; map a single x as the
    block [x].  A step starts from its first edge's column, and from the
    identity at the object x[start] only when it has no edge.  The
    morphisms of each step must chain, as the edges of a path do in a
    representation.  The category is validated when the program is
    compiled (see validated), so its table has every identity and
    composite and a fault is raised before any row is read.
    """
    t = validated(category)
    comp, ident, at = t.comp, t.identity, t.at

    def run(block: list) -> list:
        if not (block and (vertex_pos or edge_steps)):
            return [()] * len(block)
        cols = list(zip(*block))
        out = [cols[p] for p in vertex_pos]
        for start, positions in edge_steps:
            if not positions:
                out.append([ident[o] for o in cols[start]])
                continue
            m = cols[positions[0]]
            for p in positions[1:]:
                m = [comp[g][at[f]] for g, f in zip(cols[p], m)]
            out.append(m)
        return list(zip(*out))

    return run


def compile_pullback(category: FinCat, qmor, offset: int) -> Callable:
    """pullback_rep along qmor on blocks of index tuples: it reads the
    target graph's tuple from position `offset` of each row and returns the
    source graph's tuples."""
    tgt = qmor.target
    return index_program(
        category,
        [offset + tgt.vertex_index(qmor.vertex_map[v]) for v in qmor.source.vertices],
        [path_steps(tgt, qmor.edge_paths[e.eid], offset) for e in qmor.source.edges])


def pullback_rep(qmor, rep: Representation) -> Representation:
    """Restrict a representation of the target graph along a quiver morphism.

    Vertices pull back through the vertex map; an edge picks up the composite
    of its image path (collapsed edges get identities).
    """
    if rep.graph != qmor.target:
        raise QuivercalcError("representation lives on a different graph")
    pull = compile_pullback(rep.category, qmor, 0)
    return Representation.from_indices(rep.category, qmor.source,
                                       pull([rep.indices()])[0])


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


def _restrict(xs: list, graph: Digraph, sub: Digraph) -> list:
    """Index tuples of graph, restricted to a subgraph."""
    nv = len(graph.vertices)
    return list(map(_getter([graph.vertex_index(v) for v in sub.vertices]
                            + [nv + graph.edge_index(e.eid) for e in sub.edges]),
                    xs))


def check_closed_sheaf(category: FinCat, cover: ClosedCover) -> SheafVerdict:
    """Check that restriction identifies Rep(whole) with the fiber product
    of Rep(left) and Rep(right) over Rep(intersection).

    The fiber product is counted by joining Rep(left) and Rep(right) on the
    intersection, where restrictions of one representation agree.  The
    pair (x|left, x|right) and x restricted to both pieces' union determine
    each other, so the image is counted on that one restriction.  When the
    pieces cover the graph, as every cover make_closed_cover builds does,
    that restriction is the identity: Rep(whole) is counted (rep_count),
    not enumerated, and the image is all of it.  The rows are enumerated
    and scanned for a witness only when a count disagrees, or to count the
    image of a cover that leaves something out.
    """
    ambient, left_g, right_g = cover.ambient, cover.left, cover.right
    left = rep_tuples(category, left_g)
    right = rep_tuples(category, right_g)
    left_keys = _restrict(left, left_g, cover.intersection)
    right_keys = _restrict(right, right_g, cover.intersection)
    fiber = sum(map(Counter(right_keys).__getitem__, left_keys))
    union = ambient.subgraph([*left_g.vertices, *right_g.vertices],
                             [e.eid for g in (left_g, right_g) for e in g.edges])
    if union == ambient:
        total = image = rep_count(category, ambient)
        whole = rep_tuples(category, ambient) if image != fiber else []
    else:
        whole = rep_tuples(category, ambient)
        keys = _restrict(whole, ambient, union)
        total, image = len(whole), len(set(keys))

    witness = None
    if image < total:
        # the last row whose restriction occurs twice repeats an earlier one
        counts = Counter(keys)
        repeated = next(x for x, k in zip(reversed(whole), reversed(keys))
                        if counts[k] > 1)
        r = Representation.from_indices(category, ambient, repeated)
        witness = f"restriction not injective at {r!r}"
    elif image != fiber:
        pairs = set(zip(_restrict(whole, ambient, left_g),
                        _restrict(whole, ambient, right_g)))
        by_key: dict[tuple, list[tuple]] = {}
        for k, b in zip(right_keys, right):
            by_key.setdefault(k, []).append(b)

        def key(graph, x):
            return Representation.from_indices(category, graph, x).key()
        unglued = min((key(left_g, a), key(right_g, b))
                      for a, k in zip(left, left_keys)
                      for b in by_key.get(k, ())
                      if (a, b) not in pairs)
        witness = f"unglued compatible pair: {unglued}"
    return SheafVerdict(witness is None, total, len(left), len(right),
                        rep_count(category, cover.intersection), fiber, witness)
