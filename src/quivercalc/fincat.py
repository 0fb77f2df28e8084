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
        self.identities = dict(identities)
        self.table = dict(compose)

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


def validate_fincat(c: FinCat) -> None:
    """Check the category laws; raises on the first failure.

    MissingIdentity: an object without an identity, or an identity that is
    not neutral.  BadComposite: a composable pair missing from the table, a
    table entry for a non-composable pair, or a composite with the wrong
    endpoints.  NotAssociative: a failing triple.
    """
    for x in c.objects:
        if x not in c.identities:
            raise MissingIdentity(f"object {x!r} has no identity")
        i = c.mor(c.identity(x))
        if (i.src, i.tgt) != (x, x):
            raise MissingIdentity(f"identity of {x!r} is not an endomorphism of it")

    for (g, f), h in c.table.items():
        if c.tgt(f) != c.src(g):
            raise BadComposite(f"table entry for non-composable pair ({g!r}, {f!r})")
        hm = c.mor(h)
        if (hm.src, hm.tgt) != (c.src(f), c.tgt(g)):
            raise BadComposite(f"{g!r}∘{f!r} = {h!r} has the wrong endpoints")
    for g in c.morphisms:
        for f in c.morphisms:
            if f.tgt == g.src and (g.mid, f.mid) not in c.table:
                raise BadComposite(f"missing composite {g.mid!r}∘{f.mid!r}")

    for f in c.morphisms:
        if c.comp(c.identity(f.tgt), f.mid) != f.mid:
            raise MissingIdentity(f"id∘{f.mid!r} differs from {f.mid!r}")
        if c.comp(f.mid, c.identity(f.src)) != f.mid:
            raise MissingIdentity(f"{f.mid!r}∘id differs from {f.mid!r}")

    for h in c.morphisms:
        for g in c.morphisms:
            if h.tgt != g.src:
                continue
            gh = c.comp(g.mid, h.mid)
            for f in c.morphisms:
                if g.tgt != f.src:
                    continue
                if c.comp(c.comp(f.mid, g.mid), h.mid) != c.comp(f.mid, gh):
                    raise NotAssociative(f"({f.mid!r}, {g.mid!r}, {h.mid!r})")


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
    table = {}
    for s in perms:
        for t in perms:
            st = tuple(s[t[i]] for i in range(n))
            table[(_perm_name(s), _perm_name(t))] = _perm_name(st)
    return monoid_category([_perm_name(p) for p in perms], table,
                           _perm_name(tuple(range(n))))


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


def enumerate_reps(category: FinCat, graph: Digraph) -> list[Representation]:
    """All representations, lexicographic in (vertex labels, edge labels)
    with objects and morphisms taken in declaration order."""
    reps = []
    vs = graph.vertices
    for assignment in itertools.product(category.objects, repeat=len(vs)):
        vlab = dict(zip(vs, assignment))
        options = [category.hom(vlab[e.src], vlab[e.tgt]) for e in graph.edges]
        for choice in itertools.product(*options):
            elab = {e.eid: mid for e, mid in zip(graph.edges, choice)}
            reps.append(Representation(category, graph, vlab, elab))
    return reps


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


def compose_along_path(rep: Representation, path) -> str:
    """The composite morphism a representation assigns to an edge path
    (identity at the starting vertex's label for the empty path)."""
    c = rep.category
    out = c.identity(rep.vertex_labels[path.start])
    for eid in path.edges:
        out = c.comp(rep.edge_labels[eid], out)
    return out


def pullback_rep(qmor, rep: Representation) -> Representation:
    """Restrict a representation of the target graph along a quiver morphism.

    Vertices pull back through the vertex map; an edge picks up the composite
    of its image path (collapsed edges get identities).
    """
    if rep.graph != qmor.target:
        raise QuivercalcError("representation lives on a different graph")
    vlab = {v: rep.vertex_labels[qmor.vertex_map[v]]
            for v in qmor.source.vertices}
    elab = {e.eid: compose_along_path(rep, qmor.edge_paths[e.eid])
            for e in qmor.source.edges}
    return Representation(rep.category, qmor.source, vlab, elab)


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


def check_closed_sheaf(category: FinCat, cover: ClosedCover) -> SheafVerdict:
    """Check that restriction identifies Rep(whole) with the fiber product
    of Rep(left) and Rep(right) over Rep(intersection)."""
    whole = enumerate_reps(category, cover.ambient)
    left = enumerate_reps(category, cover.left)
    right = enumerate_reps(category, cover.right)
    inter = enumerate_reps(category, cover.intersection)

    fiber = set()
    for a in left:
        for b in right:
            if a.restrict(cover.intersection) == b.restrict(cover.intersection):
                fiber.add((a.key(), b.key()))

    image = set()
    witness = None
    for r in whole:
        pair = (r.restrict(cover.left).key(), r.restrict(cover.right).key())
        if pair in image:
            witness = f"restriction not injective at {r!r}"
        image.add(pair)

    ok = witness is None and image == fiber
    if not ok and witness is None:
        extra = fiber - image
        missing = image - fiber
        if extra:
            witness = f"unglued compatible pair: {sorted(extra)[0]}"
        else:
            witness = f"image escapes the fiber product: {sorted(missing)[0]}"
    return SheafVerdict(ok, len(whole), len(left), len(right), len(inter),
                        len(fiber), witness)
