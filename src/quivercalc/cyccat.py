"""Morphism arithmetic for the paracyclic and epicyclic categories.

A paracyclic morphism (1/m)Z -> (1/n)Z is a monotone map g: Z -> Z with
g(i+m) = g(i) + n, stored by its m values g(0..m-1).  Distinct value lists
are distinct morphisms -- hom-sets here are infinite, with the integer
translates g + n of a map all different from g.

An epicyclic morphism is a functor between free categories on directed
cycles: a vertex map Z/m -> Z/n plus a winding length per edge.  Projecting
a paracyclic morphism to its epicyclic shadow forgets the translate.

Both kinds lift to monotone maps g: Z -> Z with g(i+m) = g(i) + d*n, d the
degree (1 for paracyclic morphisms; Dwyer, Hopkins & Kan 1985).  Everything
below is arithmetic on those values, so its cost grows with m, n and the
output, never with the size of the values.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right

from .quiver import DeltaMor, QuiverMor, check_integers, lift_mor
from .digraph import Incomposable, QuivercalcError, standard_digraph


def _para_sizes(m: int, n: int, *values) -> None:
    check_integers("paracyclic sizes and values", m, n, *values)
    if m < 1 or n < 1:
        raise QuivercalcError(f"(1/{m})Z -> (1/{n})Z needs m, n >= 1")


class ParaMor:
    def __init__(self, m: int, n: int, values):
        self.m = m
        self.n = n
        self.values = tuple(values)
        _para_sizes(m, n, *self.values)
        if len(self.values) != m:
            raise QuivercalcError("need exactly m values")
        for a, b in zip(self.values, self.values[1:]):
            if a > b:
                raise QuivercalcError("values must be monotone")
        if self.values[-1] > self.values[0] + n:
            raise QuivercalcError("values must fit in one period")

    def value(self, i: int) -> int:
        """The equivariant extension g(i + m) = g(i) + n at any integer."""
        return self.values[i % self.m] + (i // self.m) * self.n

    def __eq__(self, other):
        if not isinstance(other, ParaMor):
            return NotImplemented
        return (self.m, self.n, self.values) == (other.m, other.n, other.values)

    def __hash__(self):
        return hash((self.m, self.n, self.values))

    def __repr__(self):
        return f"ParaMor({format_para(self)!r})"


def identity_para(m: int) -> ParaMor:
    _para_sizes(m, m)
    return ParaMor(m, m, range(m))


def para_alpha(m: int) -> ParaMor:
    """The canonical rotation x -> x + 1 of (1/m)Z: phi_m of x -> x + m on Z."""
    return para_phi(m, ParaMor(1, 1, (m,)))


def para_small_rotation(m: int) -> ParaMor:
    """The step x -> x + 1/m; its m-th power is para_alpha(m)."""
    _para_sizes(m, m)
    return ParaMor(m, m, range(1, m + 1))


def compose_para(g: ParaMor, f: ParaMor) -> ParaMor:
    if f.n != g.m:
        raise Incomposable(f"(1/{f.m})Z -> (1/{f.n})Z then (1/{g.m})Z -> (1/{g.n})Z")
    return ParaMor(f.m, g.n, [g.value(v) for v in f.values])


def dualize_para(f: ParaMor) -> ParaMor:
    """The dual of f: j -> max{ i : f(i) <= j }.

    Contravariant: dual(g∘f) = dual(f)∘dual(g).  The dual of the canonical
    rotation is its inverse translate, and the dual of an identity is an
    identity.  Applying it twice conjugates by the unit shift,
    dual(dual(f)) = shift⁻¹ ∘ f ∘ shift, which is the inverse-equivalence
    law in coordinates; the strictly involutive version would live on
    half-integer gap midpoints, which don't round uniformly to vertices.
    """
    vals = []
    for j in range(f.n):
        # i = q*m + r with f(q*m) <= j < f((q+1)*m); then count the r
        q = (j - f.values[0]) // f.n
        vals.append(q * f.m + bisect_right(f.values, j - q * f.n) - 1)
    return ParaMor(f.n, f.m, vals)


def para_phi(r: int, f: ParaMor) -> ParaMor:
    """The r-fold inflation: (1/m)Z -> (1/rm)Z on objects; on morphisms the
    same equivariant map read over the r-times-longer fundamental domain.

    phi_r phi_s = phi_rs, and the image of the canonical rotation of the
    source is an r-th root of the canonical rotation of the image object.
    """
    if type(r) is not int:              # bool is no factor
        raise QuivercalcError(f"inflation needs an integer r, not {r!r}")
    if r < 1:
        raise QuivercalcError(f"inflation needs r >= 1, not {r}")
    return ParaMor(r * f.m, r * f.n, [f.value(j) for j in range(r * f.m)])


def delta_to_para(f: DeltaMor) -> ParaMor:
    """A monotone map [p] -> [q] as a paracyclic morphism
    (1/(p+1))Z -> (1/(q+1))Z with the same values."""
    return ParaMor(f.p + 1, f.q + 1, f.values)


def enumerate_para_transversal(m: int, n: int) -> list[ParaMor]:
    """One representative per translate orbit: all value lists with
    0 <= g(0) < n.  Every paracyclic morphism is a unique integer translate
    g + k*n of exactly one of these."""
    _para_sizes(m, n)
    return [ParaMor(m, n, (g0,) + rest) for g0 in range(n)
            for rest in itertools.combinations_with_replacement(
                range(g0, g0 + n + 1), m - 1)]


def format_para(f: ParaMor) -> str:
    return f"{f.m} {f.n} : " + " ".join(str(v) for v in f.values)


def parse_para(text: str) -> ParaMor:
    head, _, tail = text.partition(":")
    try:
        m, n = (int(x) for x in head.split())
        values = [int(x) for x in tail.split()]
    except ValueError:
        raise QuivercalcError(f"cannot parse paracyclic morphism from {text!r}")
    return ParaMor(m, n, values)


# --- the epicyclic category -------------------------------------------------


class EpiMor:
    """A functor between the free categories on directed m- and n-cycles.

    vertex_map[v] is the image vertex in Z/n; lengths[v] is how far the edge
    out of v winds forward.  The total winding must be a positive multiple
    of n (constant functors are excluded), and that multiple is the degree.
    values is the lift g(0..m-1): g(0) = vertex_map[0], then one length a
    step, so g(v + 1) - g(v) = lengths[v].
    """

    def __init__(self, m: int, n: int, vertex_map, lengths):
        self.m = m
        self.n = n
        self.vertex_map = tuple(vertex_map)
        self.lengths = tuple(lengths)
        check_integers("epicyclic sizes, vertex images and lengths",
                       m, n, *self.vertex_map, *self.lengths)
        if m < 1 or n < 1:
            raise QuivercalcError(f"cycles of sizes {m}, {n} need m, n >= 1")
        if len(self.vertex_map) != m or len(self.lengths) != m:
            raise QuivercalcError("need exactly m vertex images and m lengths")
        for v in self.vertex_map:
            if not 0 <= v < n:
                raise QuivercalcError(f"vertex image {v} outside Z/{n}")
        vm = self.vertex_map
        for v, l in enumerate(self.lengths):
            if l < 0:
                raise QuivercalcError(f"length at {v} is negative")
            want = (vm[(v + 1) % m] - vm[v]) % n
            if l % n != want:
                raise QuivercalcError(
                    f"length at {v} incompatible with the vertex map")
        total = sum(self.lengths)
        if total % n != 0 or total <= 0:
            raise QuivercalcError(
                "total winding must be a positive multiple of n")
        self.degree = total // n
        self.values = tuple(itertools.accumulate(self.lengths[:-1],
                                                 initial=self.vertex_map[0]))

    def value(self, i: int) -> int:
        """The lift at any integer: g(i + m) = g(i) + degree * n."""
        return self.values[i % self.m] + (i // self.m) * self.degree * self.n

    def to_quiver_mor(self) -> QuiverMor:
        """The same functor as a quiver morphism of directed cycles."""
        src, tgt = (standard_digraph("cyclic", k) for k in (self.m, self.n))
        cycle, image = ((g.vertices, tuple(e.eid for e in g.edges)) for g in (src, tgt))
        lift = (*self.values, self.value(self.m))
        return lift_mor(src, tgt, {}, {}, [(cycle, image, lift)])

    def __eq__(self, other):
        if not isinstance(other, EpiMor):
            return NotImplemented
        return ((self.m, self.n, self.vertex_map, self.lengths)
                == (other.m, other.n, other.vertex_map, other.lengths))

    def __hash__(self):
        return hash((self.m, self.n, self.vertex_map, self.lengths))

    def __repr__(self):
        return f"EpiMor({format_epi(self)!r})"


def identity_epi(n: int) -> EpiMor:
    check_integers("epicyclic sizes, vertex images and lengths", n)
    return EpiMor(n, n, range(n), [1] * n)


def _epi_from_lift(m: int, n: int, lift) -> EpiMor:
    """The functor whose lift takes the values lift[0..m] at 0..m."""
    return EpiMor(m, n, [v % n for v in lift[:m]],
                  [b - a for a, b in zip(lift, lift[1:])])


def compose_epi(g: EpiMor, f: EpiMor) -> EpiMor:
    """Compose the lifts: the edge out of v winds as far as g carries the
    span f(v)..f(v+1) of the middle cycle."""
    if f.n != g.m:
        raise Incomposable(f"cycles of size {f.n} vs {g.m}")
    return _epi_from_lift(f.m, g.n,
                          [g.value(x) for x in (*f.values, f.value(f.m))])


def project_para_to_epi(f: ParaMor) -> EpiMor:
    """Reduce the vertex values mod n and record each step as a winding
    length.  Always degree 1; translates of f project to the same functor."""
    return _epi_from_lift(f.m, f.n, [*f.values, f.value(f.m)])


def lift_epi_degree1(e: EpiMor) -> ParaMor:
    """The unique transversal preimage of a degree-1 functor under the
    projection: its lift, which starts at the image of vertex 0."""
    if e.degree != 1:
        raise QuivercalcError("only degree-1 functors lift to the paracyclic category")
    return ParaMor(e.m, e.n, e.values)


def cartesian_factor(f: EpiMor) -> tuple[EpiMor, EpiMor]:
    """Factor f as (standard degree-r cover) ∘ (degree-1 part).

    The cover rolls a directed rn-cycle r times around the n-cycle: its
    lift is 0..rn.  The degree-1 part has f's lift, read mod rn, so a
    degree-1 f factors as (identity cover) ∘ f.
    """
    rn = f.degree * f.n
    return (_epi_from_lift(rn, f.n, range(rn + 1)),
            _epi_from_lift(f.m, rn, [*f.values, f.value(f.m)]))


def enumerate_epi_degree1(m: int, n: int) -> list[EpiMor]:
    """All degree-1 functors: the projections of the paracyclic
    transversal, one per translate orbit."""
    return [project_para_to_epi(f) for f in enumerate_para_transversal(m, n)]


def format_epi(f: EpiMor) -> str:
    return (f"{f.m} {f.n} : "
            + " ".join(str(v) for v in f.vertex_map)
            + " | "
            + " ".join(str(l) for l in f.lengths))


def parse_epi(text: str) -> EpiMor:
    head, _, tail = text.partition(":")
    vs, _, ls = tail.partition("|")
    try:
        m, n = (int(x) for x in head.split())
        vertex_map = [int(x) for x in vs.split()]
        lengths = [int(x) for x in ls.split()]
    except ValueError:
        raise QuivercalcError(f"cannot parse epicyclic morphism from {text!r}")
    return EpiMor(m, n, vertex_map, lengths)
