"""Morphism arithmetic for Δ and the paracyclic, cyclic and epicyclic
categories, on one lift class.

A morphism of each kind is a monotone map g: Z -> Z with g(i + m) =
g(i) + d*n (Connes 1983; Dwyer, Hopkins & Kan 1985), a LiftMor stored by
its values g(0..m-1), its degree d and its kind:
- "delta", a monotone map [m-1] -> [n-1] of finite ordinals: values in
  [0, n), degree 1 like its paracyclic extension;
- "para", a paracyclic morphism (1/m)Z -> (1/n)Z of degree 1; hom-sets are
  infinite, the integer translates g + n of a map all different from g;
- "epi", a functor of free categories on directed m- and n-cycles, of
  winding degree d >= 1.  Translates are one functor, so g(0) is kept in
  [0, n); the vertex map and winding lengths are derived, for printing.
  On degree 1 these are the morphisms of the cyclic category.
compose, as_kind, factor and to_quiver_mor are one rule each on the lift,
so their cost grows with m, n and the output, never with the values.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right

from .quiver import QuiverMor, check_integers, lift_mor
from .digraph import Incomposable, QuivercalcError, standard_digraph

# per kind: what its sizes and values are called, and the messages for bad
# sizes, for a value list of the wrong length and for maps that do not compose
_WORDS = {
    "delta": ("ordinal sizes and values", "ordinals [p], [q] need p, q >= 0",
              "need one value per point of [p]", "ordinal maps not composable"),
    "para": ("paracyclic sizes and values", "(1/{m})Z -> (1/{n})Z needs m, n >= 1",
             "need exactly m values",
             "(1/{f.m})Z -> (1/{f.n})Z then (1/{g.m})Z -> (1/{g.n})Z"),
    "epi": ("epicyclic sizes, vertex images and lengths",
            "cycles of sizes {m}, {n} need m, n >= 1",
            "need exactly m vertex images and m lengths", "cycles of size {f.n} vs {g.m}"),
}


def _sizes(kind: str, m: int, n: int, *values) -> None:
    words = _WORDS.get(kind)
    if words is None:
        raise QuivercalcError(f"no morphism kind {kind!r}")
    check_integers(words[0], m, n, *values)
    if m < 1 or n < 1:
        raise QuivercalcError(words[1].format(m=m, n=n))


class LiftMor:
    """A morphism of one kind from size m to size n, by its lift g(0..m-1)
    and its degree: g(i + m) = g(i) + degree * n."""

    __slots__ = ("kind", "m", "n", "values", "degree")

    def __init__(self, kind: str, m: int, n: int, values, degree: int = 1):
        values = tuple(values)
        _sizes(kind, m, n, degree, *values)
        if len(values) != m:
            raise QuivercalcError(_WORDS[kind][2])
        if kind == "delta":
            for v in values:
                if not 0 <= v < n:
                    raise QuivercalcError(f"value {v} outside [0..{n - 1}]")
        elif kind == "epi" and not 0 <= values[0] < n:
            raise QuivercalcError(f"vertex image {values[0]} outside Z/{n}")
        if degree != 1 and (kind != "epi" or degree < 1):
            raise QuivercalcError(
                "total winding must be a positive multiple of n" if kind == "epi"
                else "only degree-1 functors lift to the paracyclic category")
        for a, b in zip(values, values[1:]):
            if a > b:
                raise QuivercalcError("values must be monotone")
        if values[-1] > values[0] + degree * n:
            raise QuivercalcError("values must fit in one period")
        self.kind, self.m, self.n, self.values, self.degree = kind, m, n, values, degree

    def value(self, i: int) -> int:
        """The lift at any integer: g(i + m) = g(i) + degree * n."""
        return self.values[i % self.m] + (i // self.m) * self.degree * self.n

    @property
    def vertex_map(self) -> tuple:
        """Each vertex's image in Z/n."""
        return tuple([v % self.n for v in self.values])

    @property
    def lengths(self) -> tuple:
        """How far the edge out of each vertex winds: g(v + 1) - g(v)."""
        vs = self.values
        return tuple([b - a for a, b in zip(vs, vs[1:] + (vs[0] + self.degree * self.n,))])

    def to_quiver_mor(self) -> QuiverMor:
        """The same map as a quiver morphism, by quiver.lift_mor: a Δ-map of
        directed chains, or a functor of directed cycles (a paracyclic
        morphism through its projection)."""
        f = as_kind(self, "epi") if self.kind == "para" else self
        chain = f.kind == "delta"
        src, tgt = (standard_digraph("linear", k - 1) if chain
                    else standard_digraph("cyclic", k) for k in (f.m, f.n))
        walk, image = ((g.vertices, tuple(e.eid for e in g.edges)) for g in (src, tgt))
        lift = f.values if chain else (*f.values, f.value(f.m))
        return lift_mor(src, tgt, {}, {}, [(walk, image, lift)])

    def _key(self) -> tuple:
        return (self.kind, self.m, self.n, self.values, self.degree)

    def __eq__(self, other):
        if not isinstance(other, LiftMor):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LiftMor{self._key()!r}"


def _lift(kind: str, m: int, n: int, values, degree: int = 1) -> LiftMor:
    """A LiftMor whose values are valid by construction; nothing is checked."""
    f = LiftMor.__new__(LiftMor)
    f.kind, f.m, f.n, f.values, f.degree = kind, m, n, tuple(values), degree
    return f


def _reduced(values, n: int):
    """The translate of a lift by a multiple of n that starts in [0, n)."""
    q = values[0] // n
    return [v - q * n for v in values] if q else values


def identity(kind: str, m: int) -> LiftMor:
    _sizes(kind, m, m)
    return _lift(kind, m, m, range(m))


def delta_mor(p: int, q: int, values) -> LiftMor:
    """The monotone map [p] -> [q] of finite ordinals with these p + 1 values."""
    check_integers(_WORDS["delta"][0], p, q)
    return LiftMor("delta", p + 1, q + 1, values)


def epi_mor(m: int, n: int, vertex_map, lengths) -> LiftMor:
    """The functor of directed m- and n-cycles that sends vertex v to
    vertex_map[v] and winds the edge out of v lengths[v] edges forward.  The
    total winding must be a positive multiple of n (constant functors are
    excluded), and that multiple is the degree."""
    vertex_map, lengths = tuple(vertex_map), tuple(lengths)
    _sizes("epi", m, n, *vertex_map, *lengths)
    if len(vertex_map) != m or len(lengths) != m:
        raise QuivercalcError(_WORDS["epi"][2])
    for v in vertex_map:
        if not 0 <= v < n:
            raise QuivercalcError(f"vertex image {v} outside Z/{n}")
    for v, l in enumerate(lengths):
        if l < 0:
            raise QuivercalcError(f"length at {v} is negative")
        if l % n != (vertex_map[(v + 1) % m] - vertex_map[v]) % n:
            raise QuivercalcError(f"length at {v} incompatible with the vertex map")
    total = sum(lengths)
    if total % n != 0 or total <= 0:
        raise QuivercalcError("total winding must be a positive multiple of n")
    return _lift("epi", m, n, itertools.accumulate(lengths[:-1], initial=vertex_map[0]),
                 total // n)


def compose(g: LiftMor, f: LiftMor) -> LiftMor:
    """g∘f: g read along f's lift, of degree f.degree * g.degree.  For epi
    the edge out of v winds as far as g carries the span f(v)..f(v+1) of the
    middle cycle, and the composite is reduced to start in [0, n)."""
    if f.kind != g.kind:
        raise Incomposable(f"{f.kind} and {g.kind} maps do not compose")
    if f.n != g.m:
        raise Incomposable(_WORDS[f.kind][3].format(f=f, g=g))
    values = [g.value(v) for v in f.values]
    return _lift(f.kind, f.m, g.n, _reduced(values, g.n) if f.kind == "epi" else values,
                 f.degree * g.degree)


def as_kind(f: LiftMor, kind: str) -> LiftMor:
    """f's lift read as a morphism of another kind.  A Δ-map is paracyclic
    with the same values; a paracyclic morphism projects to an epi functor
    of degree 1, its translates to the same one; a degree-1 functor is
    paracyclic again by its lift, which starts in [0, n).  A reading as Δ
    or para is checked; a higher degree does not lift."""
    if kind == f.kind:
        return f
    if kind == "epi":           # every lift reduces to a functor's
        return _lift("epi", f.m, f.n, _reduced(f.values, f.n), f.degree)
    return LiftMor(kind, f.m, f.n, f.values, f.degree)


def factor(f: LiftMor) -> tuple[LiftMor, LiftMor]:
    """f as outer ∘ inner, inner being f re-read on its image.

    For Δ, outer is the convex inclusion of f's image and inner the active
    map onto it.  For a cycle map of degree r, outer is the standard cover
    that rolls a directed rn-cycle r times round the n-cycle (its lift is
    0..rn), and inner is f's lift read mod rn, of degree 1; so a degree-1 f
    factors as the identity after f.
    """
    lo, size = ((f.values[0], f.values[-1] - f.values[0] + 1) if f.kind == "delta"
                else (0, f.degree * f.n))
    return (_lift(f.kind, size, f.n, range(lo, lo + size), f.degree),
            _lift(f.kind, f.m, size, [v - lo for v in f.values]))


# --- the paracyclic category -------------------------------------------------


def para_alpha(m: int) -> LiftMor:
    """The canonical rotation x -> x + 1 of (1/m)Z: phi_m of x -> x + m on Z."""
    return para_phi(m, LiftMor("para", 1, 1, (m,)))


def para_small_rotation(m: int) -> LiftMor:
    """The step x -> x + 1/m; its m-th power is para_alpha(m)."""
    _sizes("para", m, m)
    return _lift("para", m, m, range(1, m + 1))


def dualize_para(f: LiftMor) -> LiftMor:
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
    return _lift("para", f.n, f.m, vals)


def para_phi(r: int, f: LiftMor) -> LiftMor:
    """The r-fold inflation: (1/m)Z -> (1/rm)Z on objects; on morphisms the
    same equivariant map read over the r-times-longer fundamental domain.

    phi_r phi_s = phi_rs, and the image of the canonical rotation of the
    source is an r-th root of the canonical rotation of the image object.
    """
    if type(r) is not int:              # bool is no factor
        raise QuivercalcError(f"inflation needs an integer r, not {r!r}")
    if r < 1:
        raise QuivercalcError(f"inflation needs r >= 1, not {r}")
    return _lift(f.kind, r * f.m, r * f.n, [f.value(j) for j in range(r * f.m)],
                 f.degree)


def enumerate_para_transversal(m: int, n: int) -> list[LiftMor]:
    """One representative per translate orbit: all value lists with
    0 <= g(0) < n.  Every paracyclic morphism is a unique integer translate
    g + k*n of exactly one of these."""
    _sizes("para", m, n)
    return [_lift("para", m, n, (g0,) + rest) for g0 in range(n)
            for rest in itertools.combinations_with_replacement(
                range(g0, g0 + n + 1), m - 1)]


def format_para(f: LiftMor) -> str:
    return f"{f.m} {f.n} : " + " ".join(str(v) for v in f.values)


def parse_para(text: str) -> LiftMor:
    head, _, tail = text.partition(":")
    try:
        m, n = (int(x) for x in head.split())
        values = [int(x) for x in tail.split()]
    except ValueError:
        raise QuivercalcError(f"cannot parse paracyclic morphism from {text!r}")
    return LiftMor("para", m, n, values)


# --- the epicyclic category -------------------------------------------------


def enumerate_epi_degree1(m: int, n: int) -> list[LiftMor]:
    """All degree-1 functors: the projections of the paracyclic
    transversal, one per translate orbit."""
    return [as_kind(f, "epi") for f in enumerate_para_transversal(m, n)]


def format_epi(f: LiftMor) -> str:
    return (f"{f.m} {f.n} : " + " ".join(map(str, f.vertex_map))
            + " | " + " ".join(map(str, f.lengths)))


def parse_epi(text: str) -> LiftMor:
    head, _, tail = text.partition(":")
    vs, _, ls = tail.partition("|")
    try:
        m, n = (int(x) for x in head.split())
        vertex_map = [int(x) for x in vs.split()]
        lengths = [int(x) for x in ls.split()]
    except ValueError:
        raise QuivercalcError(f"cannot parse epicyclic morphism from {text!r}")
    return epi_mor(m, n, vertex_map, lengths)
