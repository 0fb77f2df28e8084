"""Morphism arithmetic for the paracyclic and epicyclic categories.

A paracyclic morphism (1/m)Z -> (1/n)Z is a monotone map g: Z -> Z with
g(i+m) = g(i) + n, stored by its m values g(0..m-1).  Distinct value lists
are distinct morphisms -- hom-sets here are infinite, with the integer
translates g + n of a map all different from g.

An epicyclic morphism is a functor between free categories on directed
cycles: a vertex map Z/m -> Z/n plus a winding length per edge.  Projecting
a paracyclic morphism to its epicyclic shadow forgets the translate.
"""
from __future__ import annotations

import itertools

from .quiver import DeltaMor, Path, QuiverMor
from .digraph import Incomposable, QuivercalcError, standard_digraph


class ParaMor:
    def __init__(self, m: int, n: int, values):
        self.m = m
        self.n = n
        self.values = tuple(values)
        if m < 1 or n < 1:
            raise QuivercalcError(f"(1/{m})Z -> (1/{n})Z needs m, n >= 1")
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
    return ParaMor(m, m, range(m))


def para_alpha(m: int) -> ParaMor:
    """The canonical rotation: the translate x -> x + 1 of (1/m)Z."""
    return ParaMor(m, m, range(m, 2 * m))


def para_small_rotation(m: int) -> ParaMor:
    """The step x -> x + 1/m; its m-th power is para_alpha(m)."""
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
        i = 0
        while f.value(i) <= j:
            i += 1
        while f.value(i) > j:
            i -= 1
        vals.append(i)
    return ParaMor(f.n, f.m, vals)


def para_phi(r: int, f: ParaMor) -> ParaMor:
    """The r-fold inflation: (1/m)Z -> (1/rm)Z on objects; on morphisms the
    same equivariant map read over the r-times-longer fundamental domain.

    phi_r phi_s = phi_rs, and the image of the canonical rotation of the
    source is an r-th root of the canonical rotation of the image object.
    """
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
    def extend(prefix: list[int]):
        if len(prefix) == m:
            yield ParaMor(m, n, prefix)
            return
        lo = prefix[-1]
        hi = prefix[0] + n
        for v in range(lo, hi + 1):
            yield from extend(prefix + [v])

    return [f for g0 in range(n) for f in extend([g0])]


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
    """

    def __init__(self, m: int, n: int, vertex_map, lengths):
        self.m = m
        self.n = n
        self.vertex_map = tuple(vertex_map)
        self.lengths = tuple(lengths)
        if m < 1 or n < 1:
            raise QuivercalcError(f"cycles of sizes {m}, {n} need m, n >= 1")
        if len(self.vertex_map) != m or len(self.lengths) != m:
            raise QuivercalcError("need exactly m vertex images and m lengths")
        for v in self.vertex_map:
            if not 0 <= v < n:
                raise QuivercalcError(f"vertex image {v} outside Z/{n}")
        for l, v in zip(self.lengths, range(m)):
            if l < 0:
                raise QuivercalcError(f"length at {v} is negative")
            want = (self.vertex_map[(v + 1) % m] - self.vertex_map[v]) % n
            if l % n != want:
                raise QuivercalcError(
                    f"length at {v} incompatible with the vertex map")
        total = sum(self.lengths)
        if total % n != 0 or total <= 0:
            raise QuivercalcError(
                "total winding must be a positive multiple of n")

    @property
    def degree(self) -> int:
        return sum(self.lengths) // self.n

    def to_quiver_mor(self) -> QuiverMor:
        """The same functor as a quiver morphism of directed cycles."""
        src = standard_digraph("cyclic", self.m)
        tgt = standard_digraph("cyclic", self.n)
        vmap = {str(v): str(self.vertex_map[v]) for v in range(self.m)}
        paths = {}
        for v in range(self.m):
            start = self.vertex_map[v]
            eids = [f"e{(start + j) % self.n}" for j in range(self.lengths[v])]
            paths[f"e{v}"] = Path(tgt, str(start), eids)
        return QuiverMor(src, tgt, vmap, paths)

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
    return EpiMor(n, n, range(n), [1] * n)


def compose_epi(g: EpiMor, f: EpiMor) -> EpiMor:
    """Substitute paths: the edge out of v crosses lengths_f[v] edges of the
    middle cycle, each contributing its own g-winding."""
    if f.n != g.m:
        raise Incomposable(f"cycles of size {f.n} vs {g.m}")
    vmap = [g.vertex_map[v] for v in f.vertex_map]
    lengths = []
    for v in range(f.m):
        total = 0
        for j in range(f.lengths[v]):
            total += g.lengths[(f.vertex_map[v] + j) % f.n]
        lengths.append(total)
    return EpiMor(f.m, g.n, vmap, lengths)


def project_para_to_epi(f: ParaMor) -> EpiMor:
    """Reduce the vertex values mod n and record each step as a winding
    length.  Always degree 1; translates of f project to the same functor."""
    vmap = [v % f.n for v in f.values]
    lengths = [f.value(i + 1) - f.value(i) for i in range(f.m)]
    return EpiMor(f.m, f.n, vmap, lengths)


def lift_epi_degree1(e: EpiMor) -> ParaMor:
    """The unique transversal preimage of a degree-1 functor under the
    projection: accumulate windings starting at the image of vertex 0."""
    if e.degree != 1:
        raise QuivercalcError("only degree-1 functors lift to the paracyclic category")
    vals = [e.vertex_map[0]]
    for v in range(e.m - 1):
        vals.append(vals[-1] + e.lengths[v])
    return ParaMor(e.m, e.n, vals)


def cartesian_factor(f: EpiMor) -> tuple[EpiMor, EpiMor]:
    """Factor f as (standard degree-r cover) ∘ (degree-1 part).

    The cover rolls a directed rn-cycle r times around the n-cycle,
    vertex j over j mod n; the degree-1 part carries all of f's winding
    data, based so that vertex 0 lands over f's image of vertex 0.  A
    degree-1 input factors as (identity cover) ∘ f itself.
    """
    r, n = f.degree, f.n
    cover = EpiMor(r * n, n,
                   [j % n for j in range(r * n)],
                   [1] * (r * n))
    partial = 0
    vmap, lengths = [], []
    for v in range(f.m):
        vmap.append((f.vertex_map[0] + partial) % (r * n))
        lengths.append(f.lengths[v])
        partial += f.lengths[v]
    cyc = EpiMor(f.m, r * n, vmap, lengths)
    return cover, cyc


def enumerate_epi_degree1(m: int, n: int) -> list[EpiMor]:
    """All degree-1 functors: a starting vertex and a composition of n into
    m non-negative winding lengths."""
    out = []
    for v0 in range(n):
        for bars in itertools.combinations(range(n + m - 1), m - 1):
            lengths = []
            prev = -1
            for b in bars:
                lengths.append(b - prev - 1)
                prev = b
            lengths.append(n + m - 1 - prev - 1)
            partial = 0
            vmap = []
            for v in range(m):
                vmap.append((v0 + partial) % n)
                partial += lengths[v]
            out.append(EpiMor(m, n, vmap, lengths))
    return out


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
