import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from quivercalc.cyccat import (Incomposable, LiftMor, as_kind, compose,
                               delta_mor, dualize_para, enumerate_epi_degree1,
                               enumerate_para_transversal, epi_mor, factor,
                               format_epi, format_para, identity, para_alpha,
                               para_phi, para_small_rotation, parse_epi,
                               parse_para)
from quivercalc.digraph import QuivercalcError, standard_digraph
from quivercalc.quiver import Path, QuiverMor, compose_quiver_mor


# --- paracyclic morphisms --------------------------------------------------


def test_paramor_invariants():
    LiftMor("para", 2, 3, (0, 2))
    LiftMor("para", 2, 3, (-1, 2))  # raw translates are allowed
    with pytest.raises(QuivercalcError):
        LiftMor("para", 2, 3, (2, 0))  # not monotone
    with pytest.raises(QuivercalcError):
        LiftMor("para", 2, 3, (0, 4))  # wraps past one period


def test_extension_is_equivariant():
    f = LiftMor("para", 2, 3, (0, 2))
    for i in range(-6, 6):
        assert f.value(i + 2) == f.value(i) + 3


def test_identity_and_translates():
    i = identity("para", 3)
    assert i.values == (0, 1, 2)
    a = para_alpha(3)
    assert a.values == (3, 4, 5)
    assert a != i  # translates are distinct morphisms
    s = para_small_rotation(3)
    assert s.values == (1, 2, 3)
    # the big rotation is the cube of the small one
    assert compose(s, compose(s, s)) == a


def test_composition_example():
    f = parse_para("2 3 : 0 2")
    g = parse_para("3 1 : 0 0 1")
    assert format_para(compose(g, f)) == "2 1 : 0 1"


def test_composition_units_and_errors():
    f = LiftMor("para", 2, 3, (0, 2))
    assert compose(identity("para", 3), f) == f
    assert compose(f, identity("para", 2)) == f
    with pytest.raises(Incomposable):
        compose(f, f)


@st.composite
def paramors(draw, max_m=4, max_n=4, spread=2, m=None):
    m = m if m is not None else draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    g0 = draw(st.integers(-spread * n, spread * n))
    vals = [g0]
    for _ in range(m - 1):
        room = g0 + n - vals[-1]
        vals.append(vals[-1] + draw(st.integers(0, max(room, 0))))
    return LiftMor("para", m, n, vals)


@given(paramors())
def test_translate_action(f):
    a_tgt = para_alpha(f.n)
    a_src = para_alpha(f.m)
    assert compose(a_tgt, f) == compose(f, a_src)  # alpha is central


@given(paramors(), st.data())
def test_para_associativity(f, data):
    g = data.draw(paramors(m=f.n))
    h = data.draw(paramors(m=g.n))
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def brute_transversal(m, n):
    """Every nondecreasing value list with g(0) in [0, n) that fits in one
    period, in lexicographic order."""
    return [LiftMor("para", m, n, (g0,) + rest) for g0 in range(n)
            for rest in itertools.product(range(g0, g0 + n + 1), repeat=m - 1)
            if list(rest) == sorted(rest)]


def test_transversal_enumeration_of_a_long_source():
    # 1500 values is past the recursion limit: no call may nest per value
    got = enumerate_para_transversal(1500, 1)
    assert len(got) == 1500
    assert got[0].values == (0,) * 1500 and got[-1].values == (0,) + (1,) * 1499


def test_transversal_enumeration_counts():
    # g(0) in [0, n) and m-1 nondecreasing steps within one period:
    # n * C(n + m - 1, m - 1) morphisms
    for m in range(1, 5):
        for n in range(1, 5):
            got = enumerate_para_transversal(m, n)
            assert got == brute_transversal(m, n)
            want = n * math.comb(n + m - 1, m - 1)
            assert len(got) == want
            assert len(set(got)) == want
            for f in got:
                assert 0 <= f.values[0] < n


def test_format_parse_round_trip():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for f in enumerate_para_transversal(m, n):
                assert parse_para(format_para(f)) == f


def test_parse_para_rejects_garbage():
    for bad in ["", "2 3", "2 3 : 0", "2 3 : 2 0", "x y : 0 0"]:
        with pytest.raises(QuivercalcError):
            parse_para(bad)


# --- the inflation operators ------------------------------------------------


def test_phi_one_is_identity():
    for f in enumerate_para_transversal(2, 3):
        assert para_phi(1, f) == f


def test_phi_multiplicative():
    for r in (1, 2, 3, 4):
        for s in (1, 2, 3, 4):
            for f in enumerate_para_transversal(2, 2):
                assert para_phi(r, para_phi(s, f)) == para_phi(r * s, f)


def test_phi_respects_composition():
    for r in (2, 3):
        for f in enumerate_para_transversal(2, 2):
            for g in enumerate_para_transversal(2, 3):
                assert para_phi(r, compose(g, f)) == \
                    compose(para_phi(r, g), para_phi(r, f))


def test_phi_sends_rotation_to_a_root():
    # the image of the canonical rotation is an r-th root of the canonical
    # rotation of the inflated object
    for m in (1, 2, 3):
        for r in (1, 2, 3, 4):
            img = para_phi(r, para_alpha(m))
            power = identity("para", r * m)
            for _ in range(r):
                power = compose(img, power)
            assert power == para_alpha(r * m)


def test_phi_of_alpha_on_the_point():
    assert para_phi(2, para_alpha(1)) == LiftMor("para", 2, 2, (1, 2))
    sq = compose(para_phi(2, para_alpha(1)), para_phi(2, para_alpha(1)))
    assert sq == para_alpha(2)


# --- duality -----------------------------------------------------------------


def test_dual_of_identity():
    for m in (1, 2, 3, 4):
        assert dualize_para(identity("para", m)) == identity("para", m)


def test_dual_of_rotation_is_inverse():
    for m in (1, 2, 3, 4):
        d = dualize_para(para_alpha(m))
        assert d == LiftMor("para", m, m, tuple(range(-m, 0)))
        assert compose(d, para_alpha(m)) == identity("para", m)


def literal_dual(f):
    """j -> max{ i : f(i) <= j }, searched over a window that holds it."""
    reach = f.m * (abs(f.values[0]) // f.n + 3)
    return LiftMor("para", f.n, f.m, [max(i for i in range(-reach, reach)
                                          if f.value(i) <= j)
                                      for j in range(f.n)])


@given(paramors(spread=30))
def test_dual_matches_the_literal_definition(f):
    assert dualize_para(f) == literal_dual(f)


def test_dual_of_huge_values():
    # f(2q) = -10^12 + 3q and f(2q+1) = f(2q) + 2, so with 3k = 10^12 - 1
    # f(2k), f(2k+1), f(2k+2), f(2k+3) = -1, 1, 2, 4
    f = LiftMor("para", 2, 3, (-10 ** 12, -10 ** 12 + 2))
    k = 10 ** 12 // 3
    assert dualize_para(f) == LiftMor("para", 3, 2, (2 * k, 2 * k + 1, 2 * k + 2))
    assert dualize_para(LiftMor("para", 1, 1, (10 ** 12,))) == \
        LiftMor("para", 1, 1, (-10 ** 12,))


@given(paramors())
def test_dual_swaps_sizes(f):
    d = dualize_para(f)
    assert (d.m, d.n) == (f.n, f.m)


@given(paramors(), st.data())
def test_dual_contravariant(f, data):
    g = data.draw(paramors().filter(lambda g: g.m == f.n))
    assert dualize_para(compose(g, f)) == \
        compose(dualize_para(f), dualize_para(g))


@given(paramors())
def test_double_dual_is_shift_conjugation(f):
    # applying the duality twice conjugates by the unit shift — the
    # inverse-equivalence law in integer coordinates
    dd = dualize_para(dualize_para(f))
    shift_src = para_small_rotation(f.m)
    unshift_tgt = LiftMor("para", f.n, f.n, tuple(range(-1, f.n - 1)))
    assert dd == compose(unshift_tgt, compose(f, shift_src))


def test_dual_is_a_bijection_on_transversal_sizes():
    # duality identifies hom(m, n) with hom(n, m); on the finite
    # transversals the image meets every translate class exactly once
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            fwd = enumerate_para_transversal(m, n)
            back = {tuple(v % m for v in dualize_para(f).values[:1]) +
                    tuple(x - dualize_para(f).values[0]
                          for x in dualize_para(f).values): f
                    for f in fwd}
            assert len(back) == len(fwd)


# --- winding morphisms -------------------------------------------------------


def test_epimor_invariants():
    epi_mor(2, 3, (0, 2), (2, 1))
    with pytest.raises(QuivercalcError):
        epi_mor(2, 3, (0, 2), (1, 1))  # lengths disagree with vertex map
    with pytest.raises(QuivercalcError):
        epi_mor(1, 1, (0,), (0,))  # total length must be positive
    with pytest.raises(QuivercalcError):
        epi_mor(2, 3, (0, 5), (2, 1))  # vertex outside range


def test_epi_identity_and_degree():
    i = identity("epi", 3)
    assert i.degree == 1
    loop = epi_mor(1, 1, (0,), (5,))
    assert loop.degree == 5
    collapse = epi_mor(2, 1, (0, 0), (1, 0))
    assert collapse.degree == 1


def test_epi_composition_example():
    f = epi_mor(2, 3, (0, 2), (2, 1))
    g = epi_mor(3, 1, (0, 0, 0), (1, 0, 2))
    gf = compose(g, f)
    assert gf.m == 2 and gf.n == 1
    assert gf.degree == f.degree * g.degree


def random_epi(rng, max_m=6, max_n=6, max_len=8, m=None):
    m = m if m is not None else rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    while True:
        lengths = [rng.randint(0, max_len) for _ in range(m)]
        total = sum(lengths)
        if total > 0 and total % n == 0:
            break
    v0 = rng.randrange(n)
    vmap, acc = [], 0
    for v in range(m):
        vmap.append((v0 + acc) % n)
        acc += lengths[v]
    return epi_mor(m, n, vmap, lengths)


@st.composite
def epimors(draw, max_m=5, max_n=5, max_degree=3, m=None):
    m = m if m is not None else draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    total = n * draw(st.integers(1, max_degree))
    cuts = sorted(draw(st.lists(st.integers(0, total),
                                min_size=m - 1, max_size=m - 1)))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    v0 = draw(st.integers(0, n - 1))
    vmap = [(v0 + sum(lengths[:v])) % n for v in range(m)]
    return epi_mor(m, n, vmap, lengths)


def stepping_compose_epi(g, f):
    """The composite by path substitution: the edge out of v crosses
    lengths_f[v] edges of the middle cycle, each adding its g-winding."""
    vmap = [g.vertex_map[v] for v in f.vertex_map]
    lengths = [sum(g.lengths[(f.vertex_map[v] + j) % f.n]
                   for j in range(f.lengths[v]))
               for v in range(f.m)]
    return epi_mor(f.m, g.n, vmap, lengths)


@given(epimors(), st.data())
def test_compose_epi_matches_the_stepping_sum(f, data):
    g = data.draw(epimors(m=f.n))
    assert compose(g, f) == stepping_compose_epi(g, f)


@given(epimors())
def test_epi_lift_is_equivariant(f):
    assert f.values[0] == f.vertex_map[0]
    assert [v % f.n for v in f.values] == list(f.vertex_map)
    for i in range(-2 * f.m, 2 * f.m):
        assert f.value(i + 1) - f.value(i) == f.lengths[i % f.m]
        assert f.value(i + f.m) == f.value(i) + f.degree * f.n


@given(epimors())
def test_cartesian_factor_recomposes(f):
    cover, cyc = factor(f)
    assert cyc.degree == 1
    assert compose(cover, cyc) == f


def test_compose_epi_with_huge_winding():
    f = epi_mor(2, 1, (0, 0), (10 ** 12, 5))
    g = epi_mor(1, 3, (1,), (6,))
    h = compose(g, f)
    assert h == epi_mor(2, 3, (1, 1), (6 * 10 ** 12, 30))
    assert h.degree == 2 * (10 ** 12 + 5)


def test_degree_multiplicative_seeded():
    rng = random.Random(20260816)
    for _ in range(1000):
        f = random_epi(rng)
        g = random_epi(rng, m=f.n)
        assert compose(g, f).degree == f.degree * g.degree


def test_degree_one_closed_under_composition():
    for m, k, n in [(1, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 1)]:
        for f in enumerate_epi_degree1(m, k):
            for g in enumerate_epi_degree1(k, n):
                assert compose(g, f).degree == 1


def winding_quiver_mor(f):
    """EpiMor.to_quiver_mor as written before the one lift rule: the edge
    out of v winds lengths[v] edges forward from its vertex image, mod n."""
    src, tgt = standard_digraph("cyclic", f.m), standard_digraph("cyclic", f.n)
    vmap = {str(v): str(f.vertex_map[v]) for v in range(f.m)}
    paths = {}
    for v in range(f.m):
        start = f.vertex_map[v]
        eids = [f"e{(start + j) % f.n}" for j in range(f.lengths[v])]
        paths[f"e{v}"] = Path(tgt, str(start), eids)
    return QuiverMor(src, tgt, vmap, paths)


def test_to_quiver_mor_matches_the_winding_oracle():
    """The lift rule reads the target cycle round as often as the lift
    winds: every degree, and lifts that start past vertex 0."""
    rng = random.Random(29)
    pool = [random_epi(rng) for _ in range(300)]
    assert max(f.degree for f in pool) >= 4
    for f in pool:
        assert f.to_quiver_mor() == winding_quiver_mor(f), f


def test_to_quiver_mor_shape():
    f = epi_mor(2, 3, (0, 2), (2, 1))
    qm = f.to_quiver_mor()
    assert qm.source.vertices == ("0", "1")
    assert qm.target.vertices == ("0", "1", "2")
    assert qm.edge_paths["e0"].edges == ("e0", "e1")
    assert qm.edge_paths["e1"].edges == ("e2",)


def bars_epi_degree1(m, n):
    """Degree-1 functors from a start vertex and the bars of a composition
    of n into m non-negative lengths."""
    out = []
    for v0 in range(n):
        for bars in itertools.combinations(range(n + m - 1), m - 1):
            ends = [-1, *bars, n + m - 1]
            lengths = [b - a - 1 for a, b in zip(ends, ends[1:])]
            vmap = [(v0 + sum(lengths[:v])) % n for v in range(m)]
            out.append(epi_mor(m, n, vmap, lengths))
    return out


def test_enumerate_epi_degree1_counts():
    for m in range(1, 7):
        for n in range(1, 7):
            got = enumerate_epi_degree1(m, n)
            assert got == bars_epi_degree1(m, n)
            want = n * math.comb(n + m - 1, m - 1)
            assert len(got) == want
            assert len(set(got)) == len(got)
            for e in got:
                assert e.degree == 1


def test_format_parse_epi_round_trip():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for e in enumerate_epi_degree1(m, n):
                assert parse_epi(format_epi(e)) == e


# --- the projection and its sections ----------------------------------------


def test_projection_basics():
    assert as_kind(identity("para", 3), "epi") == identity("epi", 3)
    f = LiftMor("para", 2, 3, (0, 2))
    e = as_kind(f, "epi")
    assert e.vertex_map == (0, 2) and e.lengths == (2, 1)
    assert e.degree == 1
    # the deck translate projects to the identity
    assert as_kind(para_alpha(3), "epi") == identity("epi", 3)


def test_projection_translate_invariant():
    for f in enumerate_para_transversal(2, 3):
        shifted = compose(para_alpha(3), f)
        assert as_kind(shifted, "epi") == as_kind(f, "epi")


def test_projection_functorial_exhaustive():
    sizes = [1, 2, 3, 4]
    for a in sizes:
        for b in sizes:
            fs = enumerate_para_transversal(a, b)
            for c in sizes:
                gs = enumerate_para_transversal(b, c)
                for f in fs:
                    for g in gs:
                        assert as_kind(compose(g, f), "epi") == \
                            compose(as_kind(g, "epi"), as_kind(f, "epi"))


def test_projection_surjective_on_degree_one():
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            for e in enumerate_epi_degree1(m, n):
                lift = as_kind(e, "para")
                assert as_kind(lift, "epi") == e
                assert 0 <= lift.values[0] < n


def test_lift_rejects_higher_degree():
    with pytest.raises(QuivercalcError):
        as_kind(epi_mor(1, 1, (0,), (2,)), "para")


def test_projection_fibers_are_translate_orbits():
    # two transversal representatives project equally only if equal
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            seen = {}
            for f in enumerate_para_transversal(m, n):
                e = as_kind(f, "epi")
                assert e not in seen, "transversal hits a fiber twice"
                seen[e] = f


# --- factorization through coverings ----------------------------------------


def test_cartesian_factor_laws():
    rng = random.Random(999)
    for _ in range(500):
        f = random_epi(rng)
        cover, cyc = factor(f)
        assert cyc.degree == 1
        assert cover.degree == f.degree
        assert compose(cover, cyc) == f
        # the covering is the standard one: every edge has length one
        assert all(l == 1 for l in cover.lengths)
        assert cover.m == f.degree * f.n and cover.n == f.n


def test_cartesian_factor_identity_and_loops():
    i = identity("epi", 3)
    cover, cyc = factor(i)
    assert cover == i and cyc == i
    loop = epi_mor(1, 1, (0,), (6,))
    cover, cyc = factor(loop)
    assert cover.m == 6 and cover.n == 1
    assert cyc.m == 1 and cyc.n == 6 and cyc.degree == 1
    assert compose(cover, cyc) == loop


def test_cartesian_factor_degree_one_gives_identity_cover():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for e in enumerate_epi_degree1(m, n):
                cover, cyc = factor(e)
                assert cover == identity("epi", n)
                assert cyc == e


def test_delta_to_para_examples():
    assert as_kind(identity("delta", 2), "para") == identity("para", 2)
    assert as_kind(delta_mor(0, 1, (0,)), "para") == LiftMor("para", 1, 2, (0,))
    assert as_kind(delta_mor(1, 0, (0, 0)), "para") == LiftMor("para", 2, 1, (0, 0))


# --- one set of laws for every kind ------------------------------------------


def all_delta(p, q):
    """Every monotone map [p] -> [q]."""
    for vals in itertools.combinations_with_replacement(range(q + 1), p + 1):
        yield delta_mor(p, q, vals)


@st.composite
def deltamors(draw, max_m=4, max_n=4, m=None):
    m = m if m is not None else draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    return LiftMor("delta", m, n, sorted(draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m))))


KINDS = {"delta": deltamors, "para": paramors, "epi": epimors}
# the kind changes out of each kind that are functors
FUNCTORS = {"delta": ("para", "epi"), "para": ("epi",), "epi": ()}


def assert_lift_laws(f, g, h):
    """h(gf) = (hg)f; Δ -> para, Δ -> epi and para -> epi commute with
    compose; epi -> para, a section of the projection, commutes with it up
    to a translate on degree 1; and to_quiver_mor is a functor on Δ and
    epi."""
    gf = compose(g, f)
    assert compose(h, gf) == compose(compose(h, g), f)
    for kind in FUNCTORS[f.kind]:
        assert as_kind(gf, kind) == compose(as_kind(g, kind), as_kind(f, kind))
    if f.kind == "epi" and f.degree == g.degree == 1:
        lifted = compose(as_kind(g, "para"), as_kind(f, "para"))
        assert as_kind(lifted, "epi") == gf
    if f.kind != "para":
        assert gf.to_quiver_mor() == compose_quiver_mor(g.to_quiver_mor(),
                                                        f.to_quiver_mor())


def small_lift_triples(kind):
    """The inputs of the per-kind law tests, run here through every law at
    once: every Δ triple [1] -> [2] -> [2] -> [1] and every pair
    [1] -> [2] -> [3]; every transversal pair of sizes 1..4 (para) or 1..3
    (their epi projections); 300 seeded epi pairs.  A pair goes in with the
    identity after it."""
    if kind == "delta":
        return ([(f, g, h) for f in all_delta(1, 2) for g in all_delta(2, 2)
                 for h in all_delta(2, 1)]
                + [(f, g, identity("delta", 4)) for f in all_delta(1, 2)
                   for g in all_delta(2, 3)])
    sizes, pairs = range(1, 5 if kind == "para" else 4), []
    for a, b, c in itertools.product(sizes, repeat=3):
        pairs += itertools.product(enumerate_para_transversal(a, b),
                                   enumerate_para_transversal(b, c))
    if kind == "epi":
        pairs = [(as_kind(f, "epi"), as_kind(g, "epi")) for f, g in pairs]
        rng = random.Random(77)
        for _ in range(300):
            f = random_epi(rng, max_m=4, max_n=4, max_len=5)
            pairs.append((f, random_epi(rng, max_m=4, max_n=4, max_len=5, m=f.n)))
    return [(f, g, identity(kind, g.n)) for f, g in pairs]


@pytest.mark.parametrize("kind", KINDS)
def test_lift_laws(kind):
    """The laws of assert_lift_laws on every small input, then on drawn
    ones, for each kind."""
    for f, g, h in small_lift_triples(kind):
        assert_lift_laws(f, g, h)

    @settings(deadline=None)
    @given(st.data())
    def drawn(data):
        f = data.draw(KINDS[kind]())
        g = data.draw(KINDS[kind](m=f.n))
        assert_lift_laws(f, g, data.draw(KINDS[kind](m=g.n)))

    drawn()


# --- every rejection names what is wrong -------------------------------------

# The table calls each constructor and operation through these names, so
# its rows stay as they are when the classes behind them change.
PARA, EPI = functools.partial(LiftMor, "para"), epi_mor
ID_PARA, ID_EPI = functools.partial(identity, "para"), functools.partial(identity, "epi")
COMPOSE_PARA = COMPOSE_EPI = compose
EPI_TO_PARA = functools.partial(as_kind, kind="para")

CYCCAT_REJECTIONS = {
    "para-sizes": (lambda: PARA(0, 3, ()), "(1/0)Z -> (1/3)Z needs m, n >= 1"),
    "para-values": (lambda: PARA(2, 3, (0,)), "need exactly m values"),
    "para-monotone": (lambda: PARA(2, 3, (2, 0)), "values must be monotone"),
    "para-period": (lambda: PARA(2, 3, (0, 4)), "values must fit in one period"),
    "para-compose": (lambda: COMPOSE_PARA(ID_PARA(2), ID_PARA(3)),
                     "(1/3)Z -> (1/3)Z then (1/2)Z -> (1/2)Z"),
    "para-phi": (lambda: para_phi(0, ID_PARA(1)),
                 "inflation needs r >= 1, not 0"),
    "para-phi-float": (lambda: para_phi(2.0, ID_PARA(1)),
                       "inflation needs an integer r, not 2.0"),
    "para-phi-bool": (lambda: para_phi(True, ID_PARA(1)),
                      "inflation needs an integer r, not True"),
    "para-size-float": (lambda: PARA(2.0, 3, (0, 1)),
                        "paracyclic sizes and values are integers, not 2.0"),
    "para-value-float": (lambda: PARA(1, 1, (0.5,)),
                         "paracyclic sizes and values are integers, not 0.5"),
    "para-identity-bool": (lambda: ID_PARA(True),
                           "paracyclic sizes and values are integers, not True"),
    "para-alpha-float": (lambda: para_alpha(2.5),
                         "paracyclic sizes and values are integers, not 2.5"),
    "para-identity-float": (lambda: ID_PARA(2.5),
                            "paracyclic sizes and values are integers, not 2.5"),
    "para-small-rotation-float": (lambda: para_small_rotation(2.5),
                                  "paracyclic sizes and values are integers, "
                                  "not 2.5"),
    "para-transversal-source-float": (
        lambda: enumerate_para_transversal(1.5, 2),
        "paracyclic sizes and values are integers, not 1.5"),
    "para-transversal-target-float": (
        lambda: enumerate_para_transversal(2, 2.5),
        "paracyclic sizes and values are integers, not 2.5"),
    "para-transversal-source-zero": (lambda: enumerate_para_transversal(0, 2),
                                     "(1/0)Z -> (1/2)Z needs m, n >= 1"),
    "para-transversal-target-zero": (lambda: enumerate_para_transversal(2, 0),
                                     "(1/2)Z -> (1/0)Z needs m, n >= 1"),
    "epi-degree1-float": (lambda: enumerate_epi_degree1(1, 1.5),
                          "paracyclic sizes and values are integers, not 1.5"),
    "para-parse": (lambda: parse_para("2 x : 0 1"),
                   "cannot parse paracyclic morphism from '2 x : 0 1'"),
    "epi-sizes": (lambda: EPI(0, 1, (), ()), "cycles of sizes 0, 1 need m, n >= 1"),
    "epi-size-float": (lambda: EPI(1, 2.0, [0], [2]),
                       "epicyclic sizes, vertex images and lengths are "
                       "integers, not 2.0"),
    "epi-vertex-bool": (lambda: EPI(1, 1, [False], [1]),
                        "epicyclic sizes, vertex images and lengths are "
                        "integers, not False"),
    "epi-length-float": (lambda: EPI(1, 1, [0], [1.0]),
                         "epicyclic sizes, vertex images and lengths are "
                         "integers, not 1.0"),
    "epi-identity-float": (lambda: ID_EPI(2.5),
                           "epicyclic sizes, vertex images and lengths are "
                           "integers, not 2.5"),
    "epi-identity-bool": (lambda: ID_EPI(True),
                          "epicyclic sizes, vertex images and lengths are "
                          "integers, not True"),
    "epi-lengths": (lambda: EPI(2, 2, (0, 1), (1,)),
                    "need exactly m vertex images and m lengths"),
    "epi-vertex": (lambda: EPI(1, 2, (2,), (2,)), "vertex image 2 outside Z/2"),
    "epi-negative": (lambda: EPI(2, 1, (0, 0), (-1, 2)), "length at 0 is negative"),
    "epi-incompatible": (lambda: EPI(2, 2, (0, 1), (2, 1)),
                         "length at 0 incompatible with the vertex map"),
    "epi-winding": (lambda: EPI(1, 1, (0,), (0,)),
                    "total winding must be a positive multiple of n"),
    "epi-compose": (lambda: COMPOSE_EPI(ID_EPI(2), ID_EPI(1)),
                    "cycles of size 1 vs 2"),
    "epi-lift": (lambda: EPI_TO_PARA(parse_epi("1 1 : 0 | 2")),
                 "only degree-1 functors lift to the paracyclic category"),
    "epi-parse": (lambda: parse_epi("1 1 : 0 | x"),
                  "cannot parse epicyclic morphism from '1 1 : 0 | x'"),
}


# the lift class's own messages, beside those of the notations above
LIFT_REJECTIONS = {
    "lift-kind": (lambda: LiftMor("cyclic", 1, 1, (0,)), "no morphism kind 'cyclic'"),
    "lift-identity-kind": (lambda: identity("cyclic", 1), "no morphism kind 'cyclic'"),
    "lift-kinds-compose": (lambda: compose(identity("epi", 1), identity("para", 1)),
                           "para and epi maps do not compose"),
    "lift-epi-start": (lambda: LiftMor("epi", 1, 2, (2,)), "vertex image 2 outside Z/2"),
    "lift-epi-degree": (lambda: LiftMor("epi", 1, 2, (0,), 0),
                        "total winding must be a positive multiple of n"),
    "lift-epi-period": (lambda: LiftMor("epi", 2, 2, (0, 3)), "values must fit in one period"),
    "lift-para-degree": (lambda: LiftMor("para", 1, 1, (0,), 2),
                         "only degree-1 functors lift to the paracyclic category"),
    "lift-degree-float": (lambda: LiftMor("delta", 1, 1, (0,), 1.0),
                          "ordinal sizes and values are integers, not 1.0"),
    "lift-para-to-delta": (lambda: as_kind(LiftMor("para", 1, 2, (2,)), "delta"),
                           "value 2 outside [0..1]"),
}
REJECTIONS = {**CYCCAT_REJECTIONS, **LIFT_REJECTIONS}


@pytest.mark.parametrize("name", REJECTIONS)
def test_cyccat_rejections_name_the_fault(name):
    build, message = REJECTIONS[name]
    with pytest.raises(QuivercalcError) as e:
        build()
    assert str(e.value) == message
