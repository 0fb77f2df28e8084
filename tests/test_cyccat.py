import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from quivercalc.cyccat import (EpiMor, Incomposable, ParaMor, cartesian_factor,
                               compose_epi, compose_para, delta_to_para,
                               dualize_para, enumerate_epi_degree1,
                               enumerate_para_transversal, format_epi,
                               format_para, identity_epi, identity_para,
                               lift_epi_degree1, para_alpha, para_phi,
                               para_small_rotation, parse_epi, parse_para,
                               project_para_to_epi)
from quivercalc.digraph import QuivercalcError, standard_digraph
from quivercalc.quiver import Path, QuiverMor, compose_quiver_mor


# --- paracyclic morphisms --------------------------------------------------


def test_paramor_invariants():
    ParaMor(2, 3, (0, 2))
    ParaMor(2, 3, (-1, 2))  # raw translates are allowed
    with pytest.raises(QuivercalcError):
        ParaMor(2, 3, (2, 0))  # not monotone
    with pytest.raises(QuivercalcError):
        ParaMor(2, 3, (0, 4))  # wraps past one period


def test_extension_is_equivariant():
    f = ParaMor(2, 3, (0, 2))
    for i in range(-6, 6):
        assert f.value(i + 2) == f.value(i) + 3


def test_identity_and_translates():
    i = identity_para(3)
    assert i.values == (0, 1, 2)
    a = para_alpha(3)
    assert a.values == (3, 4, 5)
    assert a != i  # translates are distinct morphisms
    s = para_small_rotation(3)
    assert s.values == (1, 2, 3)
    # the big rotation is the cube of the small one
    assert compose_para(s, compose_para(s, s)) == a


def test_composition_example():
    f = parse_para("2 3 : 0 2")
    g = parse_para("3 1 : 0 0 1")
    assert format_para(compose_para(g, f)) == "2 1 : 0 1"


def test_composition_units_and_errors():
    f = ParaMor(2, 3, (0, 2))
    assert compose_para(identity_para(3), f) == f
    assert compose_para(f, identity_para(2)) == f
    with pytest.raises(Incomposable):
        compose_para(f, f)


@st.composite
def paramors(draw, max_m=4, max_n=4, spread=2):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    g0 = draw(st.integers(-spread * n, spread * n))
    vals = [g0]
    for _ in range(m - 1):
        room = g0 + n - vals[-1]
        vals.append(vals[-1] + draw(st.integers(0, max(room, 0))))
    return ParaMor(m, n, vals)


@given(paramors())
def test_translate_action(f):
    a_tgt = para_alpha(f.n)
    a_src = para_alpha(f.m)
    assert compose_para(a_tgt, f) == compose_para(f, a_src)  # alpha is central


@given(paramors(), st.data())
def test_para_associativity(f, data):
    g = data.draw(paramors(max_m=4, max_n=4).filter(lambda g: g.m == f.n))
    h = data.draw(paramors(max_m=4, max_n=4).filter(lambda h: h.m == g.n))
    assert compose_para(h, compose_para(g, f)) == \
        compose_para(compose_para(h, g), f)


def brute_transversal(m, n):
    """Every nondecreasing value list with g(0) in [0, n) that fits in one
    period, in lexicographic order."""
    return [ParaMor(m, n, (g0,) + rest) for g0 in range(n)
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
                assert para_phi(r, compose_para(g, f)) == \
                    compose_para(para_phi(r, g), para_phi(r, f))


def test_phi_sends_rotation_to_a_root():
    # the image of the canonical rotation is an r-th root of the canonical
    # rotation of the inflated object
    for m in (1, 2, 3):
        for r in (1, 2, 3, 4):
            img = para_phi(r, para_alpha(m))
            power = identity_para(r * m)
            for _ in range(r):
                power = compose_para(img, power)
            assert power == para_alpha(r * m)


def test_phi_of_alpha_on_the_point():
    assert para_phi(2, para_alpha(1)) == ParaMor(2, 2, (1, 2))
    sq = compose_para(para_phi(2, para_alpha(1)), para_phi(2, para_alpha(1)))
    assert sq == para_alpha(2)


# --- duality -----------------------------------------------------------------


def test_dual_of_identity():
    for m in (1, 2, 3, 4):
        assert dualize_para(identity_para(m)) == identity_para(m)


def test_dual_of_rotation_is_inverse():
    for m in (1, 2, 3, 4):
        d = dualize_para(para_alpha(m))
        assert d == ParaMor(m, m, tuple(range(-m, 0)))
        assert compose_para(d, para_alpha(m)) == identity_para(m)


def literal_dual(f):
    """j -> max{ i : f(i) <= j }, searched over a window that holds it."""
    reach = f.m * (abs(f.values[0]) // f.n + 3)
    return ParaMor(f.n, f.m, [max(i for i in range(-reach, reach)
                                  if f.value(i) <= j)
                              for j in range(f.n)])


@given(paramors(spread=30))
def test_dual_matches_the_literal_definition(f):
    assert dualize_para(f) == literal_dual(f)


def test_dual_of_huge_values():
    # f(2q) = -10^12 + 3q and f(2q+1) = f(2q) + 2, so with 3k = 10^12 - 1
    # f(2k), f(2k+1), f(2k+2), f(2k+3) = -1, 1, 2, 4
    f = ParaMor(2, 3, (-10 ** 12, -10 ** 12 + 2))
    k = 10 ** 12 // 3
    assert dualize_para(f) == ParaMor(3, 2, (2 * k, 2 * k + 1, 2 * k + 2))
    assert dualize_para(ParaMor(1, 1, (10 ** 12,))) == \
        ParaMor(1, 1, (-10 ** 12,))


@given(paramors())
def test_dual_swaps_sizes(f):
    d = dualize_para(f)
    assert (d.m, d.n) == (f.n, f.m)


@given(paramors(), st.data())
def test_dual_contravariant(f, data):
    g = data.draw(paramors().filter(lambda g: g.m == f.n))
    assert dualize_para(compose_para(g, f)) == \
        compose_para(dualize_para(f), dualize_para(g))


@given(paramors())
def test_double_dual_is_shift_conjugation(f):
    # applying the duality twice conjugates by the unit shift — the
    # inverse-equivalence law in integer coordinates
    dd = dualize_para(dualize_para(f))
    shift_src = para_small_rotation(f.m)
    unshift_tgt = ParaMor(f.n, f.n, tuple(range(-1, f.n - 1)))
    assert dd == compose_para(unshift_tgt, compose_para(f, shift_src))


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
    EpiMor(2, 3, (0, 2), (2, 1))
    with pytest.raises(QuivercalcError):
        EpiMor(2, 3, (0, 2), (1, 1))  # lengths disagree with vertex map
    with pytest.raises(QuivercalcError):
        EpiMor(1, 1, (0,), (0,))  # total length must be positive
    with pytest.raises(QuivercalcError):
        EpiMor(2, 3, (0, 5), (2, 1))  # vertex outside range


def test_epi_identity_and_degree():
    i = identity_epi(3)
    assert i.degree == 1
    loop = EpiMor(1, 1, (0,), (5,))
    assert loop.degree == 5
    collapse = EpiMor(2, 1, (0, 0), (1, 0))
    assert collapse.degree == 1


def test_epi_composition_example():
    f = EpiMor(2, 3, (0, 2), (2, 1))
    g = EpiMor(3, 1, (0, 0, 0), (1, 0, 2))
    gf = compose_epi(g, f)
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
    return EpiMor(m, n, vmap, lengths)


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
    return EpiMor(m, n, vmap, lengths)


def stepping_compose_epi(g, f):
    """The composite by path substitution: the edge out of v crosses
    lengths_f[v] edges of the middle cycle, each adding its g-winding."""
    vmap = [g.vertex_map[v] for v in f.vertex_map]
    lengths = [sum(g.lengths[(f.vertex_map[v] + j) % f.n]
                   for j in range(f.lengths[v]))
               for v in range(f.m)]
    return EpiMor(f.m, g.n, vmap, lengths)


@given(epimors(), st.data())
def test_compose_epi_matches_the_stepping_sum(f, data):
    g = data.draw(epimors(m=f.n))
    assert compose_epi(g, f) == stepping_compose_epi(g, f)


@given(epimors())
def test_epi_lift_is_equivariant(f):
    assert f.values[0] == f.vertex_map[0]
    assert [v % f.n for v in f.values] == list(f.vertex_map)
    for i in range(-2 * f.m, 2 * f.m):
        assert f.value(i + 1) - f.value(i) == f.lengths[i % f.m]
        assert f.value(i + f.m) == f.value(i) + f.degree * f.n


@given(epimors())
def test_cartesian_factor_recomposes(f):
    cover, cyc = cartesian_factor(f)
    assert cyc.degree == 1
    assert compose_epi(cover, cyc) == f


def test_compose_epi_with_huge_winding():
    f = EpiMor(2, 1, (0, 0), (10 ** 12, 5))
    g = EpiMor(1, 3, (1,), (6,))
    h = compose_epi(g, f)
    assert h == EpiMor(2, 3, (1, 1), (6 * 10 ** 12, 30))
    assert h.degree == 2 * (10 ** 12 + 5)


def test_degree_multiplicative_seeded():
    rng = random.Random(20260816)
    for _ in range(1000):
        f = random_epi(rng)
        g = random_epi(rng, m=f.n)
        assert compose_epi(g, f).degree == f.degree * g.degree


def test_degree_one_closed_under_composition():
    for m, k, n in [(1, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 1)]:
        for f in enumerate_epi_degree1(m, k):
            for g in enumerate_epi_degree1(k, n):
                assert compose_epi(g, f).degree == 1


def test_epi_composition_matches_functor_composition():
    # second route: realize each winding morphism as a functor of cyclic
    # graphs and compose by path substitution
    rng = random.Random(77)
    for _ in range(300):
        f = random_epi(rng, max_m=4, max_n=4, max_len=5)
        g = random_epi(rng, max_m=4, max_n=4, max_len=5, m=f.n)
        one = compose_epi(g, f).to_quiver_mor()
        two = compose_quiver_mor(g.to_quiver_mor(), f.to_quiver_mor())
        assert one == two


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
    f = EpiMor(2, 3, (0, 2), (2, 1))
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
            out.append(EpiMor(m, n, vmap, lengths))
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
    assert project_para_to_epi(identity_para(3)) == identity_epi(3)
    f = ParaMor(2, 3, (0, 2))
    e = project_para_to_epi(f)
    assert e.vertex_map == (0, 2) and e.lengths == (2, 1)
    assert e.degree == 1
    # the deck translate projects to the identity
    assert project_para_to_epi(para_alpha(3)) == identity_epi(3)


def test_projection_translate_invariant():
    for f in enumerate_para_transversal(2, 3):
        shifted = compose_para(para_alpha(3), f)
        assert project_para_to_epi(shifted) == project_para_to_epi(f)


def test_projection_functorial_exhaustive():
    sizes = [1, 2, 3, 4]
    for a in sizes:
        for b in sizes:
            fs = enumerate_para_transversal(a, b)
            for c in sizes:
                gs = enumerate_para_transversal(b, c)
                for f in fs:
                    for g in gs:
                        assert project_para_to_epi(compose_para(g, f)) == \
                            compose_epi(project_para_to_epi(g),
                                        project_para_to_epi(f))


def test_projection_surjective_on_degree_one():
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            for e in enumerate_epi_degree1(m, n):
                lift = lift_epi_degree1(e)
                assert project_para_to_epi(lift) == e
                assert 0 <= lift.values[0] < n


def test_lift_rejects_higher_degree():
    with pytest.raises(QuivercalcError):
        lift_epi_degree1(EpiMor(1, 1, (0,), (2,)))


def test_projection_fibers_are_translate_orbits():
    # two transversal representatives project equally only if equal
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            seen = {}
            for f in enumerate_para_transversal(m, n):
                e = project_para_to_epi(f)
                assert e not in seen, "transversal hits a fiber twice"
                seen[e] = f


# --- factorization through coverings ----------------------------------------


def test_cartesian_factor_laws():
    rng = random.Random(999)
    for _ in range(500):
        f = random_epi(rng)
        cover, cyc = cartesian_factor(f)
        assert cyc.degree == 1
        assert cover.degree == f.degree
        assert compose_epi(cover, cyc) == f
        # the covering is the standard one: every edge has length one
        assert all(l == 1 for l in cover.lengths)
        assert cover.m == f.degree * f.n and cover.n == f.n


def test_cartesian_factor_identity_and_loops():
    i = identity_epi(3)
    cover, cyc = cartesian_factor(i)
    assert cover == i and cyc == i
    loop = EpiMor(1, 1, (0,), (6,))
    cover, cyc = cartesian_factor(loop)
    assert cover.m == 6 and cover.n == 1
    assert cyc.m == 1 and cyc.n == 6 and cyc.degree == 1
    assert compose_epi(cover, cyc) == loop


def test_cartesian_factor_degree_one_gives_identity_cover():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for e in enumerate_epi_degree1(m, n):
                cover, cyc = cartesian_factor(e)
                assert cover == identity_epi(n)
                assert cyc == e


def test_delta_to_para_examples():
    from quivercalc.quiver import DeltaMor
    assert delta_to_para(DeltaMor.identity(1)) == identity_para(2)
    assert delta_to_para(DeltaMor(0, 1, (0,))) == ParaMor(1, 2, (0,))
    assert delta_to_para(DeltaMor(1, 0, (0, 0))) == ParaMor(2, 1, (0, 0))


# --- every rejection names what is wrong -------------------------------------

CYCCAT_REJECTIONS = {
    "para-sizes": (lambda: ParaMor(0, 3, ()), "(1/0)Z -> (1/3)Z needs m, n >= 1"),
    "para-values": (lambda: ParaMor(2, 3, (0,)), "need exactly m values"),
    "para-monotone": (lambda: ParaMor(2, 3, (2, 0)), "values must be monotone"),
    "para-period": (lambda: ParaMor(2, 3, (0, 4)), "values must fit in one period"),
    "para-compose": (lambda: compose_para(identity_para(2), identity_para(3)),
                     "(1/3)Z -> (1/3)Z then (1/2)Z -> (1/2)Z"),
    "para-phi": (lambda: para_phi(0, identity_para(1)),
                 "inflation needs r >= 1, not 0"),
    "para-phi-float": (lambda: para_phi(2.0, identity_para(1)),
                       "inflation needs an integer r, not 2.0"),
    "para-phi-bool": (lambda: para_phi(True, identity_para(1)),
                      "inflation needs an integer r, not True"),
    "para-size-float": (lambda: ParaMor(2.0, 3, (0, 1)),
                        "paracyclic sizes and values are integers, not 2.0"),
    "para-value-float": (lambda: ParaMor(1, 1, (0.5,)),
                         "paracyclic sizes and values are integers, not 0.5"),
    "para-identity-bool": (lambda: identity_para(True),
                           "paracyclic sizes and values are integers, not True"),
    "para-alpha-float": (lambda: para_alpha(2.5),
                         "paracyclic sizes and values are integers, not 2.5"),
    "para-identity-float": (lambda: identity_para(2.5),
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
    "epi-sizes": (lambda: EpiMor(0, 1, (), ()), "cycles of sizes 0, 1 need m, n >= 1"),
    "epi-size-float": (lambda: EpiMor(1, 2.0, [0], [2]),
                       "epicyclic sizes, vertex images and lengths are "
                       "integers, not 2.0"),
    "epi-vertex-bool": (lambda: EpiMor(1, 1, [False], [1]),
                        "epicyclic sizes, vertex images and lengths are "
                        "integers, not False"),
    "epi-length-float": (lambda: EpiMor(1, 1, [0], [1.0]),
                         "epicyclic sizes, vertex images and lengths are "
                         "integers, not 1.0"),
    "epi-identity-float": (lambda: identity_epi(2.5),
                           "epicyclic sizes, vertex images and lengths are "
                           "integers, not 2.5"),
    "epi-identity-bool": (lambda: identity_epi(True),
                          "epicyclic sizes, vertex images and lengths are "
                          "integers, not True"),
    "epi-lengths": (lambda: EpiMor(2, 2, (0, 1), (1,)),
                    "need exactly m vertex images and m lengths"),
    "epi-vertex": (lambda: EpiMor(1, 2, (2,), (2,)), "vertex image 2 outside Z/2"),
    "epi-negative": (lambda: EpiMor(2, 1, (0, 0), (-1, 2)), "length at 0 is negative"),
    "epi-incompatible": (lambda: EpiMor(2, 2, (0, 1), (2, 1)),
                         "length at 0 incompatible with the vertex map"),
    "epi-winding": (lambda: EpiMor(1, 1, (0,), (0,)),
                    "total winding must be a positive multiple of n"),
    "epi-compose": (lambda: compose_epi(identity_epi(2), identity_epi(1)),
                    "cycles of size 1 vs 2"),
    "epi-lift": (lambda: lift_epi_degree1(parse_epi("1 1 : 0 | 2")),
                 "only degree-1 functors lift to the paracyclic category"),
    "epi-parse": (lambda: parse_epi("1 1 : 0 | x"),
                  "cannot parse epicyclic morphism from '1 1 : 0 | x'"),
}


@pytest.mark.parametrize("name", CYCCAT_REJECTIONS)
def test_cyccat_rejections_name_the_fault(name):
    build, message = CYCCAT_REJECTIONS[name]
    with pytest.raises(QuivercalcError) as e:
        build()
    assert str(e.value) == message
