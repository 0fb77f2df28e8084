import itertools
import json
import operator
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from quivercalc.digraph import (Digraph, QuivercalcError, component_labels,
                                disjoint_union, lyndon_rotation, lyndon_words,
                                standard_digraph)
from quivercalc.fincat import (BadComposite, NotAssociative,
                               chain_poset_category, cyclic_group_category,
                               enumerate_reps, monoid_category,
                               symmetric_group_category, validate_fincat,
                               walking_arrow_category)
from quivercalc.hochschild import compute_hh, psi, trace_obj
from quivercalc.cyccat import compose, delta_mor, epi_mor
from quivercalc.quiver import (Path, QuiverMor, compose_quiver_mor, components,
                               cycle_root, directed_cycle,
                               enumerate_quiver_mors)
from quivercalc import cli, digraph, emm
from quivercalc.emm import (CircleEndo, CycleToCircle, ExcisionSite, MMor,
                            MObject, QuivPart, circle_object,
                            compose_m, cycle_length_bound,
                            enumerate_directed_cycles,
                            fact_homology, fact_map, hom_m, identity_m,
                            make_excision_site, mobject_of_digraph,
                            quiv_op_mmor, verify_excision)

import cycle_oracle
import search_oracle
import stage_oracle
import string_oracle as oracle
from random_categories import concrete_categories
from tests.conftest import FIXTURES
from test_digraph import PIECES, SIDE_CYCLE, digraphs, has_directed_cycle
from test_acceptance import h_colourings, hom_size_matrix
from test_quiver import QUIVER_POOL
from test_fincat import without_composite


def necklace_count(k, n):
    """Primitive necklaces over k letters of length n:
    (1/n) sum_{d | n} mu(d) k^(n/d)."""
    return sum(sympy.mobius(d) * k ** (n // d)
               for d in sympy.divisors(n)) // n


# --- directed cycles ---------------------------------------------------------


def test_cycle_construction_and_rotation():
    g = standard_digraph("cyclic", 3)
    z1 = directed_cycle(g, ["e0", "e1", "e2"])
    z2 = directed_cycle(g, ["e1", "e2", "e0"])
    assert z1 == z2  # rotations are identified
    assert z1.length == 3
    c = Path.empty(g, "1")
    assert not c.edges and c.length == 0
    assert c != z1


def test_cycle_rejects_bad_walks():
    g = standard_digraph("cyclic", 3)
    with pytest.raises(QuivercalcError):
        directed_cycle(g, ["e0", "e1"])  # not closed
    b = standard_digraph("bouquet", 1)
    with pytest.raises(QuivercalcError):
        directed_cycle(b, ["e0", "e0"])  # not primitive


@st.composite
def closed_walks(draw):
    """A random graph beside a loop, and a closed walk in it: a closed walk
    of at most four edges, repeated one to three times and rotated."""
    g = disjoint_union([draw(digraphs()), standard_digraph("cyclic", 1)])
    loops = [w for v in g.vertices for w in search_oracle.walks(g, v, v, 4) if w]
    w = draw(st.sampled_from(loops)) * draw(st.integers(1, 3))
    r = draw(st.integers(0, len(w) - 1))
    w = w[r:] + w[:r]
    return Path(g, g.edge(w[0]).src, w)


@given(closed_walks())
def test_cycle_root_is_a_primitive_least_rotation_wound_k_times(p):
    g = p.graph
    root, k = cycle_root(p)
    assert root.edges and root.start == root.end == g.edge(root.edges[0]).src
    assert root == Path(g, root.start, root.edges)      # the edges chain
    assert cycle_oracle.is_primitive(root.edges)
    assert root.edges == cycle_oracle.least_rotation(g, root.edges)
    n = len(p.edges)
    assert k * len(root.edges) == n
    assert any(p.edges[d:] + p.edges[:d] == root.edges * k for d in range(n))


def test_cycle_root_of_an_empty_or_open_path():
    g = standard_digraph("linear", 2)
    assert cycle_root(Path.empty(g, "1")) == (Path.empty(g, "1"), 1)
    with pytest.raises(QuivercalcError, match="^cycle walks must close up$"):
        cycle_root(Path.of_edge(g, "e0"))


def test_primitive_period():
    assert lyndon_rotation(("a", "b", "a", "b"))[1] == 2
    assert lyndon_rotation(("a", "b", "b"))[1] == 3
    assert lyndon_rotation(("a",))[1] == 1


def test_enumerate_cycles_on_cyclic_graph():
    g = standard_digraph("cyclic", 4)
    zs = enumerate_directed_cycles(g, 6)
    consts = [z for z in zs if not z.edges]
    walks = [z for z in zs if z.edges]
    assert len(consts) == 4
    assert len(walks) == 1 and walks[0].length == 4


@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumerate_cycles_counts_necklaces(k):
    g = standard_digraph("bouquet", k)
    for max_len in range(1, 7):
        zs = enumerate_directed_cycles(g, max_len)
        by_len = {}
        for z in zs:
            by_len[z.length] = by_len.get(z.length, 0) + 1
        assert by_len.get(0) == 1
        for n in range(1, max_len + 1):
            assert by_len.get(n, 0) == necklace_count(k, n), (k, n)


def random_digraph(rng, n_vertices, n_edges):
    vs = [f"v{i}" for i in range(n_vertices)]
    return Digraph(vs, [(f"e{i}", rng.choice(vs), rng.choice(vs))
                        for i in range(n_edges)])


def oracle_graphs():
    """(graph, max_len) cases for the cycle oracle, with their names."""
    cases = [(f"bouquet({k})", standard_digraph("bouquet", k), 7) for k in (1, 2, 3)]
    cases += [(f"cyclic({n})", standard_digraph("cyclic", n), 9) for n in (1, 2, 3, 5)]
    cases.append(("linear(4)", standard_digraph("linear", 4), 6))
    for name in ("bouquet2", "interval", "linear2", "triangle"):
        g = Digraph.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
        cases.append((name, g, 6))
    cases.append(("two cycles with loops",
                  Digraph(["a", "b", "c"], [("l", "a", "a"), ("x", "a", "b"),
                                            ("y", "b", "a"), ("z", "b", "c"),
                                            ("w", "c", "b"), ("m", "c", "c")]), 6))
    rng = random.Random(7)
    for i in range(12):
        n = rng.randint(1, 5)
        cases.append((f"random{i}", random_digraph(rng, n, rng.randint(n, 2 * n + 1)), 6))
    # parallel edges and loops, with edge names against declaration order,
    # so that a walk's Lyndon order is not the order of its edge names
    cases.append(("parallel edges",
                  Digraph(["a", "b"], [("z", "a", "b"), ("y", "b", "a"),
                                       ("x", "a", "b"), ("w", "a", "a"),
                                       ("v", "b", "a"), ("u", "b", "b")]), 6))
    cases.append(("bouquet(3) to length 8", standard_digraph("bouquet", 3), 8))
    rng = random.Random(9)
    for i in range(8):
        n = rng.randint(6, 7)
        cases.append((f"random{n}v{i}",
                      random_digraph(rng, n, rng.randint(n, 3 * n)), 7))
    return [pytest.param(g, max_len, id=name) for name, g, max_len in cases]


@pytest.mark.parametrize("g,max_len", oracle_graphs())
def test_cycles_match_the_exhaustive_oracle(g, max_len):
    for n in range(max_len + 1):
        want = cycle_oracle.enumerate_directed_cycles(g, n)
        assert enumerate_directed_cycles(g, n) == want, n
        assert ([tuple(g.edges[j].eid for j in w) for w in lyndon_words(g, n)]
                == [z.edges for z in want if z.edges]), n


def check_lyndon_words(g, max_len):
    """What enumerate_directed_cycles takes on trust from the search: each
    word's edges chain and close up, and the word is its own least rotation
    and primitive, so the cycle it makes is stored as walk() would store it."""
    for w in lyndon_words(g, max_len):
        assert 1 <= len(w) <= max_len, w
        es = [g.edges[j] for j in w]
        assert all(e.tgt == f.src for e, f in zip(es, es[1:])), w
        assert es[-1].tgt == es[0].src, w
        assert lyndon_rotation(w) == (0, len(w)), w


@pytest.mark.parametrize("g,max_len", oracle_graphs())
def test_lyndon_words_close_up_in_their_least_rotation(g, max_len):
    check_lyndon_words(g, max_len)


@example(SIDE_CYCLE)
@example(PIECES)
@given(digraphs())
def test_lyndon_words_of_random_graphs_close_up_in_their_least_rotation(g):
    check_lyndon_words(g, 6)


@example(SIDE_CYCLE)
@example(PIECES)
@given(digraphs())
def test_cycles_from_index_words_equal_the_checked_walks(g):
    for z in enumerate_directed_cycles(g, 5):
        if z.edges:
            w = directed_cycle(g, z.edges)
            assert (w, w.start, w.edges, w.end) == (z, z.start, z.edges, z.end)


def test_cycles_longer_than_the_recursion_limit():
    n = max(3000, sys.getrecursionlimit() + 100)
    zs = enumerate_directed_cycles(standard_digraph("cyclic", n), n)
    assert [z.length for z in zs if z.edges] == [n]
    with pytest.raises(QuivercalcError):
        enumerate_directed_cycles(standard_digraph("cyclic", 2), -1)


@example(SIDE_CYCLE)
@example(PIECES)
@given(digraphs())
def test_cycle_length_bound_matches_the_per_piece_scan(g):
    assert cycle_length_bound(g) == search_oracle.cycle_length_bound(g)


def test_cycle_length_bound_of_a_long_chain():
    assert cycle_length_bound(standard_digraph("linear", 20000)) == 0


@example(SIDE_CYCLE, 0, 1)
@given(digraphs(), st.integers(0, 2), st.integers(0, 3))
def test_hom_m_to_a_circle_is_truncated_exactly_when_something_winds(
        g, circles, max_len):
    source = MObject(circles, components(g))
    _, _, truncated = hom_m(source, circle_object(1), max_len=max_len,
                            max_weight=1, path_cap=1)
    assert truncated == (circles > 0 or has_directed_cycle(g))


@example(SIDE_CYCLE, 1)
@given(digraphs(), st.integers(0, 2))
def test_the_unchecked_maps_pass_the_checking_constructor(g, circles):
    """hom_m and a circle site's glue_mmor build their maps unchecked; each
    is one the checking constructor accepts, with equal parts."""
    source = MObject(circles, components(g))
    for target in (circle_object(1), circle_object(2), mobject_of_digraph(g)):
        for f in hom_m(source, target, max_len=3, max_weight=2, path_cap=1,
                       limit=40)[0]:
            assert MMor(f.source, f.target, f.circle_parts, f.quiver_parts) == f
    glue = make_excision_site("circle").glue_mmor()
    assert MMor(glue.source, glue.target, glue.circle_parts, ()) == glue


def test_cycle_length_bound():
    assert cycle_length_bound(standard_digraph("cyclic", 5)) == 5
    assert cycle_length_bound(standard_digraph("bouquet", 2)) is None
    assert cycle_length_bound(standard_digraph("linear", 3)) is not None
    two_loops = Digraph(["a", "b"], [("e", "a", "a"), ("f", "b", "b")])
    assert cycle_length_bound(two_loops) == 1
    # two cycles sharing a vertex: unbounded words
    fig8 = Digraph(["a", "b"],
                   [("e", "a", "b"), ("f", "b", "a"), ("l", "a", "a")])
    assert cycle_length_bound(fig8) is None


def test_the_cycle_search_stops_at_the_length_bound():
    """No primitive cycle is longer than cycle_length_bound, so the search
    is capped there: on cyclic(2) a cap of 10^5 searches to length 2 (it
    took 0.10-0.16 s when the search ran to the cap).  A graph with no
    bound keeps the cap it is given.  Each graph keeps its bound, so hom_m,
    which reads it again for its truncation flag, runs one strong component
    search per quiver, and none for a quiver asked before."""
    caps = []

    def spy(d, max_len):
        caps.append(max_len)
        return lyndon_words(d, max_len)

    with mock.patch.object(emm, "lyndon_words", spy):
        zs = enumerate_directed_cycles(standard_digraph("cyclic", 2), 100000)
        assert [z.edges for z in zs] == [(), (), ("e0", "e1")]
        enumerate_directed_cycles(standard_digraph("cyclic", 3), 2)
        enumerate_directed_cycles(standard_digraph("linear", 3), 5)
        enumerate_directed_cycles(standard_digraph("bouquet", 2), 7)
    assert caps == [2, 2, 0, 7]
    source = MObject(0, [standard_digraph("cyclic", 2),
                         standard_digraph("linear", 2)])
    with mock.patch.object(emm, "strong_components",
                           wraps=emm.strong_components) as search:
        _, count, truncated = hom_m(source, circle_object(1), max_len=100000,
                                    max_weight=1, limit=0)
        assert search.call_count == 2
        # the graphs keep their bounds: asking again searches nothing
        assert hom_m(source, circle_object(1), max_len=100000, max_weight=1,
                     limit=0)[1:] == (count, truncated)
        assert search.call_count == 2
    assert truncated and count == 2 + 3 + 1     # five vertices, one 2-cycle


# --- objects -----------------------------------------------------------------


def test_mobject_construction():
    m = mobject_of_digraph(standard_digraph("interval"))
    assert m.circles == 0 and len(m.quivers) == 1
    c = circle_object(2)
    assert c.circles == 2 and c.quivers == ()
    with pytest.raises(QuivercalcError):
        MObject(0, (disjoint_union([standard_digraph("point"),
                                    standard_digraph("point")]),))


def test_mobject_splits_components():
    g = disjoint_union([standard_digraph("interval"),
                        standard_digraph("cyclic", 1)], prefixes=["i.", "c."])
    m = mobject_of_digraph(g)
    assert len(m.quivers) == 2
    assert m.quivers[0].vertices == ("i.0", "i.1")


def test_split_parts_are_born_connected():
    """Splitting a graph of three components searches it once: each part
    it builds is known to be one component, so the object's connectivity
    check searches no part again (four searches per graph before)."""
    g = disjoint_union([standard_digraph("interval"), standard_digraph("point"),
                        standard_digraph("cyclic", 2)])
    with mock.patch.object(digraph, "component_labels",
                           wraps=component_labels) as search:
        m = mobject_of_digraph(g)
        assert search.call_count == 1
        assert MObject.from_json({"circles": 1, "quivers": [g.to_json()]}) \
            == MObject(1, m.quivers)
        assert search.call_count == 2
    assert [q.vertices for q in m.quivers] == [("0.0", "0.1"), ("1.0",),
                                               ("2.0", "2.1")]


def test_mobject_json_round_trip():
    g = disjoint_union([standard_digraph("interval"),
                        standard_digraph("point")], prefixes=["i.", "p."])
    m = MObject(2, mobject_of_digraph(g).quivers)
    assert MObject.from_json(m.to_json()) == m


# --- hom computation ----------------------------------------------------------


def test_point_to_circle_is_single_and_exact():
    pt = mobject_of_digraph(standard_digraph("point"))
    mors, count, truncated = hom_m(pt, circle_object())
    assert len(mors) == count == 1 and not truncated
    assert mors[0].circle_parts[0] == CycleToCircle(
        0, Path.empty(pt.quivers[0], "0"), 1)


def test_circle_to_quiver_is_empty_and_exact():
    for g in [standard_digraph("point"), standard_digraph("cyclic", 2),
              standard_digraph("bouquet", 2)]:
        mors, count, truncated = hom_m(circle_object(), mobject_of_digraph(g))
        assert mors == [] and count == 0 and not truncated


def test_circle_to_circle_weights():
    mors, _, truncated = hom_m(circle_object(), circle_object(), max_weight=5)
    assert truncated  # there are infinitely many weights
    weights = sorted(p.circle_parts[0].weight for p in mors)
    assert weights == [1, 2, 3, 4, 5]


def test_cyclic_quiver_to_circle_is_exact():
    g = standard_digraph("cyclic", 3)
    mors, _, truncated = hom_m(mobject_of_digraph(g), circle_object(),
                               max_weight=2)
    # three vertex maps, one cycle with weights 1..2 — but weights are
    # unbounded, so the computation must admit truncation
    assert truncated
    lengths = [p.circle_parts[0].cycle.length for p in mors]
    assert lengths == [0, 0, 0, 3, 3]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bouquet_to_circle_counts_necklaces(k):
    g = standard_digraph("bouquet", k)
    for n in range(1, 7):
        mors, _, _ = hom_m(mobject_of_digraph(g), circle_object(),
                           max_len=n, max_weight=1)
        got = sum(1 for f in mors
                  if isinstance(f.circle_parts[0], CycleToCircle)
                  and f.circle_parts[0].cycle.length == n)
        assert got == necklace_count(k, n)


def test_quiver_to_quiver_matches_quiver_homs():
    src = mobject_of_digraph(standard_digraph("interval"))
    tgt = mobject_of_digraph(standard_digraph("linear", 2))
    # contravariant: maps src -> tgt in M are quiver maps tgt -> src
    mors, count, truncated = hom_m(src, tgt)
    assert not truncated
    qmors, _, _ = enumerate_quiver_mors(standard_digraph("linear", 2),
                                        standard_digraph("interval"))
    assert len(mors) == len(qmors) == count


def test_hom_to_empty_target_when_source_has_quivers():
    src = mobject_of_digraph(standard_digraph("point"))
    empty = MObject(0, ())
    mors, count, truncated = hom_m(src, empty)
    assert len(mors) == count == 1 and not truncated
    assert mors[0].circle_parts == () and mors[0].quiver_parts == ()


def test_hom_from_quiverless_source_to_quiver_target_is_empty():
    src = circle_object()
    tgt = mobject_of_digraph(standard_digraph("interval"))
    mors, count, truncated = hom_m(src, tgt)
    assert mors == [] and count == 0 and not truncated


LIMIT_POOL = [
    mobject_of_digraph(standard_digraph("point")),
    mobject_of_digraph(standard_digraph("interval")),
    mobject_of_digraph(standard_digraph("cyclic", 2)),
    circle_object(),
    MObject(1, (standard_digraph("interval"),)),
    MObject(0, (standard_digraph("point"), standard_digraph("interval"))),
    *(MObject.from_json(json.loads((FIXTURES / name).read_text()))
      for name in ("interval_obj.json", "circle_obj.json")),
]


def test_a_limit_lists_the_first_maps_and_counts_them_all():
    """Over the composition pool's objects, one with two quivers (so that a
    target quiver's options run on into a second source quiver) and the
    README's two object fixtures."""
    caps = dict(max_len=3, max_weight=2, path_cap=2)
    for a, b in itertools.product(LIMIT_POOL, repeat=2):
        maps, count, truncated = hom_m(a, b, **caps)
        assert count == len(maps)
        for k in sorted({0, 1, 2, count, count + 1}):
            assert hom_m(a, b, **caps, limit=k) == (maps[:k], count, truncated), \
                (a, b, k)


# --- composition ---------------------------------------------------------------


def test_identity_composition():
    objs = [circle_object(), mobject_of_digraph(standard_digraph("interval")),
            MObject(1, (standard_digraph("cyclic", 2),))]
    for m in objs:
        i = identity_m(m)
        assert compose_m(i, i) == i


def test_compose_circle_endos_multiplies_weights():
    c = circle_object()
    f = MMor(c, c, (CircleEndo(0, 2),), ())
    g = MMor(c, c, (CircleEndo(0, 3),), ())
    assert compose_m(g, f).circle_parts[0] == CircleEndo(0, 6)


def test_compose_endo_after_cycle_scales_weight():
    g = standard_digraph("cyclic", 2)
    src = mobject_of_digraph(g)
    c = circle_object()
    z = directed_cycle(g, ["e0", "e1"])
    f = MMor(src, c, (CycleToCircle(0, z, 2),), ())
    e = MMor(c, c, (CircleEndo(0, 3),), ())
    assert compose_m(e, f).circle_parts[0] == CycleToCircle(0, z, 6)


def test_compose_cycle_through_quiver_part_wraps():
    # pushing the 2-cycle through the double cover onto the 1-cycle doubles
    # the weight and lands on the primitive loop
    c2 = standard_digraph("cyclic", 2)
    c1 = standard_digraph("cyclic", 1)
    down = QuiverMor(c2, c1, {"0": "0", "1": "0"},
                     {"e0": Path.of_edge(c1, "e0"),
                      "e1": Path.of_edge(c1, "e0")})
    m2, m1 = mobject_of_digraph(c2), mobject_of_digraph(c1)
    part = MMor(m1, m2, (), (QuivPart(0, down),))
    z2 = directed_cycle(c2, ["e0", "e1"])
    to_circle = MMor(m2, circle_object(), (CycleToCircle(0, z2, 1),), ())
    comp = compose_m(to_circle, part)
    got = comp.circle_parts[0]
    assert isinstance(got, CycleToCircle)
    assert got.cycle == directed_cycle(c1, ["e0"])
    assert got.weight == 2


def test_compose_cycle_onto_a_power_of_a_later_rotation():
    # the 4-cycle pushed onto bouquet(2) reads e1 e0 e1 e0: twice round the
    # 2-cycle, which is stored from its least edge as e0 e1
    c4, b2 = standard_digraph("cyclic", 4), standard_digraph("bouquet", 2)
    fold = QuiverMor(c4, b2, {v: "0" for v in c4.vertices},
                     {f"e{i}": Path.of_edge(b2, f"e{(i + 1) % 2}") for i in range(4)})
    m4, mb = mobject_of_digraph(c4), mobject_of_digraph(b2)
    part = MMor(mb, m4, (), (QuivPart(0, fold),))
    z4 = directed_cycle(c4, ["e0", "e1", "e2", "e3"])
    to_circle = MMor(m4, circle_object(), (CycleToCircle(0, z4, 3),), ())
    got = compose_m(to_circle, part).circle_parts[0]
    assert got == CycleToCircle(0, directed_cycle(b2, ["e1", "e0"]), 6)
    assert got.cycle.edges == ("e0", "e1")


def test_compose_cycle_collapsing_to_vertex():
    iv = standard_digraph("interval")
    c1 = standard_digraph("cyclic", 1)
    collapse = QuiverMor(c1, iv, {"0": "1"}, {"e0": Path.empty(iv, "1")})
    m_iv, m_c1 = mobject_of_digraph(iv), mobject_of_digraph(c1)
    part = MMor(m_iv, m_c1, (), (QuivPart(0, collapse),))
    z = directed_cycle(c1, ["e0"])
    to_circle = MMor(m_c1, circle_object(), (CycleToCircle(0, z, 3),), ())
    comp = compose_m(to_circle, part)
    assert comp.circle_parts[0] == CycleToCircle(
        0, Path.empty(iv, "1"), 1)


def test_a_power_of_a_constant_cycle_winds_once():
    pt = mobject_of_digraph(standard_digraph("point"))
    at = MMor(pt, circle_object(), (CycleToCircle(
        0, Path.empty(pt.quivers[0], "0"), 1),), ())
    cube = MMor(circle_object(), circle_object(), (CircleEndo(0, 3),), ())
    assert compose_m(cube, at) == at


def test_compose_quiver_parts_by_substitution():
    a, b, c = (standard_digraph("linear", k) for k in (1, 2, 4))
    f_q = QuiverMor(b, a, {"0": "0", "1": "0", "2": "1"},
                    {"e0": Path.empty(a, "0"), "e1": Path.of_edge(a, "e0")})
    g_q = QuiverMor(c, b, {"0": "0", "1": "1", "2": "2", "3": "2", "4": "2"},
                    {"e0": Path.of_edge(b, "e0"), "e1": Path.of_edge(b, "e1"),
                     "e2": Path.empty(b, "2"), "e3": Path.empty(b, "2")})
    ma, mb, mc = map(mobject_of_digraph, (a, b, c))
    f = MMor(ma, mb, (), (QuivPart(0, f_q),))
    g = MMor(mb, mc, (), (QuivPart(0, g_q),))
    gf = compose_m(g, f)
    assert gf.quiver_parts[0].mor == compose_quiver_mor(f_q, g_q)


def random_mmor_pool(rng, objs, caps):
    homs = {}
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            homs[i, j] = hom_m(a, b, **caps)[0]
    return homs


COMPOSE_POOL = [mobject_of_digraph(standard_digraph("point")),
                mobject_of_digraph(standard_digraph("interval")),
                mobject_of_digraph(standard_digraph("cyclic", 2)),
                circle_object(),
                MObject(1, (standard_digraph("interval"),))]


def test_compose_associative_seeded():
    rng = random.Random(20260816)
    objs = COMPOSE_POOL
    homs = random_mmor_pool(rng, objs, dict(max_len=3, max_weight=2,
                                            path_cap=2))
    done = 0
    while done < 500:
        a, b, c, d = (rng.randrange(len(objs)) for _ in range(4))
        if not (homs[a, b] and homs[b, c] and homs[c, d]):
            continue
        f = rng.choice(homs[a, b])
        g = rng.choice(homs[b, c])
        h = rng.choice(homs[c, d])
        assert compose_m(h, compose_m(g, f)) == compose_m(compose_m(h, g), f)
        done += 1


def test_compose_m_winds_each_cycle_as_the_period_rule_did():
    """compose_m's cycle branch (cycle_root) against the rule it replaced
    (cycle_oracle.compose_cycle), on every composable pair of maps of the
    composition pools in which the second map wraps a cycle."""
    caps = dict(max_len=3, max_weight=2, path_cap=2)
    objs = COMPOSE_POOL + [mobject_of_digraph(standard_digraph("cyclic", 1)),
                           mobject_of_digraph(standard_digraph("bouquet", 2))]
    homs = random_mmor_pool(None, objs, caps)
    checked, powers = 0, 0
    for (a, b), fs in homs.items():
        for c in range(len(objs)):
            gs = [g for g in homs[b, c] if any(
                isinstance(part, CycleToCircle) for part in g.circle_parts)]
            for f, g in itertools.product(fs, gs):
                got = compose_m(g, f).circle_parts
                for j, part in enumerate(g.circle_parts):
                    if isinstance(part, CycleToCircle):
                        want = cycle_oracle.compose_cycle(
                            part, f.quiver_parts[part.quiver])
                        assert got[j] == want, (f, g, j)
                        checked += 1
                        powers += want.weight > part.weight
    assert checked > 1000 and powers > 50, (checked, powers)


def test_quiv_op_mmor_contravariant():
    rng = random.Random(4)
    a = standard_digraph("interval")
    b = standard_digraph("linear", 2)
    c = standard_digraph("linear", 3)
    fs, _, _ = enumerate_quiver_mors(a, b)
    gs, _, _ = enumerate_quiver_mors(b, c)
    for _ in range(200):
        f = rng.choice(fs)
        g = rng.choice(gs)
        lhs = quiv_op_mmor(compose_quiver_mor(g, f))
        rhs = compose_m(quiv_op_mmor(f), quiv_op_mmor(g))
        assert lhs == rhs


def test_quiv_op_mmor_restricts_to_components():
    src = disjoint_union([standard_digraph("interval"),
                          standard_digraph("point")], prefixes=["i.", "p."])
    tgt = standard_digraph("interval")
    f = QuiverMor(src, tgt, {"i.0": "0", "i.1": "1", "p.0": "0"},
                  {"i.e0": Path.of_edge(tgt, "e0")})
    m = quiv_op_mmor(f)
    assert m.source == mobject_of_digraph(tgt)
    assert m.target == mobject_of_digraph(src)
    assert len(m.quiver_parts) == 2  # one per source component
    assert m == quiv_op_mmor_by_components(f)
    # a connected source into a split target is rebuilt on its component
    tgt2 = disjoint_union([standard_digraph("point"), tgt], prefixes=["p.", "i."])
    g = QuiverMor(tgt, tgt2, {"0": "i.0", "1": "i.1"},
                  {"e0": Path.of_edge(tgt2, "i.e0")})
    m = quiv_op_mmor(g)
    assert m == quiv_op_mmor_by_components(g)
    assert m.quiver_parts[0].mor.target.vertices == ("i.0", "i.1")


def quiv_op_mmor_by_components(q):
    """quiv_op_mmor with one quiver morphism rebuilt per component of q's
    source, a connected q included: the oracle for its pass-through."""
    source, target = mobject_of_digraph(q.target), mobject_of_digraph(q.source)
    where = {v: a for a, comp in enumerate(source.quivers) for v in comp.vertices}
    parts = []
    for comp in target.quivers:
        a = where[q.vertex_map[comp.vertices[0]]]
        tq = source.quivers[a]
        vmap = {v: q.vertex_map[v] for v in comp.vertices}
        paths = {e.eid: Path(tq, q.edge_paths[e.eid].start,
                             q.edge_paths[e.eid].edges) for e in comp.edges}
        parts.append(QuivPart(a, QuiverMor(comp, tq, vmap, paths)))
    return MMor(source, target, (), parts)


def check_quiv_op_mmor(q):
    """quiv_op_mmor(q) equals the oracle's, and is q itself when q's source
    and target are each one component."""
    m = quiv_op_mmor(q)
    assert m == quiv_op_mmor_by_components(q)
    if len(components(q.source)) == len(components(q.target)) == 1:
        assert m.quiver_parts[0].mor is q


def test_quiv_op_mmor_matches_the_per_component_oracle_on_morphism_pools():
    """Up to twelve morphisms, edges to paths of at most one edge, between
    each two quivers of the pool."""
    passed = 0
    for src in QUIVER_POOL:
        for tgt in QUIVER_POOL:
            mors, _, _ = enumerate_quiver_mors(src, tgt, 1, limit=12)
            for f in mors:
                check_quiv_op_mmor(f)
            passed += len(mors)
    assert passed > 500


# --- the invariant and its functoriality ---------------------------------------


def test_fact_on_circle_is_trace_classes():
    z3 = cyclic_group_category(3)
    elems = fact_homology(z3, circle_object())
    assert len(elems) == 3
    two = fact_homology(z3, circle_object(2))
    assert len(two) == 9


def test_fact_on_quiver_is_representations():
    c = walking_arrow_category()
    g = standard_digraph("interval")
    elems = fact_homology(c, mobject_of_digraph(g))
    assert len(elems) == len(enumerate_reps(c, g))


def test_fact_on_mixed_object():
    z2 = cyclic_group_category(2)
    m = MObject(1, (standard_digraph("interval"),))
    assert len(fact_homology(z2, m)) == 2 * 2  # classes x edge labels


def test_fact_map_circle_endo_is_psi():
    z3 = cyclic_group_category(3)
    c = circle_object()
    f = MMor(c, c, (CircleEndo(0, 2),), ())
    push = fact_map(z3, f)
    table = compute_hh(z3)
    for elem in fact_homology(z3, c):
        classes, reps = elem
        got_classes, got_reps = push(elem)
        assert got_classes[0] == psi(z3, 2, classes[0])
        assert got_reps == ()


def test_fact_map_vertex_to_circle_is_trace():
    c = walking_arrow_category()
    pt = mobject_of_digraph(standard_digraph("point"))
    z = Path.empty(pt.quivers[0], "0")
    f = MMor(pt, circle_object(), (CycleToCircle(0, z, 1),), ())
    push = fact_map(c, f)
    for elem in fact_homology(c, pt):
        classes, reps = push(elem)
        assert classes[0] == trace_obj(c, elem[1][0].vertex_labels["0"])


@settings(max_examples=40, deadline=None)
@given(cat=concrete_categories(max_objects=2, max_size=2), weight=st.integers(1, 5))
def test_the_block_circle_map_equals_psi_row_by_row(cat, weight):
    """Each circle part maps a block as the per-row route through names and
    psi does, for a source circle, a cycle and a constant cycle."""
    c1, c2 = standard_digraph("cyclic", 1), standard_digraph("cyclic", 2)
    source = MObject(1, [c1, c2])
    block = emm.fact_tuples(cat, source, 1500)
    for part in (CircleEndo(0, weight),
                 CycleToCircle(0, directed_cycle(c1, ("e0",)), weight),
                 CycleToCircle(1, directed_cycle(c2, ("e1", "e0")), weight),
                 CycleToCircle(1, Path.empty(c2, "1"), 1)):
        assert emm._circle_map(cat, source, part)(block) == \
            oracle.circle_map(cat, source, part)(block)


def test_fact_map_cycle_to_circle_is_word_class():
    z4 = cyclic_group_category(4)
    g = standard_digraph("cyclic", 2)
    m = mobject_of_digraph(g)
    z = directed_cycle(g, ["e0", "e1"])
    f = MMor(m, circle_object(), (CycleToCircle(0, z, 1),), ())
    push = fact_map(z4, f)
    table = compute_hh(z4)
    for elem in fact_homology(z4, m):
        _, reps = elem
        rep = reps[0]
        expected = table.class_of(
            z4.comp(rep.edge_labels["e1"], rep.edge_labels["e0"]))
        assert push(elem)[0][0] == expected


def test_fact_map_functorial_seeded():
    rng = random.Random(11)
    cat = cyclic_group_category(2)
    objs = [mobject_of_digraph(standard_digraph("point")),
            mobject_of_digraph(standard_digraph("interval")),
            mobject_of_digraph(standard_digraph("cyclic", 2)),
            circle_object()]
    homs = random_mmor_pool(rng, objs, dict(max_len=3, max_weight=2,
                                            path_cap=2))
    facts = {i: fact_homology(cat, m) for i, m in enumerate(objs)}
    done = 0
    while done < 300:
        a, b, c = (rng.randrange(len(objs)) for _ in range(3))
        if not (homs[a, b] and homs[b, c]) or not facts[a]:
            continue
        f = rng.choice(homs[a, b])
        g = rng.choice(homs[b, c])
        x = rng.choice(facts[a])
        lhs = fact_map(cat, compose_m(g, f))(x)
        rhs = fact_map(cat, g)(fact_map(cat, f)(x))
        assert lhs == rhs
        done += 1


def test_fact_map_matches_the_string_oracle():
    rng = random.Random(3)
    objs = [mobject_of_digraph(standard_digraph("point")),
            mobject_of_digraph(standard_digraph("interval")),
            mobject_of_digraph(standard_digraph("cyclic", 2)),
            circle_object(),
            MObject(1, (standard_digraph("interval"),)),
            MObject(1, (standard_digraph("cyclic", 2),
                        standard_digraph("bouquet", 1)))]
    homs = random_mmor_pool(rng, objs, dict(max_len=2, max_weight=2,
                                            path_cap=2))
    for cat in (symmetric_group_category(3), chain_poset_category(3)):
        facts = {i: fact_homology(cat, m) for i, m in enumerate(objs)}
        for i, m in enumerate(objs):
            assert facts[i] == oracle.fact_homology(cat, m)
        done = 0
        while done < 300:
            a, b = rng.randrange(len(objs)), rng.randrange(len(objs))
            if not homs[a, b] or not facts[a]:
                continue
            f = rng.choice(homs[a, b])
            x = rng.choice(facts[a])
            assert fact_map(cat, f)(x) == oracle.fact_map(cat, f)(x)
            done += 1


def test_fact_map_into_the_empty_object_matches_the_string_oracle():
    empty = circle_object(0)
    for m in (empty, circle_object(),
              mobject_of_digraph(standard_digraph("cyclic", 2)),
              MObject(1, (standard_digraph("interval"),))):
        f = MMor(m, empty, (), ())
        for cat in (symmetric_group_category(3), chain_poset_category(3)):
            for x in fact_homology(cat, m):
                assert fact_map(cat, f)(x) == oracle.fact_map(cat, f)(x) == ((), ())


def test_fact_map_rejects_foreign_elements():
    z2 = cyclic_group_category(2)
    m = mobject_of_digraph(standard_digraph("interval"))
    push = fact_map(z2, identity_m(m))
    (elem,) = fact_homology(z2, mobject_of_digraph(standard_digraph("point")))[:1]
    for bad in [((), ()), elem, (fact_homology(z2, circle_object())[0][0], ())]:
        with pytest.raises(QuivercalcError, match="does not belong"):
            push(bad)


# --- excision -------------------------------------------------------------------


def test_site_levels_subdivide():
    site = make_excision_site(standard_digraph("interval"), ["e0"])
    g0 = site.level_graph(0)
    assert len(g0.vertices) == 3 and len(g0.edges) == 2
    g1 = site.level_graph(1)
    assert len(g1.vertices) == 4 and len(g1.edges) == 3


def test_circle_site_levels():
    site = make_excision_site("circle")
    assert len(site.level_graph(0).edges) == 1
    assert len(site.level_graph(2).edges) == 3
    assert site.level(0).circles == 0


def test_circle_face_maps_are_the_two_joint_inclusions():
    g0, g1 = standard_digraph("cyclic", 1), standard_digraph("cyclic", 2)
    site = make_excision_site("circle")
    a, b = site.face_maps()
    assert a == QuiverMor(g0, g1, {"0": "0"},
                          {"e0": Path(g1, "0", ("e0", "e1"))})
    assert b == QuiverMor(g0, g1, {"0": "1"},
                          {"e0": Path(g1, "1", ("e1", "e0"))})
    # the degree-one functors of the 1-cycle onto the 2-cycle, drawn on the
    # site's own stage graphs
    assert (a, b) == tuple(epi_mor(1, 2, [v], [2]).to_quiver_mor() for v in (0, 1))
    assert all(f.source is site.level_graph(0) and f.target is site.level_graph(1)
               for f in (a, b))


def test_a_second_excision_check_reuses_the_stage_objects(monkeypatch):
    """A site keeps each stage's object beside its graph.  A second check
    of a one-cut site builds only the objects of the normal form step's
    and the gluing map's two ends and of the glued graph."""
    cat = cyclic_group_category(3)
    site = make_excision_site(standard_digraph("cyclic", 3), ["e0"])
    assert verify_excision(cat, site).ok
    built, build = [], emm.mobject_of_digraph
    monkeypatch.setattr(emm, "mobject_of_digraph",
                        lambda d: built.append(d) or build(d))
    assert verify_excision(cat, site).ok
    assert len(built) == 5
    assert site.level(1) is site.level(1)


@pytest.mark.parametrize("site, searches", [
    ("circle", 2), ("cyclic3-e0", 3), ("bouquet2-e0-e1", 3)])
def test_an_excision_check_searches_each_stage_graph_once(site, searches,
                                                           tmp_path, capsys):
    """`excise` through the command line searches the weak components of
    each graph once: on the circle, stages 0 and 1; on a graph site, the
    uncut graph and stages 0 and 1.  Each kept graph keeps its components,
    and quiv_op_mmor passes a morphism of connected graphs through whole.
    The searches were 12, 14 and 18 when each object and each map built
    its components again."""
    path = {"circle": FIXTURES / "site_circle.json",
            "bouquet2-e0-e1": FIXTURES / "site_bouquet2.json",
            "cyclic3-e0": tmp_path / "site.json"}[site]
    (tmp_path / "site.json").write_text(json.dumps(
        {"graph": standard_digraph("cyclic", 3).to_json(), "cut_edges": ["e0"]}))
    with mock.patch.object(digraph, "component_labels",
                           wraps=component_labels) as search:
        code = cli.main(["excise", "--cat", str(FIXTURES / "s3.json"),
                         "--site", str(path)])
    assert (code, search.call_count) == (0, searches)
    assert capsys.readouterr().out.endswith(
        "verdict: coequalizer matches the glued invariant\n")


def test_a_graph_site_builds_each_stage_graph_once():
    """Stages 0 and 1 are the only graphs an excision check builds, on a
    graph site and on the circle: the site keeps them, its face maps are
    drawn on them, and a connected stage is its own one component."""
    site = make_excision_site(standard_digraph("bouquet", 2), ["e0", "e1"])
    built = []
    init = Digraph.__init__

    def spy(self, *args):
        built.append(self)
        init(self, *args)

    circle = make_excision_site("circle")
    with mock.patch.object(Digraph, "__init__", spy):
        for s in (site, circle):
            for _ in range(2):
                assert verify_excision(symmetric_group_category(3), s).ok
    stages = [s.level_graph(p) for s in (site, circle) for p in (0, 1)]
    assert len(built) == len(stages) and all(map(operator.is_, built, stages))
    assert site.level(1).quivers[0] is site.level_graph(1)
    assert circle.level_graph(2) is circle.level_graph(2)
    with pytest.raises(QuivercalcError, match="numbered from 0, not -1"):
        site.level_graph(-1)


def test_refinement_map_classifies():
    from quivercalc.quiver import classify_quiver_mor
    site = make_excision_site(standard_digraph("interval"), ["e0"])
    r = site.refinement(1)
    assert classify_quiver_mor(r).refinement


def test_excision_worked_fixtures():
    arrow = walking_arrow_category()
    site = make_excision_site(standard_digraph("interval"), ["e0"])
    v = verify_excision(arrow, site)
    assert v.ok and (v.stage1, v.stage0, v.coequalizer, v.direct) == (5, 4, 3, 3)

    circle = make_excision_site("circle")
    v = verify_excision(arrow, circle)
    assert v.ok and (v.stage1, v.stage0, v.coequalizer, v.direct) == (2, 2, 2, 2)

    z3 = cyclic_group_category(3)
    v = verify_excision(z3, circle)
    assert v.ok and (v.stage1, v.stage0, v.coequalizer, v.direct) == (9, 3, 3, 3)


def test_excision_on_assorted_sites():
    cats = [walking_arrow_category(), cyclic_group_category(2),
            chain_poset_category(3)]
    sites = [
        make_excision_site(standard_digraph("linear", 2), ["e1"]),
        make_excision_site(standard_digraph("cyclic", 2), ["e0"]),
        make_excision_site(standard_digraph("cyclic", 1), ["e0"]),
        make_excision_site(standard_digraph("bouquet", 2), ["e0", "e1"]),
        make_excision_site(
            Digraph(["a", "b", "c"], [("e", "a", "b"), ("f", "a", "c")]),
            ["e"]),
    ]
    for cat in cats:
        for site in sites:
            v = verify_excision(cat, site)
            assert v.ok, (cat.objects, site.cut_edges, v.note)


def test_make_excision_site_validates():
    with pytest.raises(QuivercalcError):
        make_excision_site(standard_digraph("interval"), ["nope"])


# Sites with one piece replaced, one per note of a failed verdict.


class SameFaces(ExcisionSite):
    """Both faces are the first: the coequalizer identifies nothing."""

    def face_maps(self):
        a, _ = super().face_maps()
        return a, a


class SquaringFace(ExcisionSite):
    """The second face runs twice around the two-joint circle."""

    def face_maps(self):
        a, _ = super().face_maps()
        g0, g1 = self.level_graph(0), self.level_graph(1)
        twice = Path(g1, "0", ("e0", "e1", "e0", "e1"))
        return a, QuiverMor(g0, g1, {"0": "0"}, {"e0": twice})


class TwoCircles(ExcisionSite):
    """The glued object is two circles; gluing still lands in one."""

    def total(self):
        return circle_object(2)


class DiagonalGlue(TwoCircles):
    """Gluing onto the diagonal of two circles."""

    def glue_mmor(self):
        g = super().glue_mmor()
        part = g.circle_parts[0]
        return MMor(g.source, circle_object(2), (part, part), ())


@pytest.mark.parametrize("site_cls, cat, sizes, note", [
    (TwoCircles, cyclic_group_category(3), (3, 9, 3, 9),
     "gluing left the invariant of the glued object"),
    (SquaringFace, cyclic_group_category(3), (3, 9, 2, 3),
     "gluing does not coequalize the two stage maps"),
    (SameFaces, symmetric_group_category(3), (6, 36, 6, 3),
     "induced map from the coequalizer is not injective"),
    (DiagonalGlue, symmetric_group_category(3), (6, 36, 3, 9),
     "induced map from the coequalizer is not surjective"),
], ids=["left", "coequalize", "injective", "surjective"])
def test_excision_failure_notes(site_cls, cat, sizes, note):
    site = site_cls("circle", None, ())
    v = verify_excision(cat, site)
    assert not v.ok and v.note == note
    assert (v.stage0, v.stage1, v.coequalizer, v.direct) == sizes
    assert v == oracle.verify_excision(cat, site)


def test_excision_verdicts_match_the_string_oracle():
    sites = [make_excision_site(Digraph([], [])),
             make_excision_site(standard_digraph("linear", 2), ["e0"]),
             make_excision_site(standard_digraph("cyclic", 2), ["e0", "e1"]),
             make_excision_site(disjoint_union([standard_digraph("interval"),
                                                standard_digraph("cyclic", 1)]),
                                ["0.e0", "1.e0"]),
             make_excision_site("circle")]
    for cat in (walking_arrow_category(), cyclic_group_category(3),
                chain_poset_category(3)):
        for site in sites:
            assert verify_excision(cat, site) == oracle.verify_excision(cat, site)


# --- stages mapped in blocks ----------------------------------------------------


BLOCK_SITES = [make_excision_site(standard_digraph("interval"), ["e0"]),
               make_excision_site(standard_digraph("cyclic", 2), ["e0"]),
               make_excision_site(standard_digraph("bouquet", 1), ["e0"]),
               make_excision_site("circle"), SameFaces("circle", None, ()),
               SquaringFace("circle", None, ()), TwoCircles("circle", None, ()),
               make_excision_site(Digraph([], []))]


@settings(max_examples=60, deadline=None)
@given(cat=concrete_categories(max_objects=2, max_size=2),
       site=st.sampled_from(BLOCK_SITES), block=st.integers(1, 7))
def test_excision_verdicts_do_not_depend_on_the_block_size(cat, site, block):
    with mock.patch.object(emm, "BLOCK", block):
        v = verify_excision(cat, site)
    assert v == verify_excision(cat, site) == oracle.verify_excision(cat, site)
    if site.kind == "graph":
        h, n = hom_size_matrix(cat), len(cat.objects)
        cut = set(site.cut_edges)
        assert (v.stage0, v.stage1) == tuple(
            h_colourings(site.graph, n,
                         lambda e: np.linalg.matrix_power(h, p + 2) if e in cut else h)
            for p in (0, 1))


def excise_every_edge_traced(cat, g):
    """The verdict of cutting every edge of g, checked against the
    H-colouring counts, and the peak of its traced allocations."""
    validate_fincat(cat)
    site = make_excision_site(g, [e.eid for e in g.edges])
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        v = verify_excision(cat, site)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    h, n = hom_size_matrix(cat), len(cat.objects)
    glued = h_colourings(g, n, lambda e: h)
    assert (v.stage0, v.stage1, v.coequalizer, v.direct) == (
        h_colourings(g, n, lambda e: h @ h), h_colourings(g, n, lambda e: h @ h @ h),
        glued, glued)
    return v, peak


def test_a_stage_of_many_blocks_counts_the_h_colourings_in_little_memory():
    """Stage 1 here has 46 656 elements.  It is counted, not mapped: only
    the 1 296 elements of stage 0 go through N_1 and N_2 in blocks, and the
    check peaks near 0.5 MB of traced allocations (CPython 3.11).  Mapping
    the whole stage at once would hold every face image at the same time,
    about 21 MB."""
    v, peak = excise_every_edge_traced(symmetric_group_category(3),
                                       standard_digraph("bouquet", 2))
    assert v.ok and v.stage1 == 46656 > 20 * emm.BLOCK
    assert peak < 10_000_000


# --- stage 1 counted, the coequalizer from the pairs (x, N_k(x)) -------------


def full_stage_labels(category, site):
    """Stage 1's size and the coequalizer's component labels from every
    stage-1 element through both face maps: the whole-stage route that
    verify_excision took before it counted stage 1."""
    x0 = emm.fact_tuples(category, site.level(0))
    x1 = emm.fact_tuples(category, site.level(1))
    index = {elem: i for i, elem in enumerate(x0)}
    map_a, map_b = (emm._compile_mmor(category, quiv_op_mmor(f))
                    for f in site.face_maps())
    return len(x1), component_labels(len(x0), zip(
        map(index.__getitem__, map_a(x1)), map(index.__getitem__, map_b(x1))))


def excision_labels(category, site):
    """verify_excision's verdict and the coequalizer labels it computed, on
    a graph site, where they are the fibres of the normal form: no pairs are
    built and no component search runs."""
    labels = []
    real = emm._coequalizer_labels

    def spy(category, site, x0):
        stage1, label = real(category, site, x0)
        labels.append(label)
        return stage1, label

    def refuse(n, pairs):
        raise AssertionError("component_labels called on a graph site")

    with mock.patch.object(emm, "_coequalizer_labels", spy), \
            mock.patch.object(emm, "component_labels", refuse):
        v = verify_excision(category, site)
    (label,) = labels
    return v, label


BRANCHED = Digraph(["a", "b", "c"], [("e", "a", "b"), ("f", "a", "c")])
LABEL_SITES = {
    "empty": make_excision_site(Digraph([], [])),
    "no-cuts": make_excision_site(standard_digraph("linear", 2)),
    "shared-endpoint": make_excision_site(standard_digraph("linear", 2),
                                          ["e0", "e1"]),
    "loop": make_excision_site(standard_digraph("bouquet", 1), ["e0"]),
    "loop-beside-a-loop": make_excision_site(standard_digraph("bouquet", 2),
                                             ["e1"]),
    "two-cycle": make_excision_site(standard_digraph("cyclic", 2),
                                    ["e0", "e1"]),
    "components": make_excision_site(
        disjoint_union([standard_digraph("interval"),
                        standard_digraph("cyclic", 1)]), ["0.e0", "1.e0"]),
    "branched": make_excision_site(BRANCHED, ["e", "f"]),
}


STAGE_SITES = {**{f"label-{n}": s for n, s in LABEL_SITES.items()},
               **{f"block-{i}": s for i, s in enumerate(BLOCK_SITES)
                  if s.kind == "graph"}}


@pytest.mark.parametrize("name", STAGE_SITES)
def test_stage_maps_by_lifts_equal_the_hand_written_ones(name):
    """Every graph-site stage map comes from one rule, a monotone lift of
    each cut's chain: the stage graphs (in vertex and edge order), faces,
    degeneracies and refinements equal the ones written out by hand."""
    site = STAGE_SITES[name]
    for p in range(4):
        got, want = site.level_graph(p), stage_oracle.level_graph(site, p)
        assert (got.vertices, got.edges) == (want.vertices, want.edges)
        assert site.refinement(p) == stage_oracle.refinement(site, p)
    assert site.face_maps() == stage_oracle.face_maps(site)
    assert site.degeneracies() == stage_oracle.degeneracies(site)


def active_lifts(m, n):
    """Every active map [m] -> [n]: monotone, 0 to 0 and m to n."""
    return [delta_mor(m, n, (0, *mid, n))
            for mid in itertools.combinations_with_replacement(range(n + 1), m - 1)]


def coface(n, i):
    """delta^i: [n-1] -> [n], which skips point i."""
    return delta_mor(n - 1, n, [k + (k >= i) for k in range(n)])


def codegeneracy(n, j):
    """sigma^j: [n+1] -> [n], which hits point j twice."""
    return delta_mor(n + 1, n, [k - (k > j) for k in range(n + 2)])


def stage(site, p, q, f):
    """The stage map p -> q that lifts every cut's chain by f."""
    return site._stage_mor(p, q, [f] * len(site.cut_edges))


def test_the_named_lifts_are_the_inner_cofaces_and_codegeneracies():
    assert emm.INNER_COFACES == (coface(3, 2), coface(3, 1))
    assert emm.CODEGENERACIES == (codegeneracy(2, 0), codegeneracy(2, 1))
    assert all((f.values[0], f.values[-1]) == (0, f.n - 1)
               for f in emm.INNER_COFACES + emm.CODEGENERACIES)


@pytest.mark.parametrize("name", STAGE_SITES)
def test_stage_maps_are_functorial_in_the_lifts(name):
    """A stage map after a stage map is the stage map of the composite
    lifts, cut by cut, from the uncut graph (stage -1) up to stage 3.
    Each cut draws its own lift; the draws are seeded per site."""
    site, rng = STAGE_SITES[name], random.Random(name)
    n = len(site.cut_edges)
    for p, q, r in itertools.product(range(-1, 4), range(4), range(4)):
        fs, gs = active_lifts(p + 2, q + 2), active_lifts(q + 2, r + 2)
        for _ in range(2):
            f = [rng.choice(fs) for _ in range(n)]
            g = [rng.choice(gs) for _ in range(n)]
            assert compose_quiver_mor(site._stage_mor(q, r, g),
                                      site._stage_mor(p, q, f)) == \
                site._stage_mor(p, r, list(map(compose, g, f))), (p, q, r)


@pytest.mark.parametrize("name", STAGE_SITES)
def test_stage_maps_satisfy_the_cosimplicial_identities(name):
    """On the stage maps of inner cofaces and codegeneracies, up to stage
    3: d^j d^i = d^i d^(j-1) for i < j, s^j d^i = d^i s^(j-1) for i < j,
    s^j d^j = s^j d^(j+1) = id, s^j d^i = d^(i-1) s^j for i > j+1, and
    s^j s^i = s^i s^(j+1) for i <= j.  A stage p chain is [p+2]."""
    site = STAGE_SITES[name]

    def d(p, i):        # stage p -> p+1
        return stage(site, p, p + 1, coface(p + 3, i))

    def s(p, j):        # stage p+1 -> p
        return stage(site, p + 1, p, codegeneracy(p + 2, j))

    def eq(g1, f1, g2, f2):
        return compose_quiver_mor(g1, f1) == compose_quiver_mor(g2, f2)

    for p in range(2):
        n = p + 2                       # stage p is [n]; inner points 1..n-1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                assert eq(d(p + 1, j), d(p, i), d(p + 1, i), d(p, j - 1))
        for j in range(n + 1):          # sigma^j: [n+1] -> [n], stage p+1 -> p
            ident = QuiverMor.identity(site.level_graph(p + 1))
            for i in range(1, n + 2):   # delta^i: [n] -> [n+1], stage p -> p+1
                if i < j:
                    assert eq(s(p + 1, j), d(p + 1, i), d(p, i), s(p, j - 1))
                elif i in (j, j + 1):
                    assert compose_quiver_mor(s(p + 1, j), d(p + 1, i)) == ident
                else:
                    assert eq(s(p + 1, j), d(p + 1, i), d(p, i - 1), s(p, j))
            for i in range(j + 1):
                assert eq(s(p, j), s(p + 1, i), s(p, i), s(p + 1, j + 1))


@pytest.mark.parametrize("name", STAGE_SITES)
def test_a_stage_map_takes_one_active_lift_per_cut(name):
    """A lift that misses an end or has the wrong size is refused, as is
    a list of lifts that is not one per cut; a site with no cut takes []."""
    site = STAGE_SITES[name]
    n, face = len(site.cut_edges), emm.INNER_COFACES[0]
    bad = [[face] * (n + 1)]                    # one lift too many
    if n:
        bad += [[delta_mor(2, 3, (0, 1, 2))] + [face] * (n - 1),   # misses the end
                [face] * (n - 1) + [delta_mor(2, 3, (1, 2, 3))],   # misses the start
                [delta_mor(2, 4, (0, 1, 4))] * n,                  # into stage 2
                [face] * (n - 1)]                                 # one too few
    for lifts in bad:
        with pytest.raises(QuivercalcError, match="takes one active map"):
            site._stage_mor(0, 1, lifts)


@pytest.mark.parametrize("site", [*LABEL_SITES.values(), *BLOCK_SITES], ids=[
    *LABEL_SITES, *(f"block-{i}" for i in range(len(BLOCK_SITES)))])
def test_quiv_op_mmor_matches_the_per_component_oracle_on_stage_maps(site):
    """Faces, degeneracies, normal form steps and refinements, on every
    site: those of a connected graph pass through whole."""
    maps = list(site.face_maps())
    if site.kind == "graph":
        maps += [*site.degeneracies(), *emm._normal_form_steps(site),
                 *(site.refinement(p) for p in range(3))]
    for q in maps:
        check_quiv_op_mmor(q)


def test_the_faces_then_a_degeneracy_fix_all_but_its_cut():
    """Pulling back along sigma_k then the second face is the identity;
    then the first face, it is N_k: cut k's composite moves onto its
    second chain edge, and everything else stays."""
    for site in LABEL_SITES.values():
        fa, fb = site.face_maps()
        g0 = site.level_graph(0)
        degeneracies = site.degeneracies()
        assert len(degeneracies) == len(site.cut_edges)
        for k, sigma in zip(site.cut_edges, degeneracies):
            assert compose_quiver_mor(sigma, fb) == QuiverMor.identity(g0)
            s = site.graph.edge(k).src
            vmap = {v: v for v in g0.vertices} | {f"{k}:w0": s}
            paths = {e.eid: Path.of_edge(g0, e.eid) for e in g0.edges}
            paths[f"{k}:c0"] = Path.empty(g0, s)
            paths[f"{k}:c1"] = Path(g0, s, (f"{k}:c0", f"{k}:c1"))
            n_k = QuiverMor(g0, g0, vmap, paths)
            assert compose_quiver_mor(sigma, fa) == n_k


def compiled_maps_run(monkeypatch):
    """Spy on emm._compile_mmor: the maps compiled, each with the number of
    rows it has been run on so far."""
    rows = []
    real = emm._compile_mmor

    def spy(category, f):
        run, entry = real(category, f), [f, 0]
        rows.append(entry)

        def counted(block):
            entry[1] += len(block)
            return run(block)
        return counted

    monkeypatch.setattr(emm, "_compile_mmor", spy)
    return rows


@pytest.mark.parametrize("name", sorted(n for n, site in LABEL_SITES.items()
                                         if site.cut_edges))
def test_a_graph_site_maps_rows_only_through_n_k_and_gluing(name, monkeypatch):
    """No row goes through a degeneracy or the second face: each N_k (sigma_k
    after the first face) runs on stage 0 once, and gluing runs on it."""
    site, cat = LABEL_SITES[name], symmetric_group_category(3)
    validate_fincat(cat)
    fa, fb = site.face_maps()
    sigmas = site.degeneracies()
    rows = compiled_maps_run(monkeypatch)
    v = verify_excision(cat, site)
    ran = {quiv: n for quiv, n in rows if n}
    for f in [fb, *sigmas]:
        assert quiv_op_mmor(f) not in ran
    n_k = [quiv_op_mmor(compose_quiver_mor(s, fa)) for s in sigmas]
    assert ran == {f: v.stage0 for f in n_k + [site.glue_mmor()]}


def test_a_degeneracy_that_does_not_undo_the_second_face_raises(monkeypatch):
    """A wrong sigma is caught on the quiver morphisms, before any row is
    mapped: here the mirror degeneracy of the cut loop, which collapses
    its last chain edge and so undoes the first face instead."""
    site = make_excision_site(standard_digraph("bouquet", 1), ["e0"])
    g0, g1 = site.level_graph(0), site.level_graph(1)
    mirror = QuiverMor(g1, g0, {"0": "0", "e0:w0": "e0:w0", "e0:w1": "0"},
                       {"e0:c0": Path.of_edge(g0, "e0:c0"),
                        "e0:c1": Path.of_edge(g0, "e0:c1"),
                        "e0:c2": Path.empty(g0, "0")})
    assert compose_quiver_mor(mirror, site.face_maps()[0]) == QuiverMor.identity(g0)
    monkeypatch.setattr(ExcisionSite, "degeneracies", lambda self: (mirror,))
    rows = compiled_maps_run(monkeypatch)
    with pytest.raises(QuivercalcError,
                       match="^the degeneracy at cut edge 'e0' does not undo "
                             "the second face map$"):
        verify_excision(cyclic_group_category(3), site)
    assert not any(n for _, n in rows)


def test_a_non_idempotent_normal_form_step_raises(monkeypatch):
    """A first face that swaps the cut loop's two vertices still lets
    sigma undo the second face, but makes N_k = sigma after it the swap of
    stage 0, which is not idempotent: caught before any row is mapped."""
    site = make_excision_site(standard_digraph("bouquet", 1), ["e0"])
    g0, g1 = site.level_graph(0), site.level_graph(1)
    fb = site.face_maps()[1]
    (sigma,) = site.degeneracies()
    twisted = QuiverMor(g0, g1, {"0": "e0:w1", "e0:w0": "0"},
                        {"e0:c0": Path.of_edge(g1, "e0:c2"),
                         "e0:c1": Path(g1, "0", ("e0:c0", "e0:c1"))})
    swap = QuiverMor(g0, g0, {"0": "e0:w0", "e0:w0": "0"},
                     {"e0:c0": Path.of_edge(g0, "e0:c1"),
                      "e0:c1": Path.of_edge(g0, "e0:c0")})
    assert compose_quiver_mor(sigma, twisted) == swap
    monkeypatch.setattr(ExcisionSite, "face_maps", lambda self: (twisted, fb))
    rows = compiled_maps_run(monkeypatch)
    with pytest.raises(QuivercalcError,
                       match="^the normal form step at cut edge 'e0' is not "
                             "idempotent$"):
        verify_excision(cyclic_group_category(3), site)
    assert not any(n for _, n in rows)


def test_normal_form_steps_that_do_not_commute_raise(monkeypatch):
    """A first face that moves the shared middle vertex of linear(2) onto
    e1's weld vertex: each N_k is still idempotent, but N_e0 and N_e1 no
    longer commute.  Caught before any row is mapped."""
    site = make_excision_site(standard_digraph("linear", 2), ["e0", "e1"])
    g0, g1 = site.level_graph(0), site.level_graph(1)
    fb = site.face_maps()[1]
    vmap = {v: v for v in g0.vertices} | {"1": "e1:w0"}
    paths = {"e0:c0": Path.of_edge(g1, "e0:c0"),
             "e0:c1": Path(g1, "e0:w0", ("e0:c1", "e0:c2", "e1:c0")),
             "e1:c0": Path.empty(g1, "e1:w0"),
             "e1:c1": Path(g1, "e1:w0", ("e1:c1", "e1:c2"))}
    twisted = QuiverMor(g0, g1, vmap, paths)
    steps = [compose_quiver_mor(sigma, twisted) for sigma in site.degeneracies()]
    assert all(compose_quiver_mor(n, n) == n for n in steps)
    monkeypatch.setattr(ExcisionSite, "face_maps", lambda self: (twisted, fb))
    rows = compiled_maps_run(monkeypatch)
    with pytest.raises(QuivercalcError,
                       match="^the normal form steps at cut edges 'e0' and "
                             "'e1' do not commute$"):
        verify_excision(symmetric_group_category(3), site)
    assert not any(n for _, n in rows)


def test_a_circle_site_has_no_degeneracies():
    with pytest.raises(QuivercalcError,
                       match="only graph sites have degeneracies"):
        make_excision_site("circle").degeneracies()


@settings(max_examples=60, deadline=None)
@given(cat=concrete_categories(max_objects=2, max_size=2),
       name=st.sampled_from(sorted(LABEL_SITES)))
def test_degenerate_rows_label_the_coequalizer_as_the_whole_stage_does(cat,
                                                                        name):
    site = LABEL_SITES[name]
    v, label = excision_labels(cat, site)
    assert (v.stage1, label) == full_stage_labels(cat, site)
    assert v == oracle.verify_excision(cat, site)


@pytest.mark.parametrize("cat", [walking_arrow_category(),
                                 cyclic_group_category(3),
                                 chain_poset_category(3),
                                 symmetric_group_category(3)],
                         ids=["arrow", "z3", "chain3", "s3"])
def test_both_loops_cut_label_the_coequalizer_as_the_whole_stage_does(cat):
    site = make_excision_site(standard_digraph("bouquet", 2), ["e0", "e1"])
    v, label = excision_labels(cat, site)
    assert v.ok and (v.stage1, label) == full_stage_labels(cat, site)


def test_a_stage_of_ten_million_elements_is_counted_in_little_memory():
    """S3 on the 3-cycle with all three edges cut: stage 1 has 6^9 =
    10 077 696 elements, which as index tuples would take about 2 GB.
    Counted, with only the 46 656 elements of stage 0 mapped through the
    three N_k in blocks and labelled by their normal forms, the check peaks
    near 8 MB of traced allocations (CPython 3.11), most of it stage 0."""
    v, peak = excise_every_edge_traced(symmetric_group_category(3),
                                       standard_digraph("cyclic", 3))
    assert v.ok and v.stage1 == 10_077_696
    assert peak < 40_000_000


def test_an_unvalidated_non_associative_table_raises_on_every_site():
    """Complete, with a neutral e, but every product of a and b is e, so
    (a∘a)∘b = b while a∘(a∘b) = a.  The pairs (x, N_k(x)) stand for the
    whole stage only in a category, so a graph site validates first, as a
    circle site does through the trace classes."""
    products = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a",
                ("e", "b"): "b", ("b", "e"): "b"}
    products |= {(x, y): "e" for x in "ab" for y in "ab"}
    bouquet = standard_digraph("bouquet", 2)
    for site in (make_excision_site(bouquet, ["e0", "e1"]),
                 make_excision_site(standard_digraph("interval")),
                 make_excision_site("circle")):
        cat = monoid_category(["e", "a", "b"], products, "e")
        with pytest.raises(NotAssociative, match=r"^\('a', 'a', 'b'\)$"):
            verify_excision(cat, site)


def test_missing_composite_raises_in_excision_and_fact_map():
    broken = without_composite(walking_arrow_category(), "le:1:1", "le:0:1")
    site = make_excision_site(standard_digraph("interval"), ["e0"])
    face = quiv_op_mmor(site.face_maps()[0])
    stage1 = fact_homology(broken, site.level(1))
    for impl in (verify_excision, oracle.verify_excision):
        with pytest.raises(BadComposite):
            impl(broken, site)
    for push in (fact_map, oracle.fact_map):
        with pytest.raises(BadComposite):
            for x in stage1:
                push(broken, face)(x)


# --- every rejection names what is wrong -------------------------------------

Q2, L1, L2 = (standard_digraph("cyclic", 2), standard_digraph("interval"),
              standard_digraph("linear", 2))
SRC = MObject(1, [Q2])                   # one circle, one 2-cycle
TO_CIRCLE, TO_INTERVAL = MObject(1, []), MObject(0, [L1])
CIRCLE = circle_object(1)
INTO_L2 = QuiverMor(L1, L2, {"0": "0", "1": "1"}, {"e0": Path.of_edge(L2, "e0")})
AT_0 = Path.empty(Q2, "0")
EMM_REJECTIONS = {
    "walk-empty": (lambda: directed_cycle(Q2, ()),
                   "a cycle walk needs an edge; "
                   "a constant cycle is an empty path at a vertex"),
    "walk-open": (lambda: directed_cycle(L2, ("e0", "e1")),
                  "cycle walks must close up"),
    "walk-power": (lambda: directed_cycle(Q2, ("e0", "e1", "e0", "e1")),
                   "cycle walks must be primitive"),
    "walk-chain": (lambda: directed_cycle(Q2, ("e0", "e0")),
                   "edge 'e0' starts at '0', not '1'"),
    "circle-count": (lambda: MObject(-1, []),
                     "the circle count must be an integer >= 0, not -1"),
    "circle-count-bool": (lambda: MObject(True, []),
                          "the circle count must be an integer >= 0, not True"),
    "disconnected": (lambda: MObject(0, [disjoint_union([L1, L1])]),
                     "component quivers must be connected; split the graph first"),
    "object-json": (lambda: MObject.from_json({"circles": 1}),
                    "object JSON needs 'circles' and 'quivers'"),
    "mmor-circles": (lambda: MMor(SRC, TO_CIRCLE, [], []),
                     "need one component per target circle"),
    "mmor-quivers": (lambda: MMor(SRC, TO_INTERVAL, [], []),
                     "need one component per target quiver"),
    "mmor-source-circle": (lambda: MMor(SRC, TO_CIRCLE, [CircleEndo(1, 1)], []),
                           "no source circle 1"),
    "mmor-circle-weight": (lambda: MMor(SRC, TO_CIRCLE, [CircleEndo(0, 0)], []),
                           "circle weights are >= 1"),
    "mmor-circle-float": (lambda: MMor(CIRCLE, CIRCLE, [CircleEndo(0.5, 1)], []),
                          "source circle indices are integers, not 0.5"),
    "mmor-circle-bool": (lambda: MMor(CIRCLE, CIRCLE, [CircleEndo(False, 1)], []),
                         "source circle indices are integers, not False"),
    "mmor-weight-float": (lambda: MMor(CIRCLE, CIRCLE, [CircleEndo(0, 1.5)], []),
                          "circle weights are integers, not 1.5"),
    "mmor-weight-bool": (lambda: MMor(CIRCLE, CIRCLE, [CircleEndo(0, True)], []),
                         "circle weights are integers, not True"),
    "mmor-vertex-quiver-float": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(0.0, AT_0, 1)], []),
        "source quiver indices are integers, not 0.0"),
    "mmor-vertex-quiver-bool": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(False, AT_0, 1)], []),
        "source quiver indices are integers, not False"),
    "mmor-cycle-quiver-float": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(
            0.0, directed_cycle(Q2, ("e0", "e1")), 1)], []),
        "source quiver indices are integers, not 0.0"),
    "mmor-cycle-weight-float": (
        lambda: MMor(SRC, TO_CIRCLE,
                     [CycleToCircle(0, directed_cycle(Q2, ("e0", "e1")), 2.0)], []),
        "circle weights are integers, not 2.0"),
    "mmor-quiver-index-float": (
        lambda: MMor(SRC, TO_INTERVAL, [], [QuivPart(0.0, QuiverMor.identity(L1))]),
        "source quiver indices are integers, not 0.0"),
    "mmor-vertex": (lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(
        0, Path.empty(Q2, "zz"), 1)], []), "unknown vertex 'zz'"),
    "mmor-vertex-quiver": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(1, AT_0, 1)], []),
        "no source quiver 1"),
    "mmor-vertex-quiver-negative": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(-1, AT_0, 1)], []),
        "no source quiver -1"),
    "mmor-cycle-quiver-index": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(
            1, directed_cycle(Q2, ("e0", "e1")), 1)], []),
        "no source quiver 1"),
    "mmor-cycle-quiver-negative": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(
            -1, directed_cycle(Q2, ("e0", "e1")), 1)], []),
        "no source quiver -1"),
    "mmor-quiver-index": (lambda: MMor(SRC, TO_INTERVAL, [], [QuivPart(1, INTO_L2)]),
                          "no source quiver 1"),
    "mmor-quiver-negative": (
        lambda: MMor(SRC, TO_INTERVAL, [], [QuivPart(-1, INTO_L2)]),
        "no source quiver -1"),
    "mmor-cycle-quiver": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(
            0, directed_cycle(standard_digraph("cyclic", 1), ("e0",)), 1)], []),
        "the cycle lies in another quiver"),
    "mmor-cycle-open": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(0, Path.of_edge(Q2, "e0"), 1)], []),
        "cycle walks must close up"),
    "mmor-cycle-constant": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(0, AT_0, 2)], []),
        "a constant cycle winds once"),
    "mmor-cycle-rotated": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(0, Path(Q2, "1", ("e1", "e0")), 1)], []),
        "cycle walks must be primitive and start their least rotation, "
        "as Path(e0·e1) does"),
    "mmor-cycle-wound": (
        lambda: MMor(SRC, TO_CIRCLE, [CycleToCircle(
            0, Path(Q2, "0", ("e0", "e1", "e0", "e1")), 1)], []),
        "cycle walks must be primitive and start their least rotation, "
        "as Path(e0·e1) does"),
    "mmor-cycle-weight": (
        lambda: MMor(SRC, TO_CIRCLE,
                     [CycleToCircle(0, directed_cycle(Q2, ("e0", "e1")), 0)], []),
        "circle weights are >= 1"),
    "mmor-circle-part": (lambda: MMor(SRC, TO_CIRCLE, ["x"], []),
                         "not a circle component: 'x'"),
    "mmor-quiver-part": (lambda: MMor(SRC, TO_INTERVAL, [], ["x"]),
                         "not a quiver component: 'x'"),
    "mmor-quiver-start": (
        lambda: MMor(SRC, TO_INTERVAL, [], [QuivPart(0, QuiverMor.identity(Q2))]),
        "quiver component 0 starts at the wrong quiver"),
    "mmor-quiver-end": (lambda: MMor(SRC, TO_INTERVAL, [], [QuivPart(0, INTO_L2)]),
                        "quiver component 0 ends at the wrong quiver"),
    "compose": (lambda: compose_m(identity_m(SRC), identity_m(TO_CIRCLE)),
                "maps of one-manifold objects not composable"),
    "site-graph": (lambda: ExcisionSite("graph", None, ()),
                   "a graph site needs a digraph"),
    "site-cut-unknown": (lambda: make_excision_site(L1, ["zz"]),
                         "unknown cut edge 'zz'"),
    "site-cut-twice": (lambda: make_excision_site(L1, ["e0", "e0"]),
                       "cut edges are listed twice"),
    "site-kind": (lambda: ExcisionSite("circle", L1, ()),
                  "a site is a graph with cut edges, or a bare circle"),
    "site-circle-cuts": (lambda: make_excision_site("circle", ["e0"]),
                         "a site is a graph with cut edges, or a bare circle"),
    "site-stage": (lambda: make_excision_site("circle").level_graph(-1),
                   "stages are numbered from 0, not -1"),
    "site-refinement": (lambda: make_excision_site("circle").refinement(0),
                        "only graph sites have a refinement map"),
}


@pytest.mark.parametrize("name", EMM_REJECTIONS)
def test_emm_rejections_name_the_fault(name):
    build, message = EMM_REJECTIONS[name]
    with pytest.raises(QuivercalcError) as e:
        build()
    assert str(e.value) == message
