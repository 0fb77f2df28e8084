import itertools
import json
import random
import sys

import pytest
import sympy

from quivercalc.digraph import (Digraph, QuivercalcError, disjoint_union,
                                standard_digraph)
from quivercalc.fincat import (BadComposite, chain_poset_category,
                               cyclic_group_category, enumerate_reps,
                               symmetric_group_category,
                               walking_arrow_category)
from quivercalc.hochschild import compute_hh, psi, trace_obj
from quivercalc.quiver import Path, QuiverMor, compose_quiver_mor, components
from quivercalc.emm import (CircleEndo, CycleToCircle, DirectedCycle,
                            ExcisionSite, MMor, MObject, QuivPart,
                            VertexToCircle, circle_object,
                            compose_m, cycle_length_bound,
                            enumerate_directed_cycles,
                            fact_homology, fact_map, hom_m, identity_m,
                            make_excision_site, mobject_of_digraph,
                            primitive_period, quiv_op_mmor, verify_excision)

import string_oracle as oracle
from test_fincat import without_composite


def necklace_count(k, n):
    """Primitive necklaces over k letters of length n:
    (1/n) sum_{d | n} mu(d) k^(n/d)."""
    return sum(sympy.mobius(d) * k ** (n // d)
               for d in sympy.divisors(n)) // n


# --- directed cycles ---------------------------------------------------------


def test_cycle_construction_and_rotation():
    g = standard_digraph("cyclic", 3)
    z1 = DirectedCycle.walk(g, ["e0", "e1", "e2"])
    z2 = DirectedCycle.walk(g, ["e1", "e2", "e0"])
    assert z1 == z2  # rotations are identified
    assert z1.length == 3
    c = DirectedCycle.constant(g, "1")
    assert c.is_constant and c.length == 0
    assert c != z1


def test_cycle_rejects_bad_walks():
    g = standard_digraph("cyclic", 3)
    with pytest.raises(QuivercalcError):
        DirectedCycle.walk(g, ["e0", "e1"])  # not closed
    b = standard_digraph("bouquet", 1)
    with pytest.raises(QuivercalcError):
        DirectedCycle.walk(b, ["e0", "e0"])  # not primitive


def test_primitive_period():
    assert primitive_period(("a", "b", "a", "b")) == 2
    assert primitive_period(("a", "b", "b")) == 3
    assert primitive_period(("a",)) == 1


def test_enumerate_cycles_on_cyclic_graph():
    g = standard_digraph("cyclic", 4)
    zs = enumerate_directed_cycles(g, 6)
    consts = [z for z in zs if z.is_constant]
    walks = [z for z in zs if not z.is_constant]
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


def test_cycles_longer_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    zs = enumerate_directed_cycles(standard_digraph("cyclic", n), n)
    assert [z.length for z in zs if not z.is_constant] == [n]
    with pytest.raises(QuivercalcError):
        enumerate_directed_cycles(standard_digraph("cyclic", 2), -1)


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


def test_mobject_json_round_trip():
    g = disjoint_union([standard_digraph("interval"),
                        standard_digraph("point")], prefixes=["i.", "p."])
    m = MObject(2, mobject_of_digraph(g).quivers)
    assert MObject.from_json(m.to_json()) == m


# --- hom computation ----------------------------------------------------------


def test_point_to_circle_is_single_and_exact():
    pt = mobject_of_digraph(standard_digraph("point"))
    mors, truncated = hom_m(pt, circle_object())
    assert len(mors) == 1 and not truncated
    assert isinstance(mors[0].circle_parts[0], VertexToCircle)


def test_circle_to_quiver_is_empty_and_exact():
    for g in [standard_digraph("point"), standard_digraph("cyclic", 2),
              standard_digraph("bouquet", 2)]:
        mors, truncated = hom_m(circle_object(), mobject_of_digraph(g))
        assert mors == [] and not truncated


def test_circle_to_circle_weights():
    mors, truncated = hom_m(circle_object(), circle_object(), max_weight=5)
    assert truncated  # there are infinitely many weights
    weights = sorted(p.circle_parts[0].weight for p in mors)
    assert weights == [1, 2, 3, 4, 5]


def test_cyclic_quiver_to_circle_is_exact():
    g = standard_digraph("cyclic", 3)
    mors, truncated = hom_m(mobject_of_digraph(g), circle_object(),
                            max_weight=2)
    # three vertex maps, one cycle with weights 1..2 — but weights are
    # unbounded, so the computation must admit truncation
    assert truncated
    kinds = [type(p.circle_parts[0]).__name__ for p in mors]
    assert kinds.count("VertexToCircle") == 3
    assert kinds.count("CycleToCircle") == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bouquet_to_circle_counts_necklaces(k):
    g = standard_digraph("bouquet", k)
    for n in range(1, 7):
        mors, _ = hom_m(mobject_of_digraph(g), circle_object(),
                        max_len=n, max_weight=1)
        got = sum(1 for f in mors
                  if isinstance(f.circle_parts[0], CycleToCircle)
                  and f.circle_parts[0].cycle.length == n)
        assert got == necklace_count(k, n)


def test_quiver_to_quiver_matches_quiver_homs():
    src = mobject_of_digraph(standard_digraph("interval"))
    tgt = mobject_of_digraph(standard_digraph("linear", 2))
    # contravariant: maps src -> tgt in M are quiver maps tgt -> src
    from quivercalc.quiver import enumerate_quiver_mors
    mors, truncated = hom_m(src, tgt)
    assert not truncated
    qmors, _ = enumerate_quiver_mors(standard_digraph("linear", 2),
                                     standard_digraph("interval"))
    assert len(mors) == len(qmors)


def test_hom_to_empty_target_when_source_has_quivers():
    src = mobject_of_digraph(standard_digraph("point"))
    empty = MObject(0, ())
    mors, truncated = hom_m(src, empty)
    assert len(mors) == 1 and not truncated
    assert mors[0].circle_parts == () and mors[0].quiver_parts == ()


def test_hom_from_quiverless_source_to_quiver_target_is_empty():
    src = circle_object()
    tgt = mobject_of_digraph(standard_digraph("interval"))
    mors, truncated = hom_m(src, tgt)
    assert mors == [] and not truncated


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
    z = DirectedCycle.walk(g, ["e0", "e1"])
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
    z2 = DirectedCycle.walk(c2, ["e0", "e1"])
    to_circle = MMor(m2, circle_object(), (CycleToCircle(0, z2, 1),), ())
    comp = compose_m(to_circle, part)
    got = comp.circle_parts[0]
    assert isinstance(got, CycleToCircle)
    assert got.cycle == DirectedCycle.walk(c1, ["e0"])
    assert got.weight == 2


def test_compose_cycle_collapsing_to_vertex():
    iv = standard_digraph("interval")
    c1 = standard_digraph("cyclic", 1)
    collapse = QuiverMor(c1, iv, {"0": "1"}, {"e0": Path.empty(iv, "1")})
    m_iv, m_c1 = mobject_of_digraph(iv), mobject_of_digraph(c1)
    part = MMor(m_iv, m_c1, (), (QuivPart(0, collapse),))
    z = DirectedCycle.walk(c1, ["e0"])
    to_circle = MMor(m_c1, circle_object(), (CycleToCircle(0, z, 3),), ())
    comp = compose_m(to_circle, part)
    assert comp.circle_parts[0] == VertexToCircle(0, "1")


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


def test_compose_associative_seeded():
    rng = random.Random(20260816)
    objs = [mobject_of_digraph(standard_digraph("point")),
            mobject_of_digraph(standard_digraph("interval")),
            mobject_of_digraph(standard_digraph("cyclic", 2)),
            circle_object(),
            MObject(1, (standard_digraph("interval"),))]
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


def test_quiv_op_mmor_contravariant():
    rng = random.Random(4)
    from quivercalc.quiver import enumerate_quiver_mors
    a = standard_digraph("interval")
    b = standard_digraph("linear", 2)
    c = standard_digraph("linear", 3)
    fs, _ = enumerate_quiver_mors(a, b)
    gs, _ = enumerate_quiver_mors(b, c)
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
    f = MMor(pt, circle_object(), (VertexToCircle(0, "0"),), ())
    push = fact_map(c, f)
    for elem in fact_homology(c, pt):
        classes, reps = push(elem)
        assert classes[0] == trace_obj(c, elem[1][0].vertex_labels["0"])


def test_fact_map_cycle_to_circle_is_word_class():
    z4 = cyclic_group_category(4)
    g = standard_digraph("cyclic", 2)
    m = mobject_of_digraph(g)
    z = DirectedCycle.walk(g, ["e0", "e1"])
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
    sites = [make_excision_site(standard_digraph("linear", 2), ["e0"]),
             make_excision_site(standard_digraph("cyclic", 2), ["e0", "e1"]),
             make_excision_site(disjoint_union([standard_digraph("interval"),
                                                standard_digraph("cyclic", 1)]),
                                ["0.e0", "1.e0"]),
             make_excision_site("circle")]
    for cat in (walking_arrow_category(), cyclic_group_category(3),
                chain_poset_category(3)):
        for site in sites:
            assert verify_excision(cat, site) == oracle.verify_excision(cat, site)


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
