"""The ten headline checks, one test each.

Every check pits the implementation against an independently computed
quantity: adjacency-matrix power sums, a pruned-limit enumeration, brute
conjugacy orbits, the Mobius necklace formula, or the cut-and-glue stage
sizes counted as H-colourings with numpy.
"""
import itertools
import math
import random

import numpy as np
import pytest
import sympy

from quivercalc.digraph import (Digraph, disjoint_union, make_closed_cover,
                                standard_digraph)
from quivercalc.fincat import (chain_poset_category, check_closed_sheaf,
                               cyclic_group_category, enumerate_reps,
                               rep_via_exit_limit, symmetric_group_category,
                               walking_arrow_category)
from quivercalc.quiver import enumerate_paths
from quivercalc.cyccat import (EpiMor, compose_epi, compose_para,
                               enumerate_epi_degree1,
                               enumerate_para_transversal, lift_epi_degree1,
                               project_para_to_epi)
from quivercalc.hochschild import compute_hh, psi, trace_obj
from quivercalc.emm import (CycleToCircle, circle_object, compose_m,
                            fact_homology, fact_map, hom_m,
                            make_excision_site, mobject_of_digraph,
                            verify_excision)

SEED = 20260816

FIXTURE_CATS = {
    "arrow": walking_arrow_category(),
    "z2": cyclic_group_category(2),
    "z3": cyclic_group_category(3),
    "s3": symmetric_group_category(3),
    "chain3": chain_poset_category(3),
}


def random_digraph(rng, max_v=5, max_e=6):
    nv = rng.randint(1, max_v)
    vs = [f"v{i}" for i in range(nv)]
    ne = rng.randint(0, max_e)
    edges = [(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(ne)]
    return Digraph(vs, edges)


# 1 ---------------------------------------------------------------------------


def test_path_counts_match_adjacency_matrix_power_sums():
    rng = random.Random(SEED)
    graphs = [
        standard_digraph("point"),
        standard_digraph("interval"),
        standard_digraph("linear", 4),
        standard_digraph("cyclic", 1),
        standard_digraph("cyclic", 5),
        standard_digraph("bouquet", 2),
        Digraph(["a", "b"], [("e", "a", "b"), ("f", "a", "b"),
                             ("l", "b", "b")]),
    ] + [random_digraph(rng) for _ in range(60)]
    for g in graphs:
        n = len(g.vertices)
        idx = {v: i for i, v in enumerate(g.vertices)}
        a = np.zeros((n, n), dtype=object)
        for e in g.edges:
            a[idx[e.src], idx[e.tgt]] += 1
        for cap in range(7):
            total = np.eye(n, dtype=object)
            power = np.eye(n, dtype=object)
            for _ in range(cap):
                power = power @ a
                total = total + power
            for u in g.vertices:
                for v in g.vertices:
                    got = len(enumerate_paths(g, u, v, cap))
                    assert got == total[idx[u], idx[v]], (u, v, cap)


# 2 ---------------------------------------------------------------------------


def test_representation_enumeration_matches_exit_path_limit():
    graphs = [
        standard_digraph("point"),
        standard_digraph("interval"),
        standard_digraph("linear", 2),
        standard_digraph("cyclic", 1),
        standard_digraph("cyclic", 2),
        standard_digraph("bouquet", 2),
        standard_digraph("bouquet", 3),
        disjoint_union([standard_digraph("interval"),
                        standard_digraph("point")], prefixes=["i.", "p."]),
        Digraph(["a", "b"], [("e", "a", "b"), ("f", "a", "b"),
                             ("l", "a", "a")]),
    ]
    cats = list(FIXTURE_CATS.values()) + [cyclic_group_category(4)]
    checked = 0
    for cat in cats:
        for g in graphs:
            direct = enumerate_reps(cat, g)
            via = rep_via_exit_limit(cat, g)
            assert [r.key() for r in direct] == [r.key() for r in via]
            checked += len(direct)
    assert checked >= 500  # the grid is not vacuous


# 3 ---------------------------------------------------------------------------


def generated_covers(g):
    es = [e.eid for e in g.edges]
    for assign in itertools.product((0, 1, 2), repeat=len(es)):
        left_e = [e for e, a in zip(es, assign) if a in (0, 2)]
        right_e = [e for e, a in zip(es, assign) if a in (1, 2)]
        lv = {v for eid in left_e for v in (g.edge(eid).src, g.edge(eid).tgt)}
        rv = {v for eid in right_e for v in (g.edge(eid).src, g.edge(eid).tgt)}
        for v in g.vertices:
            if v not in lv and v not in rv:
                lv.add(v)
                rv.add(v)
        yield (sorted(lv), left_e), (sorted(rv), right_e)


def test_closed_sheaf_law_holds_on_all_generated_covers():
    graphs = [
        standard_digraph("interval"),
        standard_digraph("linear", 3),
        standard_digraph("cyclic", 2),
        standard_digraph("cyclic", 3),
        standard_digraph("bouquet", 2),
        Digraph(["a", "b", "c"], [("e", "a", "b"), ("f", "a", "c"),
                                  ("l", "b", "b")]),
    ]
    total = passed = 0
    for cat in FIXTURE_CATS.values():
        for g in graphs:
            for left, right in generated_covers(g):
                cover = make_closed_cover(g, left, right)
                verdict = check_closed_sheaf(cat, cover)
                total += 1
                passed += verdict.ok
                assert verdict.ok, (g.vertices, left, right, verdict.witness)
    assert passed == total and total >= 500


# 4 ---------------------------------------------------------------------------


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


def test_winding_degree_is_multiplicative_and_degree_one_composes():
    rng = random.Random(SEED)
    for _ in range(1000):
        f = random_epi(rng)
        g = random_epi(rng, m=f.n)
        assert compose_epi(g, f).degree == f.degree * g.degree
    for m, k, n in [(1, 1, 1), (2, 2, 2), (3, 2, 3), (2, 3, 1)]:
        for f in enumerate_epi_degree1(m, k):
            for g in enumerate_epi_degree1(k, n):
                assert compose_epi(g, f).degree == 1


# 5 ---------------------------------------------------------------------------


def test_projection_is_functorial_and_surjective_on_degree_one():
    sizes = (1, 2, 3, 4)
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
    for m in sizes:
        for n in sizes:
            for e in enumerate_epi_degree1(m, n):
                assert project_para_to_epi(lift_epi_degree1(e)) == e


# 6 ---------------------------------------------------------------------------


def brute_conjugacy_count(cat):
    els = [m.mid for m in cat.morphisms]
    unit = cat.identity(cat.objects[0])
    inverse = {g: next(h for h in els if cat.comp(g, h) == unit
                       and cat.comp(h, g) == unit) for g in els}
    seen, count = set(), 0
    for g in els:
        if g in seen:
            continue
        seen |= {cat.comp(cat.comp(h, g), inverse[h]) for h in els}
        count += 1
    return count


def test_trace_class_counts_match_conjugacy_classes():
    expected = {
        "z2": (cyclic_group_category(2), 2),
        "z3": (cyclic_group_category(3), 3),
        "z4": (cyclic_group_category(4), 4),
        "s3": (symmetric_group_category(3), 3),
        "s4": (symmetric_group_category(4), 5),
    }
    for name, (cat, want) in expected.items():
        assert brute_conjugacy_count(cat) == want, name
        assert len(compute_hh(cat)) == want, name


# 7 ---------------------------------------------------------------------------


def test_power_operators_compose_and_fix_traces():
    cats = list(FIXTURE_CATS.values()) + [cyclic_group_category(4),
                                          symmetric_group_category(4)]
    for cat in cats:
        for r in (1, 2, 3, 4):
            for s in (1, 2, 3, 4):
                for e in cat.endomorphisms():
                    assert psi(cat, r, psi(cat, s, e)) == psi(cat, r * s, e)
        for x in cat.objects:
            t = trace_obj(cat, x)
            for r in range(1, 7):
                assert psi(cat, r, t) == t


# 8 ---------------------------------------------------------------------------


def test_circle_hom_counts_match_primitive_necklaces():
    def necklaces(k, n):
        return sum(sympy.mobius(d) * k ** (n // d)
                   for d in sympy.divisors(n)) // n

    for k in (1, 2, 3):
        src = mobject_of_digraph(standard_digraph("bouquet", k))
        for n in range(1, 7):
            mors, _, _ = hom_m(src, circle_object(), max_len=n, max_weight=1)
            got = sum(1 for f in mors
                      if isinstance(f.circle_parts[0], CycleToCircle)
                      and f.circle_parts[0].cycle.length == n)
            assert got == necklaces(k, n), (k, n)

    for g in [standard_digraph("point"), standard_digraph("interval"),
              standard_digraph("cyclic", 2), standard_digraph("bouquet", 2)]:
        mors, _, truncated = hom_m(circle_object(), mobject_of_digraph(g))
        assert mors == [] and not truncated

    pt = mobject_of_digraph(standard_digraph("point"))
    mors, _, truncated = hom_m(pt, circle_object())
    assert len(mors) == 1 and not truncated


# 9 ---------------------------------------------------------------------------


def hom_size_matrix(cat):
    """H[x, y] = |hom(x, y)|."""
    idx = {x: i for i, x in enumerate(cat.objects)}
    h = np.zeros((len(idx), len(idx)), dtype=object)
    for m in cat.morphisms:
        h[idx[m.src], idx[m.tgt]] += 1
    return h


def h_colourings(g, n, weight):
    """Sum over the maps c: vertices -> range(n) of the product over edges
    e of weight(e)[c(src e), c(tgt e)]."""
    vi = {v: i for i, v in enumerate(g.vertices)}
    total = 0
    for c in itertools.product(range(n), repeat=len(g.vertices)):
        term = 1
        for e in g.edges:
            term *= weight(e.eid)[c[vi[e.src]], c[vi[e.tgt]]]
        total += term
    return total


# trace classes: one per conjugacy class of a group, one per object of a poset
CLASS_COUNTS = {"arrow": 2, "z2": 2, "z3": 3, "z4": 4, "chain3": 3, "s3": 3}


def test_cut_and_glue_coequalizer_matches_direct_invariant():
    cats = {
        "arrow": walking_arrow_category(),
        "z2": cyclic_group_category(2),
        "z3": cyclic_group_category(3),
        "z4": cyclic_group_category(4),
        "chain3": chain_poset_category(3),
        "s3": symmetric_group_category(3),
    }
    branched = Digraph(["a", "b", "c"], [("e", "a", "b"), ("f", "a", "c")])
    graph_sites = [
        (standard_digraph("interval"), ["e0"]),
        (standard_digraph("linear", 2), ["e0"]),
        (standard_digraph("linear", 2), ["e0", "e1"]),
        (standard_digraph("cyclic", 1), ["e0"]),
        (standard_digraph("cyclic", 2), ["e0"]),
        (standard_digraph("cyclic", 2), ["e0", "e1"]),
        (standard_digraph("cyclic", 3), ["e0"]),
        (standard_digraph("bouquet", 1), ["e0"]),
        (standard_digraph("bouquet", 2), ["e0"]),
        (standard_digraph("bouquet", 2), ["e0", "e1"]),
        (branched, ["e"]),
        (branched, ["e", "f"]),
    ]
    for name, cat in cats.items():
        h = hom_size_matrix(cat)
        n = len(cat.objects)
        # stage p subdivides each cut edge into a chain of p + 2 edges
        h2, h3 = h @ h, h @ h @ h
        for g, cuts in graph_sites:
            v = verify_excision(cat, make_excision_site(g, cuts))
            assert v.ok, (name, g.vertices, cuts, v.note)
            glued = h_colourings(g, n, lambda e: h)
            assert (v.stage0, v.stage1, v.coequalizer, v.direct) == (
                h_colourings(g, n, lambda e: h2 if e in cuts else h),
                h_colourings(g, n, lambda e: h3 if e in cuts else h),
                glued, glued), (name, g.vertices, cuts)
        v = verify_excision(cat, make_excision_site("circle"))
        assert v.ok, (name, "circle", v.note)
        # stage p is the directed (p + 1)-cycle
        assert (v.stage0, v.stage1, v.coequalizer, v.direct) == (
            np.trace(h), np.trace(h2), CLASS_COUNTS[name], CLASS_COUNTS[name])

    # the three worked fixtures with their exact stage sizes
    v = verify_excision(cats["arrow"],
                        make_excision_site(standard_digraph("interval"),
                                           ["e0"]))
    assert (v.stage1, v.stage0, v.coequalizer, v.direct) == (5, 4, 3, 3)
    v = verify_excision(cats["arrow"], make_excision_site("circle"))
    assert (v.stage1, v.stage0, v.coequalizer, v.direct) == (2, 2, 2, 2)
    v = verify_excision(cats["z3"], make_excision_site("circle"))
    assert (v.stage1, v.stage0, v.coequalizer, v.direct) == (9, 3, 3, 3)


# 10 --------------------------------------------------------------------------


def test_object_map_composition_is_associative_and_invariant_functorial():
    rng = random.Random(SEED)
    objs = [mobject_of_digraph(standard_digraph("point")),
            mobject_of_digraph(standard_digraph("interval")),
            mobject_of_digraph(standard_digraph("cyclic", 2)),
            circle_object()]
    homs = {}
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            homs[i, j] = hom_m(a, b, max_len=3, max_weight=2, path_cap=2)[0]

    done = 0
    while done < 1000:
        a, b, c, d = (rng.randrange(len(objs)) for _ in range(4))
        if not (homs[a, b] and homs[b, c] and homs[c, d]):
            continue
        f = rng.choice(homs[a, b])
        g = rng.choice(homs[b, c])
        h = rng.choice(homs[c, d])
        assert compose_m(h, compose_m(g, f)) == compose_m(compose_m(h, g), f)
        done += 1

    cat = cyclic_group_category(2)
    facts = {i: fact_homology(cat, m) for i, m in enumerate(objs)}
    done = 0
    while done < 1000:
        a, b, c = (rng.randrange(len(objs)) for _ in range(3))
        if not (homs[a, b] and homs[b, c]) or not facts[a]:
            continue
        f = rng.choice(homs[a, b])
        g = rng.choice(homs[b, c])
        x = rng.choice(facts[a])
        assert fact_map(cat, compose_m(g, f))(x) == \
            fact_map(cat, g)(fact_map(cat, f)(x))
        done += 1
