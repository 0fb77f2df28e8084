import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quivercalc import digraph, quiver
from quivercalc.digraph import (Digraph, QuivercalcError, disjoint_union,
                                standard_digraph)
from quivercalc.cyccat import compose_para, delta_to_para
from quivercalc.quiver import (DeltaMor, Path, QuiverMor, classify_quiver_mor,
                               compose_delta, compose_quiver_mor, components,
                               delta_mor_to_quiver, enumerate_paths,
                               enumerate_quiver_mors, factor_active_closed,
                               hom_is_finite, hom_quiver_count,
                               is_active_delta, is_closed_delta, _path_options)

import search_oracle
from test_digraph import PIECES, SIDE_CYCLE, digraphs


# --- paths, with the adjacency-matrix oracle -----------------------------


def adjacency_counts(g: Digraph, max_len: int):
    """Number of paths of length <= max_len between each vertex pair,
    computed as sums of powers of the adjacency matrix."""
    n = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    a = np.zeros((n, n), dtype=object)
    for e in g.edges:
        a[idx[e.src], idx[e.tgt]] += 1
    total = np.eye(n, dtype=object)
    power = np.eye(n, dtype=object)
    for _ in range(max_len):
        power = power @ a
        total = total + power
    return {(u, v): total[idx[u], idx[v]] for u in g.vertices
            for v in g.vertices}


SMALL_GRAPHS = [
    standard_digraph("point"),
    standard_digraph("interval"),
    standard_digraph("linear", 3),
    standard_digraph("cyclic", 1),
    standard_digraph("cyclic", 3),
    standard_digraph("bouquet", 2),
    Digraph(["a", "b"], [("e", "a", "b"), ("f", "a", "b")]),
    Digraph(["a", "b", "c"],
            [("e", "a", "b"), ("f", "b", "c"), ("g", "a", "c"),
             ("h", "c", "a")]),
]


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: ",".join(g.vertices))
def test_path_counts_match_adjacency_powers(g):
    for max_len in (0, 1, 3, 5):
        oracle = adjacency_counts(g, max_len)
        for u in g.vertices:
            for v in g.vertices:
                got = len(enumerate_paths(g, u, v, max_len))
                assert got == oracle[u, v], (u, v, max_len)


def test_paths_are_ordered_and_distinct():
    g = standard_digraph("bouquet", 2)
    ps = enumerate_paths(g, "0", "0", 3)
    keys = [p.key() for p in ps]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def random_digraph(rng, n_vertices, n_edges):
    vs = [f"v{i}" for i in range(n_vertices)]
    # edge names run against declaration order, so that name order and
    # index order differ
    return Digraph(vs, [(f"e{n_edges - i:02}", rng.choice(vs), rng.choice(vs))
                        for i in range(n_edges)])


def test_paths_come_sorted_by_length_then_edge_indices():
    rng = random.Random(5)
    graphs = [standard_digraph("bouquet", 3),
              Digraph(["0"], [("z", "0", "0"), ("a", "0", "0"), ("m", "0", "0")])]
    graphs += [random_digraph(rng, rng.randint(1, 4), rng.randint(1, 7))
               for _ in range(30)]
    for g in graphs:
        for u, v in itertools.product(g.vertices, repeat=2):
            ps = enumerate_paths(g, u, v, 5)
            assert ps == sorted(ps, key=Path.key), (g.edges, u, v)


def test_enumerated_paths_are_what_the_checking_constructor_builds():
    # enumerate_paths builds its paths unchecked; each must equal the path
    # Path.__init__ builds and checks from the same edges
    rng = random.Random(6)
    graphs = [standard_digraph("bouquet", 2), standard_digraph("linear", 3)]
    graphs += [random_digraph(rng, rng.randint(1, 4), rng.randint(1, 7))
               for _ in range(20)]
    for g in graphs:
        for u, v in itertools.product(g.vertices, repeat=2):
            for p in enumerate_paths(g, u, v, 4):
                q = Path(g, u, p.edges)
                assert (p, p.start, p.end, p.edges) == (q, q.start, q.end, q.edges)
                assert type(p.edges) is tuple and p.end == v


def test_hom_finiteness_against_bounded_enumeration():
    # a path with |V| or more edges repeats a vertex, so it runs through a
    # cycle on a route; conversely, a cycle on a route can be pumped into
    # a path whose length lies in [|V|, 2|V| - 1]
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(1, 5)
        g = random_digraph(rng, n, rng.randint(0, 2 * n))
        for u, v in itertools.product(g.vertices, repeat=2):
            ps = enumerate_paths(g, u, v, 2 * n - 1)
            if any(p.length >= n for p in ps):
                assert hom_is_finite(g, u, v) == (False, None), (g.edges, u, v)
            else:
                assert hom_is_finite(g, u, v) == (True, len(ps)), (g.edges, u, v)


def test_path_construction():
    g = standard_digraph("linear", 2)
    p = Path(g, "0", ("e0", "e1"))
    assert p.end == "2"
    assert p.vertices() == ["0", "1", "2"]
    with pytest.raises(QuivercalcError):
        Path(g, "0", ("e1",))  # does not start at 0
    with pytest.raises(QuivercalcError):
        Path(g, "0", ("e0", "e0"))  # not head-to-tail
    e = Path.empty(g, "1")
    assert e.length == 0 and e.end == "1"
    assert Path.of_edge(g, "e0").then(Path.of_edge(g, "e1")) == p


def test_hom_finiteness():
    lin = standard_digraph("linear", 3)
    finite, count = hom_is_finite(lin, "0", "3")
    assert finite and count == 1
    assert hom_is_finite(lin, "3", "0") == (True, 0)
    bq = standard_digraph("bouquet", 1)
    finite, count = hom_is_finite(bq, "0", "0")
    assert not finite and count is None
    # a cycle hanging off the route makes the hom-set infinite
    g = Digraph(["a", "b"], [("e", "a", "b"), ("l", "b", "b")])
    assert hom_is_finite(g, "a", "b")[0] is False
    # ... but a cycle unreachable from the route does not
    h = Digraph(["a", "b", "c"], [("e", "a", "b"), ("l", "c", "c")])
    assert hom_is_finite(h, "a", "b") == (True, 1)
    # a cycle through src, of even length only, beside an idle vertex
    k = Digraph(["a", "b", "c"], [("e", "a", "b"), ("f", "b", "a")])
    assert hom_is_finite(k, "a", "a") == (False, None)
    assert hom_is_finite(k, "c", "c") == (True, 1)


def test_deep_graphs_do_not_recurse():
    n = 3000
    g = standard_digraph("linear", n)
    assert hom_is_finite(g, "0", str(n)) == (True, 1)
    assert [p.length for p in enumerate_paths(g, "0", str(n), n)] == [n]


def test_hom_is_finite_on_a_long_cycle():
    n = 50_000
    g = standard_digraph("cyclic", n)
    assert hom_is_finite(g, "0", str(n - 1)) == (False, None)


def test_the_backward_search_is_kept_for_the_last_target_only(monkeypatch):
    starts = []
    real = digraph.reachable

    def spy(start, step):
        starts.append(start)
        return real(start, step)

    monkeypatch.setattr(digraph, "reachable", spy)
    g = standard_digraph("linear", 3)
    assert hom_is_finite(g, "0", "3") == (True, 1)
    assert len(enumerate_paths(g, "1", "3", 3)) == 1
    assert starts == [3]                # both asked of target 3: one search
    hom_is_finite(g, "0", "2")
    enumerate_paths(g, "0", "3", 3)
    assert starts == [3, 2, 3]          # one slot: target 3 was forgotten


def test_a_side_cycle_costs_the_path_search_nothing():
    # walking round the two loops at c, an unpruned search would try 2^59
    # words to length 60 before it found that none of them reaches b
    assert [p.edges for p in enumerate_paths(SIDE_CYCLE, "a", "b", 60)] == [("ab",)]


def test_negative_length_cap_is_rejected():
    g = standard_digraph("linear", 2)
    with pytest.raises(QuivercalcError):
        enumerate_paths(g, "0", "2", -1)


def test_hom_finite_count_agrees_with_enumeration():
    g = Digraph(["a", "b", "c"],
                [("e", "a", "b"), ("f", "a", "b"), ("g", "b", "c"),
                 ("h", "a", "c")])
    finite, count = hom_is_finite(g, "a", "c")
    assert finite
    assert count == len(enumerate_paths(g, "a", "c", len(g.edges)))


# --- monotone maps -------------------------------------------------------


def all_delta(p, q):
    for vals in itertools.combinations_with_replacement(range(q + 1), p + 1):
        yield DeltaMor(p, q, vals)


def test_delta_identity_and_composition():
    i2 = DeltaMor.identity(2)
    assert [i2(k) for k in range(3)] == [0, 1, 2]
    f = DeltaMor(1, 2, (0, 2))
    g = DeltaMor(2, 1, (0, 0, 1))
    gf = compose_delta(g, f)
    assert gf.values == (0, 1)


def test_delta_composition_associative():
    fs = list(all_delta(1, 2))
    gs = list(all_delta(2, 2))
    hs = list(all_delta(2, 1))
    for f in fs:
        for g in gs:
            for h in hs:
                assert compose_delta(h, compose_delta(g, f)) == \
                    compose_delta(compose_delta(h, g), f)


def test_active_closed_factorization():
    for p in range(3):
        for q in range(3):
            for f in all_delta(p, q):
                act, clo = factor_active_closed(f)
                assert is_active_delta(act)
                assert is_closed_delta(clo)
                assert compose_delta(clo, act) == f
                # uniqueness: no other (active, closed) pair through any
                # intermediate object composes to f
                found = 0
                for mid in range(q + 1):
                    for a in all_delta(p, mid):
                        if not is_active_delta(a):
                            continue
                        for c in all_delta(mid, q):
                            if is_closed_delta(c) and \
                                    compose_delta(c, a) == f:
                                found += 1
                assert found == 1


def test_delta_mor_to_quiver_subdivides():
    f = DeltaMor(1, 2, (0, 2))
    qm = delta_mor_to_quiver(f)
    assert qm.edge_paths["e0"].edges == ("e0", "e1")
    cls = classify_quiver_mor(qm)
    assert cls.refinement and cls.active


def test_delta_mor_to_quiver_functorial():
    for f in all_delta(1, 2):
        for g in all_delta(2, 3):
            lhs = delta_mor_to_quiver(compose_delta(g, f))
            rhs = compose_quiver_mor(delta_mor_to_quiver(g),
                                     delta_mor_to_quiver(f))
            assert lhs == rhs


def test_delta_to_para_functorial():
    for f in all_delta(1, 2):
        for g in all_delta(2, 3):
            assert delta_to_para(compose_delta(g, f)) == \
                compose_para(delta_to_para(g), delta_to_para(f))


# --- morphisms of quivers -------------------------------------------------


def test_quiver_mor_validation():
    src = standard_digraph("interval")
    tgt = standard_digraph("linear", 2)
    f = QuiverMor(src, tgt, {"0": "0", "1": "2"},
                  {"e0": Path(tgt, "0", ("e0", "e1"))})
    assert f.map_path(Path.of_edge(src, "e0")).end == "2"
    with pytest.raises(QuivercalcError):
        QuiverMor(src, tgt, {"0": "0", "1": "1"},
                  {"e0": Path(tgt, "0", ("e0", "e1"))})  # wrong endpoint
    with pytest.raises(QuivercalcError):
        QuiverMor(src, tgt, {"0": "0", "1": "2"},
                  {"e0": Path(src, "0", ("e0",))})  # path in wrong graph


def test_quiver_mor_composition_by_substitution():
    a = standard_digraph("interval")
    b = standard_digraph("linear", 2)
    c = standard_digraph("linear", 4)
    f = QuiverMor(a, b, {"0": "0", "1": "2"},
                  {"e0": Path(b, "0", ("e0", "e1"))})
    g = QuiverMor(b, c, {"0": "0", "1": "2", "2": "3"},
                  {"e0": Path(c, "0", ("e0", "e1")), "e1": Path(c, "2", ("e2",))})
    gf = compose_quiver_mor(g, f)
    assert gf.edge_paths["e0"].edges == ("e0", "e1", "e2")
    i = QuiverMor.identity(a)
    assert compose_quiver_mor(f, i) == f
    assert compose_quiver_mor(QuiverMor.identity(b), f) == f


def test_classification_identity_is_closed():
    g = standard_digraph("cyclic", 3)
    cls = classify_quiver_mor(QuiverMor.identity(g))
    assert cls.idle and cls.closed and cls.active and cls.refinement
    assert cls.creation  # surjective collapse onto itself


def test_classification_collapse_is_creation():
    g = standard_digraph("interval")
    p = standard_digraph("point")
    f = QuiverMor(g, p, {"0": "0", "1": "0"}, {"e0": Path.empty(p, "0")})
    cls = classify_quiver_mor(f)
    assert cls.idle and cls.creation
    assert not cls.closed and not cls.refinement


def test_classification_inclusion_is_closed():
    g = standard_digraph("linear", 2)
    sub = standard_digraph("interval")
    f = QuiverMor(sub, g, {"0": "0", "1": "1"}, {"e0": Path.of_edge(g, "e0")})
    cls = classify_quiver_mor(f)
    assert cls.closed and cls.idle
    assert not cls.creation


def test_classification_wrapping_is_active():
    g = standard_digraph("interval")
    b = standard_digraph("bouquet", 1)
    f = QuiverMor(g, b, {"0": "0", "1": "0"}, {"e0": Path(b, "0", ("e0", "e0"))})
    cls = classify_quiver_mor(f)
    assert cls.active
    assert not cls.idle and not cls.refinement


def test_classification_subdivision_is_refinement():
    g = standard_digraph("interval")
    lin = standard_digraph("linear", 2)
    f = QuiverMor(g, lin, {"0": "0", "1": "2"},
                  {"e0": Path(lin, "0", ("e0", "e1"))})
    cls = classify_quiver_mor(f)
    assert cls.refinement and cls.active
    assert not cls.idle


def test_refinement_rejects_vertex_landing_inside_image_path():
    # interval ⊔ point → 2-chain, edge subdividing, the extra point sitting
    # on the interior vertex: every target vertex is hit, every target edge
    # used once, yet this is not a refinement (the middle vertex is both an
    # image vertex and interior to an image path)
    src = disjoint_union([standard_digraph("interval"),
                          standard_digraph("point")], prefixes=["i.", "p."])
    lin = standard_digraph("linear", 2)
    f = QuiverMor(src, lin, {"i.0": "0", "i.1": "2", "p.0": "1"},
                  {"i.e0": Path(lin, "0", ("e0", "e1"))})
    cls = classify_quiver_mor(f)
    assert not cls.refinement


def test_refinement_rejects_reusing_target_edge():
    src = disjoint_union([standard_digraph("interval"),
                          standard_digraph("interval")], prefixes=["a.", "b."])
    tgt = standard_digraph("interval")
    f = QuiverMor(src, tgt,
                  {"a.0": "0", "a.1": "1", "b.0": "0", "b.1": "1"},
                  {"a.e0": Path.of_edge(tgt, "e0"),
                   "b.e0": Path.of_edge(tgt, "e0")})
    assert not classify_quiver_mor(f).refinement


def test_components_order_and_inclusions():
    g = disjoint_union([standard_digraph("interval"),
                        standard_digraph("cyclic", 1)], prefixes=["i.", "c."])
    comps = components(g)
    assert [c.vertices for c in comps] == [("i.0", "i.1"), ("c.0",)]
    for sub in comps:
        inc = QuiverMor(sub, g, {v: v for v in sub.vertices},
                        {e.eid: Path.of_edge(g, e.eid) for e in sub.edges})
        assert classify_quiver_mor(inc).closed


def test_a_connected_graph_is_its_own_one_component():
    for g in (standard_digraph("bouquet", 2), standard_digraph("linear", 3)):
        comps = components(g)
        assert len(comps) == 1 and comps[0] is g
    assert components(Digraph([], [])) == []


@example(SIDE_CYCLE)
@example(PIECES)
@given(digraphs())
def test_components_match_the_subgraph_oracle(g):
    assert components(g) == search_oracle.components(g)


def test_components_of_many_pieces():
    g = disjoint_union([standard_digraph("interval")] * 5000)
    comps = components(g)
    assert len(comps) == 5000
    assert comps[-1] == Digraph(["4999.0", "4999.1"],
                                [("4999.e0", "4999.0", "4999.1")])


# --- enumeration of quiver morphisms --------------------------------------


def outcome(options, *args):
    """What a path-options routine returns, as edge tuples, or its error."""
    try:
        paths, exact = options(*args)
    except QuivercalcError as e:
        return str(e)
    return [getattr(p, "edges", p) for p in paths], exact


@example(SIDE_CYCLE, 1)
@example(PIECES, None)
@given(digraphs(), st.sampled_from([None, 0, 1, 2, 3]))
def test_path_options_match_the_filtering_oracle(g, cap):
    for a, b in itertools.product(g.vertices, repeat=2):
        assert (outcome(_path_options, g, a, b, cap)
                == outcome(search_oracle.path_options, g, a, b, cap)), (a, b)


def test_a_side_cycle_costs_the_morphism_search_nothing():
    # the hom-sets from 0 into the chain are finite, and the unpruned search
    # enumerated each to |E| = 20 edges, walking every word round the loops
    # at s on the way
    g = Digraph([str(i) for i in range(18)] + ["s"],
                [(f"e{i}", str(i), str(i + 1)) for i in range(17)]
                + [("es", "0", "s"), ("l0", "s", "s"), ("l1", "s", "s")])
    mors, count, truncated = enumerate_quiver_mors(standard_digraph("interval"), g, 3)
    assert (len(mors), count, truncated) == (88, 88, True)


def brute_quiver_mors(src, tgt, max_len):
    """Direct product-and-filter enumeration, as a slow second route."""
    out = []
    vmaps = [dict(zip(src.vertices, choice))
             for choice in itertools.product(tgt.vertices,
                                             repeat=len(src.vertices))]
    for vm in vmaps:
        per_edge = []
        for e in src.edges:
            per_edge.append(enumerate_paths(tgt, vm[e.src], vm[e.tgt], max_len))
        for combo in itertools.product(*per_edge):
            out.append(QuiverMor(src, tgt, vm,
                                 dict(zip((e.eid for e in src.edges), combo))))
    return out


def test_enumeration_matches_brute_force_acyclic():
    src = standard_digraph("interval")
    tgt = standard_digraph("linear", 3)
    mors, count, truncated = enumerate_quiver_mors(src, tgt)
    assert not truncated and count == len(mors)
    brute = brute_quiver_mors(src, tgt, len(tgt.edges))
    assert len(mors) == len(brute)
    assert set(map(hash, mors)) == set(map(hash, brute))


def test_enumeration_truncates_on_cycles():
    src = standard_digraph("interval")
    tgt = standard_digraph("cyclic", 2)
    with pytest.raises(QuivercalcError):
        enumerate_quiver_mors(src, tgt)  # needs a cap
    mors, _, truncated = enumerate_quiver_mors(src, tgt, path_cap=3)
    assert truncated
    assert len(mors) == len(brute_quiver_mors(src, tgt, 3))


def test_hom_count_formula_matches_enumeration():
    cases = [
        (standard_digraph("point"), standard_digraph("linear", 2)),
        (standard_digraph("interval"), standard_digraph("linear", 3)),
        (disjoint_union([standard_digraph("point"),
                         standard_digraph("point")]),
         standard_digraph("point")),
        (disjoint_union([standard_digraph("interval"),
                         standard_digraph("point")], prefixes=["i.", "p."]),
         standard_digraph("linear", 2)),
    ]
    for src, tgt in cases:
        mors, _, t1 = enumerate_quiver_mors(src, tgt)
        count, t2 = hom_quiver_count(src, tgt)
        assert not t1 and not t2
        assert count == len(mors)


LIMIT_CASES = [
    (standard_digraph("interval"), standard_digraph("linear", 3), None),
    (standard_digraph("interval"), standard_digraph("cyclic", 2), 3),
    (standard_digraph("linear", 2), standard_digraph("bouquet", 2), 2),
    (standard_digraph("cyclic", 2), standard_digraph("linear", 2), None),
    (disjoint_union([standard_digraph("point"), standard_digraph("point")]),
     standard_digraph("interval"), None),
    (Digraph([], []), standard_digraph("interval"), None),
]


@pytest.mark.parametrize("src, tgt, cap", LIMIT_CASES)
def test_a_limit_lists_the_first_morphisms_and_counts_them_all(src, tgt, cap):
    mors, count, truncated = enumerate_quiver_mors(src, tgt, cap)
    assert count == len(mors)
    for k in sorted({0, 1, 2, count, count + 1}):
        assert enumerate_quiver_mors(src, tgt, cap, limit=k) == \
            (mors[:k], count, truncated), k


def test_a_limited_listing_keeps_no_option_table():
    """linear(5) has 462 endomorphisms among 6^6 = 46 656 vertex
    assignments; listing two peaks near 9 KB of traced allocations
    (CPython 3.11), where keeping a row per assignment takes megabytes."""
    g = standard_digraph("linear", 5)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mors, count, truncated = enumerate_quiver_mors(g, g, limit=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert (len(mors), count, truncated) == (2, 462, False)
    assert peak < 100_000


def test_counting_builds_no_quiver_morphism(monkeypatch):
    cases = [(disjoint_union([standard_digraph("interval"),
                              standard_digraph("point")], prefixes=["i.", "p."]),
              standard_digraph("linear", 2), None),
             (standard_digraph("linear", 2), standard_digraph("bouquet", 2), 2)]
    want = [len(brute_quiver_mors(src, tgt, cap or len(tgt.edges)))
            for src, tgt, cap in cases]
    built = []
    init = QuiverMor.__init__

    def spy(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(QuiverMor, "__init__", spy)
    assert [hom_quiver_count(src, tgt, cap) for src, tgt, cap in cases] == \
        [(want[0], False), (want[1], True)]
    assert built == []


def test_hom_count_two_points_to_point():
    two = disjoint_union([standard_digraph("point"),
                          standard_digraph("point")])
    assert hom_quiver_count(two, standard_digraph("point")) == (1, False)


def test_empty_source_has_exactly_one_morphism():
    empty = Digraph([], [])
    for tgt in (standard_digraph("interval"), standard_digraph("cyclic", 2), empty):
        mors, count, truncated = enumerate_quiver_mors(empty, tgt)
        assert len(mors) == count == 1 and not truncated


# --- the morphism search against the full product ----------------------------


def listing(src, tgt, cap, limit=None):
    """What enumerate_quiver_mors returns, as search_oracle.quiver_mors
    reports it."""
    try:
        mors, count, truncated = enumerate_quiver_mors(src, tgt, cap, limit)
    except QuivercalcError as e:
        return str(e)
    return ([(tuple(f.vertex_map[v] for v in src.vertices),
              tuple(f.edge_paths[e.eid].edges for e in src.edges)) for f in mors],
            count, truncated)


# a source whose edges point back to earlier vertices, with a loop
BACKWARD = Digraph(["a", "b", "c"], [("f", "c", "a"), ("g", "b", "a"),
                                     ("l", "b", "b")])
QUIVER_POOL = SMALL_GRAPHS + [BACKWARD, SIDE_CYCLE, Digraph([], [])]


@pytest.mark.parametrize("cap", [None, 0, 2])
@pytest.mark.parametrize("src", QUIVER_POOL, ids=lambda g: ",".join(g.vertices))
def test_the_morphism_search_is_the_full_product_filtered(src, cap, monkeypatch):
    """Also: each assignment the search yields gives every edge a path."""
    search = quiver.labellings

    def nonempty(*args):
        for row in search(*args):
            assert all(row[1]), row
            yield row

    monkeypatch.setattr(quiver, "labellings", nonempty)
    for tgt in QUIVER_POOL:
        want = search_oracle.quiver_mors(src, tgt, cap)
        assert listing(src, tgt, cap) == want, tgt.vertices
        if isinstance(want, str):
            continue
        for k in sorted({0, 1, 2, want[1], want[1] + 1}):
            assert listing(src, tgt, cap, k) == \
                (want[0][:k], want[1], want[2]), (tgt.vertices, k)


@settings(max_examples=60, deadline=None)
@example(BACKWARD, SIDE_CYCLE, None)
@given(digraphs(), digraphs(), st.sampled_from([None, 0, 1, 2]))
def test_the_morphism_search_matches_the_product_on_random_quivers(src, tgt, cap):
    """Also the path-cap error: it names the first infinite pair that the
    product of vertex assignments meets, reading each one's edges in order."""
    assert listing(src, tgt, cap, 3) == search_oracle.quiver_mors(src, tgt, cap, 3)


def test_a_source_of_loops_meets_only_the_diagonal(monkeypatch):
    """linear(3) capped at one edge has an inexact pair (0, 2) but exact
    diagonal pairs: a source of loops meets only those, so its listing is
    exact, while an interval meets (0, 2) too."""
    met = []
    options = quiver._path_options

    def spy(tgt, a, b, cap):
        met.append((a, b))
        return options(tgt, a, b, cap)

    monkeypatch.setattr(quiver, "_path_options", spy)
    tgt = standard_digraph("linear", 3)
    assert enumerate_quiver_mors(standard_digraph("bouquet", 2), tgt, 1)[1:] \
        == (4, False)
    assert sorted(set(met)) == [(v, v) for v in tgt.vertices]
    assert enumerate_quiver_mors(standard_digraph("interval"), tgt, 1)[1:] \
        == (7, True)
    for loops in (standard_digraph("bouquet", 1), standard_digraph("bouquet", 2)):
        for cap in (None, 0, 1):
            assert listing(loops, tgt, cap) == search_oracle.quiver_mors(loops, tgt, cap)


def test_linear6_endomorphisms_capped_at_four_count_as_a_matrix_power():
    """A map linear(6) -> linear(6) picks 7 vertices x0..x6 and a path
    x_i -> x_(i+1) of at most 4 edges for each edge: 1^T W^6 1, where
    W[a][b] counts those paths.  The product walked 7^7 = 823 543
    assignments for it."""
    g = standard_digraph("linear", 6)
    counts = adjacency_counts(g, 4)
    w = np.array([[counts[a, b] for b in g.vertices] for a in g.vertices],
                 dtype=object)
    ones = np.ones(len(g.vertices), dtype=object)
    assert ones @ np.linalg.matrix_power(w, 6) @ ones == 1668
    assert hom_quiver_count(g, g, path_cap=4) == (1668, True)
    assert enumerate_quiver_mors(g, g, path_cap=4, limit=0) == ([], 1668, True)


@given(st.integers(0, 3), st.integers(0, 3))
def test_delta_factor_sizes(p, q):
    for f in all_delta(p, q):
        act, clo = factor_active_closed(f)
        # the intermediate object is the image span of f
        assert act.q == f.values[-1] - f.values[0]
        assert clo.p == act.q


# --- every rejection names what is wrong -------------------------------------

I1, L2 = standard_digraph("interval"), standard_digraph("linear", 2)
QUIVER_REJECTIONS = {
    "path-start": (lambda: Path(L2, "zz", ()), "unknown vertex 'zz'"),
    "path-chain": (lambda: Path(L2, "0", ("e1",)), "edge 'e1' starts at '1', not '0'"),
    "path-then": (lambda: Path.of_edge(L2, "e0").then(Path.of_edge(L2, "e0")),
                  "paths do not chain"),
    "vertex-image": (lambda: QuiverMor(I1, L2, {"0": "0"}, {}),
                     "vertex '1' has no image"),
    "unknown-vertex-image": (lambda: QuiverMor(I1, L2, {"0": "0", "1": "zz"}, {}),
                             "unknown vertex 'zz'"),
    "edge-image": (lambda: QuiverMor(I1, L2, {"0": "0", "1": "1"}, {}),
                   "edge 'e0' has no image path"),
    "edge-image-graph": (
        lambda: QuiverMor(I1, L2, {"0": "0", "1": "1"}, {"e0": Path.of_edge(I1, "e0")}),
        "image path of 'e0' lives in the wrong graph"),
    "edge-image-endpoints": (
        lambda: QuiverMor(I1, L2, {"0": "0", "1": "2"}, {"e0": Path.of_edge(L2, "e0")}),
        "image path of 'e0' has the wrong endpoints"),
    "map-path": (lambda: QuiverMor.identity(I1).map_path(Path.of_edge(L2, "e0")),
                 "path lives in the wrong graph"),
    "delta-ordinals": (lambda: DeltaMor(-1, 0, ()), "ordinals [p], [q] need p, q >= 0"),
    "delta-values": (lambda: DeltaMor(1, 1, (0,)), "need one value per point of [p]"),
    "delta-range": (lambda: DeltaMor(0, 1, (2,)), "value 2 outside [0..1]"),
    "delta-monotone": (lambda: DeltaMor(1, 1, (1, 0)), "values must be monotone"),
    "delta-compose": (lambda: compose_delta(DeltaMor.identity(1), DeltaMor.identity(0)),
                      "ordinal maps not composable"),
}


@pytest.mark.parametrize("name", QUIVER_REJECTIONS)
def test_quiver_rejections_name_the_fault(name):
    build, message = QUIVER_REJECTIONS[name]
    with pytest.raises(QuivercalcError) as e:
        build()
    assert str(e.value) == message
