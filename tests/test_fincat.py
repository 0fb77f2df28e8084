import itertools
import json

import pytest

from quivercalc.digraph import (Digraph, QuivercalcError, disjoint_union,
                                exit_path, make_closed_cover,
                                standard_digraph)
from quivercalc.fincat import (BadComposite, FinCat, Functor, Incomposable,
                               MissingIdentity, NotAssociative, Representation,
                               chain_poset_category, check_closed_sheaf,
                               compose_along_path, cyclic_group_category,
                               enumerate_reps, limit_sections,
                               monoid_category, poset_category, pullback_rep,
                               rep_via_exit_limit, symmetric_group_category,
                               validate_fincat, walking_arrow_category)
from quivercalc.quiver import Path, QuiverMor

FIXTURE_CATS = [
    walking_arrow_category(),
    cyclic_group_category(2),
    cyclic_group_category(3),
    symmetric_group_category(3),
    chain_poset_category(3),
]


# --- construction and validation -------------------------------------------


def test_constructors_validate():
    for c in FIXTURE_CATS + [cyclic_group_category(1),
                             symmetric_group_category(1),
                             symmetric_group_category(4),
                             chain_poset_category(1)]:
        validate_fincat(c)


def test_group_category_sizes():
    assert len(cyclic_group_category(5).morphisms) == 5
    assert len(symmetric_group_category(3).morphisms) == 6
    assert len(symmetric_group_category(4).morphisms) == 24


def test_symmetric_group_composition_convention():
    s3 = symmetric_group_category(3)
    # p102 swaps 0,1; p021 swaps 1,2; applying p102 then p021 sends
    # 0->1->2, 1->0->0, 2->2->1, i.e. the 3-cycle with images (2,0,1)
    comp = s3.comp("p021", "p102")
    assert comp == "p201"


def test_missing_identity_detected():
    c = FinCat(["x"], [("f", "x", "x")], {"x": "f"}, {("f", "f"): "f"})
    validate_fincat(c)  # f is a perfectly fine identity
    bad = FinCat(["x"], [("f", "x", "x"), ("g", "x", "x")], {"x": "f"},
                 {("f", "f"): "f", ("f", "g"): "g", ("g", "f"): "f",
                  ("g", "g"): "g"})
    with pytest.raises(MissingIdentity):
        validate_fincat(bad)  # f absorbs g on one side


def test_bad_composite_detected():
    tbl = {("e", "e"): "e", ("e", "f"): "f", ("f", "e"): "f"}
    c = FinCat(["x", "y"], [("e", "x", "x"), ("f", "x", "y")],
               {"x": "e", "y": "f"}, tbl)
    with pytest.raises((BadComposite, MissingIdentity)):
        validate_fincat(c)  # f cannot be the identity of y


def test_not_associative_detected():
    els = ["e", "a", "b"]
    tbl = {}
    for x in els:
        tbl[("e", x)] = x
        tbl[(x, "e")] = x
    # a*a = b, a*b = e, b*a = a (broken), b*b = a
    tbl[("a", "a")] = "b"
    tbl[("a", "b")] = "e"
    tbl[("b", "a")] = "a"
    tbl[("b", "b")] = "a"
    c = monoid_category(els, tbl, "e")
    with pytest.raises(NotAssociative):
        validate_fincat(c)


def test_totality_enforced():
    c = FinCat(["x"], [("e", "x", "x"), ("g", "x", "x")], {"x": "e"},
               {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g"})
    with pytest.raises(BadComposite):
        validate_fincat(c)  # g∘g missing


def test_comp_raises_on_mismatched_endpoints():
    c = walking_arrow_category()
    with pytest.raises(Incomposable):
        c.comp("le:0:1", "le:0:1")


def test_poset_category():
    c = poset_category(["a", "b", "c"],
                       [("a", "b"), ("b", "c"), ("a", "c")])
    validate_fincat(c)
    assert len(c.morphisms) == 6
    with pytest.raises(QuivercalcError):
        poset_category(["a", "b", "c"], [("a", "b"), ("b", "c")])  # not closed


def test_json_round_trip():
    for c in FIXTURE_CATS:
        again = FinCat.from_json(c.to_json())
        assert again.objects == c.objects
        assert again.morphisms == c.morphisms
        assert again.identities == c.identities
        assert again.table == c.table
        validate_fincat(again)


def test_json_fixture_bytes():
    import tests.conftest as cft
    raw = (cft.FIXTURES / "s3.json").read_text()
    c = FinCat.from_json(json.loads(raw))
    again = json.dumps(c.to_json(), indent=2, sort_keys=True) + "\n"
    assert again == raw


def test_functor_validation():
    z2 = cyclic_group_category(2)
    z4 = cyclic_group_category(4)
    f = Functor(z2, z4, {"*": "*"}, {"g0": "g0", "g1": "g2"})
    assert f("g1") == "g2"
    with pytest.raises(QuivercalcError):
        Functor(z2, z4, {"*": "*"}, {"g0": "g0", "g1": "g1"})  # not a hom


def test_functor_unknown_target_object():
    z2 = cyclic_group_category(2)
    with pytest.raises(QuivercalcError, match="unknown object"):
        Functor(z2, z2, {"*": "nowhere"}, {"g0": "g0", "g1": "g1"})


def test_index_of_unknown_name():
    z2 = cyclic_group_category(2)
    assert z2.object_index("*") == 0 and z2.morphism_index("g1") == 1
    with pytest.raises(QuivercalcError, match="unknown object"):
        z2.object_index("nowhere")
    with pytest.raises(QuivercalcError, match="unknown morphism"):
        z2.morphism_index("g9")


# --- representations -------------------------------------------------------


SMALL_GRAPHS = [
    standard_digraph("point"),
    standard_digraph("interval"),
    standard_digraph("linear", 2),
    standard_digraph("cyclic", 1),
    standard_digraph("cyclic", 2),
    standard_digraph("bouquet", 2),
    disjoint_union([standard_digraph("interval"), standard_digraph("point")],
                   prefixes=["i.", "p."]),
    Digraph(["a", "b"], [("e", "a", "b"), ("f", "a", "b")]),
]


def brute_reps(cat, g):
    """Direct filtered product over all labelings — the slowest route."""
    out = []
    for vchoice in itertools.product(cat.objects, repeat=len(g.vertices)):
        vmap = dict(zip(g.vertices, vchoice))
        pools = []
        for e in g.edges:
            pools.append([m.mid for m in cat.morphisms
                          if m.src == vmap[e.src] and m.tgt == vmap[e.tgt]])
        for echoice in itertools.product(*pools):
            emap = dict(zip((e.eid for e in g.edges), echoice))
            out.append(Representation(cat, g, vmap, emap))
    return out


@pytest.mark.parametrize("cat", FIXTURE_CATS,
                         ids=["arrow", "z2", "z3", "s3", "chain3"])
@pytest.mark.parametrize("g", SMALL_GRAPHS,
                         ids=lambda g: ",".join(g.vertices))
def test_rep_enumeration_three_routes(cat, g):
    direct = enumerate_reps(cat, g)
    via_limit = rep_via_exit_limit(cat, g)
    brute = brute_reps(cat, g)
    assert [r.key() for r in direct] == [r.key() for r in via_limit]
    assert sorted(r.key() for r in direct) == sorted(r.key() for r in brute)


def test_rep_counts_on_groups():
    # over a one-object category every edge is labeled freely
    z3 = cyclic_group_category(3)
    for g in SMALL_GRAPHS:
        assert len(enumerate_reps(z3, g)) == 3 ** len(g.edges)


def test_representation_rejects_bad_labels():
    c = walking_arrow_category()
    g = standard_digraph("interval")
    Representation(c, g, {"0": "0", "1": "1"}, {"e0": "le:0:1"})
    with pytest.raises(QuivercalcError, match="unknown object"):
        Representation(c, g, {"0": "0", "1": "2"}, {"e0": "le:0:1"})
    with pytest.raises(QuivercalcError, match="no label for .* '1'"):
        Representation(c, g, {"0": "0"}, {"e0": "le:0:1"})
    with pytest.raises(QuivercalcError, match="no label for .* 'e0'"):
        Representation(c, g, {"0": "0", "1": "1"}, {})


def test_rep_restrict():
    c = walking_arrow_category()
    g = standard_digraph("linear", 2)
    sub = g.subgraph(["0", "1"], ["e0"])
    for r in enumerate_reps(c, g):
        res = r.restrict(sub)
        assert res.vertex_labels == {v: r.vertex_labels[v] for v in ("0", "1")}
        assert res.edge_labels == {"e0": r.edge_labels["e0"]}


def test_compose_along_path():
    z4 = cyclic_group_category(4)
    g = standard_digraph("linear", 2)
    rep = Representation(z4, g, {"0": "*", "1": "*", "2": "*"},
                         {"e0": "g1", "e1": "g2"})
    p = Path(g, "0", ("e0", "e1"))
    assert compose_along_path(rep, p) == "g3"
    assert compose_along_path(rep, Path.empty(g, "1")) == "g0"


def test_pullback_rep_contravariant():
    z4 = cyclic_group_category(4)
    a = standard_digraph("interval")
    b = standard_digraph("linear", 2)
    c = standard_digraph("linear", 4)
    f = QuiverMor(a, b, {"0": "0", "1": "2"},
                  {"e0": Path(b, "0", ("e0", "e1"))})
    g = QuiverMor(b, c, {"0": "0", "1": "2", "2": "3"},
                  {"e0": Path(c, "0", ("e0", "e1")), "e1": Path(c, "2", ("e2",))})
    from quivercalc.quiver import compose_quiver_mor
    gf = compose_quiver_mor(g, f)
    for rep in enumerate_reps(z4, c):
        one = pullback_rep(gf, rep)
        two = pullback_rep(f, pullback_rep(g, rep))
        assert one == two


def test_pullback_rep_checks_graph():
    z2 = cyclic_group_category(2)
    g = standard_digraph("interval")
    rep = enumerate_reps(z2, standard_digraph("point"))[0]
    f = QuiverMor.identity(g)
    with pytest.raises(QuivercalcError):
        pullback_rep(f, rep)


def test_limit_sections_on_a_fork():
    # two arrows with a common source; sections pick compatible values
    shape = FinCat(["s", "a", "b"],
                   [("is", "s", "s"), ("ia", "a", "a"), ("ib", "b", "b"),
                    ("f", "s", "a"), ("g", "s", "b")],
                   {"s": "is", "a": "ia", "b": "ib"},
                   {("is", "is"): "is", ("ia", "ia"): "ia", ("ib", "ib"): "ib",
                    ("f", "is"): "f", ("ia", "f"): "f",
                    ("g", "is"): "g", ("ib", "g"): "g"})
    validate_fincat(shape)
    carriers = {"s": [0, 1], "a": [0, 1], "b": [0, 1]}
    actions = {"f": lambda x: x, "g": lambda x: 1 - x,
               "is": lambda x: x, "ia": lambda x: x, "ib": lambda x: x}
    # contravariant: the value at the source is determined by the arrows
    secs = limit_sections(shape, carriers, actions)
    assert len(secs) == 2
    for s in secs:
        assert s["s"] == s["a"] and s["s"] == 1 - s["b"]


def test_limit_sections_past_the_recursion_limit():
    # exit_path(linear(1200)) has 2401 objects: the search is that deep
    point = monoid_category(["e"], {("e", "e"): "e"}, "e")
    g = standard_digraph("linear", 1200)
    reps = rep_via_exit_limit(point, g)
    assert len(reps) == 1
    assert reps == enumerate_reps(point, g)


def test_limit_sections_with_empty_carriers_or_shape():
    empty = FinCat([], [], {}, {})
    assert limit_sections(empty, {}, {}) == [{}]
    g = standard_digraph("interval")
    assert rep_via_exit_limit(empty, g) == enumerate_reps(empty, g) == []


# --- the gluing law ---------------------------------------------------------


def graph_covers(g):
    """All ways to split the edges in two (with shared vertices added),
    yielding only genuine covers."""
    es = [e.eid for e in g.edges]
    for assign in itertools.product((0, 1, 2), repeat=len(es)):
        left_e = [e for e, a in zip(es, assign) if a in (0, 2)]
        right_e = [e for e, a in zip(es, assign) if a in (1, 2)]
        lv = {v for eid in left_e for v in
              (g.edge(eid).src, g.edge(eid).tgt)}
        rv = {v for eid in right_e for v in
              (g.edge(eid).src, g.edge(eid).tgt)}
        # spread uncovered vertices over both sides
        for v in g.vertices:
            if v not in lv and v not in rv:
                lv.add(v)
                rv.add(v)
        yield (sorted(lv), sorted(left_e)), (sorted(rv), sorted(right_e))


COVER_GRAPHS = [
    standard_digraph("interval"),
    standard_digraph("linear", 2),
    standard_digraph("linear", 3),
    standard_digraph("cyclic", 2),
    standard_digraph("cyclic", 3),
    standard_digraph("bouquet", 2),
    Digraph(["a", "b", "c"], [("e", "a", "b"), ("f", "a", "c"),
                              ("l", "b", "b")]),
]


@pytest.mark.parametrize("cat", FIXTURE_CATS,
                         ids=["arrow", "z2", "z3", "s3", "chain3"])
def test_closed_sheaf_on_generated_covers(cat):
    for g in COVER_GRAPHS:
        for left, right in graph_covers(g):
            cover = make_closed_cover(g, left, right)
            verdict = check_closed_sheaf(cat, cover)
            assert verdict.ok, (g.vertices, left, right, verdict.witness)


def test_sheaf_verdict_sizes():
    g = standard_digraph("linear", 2)
    cover = make_closed_cover(g, (["0", "1"], ["e0"]), (["1", "2"], ["e1"]))
    v = check_closed_sheaf(symmetric_group_category(3), cover)
    assert (v.total, v.left, v.right, v.intersection) == (36, 6, 6, 1)
    assert v.fiber_product == 36
    assert v.ok


def test_exit_path_limit_matches_on_exotic_graph():
    g = Digraph(["a", "b"], [("e", "a", "b"), ("f", "b", "a"),
                             ("l", "a", "a")])
    for cat in FIXTURE_CATS:
        assert [r.key() for r in enumerate_reps(cat, g)] == \
            [r.key() for r in rep_via_exit_limit(cat, g)]
