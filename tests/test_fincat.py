import ast
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from quivercalc.digraph import (ClosedCover, Digraph, QuivercalcError,
                                disjoint_union, exit_path, make_closed_cover,
                                standard_digraph)
from quivercalc.emm import make_excision_site
from quivercalc.fincat import (BadComposite, FinCat, Functor, Incomposable,
                               MissingIdentity, NotAssociative, Representation,
                               chain_poset_category, check_closed_sheaf,
                               compile_pullback, compose_along_path,
                               cyclic_group_category, enumerate_reps,
                               limit_sections, monoid_category, poset_category,
                               pullback_rep, rep_tuples, rep_via_exit_limit,
                               symmetric_group_category, validate_fincat,
                               walking_arrow_category, _generators)
from quivercalc.quiver import Path, QuiverMor, enumerate_quiver_mors

import string_oracle as oracle
from test_hochschild import shuffled

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
    with pytest.raises(MissingIdentity):
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


def test_object_without_identity():
    c = FinCat(["x", "y"], [("e", "x", "x"), ("u", "y", "y")], {"x": "e"},
               {("e", "e"): "e", ("u", "u"): "u"})
    with pytest.raises(MissingIdentity, match="'y' has no identity"):
        validate_fincat(c)


def test_identity_not_an_endomorphism():
    c = FinCat(["x", "y"], [("e", "x", "x"), ("u", "y", "y"), ("f", "x", "y")],
               {"x": "f", "y": "u"}, {})
    with pytest.raises(MissingIdentity,
                       match="identity of 'x' is not an endomorphism"):
        validate_fincat(c)


def test_table_entry_for_non_composable_pair():
    arrow = walking_arrow_category()
    c = FinCat(arrow.objects, arrow.morphisms, arrow.identities,
               {**arrow.table, ("le:0:1", "le:0:1"): "le:0:1"})
    with pytest.raises(BadComposite,
                       match=r"non-composable pair \('le:0:1', 'le:0:1'\)"):
        validate_fincat(c)


def test_composite_with_wrong_endpoints():
    arrow = walking_arrow_category()
    c = FinCat(arrow.objects, arrow.morphisms, arrow.identities,
               {**arrow.table, ("le:1:1", "le:0:1"): "le:1:1"})
    with pytest.raises(BadComposite,
                       match="'le:1:1'∘'le:0:1' = 'le:1:1' has the wrong endpoints"):
        validate_fincat(c)


# --- validation against the exhaustive oracle ----------------------------------


def exhaustive_validate(c: FinCat) -> None:
    """The laws checked over every triple of morphism names, as
    validate_fincat did before it used Light's test: O(M³) lookups."""
    for x in c.objects:
        if x not in c.identities:
            raise MissingIdentity(f"object {x!r} has no identity")
        i = c.mor(c.identity(x))
        if (i.src, i.tgt) != (x, x):
            raise MissingIdentity(f"identity of {x!r} is not an endomorphism of it")

    for (g, f), h in c.table.items():
        if c.tgt(f) != c.src(g):
            raise BadComposite(f"table entry for non-composable pair ({g!r}, {f!r})")
        hm = c.mor(h)
        if (hm.src, hm.tgt) != (c.src(f), c.tgt(g)):
            raise BadComposite(f"{g!r}∘{f!r} = {h!r} has the wrong endpoints")
    for g in c.morphisms:
        for f in c.morphisms:
            if f.tgt == g.src and (g.mid, f.mid) not in c.table:
                raise BadComposite(f"missing composite {g.mid!r}∘{f.mid!r}")

    for f in c.morphisms:
        if c.comp(c.identity(f.tgt), f.mid) != f.mid:
            raise MissingIdentity(f"id∘{f.mid!r} differs from {f.mid!r}")
        if c.comp(f.mid, c.identity(f.src)) != f.mid:
            raise MissingIdentity(f"{f.mid!r}∘id differs from {f.mid!r}")

    for h in c.morphisms:
        for g in c.morphisms:
            if h.tgt != g.src:
                continue
            gh = c.comp(g.mid, h.mid)
            for f in c.morphisms:
                if g.tgt != f.src:
                    continue
                if c.comp(c.comp(f.mid, g.mid), h.mid) != c.comp(f.mid, gh):
                    raise NotAssociative(f"({f.mid!r}, {g.mid!r}, {h.mid!r})")


def zero_product_monoid(k: int) -> FinCat:
    """1, z and a1..ak with every product of non-units equal to z: every
    non-unit is a generator, the worst case of Light's test."""
    els = ["1", "z"] + [f"a{i}" for i in range(1, k + 1)]
    table = {(a, b): b if a == "1" else a if b == "1" else "z"
             for a in els for b in els}
    return monoid_category(els, table, "1")


CORRUPTIBLE = [symmetric_group_category(3), symmetric_group_category(4),
               walking_arrow_category(), zero_product_monoid(4)] + \
    [cyclic_group_category(n) for n in (1, 2, 5, 6)] + \
    [chain_poset_category(n) for n in (2, 3, 4)]


@st.composite
def corrupted_tables(draw):
    """A valid table with a few entries or identities changed, dropped or
    added.  Most changes keep a composite in its hom-set, so the table
    stays well-typed and the later checks get reached."""
    base = draw(st.sampled_from(CORRUPTIBLE))
    mids = [m.mid for m in base.morphisms]
    ids, table = dict(base.identities), dict(base.table)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["hom"] * 6 + ["any", "drop", "add",
                                                    "identity", "unset"]))
        g, f = draw(st.sampled_from(sorted(table))) if table else (mids[0],) * 2
        if kind == "hom":
            # an added entry may be non-composable, with an empty hom-set
            table[(g, f)] = draw(st.sampled_from(
                base.hom(base.src(f), base.tgt(g)) or mids))
        elif kind == "any":
            table[(g, f)] = draw(st.sampled_from(mids))
        elif kind == "drop":
            table.pop((g, f), None)
        elif kind == "add":
            pair = (draw(st.sampled_from(mids)), draw(st.sampled_from(mids)))
            table[pair] = draw(st.sampled_from(mids))
        elif kind == "identity":
            ids[draw(st.sampled_from(base.objects))] = draw(st.sampled_from(mids))
        else:
            ids.pop(draw(st.sampled_from(base.objects)), None)
    return FinCat(base.objects, base.morphisms, ids, table)


def raised(check, c):
    try:
        check(c)
    except QuivercalcError as e:
        return e
    return None


@settings(max_examples=300, deadline=None)
@given(corrupted_tables())
@example(FinCat(["*"], [("e", "*", "*"), ("a", "*", "*"), ("b", "*", "*")],
                {"*": "e"},
                {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
                 ("a", "e"): "a", ("b", "e"): "b", ("a", "a"): "b",
                 ("a", "b"): "e", ("b", "a"): "a", ("b", "b"): "a"}))
def test_validation_agrees_with_the_exhaustive_oracle(c):
    # validate_fincat scans table entries in declaration order, (g, f) by
    # index; the oracle scans the table dict, so it gets the entries sorted
    got = raised(validate_fincat, c)
    want = raised(exhaustive_validate, FinCat(
        c.objects, c.morphisms, c.identities,
        dict(sorted(c.table.items(), key=lambda kv: (
            c.morphism_index(kv[0][0]), c.morphism_index(kv[0][1]))))))
    assert type(got) is type(want)
    if isinstance(got, NotAssociative):
        f, g, h = ast.literal_eval(str(got))
        assert c.tgt(h) == c.src(g) and c.tgt(g) == c.src(f)
        assert c.comp(c.comp(f, g), h) != c.comp(f, c.comp(g, h))
    elif got is not None:
        assert str(got) == str(want)


def test_generating_sets():
    s3 = symmetric_group_category(3)
    assert [s3.morphisms[g].mid for g in _generators(s3.int_table())] == \
        ["p021", "p102"]
    # every non-unit of a zero-product monoid is a generator
    c = zero_product_monoid(12)
    assert len(_generators(c.int_table())) == 13
    validate_fincat(c)
    broken = FinCat(c.objects, c.morphisms, c.identities,
                    {**c.table, ("z", "a3"): "a3"})   # (a1a1)a3 != a1(a1a3)
    assert type(raised(validate_fincat, broken)) is NotAssociative
    assert type(raised(exhaustive_validate, broken)) is NotAssociative


def test_tables_are_read_only():
    # the compiled table must not go stale behind validate_fincat's back
    c = cyclic_group_category(3)
    validate_fincat(c)
    with pytest.raises(TypeError):
        c.table[("g1", "g1")] = "g1"
    with pytest.raises(TypeError):
        c.identities["*"] = "g1"
    assert c.comp("g1", "g1") == "g2"


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


def test_cover_pieces_must_be_subgraphs():
    g = standard_digraph("interval")
    flipped = Digraph(["0", "1"], [("e0", "1", "0")])
    for left, right in [(flipped, g), (g, standard_digraph("linear", 2))]:
        with pytest.raises(QuivercalcError, match="not a subgraph"):
            ClosedCover(g, left, right)


# The witnesses of a failed gluing, on covers whose pieces do not cover.  A
# third witness of the string code, "image escapes the fiber product", needs
# a restriction pair that disagrees on the intersection, which restrictions
# of one representation to two subgraphs never do.


def test_sheaf_witness_restriction_not_injective():
    g = standard_digraph("interval")
    cover = ClosedCover(g, g.subgraph(["0", "1"], []), g.subgraph(["0"], []))
    c2 = cyclic_group_category(2)
    v = check_closed_sheaf(c2, cover)
    assert not v.ok
    assert v.witness == "restriction not injective at Rep(0=*, 1=* | e0=g1)"
    assert v == oracle.check_closed_sheaf(c2, cover)


def test_sheaf_witness_unglued_compatible_pair():
    g = standard_digraph("interval")
    cover = ClosedCover(g, g.subgraph(["0"], []), g.subgraph(["1"], []))
    arrow = walking_arrow_category()
    v = check_closed_sheaf(arrow, cover)
    assert (v.ok, v.total, v.left, v.right, v.fiber_product) == (False, 3, 2, 2, 4)
    assert v.witness == "unglued compatible pair: ((('1',), ()), (('0',), ()))"
    assert v == oracle.check_closed_sheaf(arrow, cover)


def test_sheaf_verdicts_match_the_string_oracle_on_partial_covers():
    rng = random.Random(5)
    cats = FIXTURE_CATS[:3] + [chain_poset_category(3), shuffled(FIXTURE_CATS[0], 1)]

    def piece(g):
        es = [e for e in g.edges if rng.random() < 0.5]
        vs = {v for e in es for v in (e.src, e.tgt)} | \
            {v for v in g.vertices if rng.random() < 0.5}
        return g.subgraph(sorted(vs), [e.eid for e in es])

    witnesses = set()
    for _ in range(300):
        g = rng.choice(COVER_GRAPHS[:6])
        cat = rng.choice(cats)
        cover = ClosedCover(g, piece(g), piece(g))
        v = check_closed_sheaf(cat, cover)
        assert v == oracle.check_closed_sheaf(cat, cover)
        if not v.ok:
            witnesses.add(v.witness.split(" at ")[0].split(":")[0])
    assert witnesses == {"restriction not injective", "unglued compatible pair"}


# --- representations as index tuples ----------------------------------------

TUPLE_GRAPHS = [
    standard_digraph("point"),
    standard_digraph("linear", 2),
    standard_digraph("cyclic", 2),
    standard_digraph("bouquet", 2),
    Digraph(["a", "b"], [("e", "a", "b"), ("f", "b", "a"), ("l", "a", "a")]),
    Digraph([], []),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rep_tuples_are_sorted_in_enumerate_reps_order(seed):
    for base in FIXTURE_CATS:
        cat = shuffled(base, seed) if seed else base
        for g in TUPLE_GRAPHS:
            xs = rep_tuples(cat, g)
            assert xs == sorted(xs)
            assert [Representation.from_indices(cat, g, x).key() for x in xs] == \
                [r.key() for r in rep_via_exit_limit(cat, g)]
            assert [r.indices() for r in enumerate_reps(cat, g)] == xs


def _pullback_pool():
    graphs = [standard_digraph("point"), standard_digraph("interval"),
              standard_digraph("linear", 2), standard_digraph("cyclic", 2),
              standard_digraph("bouquet", 1), standard_digraph("bouquet", 2)]
    pool = []
    for a in graphs:
        for b in graphs:
            pool.extend(enumerate_quiver_mors(a, b, 2)[0])
    branched = Digraph(["a", "b", "c"], [("e", "a", "b"), ("f", "a", "c")])
    for g, cuts in [(standard_digraph("cyclic", 2), ["e0"]),
                    (standard_digraph("bouquet", 2), ["e0", "e1"]),
                    (branched, ["e"])]:
        site = make_excision_site(g, cuts)
        pool.extend(site.face_maps())
        pool.extend([site.refinement(0), site.refinement(1)])
    pool.extend(make_excision_site("circle").face_maps())
    return pool


PULLBACK_POOL = _pullback_pool()
PULLBACK_CATS = [shuffled(c, seed) if seed else c
                 for c in (walking_arrow_category(), cyclic_group_category(3),
                           symmetric_group_category(3), chain_poset_category(3))
                 for seed in range(3)]
_TARGET_REPS: dict = {}


@settings(max_examples=300, deadline=None)
@given(cat=st.sampled_from(PULLBACK_CATS), mor=st.sampled_from(PULLBACK_POOL),
       pick=st.integers(0, 10**9), offset=st.integers(0, 3))
def test_compiled_pullback_matches_the_string_oracle(cat, mor, pick, offset):
    key = (id(cat), mor.target)
    if key not in _TARGET_REPS:
        _TARGET_REPS[key] = rep_tuples(cat, mor.target)
    xs = _TARGET_REPS[key]
    if not xs:
        return
    rep = Representation.from_indices(cat, mor.target, xs[pick % len(xs)])
    want = oracle.pullback_rep(mor, rep)
    assert pullback_rep(mor, rep) == want
    padded = (len(cat.objects),) * offset + rep.indices()
    assert compile_pullback(cat, mor, offset)(padded) == want.indices()
    for e in mor.source.edges:
        path = mor.edge_paths[e.eid]
        assert compose_along_path(rep, path) == oracle.compose_along_path(rep, path)


def without_composite(cat, g, f):
    """cat with the table entry for g∘f deleted (so it fails validation)."""
    table = dict(cat.table)
    del table[(g, f)]
    return FinCat(cat.objects, cat.morphisms, cat.identities, table)


def test_missing_composite_raises_and_is_never_indexed():
    broken = without_composite(walking_arrow_category(), "le:1:1", "le:0:1")
    b, g = standard_digraph("linear", 2), standard_digraph("interval")
    f = QuiverMor(g, b, {"0": "0", "1": "2"}, {"e0": Path(b, "0", ("e0", "e1"))})
    rep = Representation(broken, b, {"0": "0", "1": "1", "2": "1"},
                         {"e0": "le:0:1", "e1": "le:1:1"})
    for pull in (pullback_rep, oracle.pullback_rep):
        with pytest.raises(BadComposite, match="'le:1:1' after 'le:0:1'"):
            pull(f, rep)
    with pytest.raises(BadComposite):
        compose_along_path(rep, Path(b, "0", ("e0", "e1")))
    # an identity missing from the table: collapsing an edge needs it
    no_id = FinCat(["0", "1"], [("i0", "0", "0"), ("a", "0", "1")],
                   {"0": "i0"}, {("i0", "i0"): "i0", ("a", "i0"): "a"})
    pt = standard_digraph("point")
    collapse = QuiverMor(g, pt, {"0": "0", "1": "0"}, {"e0": Path.empty(pt, "0")})
    rep = Representation(no_id, pt, {"0": "1"}, {})
    for pull in (pullback_rep, oracle.pullback_rep):
        with pytest.raises(MissingIdentity, match="object '1' has no identity"):
            pull(collapse, rep)
