import ast
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quivercalc.digraph import (ClosedCover, Digraph, QuivercalcError,
                                disjoint_union, make_closed_cover,
                                standard_digraph)
from quivercalc import fincat
from quivercalc.emm import make_excision_site
from quivercalc.fincat import (BadComposite, FinCat, Functor, Incomposable,
                               MissingIdentity, NotAssociative, Representation,
                               chain_poset_category, check_closed_sheaf,
                               compile_pullback, cyclic_group_category,
                               enumerate_reps, exit_path, index_program,
                               limit_sections, monoid_category, path_steps,
                               poset_category, pullback_rep, rep_count,
                               rep_tuples, rep_via_exit_limit,
                               symmetric_group_category, validate_fincat,
                               walking_arrow_category, _generators)
from quivercalc.quiver import Path, QuiverMor, enumerate_quiver_mors

import string_oracle as oracle
from generator_oracle import two_sided_generators
from random_categories import concrete_categories, concrete_category
import test_acceptance
from test_acceptance import h_colourings, hom_size_matrix
from test_hochschild import shuffled
from tests.conftest import FIXTURES, triples

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
    c = FinCat(["x"], [("f", "x", "x")], {"x": "f"}, [("f", "f", "f")])
    validate_fincat(c)  # f is a perfectly fine identity
    bad = FinCat(["x"], [("f", "x", "x"), ("g", "x", "x")], {"x": "f"},
                 [("f", "f", "f"), ("f", "g", "g"), ("g", "f", "f"),
                  ("g", "g", "g")])
    with pytest.raises(MissingIdentity):
        validate_fincat(bad)  # f absorbs g on one side


def test_bad_composite_detected():
    tbl = [("e", "e", "e"), ("e", "f", "f"), ("f", "e", "f")]
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
               [("e", "e", "e"), ("e", "g", "g"), ("g", "e", "g")])
    with pytest.raises(BadComposite):
        validate_fincat(c)  # g∘g missing


REJECTED = [
    (["x", "x"], [], {}, [], "duplicate object names"),
    (["x"], [("e", "x", "x"), ("e", "x", "x")], {}, [],
     "duplicate morphism names"),
    (["x"], [("e", "x", "x"), ("f", "x", "y")], {}, [],
     "morphism 'f' has undeclared endpoints"),
    (["x"], [("e", "x", "x")], {"y": "e"}, [],
     "identity for undeclared object 'y'"),
    (["x"], [("e", "x", "x")], {"x": "i"}, [],
     "identity 'i' is not a declared morphism"),
    (["x"], [("e", "x", "x")], {"x": "e"}, [("e", "e", "k")],
     "composition table mentions unknown 'k'"),
    (["x"], [("e", "x", "x")], {"x": "e"}, [("e", "e", "e"), ("e", "k", "j")],
     "composition table mentions unknown 'k'"),
    (["x"], [("e", "x", "x")], {"x": "e"}, [("j", "k", "e")],
     "composition table mentions unknown 'j'"),
    # three one-letter names in a string, or three keys, would unpack
    (["x"], [("e", "x", "x"), ("a", "x", "x")], {"x": "e"},
     ["eee", "eaa", "aea", "aae"], "compose entry 0 is not a [g, f, h] triple"),
    (["x"], [("e", "x", "x"), ("a", "x", "x"), ("b", "x", "x")], {"x": "e"},
     [("e", "e", "e"), ["e", "a", "a"], {"e": 0, "a": 1, "b": 2}],
     "compose entry 2 is not a [g, f, h] triple"),
]


@pytest.mark.parametrize("objects,morphisms,ids,table,message", REJECTED)
def test_constructor_rejects_unresolved_names(objects, morphisms, ids, table,
                                              message):
    with pytest.raises(QuivercalcError) as e:
        FinCat(objects, morphisms, ids, table)
    assert str(e.value) == message


def test_object_without_identity():
    c = FinCat(["x", "y"], [("e", "x", "x"), ("u", "y", "y")], {"x": "e"},
               [("e", "e", "e"), ("u", "u", "u")])
    with pytest.raises(MissingIdentity, match="'y' has no identity"):
        validate_fincat(c)


def test_identity_not_an_endomorphism():
    c = FinCat(["x", "y"], [("e", "x", "x"), ("u", "y", "y"), ("f", "x", "y")],
               {"x": "f", "y": "u"}, [])
    with pytest.raises(MissingIdentity,
                       match="identity of 'x' is not an endomorphism"):
        validate_fincat(c)


def test_table_entry_for_non_composable_pair():
    arrow = walking_arrow_category()
    c = FinCat(arrow.objects, arrow.morphisms, arrow.identities,
               triples({**arrow.table, ("le:0:1", "le:0:1"): "le:0:1"}))
    with pytest.raises(BadComposite,
                       match=r"non-composable pair \('le:0:1', 'le:0:1'\)"):
        validate_fincat(c)


def test_composite_with_wrong_endpoints():
    arrow = walking_arrow_category()
    c = FinCat(arrow.objects, arrow.morphisms, arrow.identities,
               triples({**arrow.table, ("le:1:1", "le:0:1"): "le:1:1"}))
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

    table = c.table
    for (g, f), h in table.items():
        if c.tgt(f) != c.src(g):
            raise BadComposite(f"table entry for non-composable pair ({g!r}, {f!r})")
        hm = c.mor(h)
        if (hm.src, hm.tgt) != (c.src(f), c.tgt(g)):
            raise BadComposite(f"{g!r}∘{f!r} = {h!r} has the wrong endpoints")
    for g in c.morphisms:
        for f in c.morphisms:
            if f.tgt == g.src and (g.mid, f.mid) not in table:
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
    stays well-typed and the later checks get reached.  The valid table is
    a fixed one or a random concrete category with shuffled names and
    declaration orders."""
    base = draw(st.one_of(
        st.sampled_from(CORRUPTIBLE),
        st.builds(shuffled, concrete_categories(), st.integers(0, 2**16))))
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
    return FinCat(base.objects, base.morphisms, ids, triples(table))


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
                [("e", "e", "e"), ("e", "a", "a"), ("e", "b", "b"),
                 ("a", "e", "a"), ("b", "e", "b"), ("a", "a", "b"),
                 ("a", "b", "e"), ("b", "a", "a"), ("b", "b", "a")]))
def test_validation_agrees_with_the_exhaustive_oracle(c):
    # validate_fincat scans table entries in declaration order, (g, f) by
    # index; the oracle scans the table dict, so it gets the entries sorted
    got = raised(validate_fincat, c)
    want = raised(exhaustive_validate, FinCat(
        c.objects, c.morphisms, c.identities,
        triples(dict(sorted(c.table.items(), key=lambda kv: (
            c.morphism_index(kv[0][0]), c.morphism_index(kv[0][1])))))))
    assert type(got) is type(want)
    if isinstance(got, NotAssociative):
        f, g, h = ast.literal_eval(str(got))
        assert c.tgt(h) == c.src(g) and c.tgt(g) == c.src(f)
        assert c.comp(c.comp(f, g), h) != c.comp(f, c.comp(g, h))
    elif got is not None:
        assert str(got) == str(want)


def test_generating_sets():
    s3 = symmetric_group_category(3)
    assert [s3.morphisms[g].mid for g in _generators(s3.int_table)] == \
        ["p021", "p102"]
    # every non-unit of a zero-product monoid is a generator
    c = zero_product_monoid(12)
    assert len(_generators(c.int_table)) == 13
    validate_fincat(c)
    broken = FinCat(c.objects, c.morphisms, c.identities,
                    triples({**c.table, ("z", "a3"): "a3"}))   # (a1a1)a3 != a1(a1a3)
    assert type(raised(validate_fincat, broken)) is NotAssociative
    assert type(raised(exhaustive_validate, broken)) is NotAssociative


def test_generators_match_the_two_sided_oracle():
    # on an associative table the left closure reaches what the two-sided
    # closure reaches at every step, so the greedy picks the same morphisms
    for c in ([symmetric_group_category(n) for n in range(3, 7)]
              + [chain_poset_category(n) for n in (1, 2, 5, 12)]
              + [zero_product_monoid(12)] + CORRUPTIBLE):
        assert _generators(c.int_table) == two_sided_generators(c.int_table), c


def binary_closure(c: FinCat, mids) -> set[str]:
    """mids and the identities, closed under composition, by name."""
    have = set(mids) | set(c.identities.values())
    while True:
        more = {c.comp(g, f) for g in have for f in have
                if c.tgt(f) == c.src(g)} - have
        if not more:
            return have
        have |= more


@settings(max_examples=300, deadline=None)
@given(corrupted_tables())
def test_generators_generate_every_table_that_reaches_lights_test(c):
    # Light's test is reached when the identities, entries and neutrality
    # hold, i.e. when the only fault, if any, is associativity
    assume(type(raised(exhaustive_validate, c)) in (type(None), NotAssociative))
    gens = _generators(c.int_table)
    assert binary_closure(c, [c.morphisms[g].mid for g in gens]) == \
        {m.mid for m in c.morphisms}
    if raised(validate_fincat, c) is None:
        assert gens == two_sided_generators(c.int_table) == c.generators


def test_tables_are_read_only():
    # the compiled table must not go stale behind validate_fincat's back
    c = cyclic_group_category(3)
    validate_fincat(c)
    with pytest.raises(TypeError):
        c.table[("g1", "g1")] = "g1"
    with pytest.raises(TypeError):
        c.identities["*"] = "g1"
    with pytest.raises(TypeError):
        c.int_table.comp[1][1] = 1
    assert c.comp("g1", "g1") == "g2"


def _last_row_fault(c: FinCat, kind: str) -> FinCat:
    """c with one fault in the row of its last morphism g, an endomorphism:
    g∘f dropped for the last f into src g (a gap), g∘f set to g (the wrong
    source) or to the identity of src f (the wrong target) for the last
    such f that is no endomorphism, or an entry (g, f) added for the first
    f that ends elsewhere (a stray)."""
    g = c.morphisms[-1]
    into = [f for f in c.morphisms if f.tgt == g.src]
    table = dict(c.table)
    if kind == "gap":
        del table[(g.mid, into[-1].mid)]
    elif kind in ("source", "target"):
        f = [f for f in into if f.src != f.tgt][-1]
        table[(g.mid, f.mid)] = g.mid if kind == "source" else c.identity(f.src)
    else:
        table[(g.mid, next(f.mid for f in c.morphisms if f.tgt != g.src))] = g.mid
    return FinCat(c.objects, c.morphisms, c.identities, triples(table))


@pytest.mark.parametrize("cat,kind,message", [
    (symmetric_group_category(3), "gap", "missing composite 'p210'∘'p210'"),
    (zero_product_monoid(3), "gap", "missing composite 'a3'∘'a3'"),
    (chain_poset_category(4), "gap", "missing composite 'le:3:3'∘'le:3:3'"),
    (walking_arrow_category(), "source",
     "'le:1:1'∘'le:0:1' = 'le:1:1' has the wrong endpoints"),
    (chain_poset_category(4), "source",
     "'le:3:3'∘'le:2:3' = 'le:3:3' has the wrong endpoints"),
    (walking_arrow_category(), "target",
     "'le:1:1'∘'le:0:1' = 'le:0:0' has the wrong endpoints"),
    (chain_poset_category(4), "target",
     "'le:3:3'∘'le:2:3' = 'le:2:2' has the wrong endpoints"),
    (chain_poset_category(4), "stray",
     "table entry for non-composable pair ('le:3:3', 'le:0:0')"),
    (walking_arrow_category(), "stray",
     "table entry for non-composable pair ('le:1:1', 'le:0:0')")])
def test_a_fault_in_the_last_row_is_named_as_the_oracle_names_it(cat, kind,
                                                                message):
    # the whole-row pass meets the fault in its last row, and the scans it
    # falls back to name it
    c = _last_row_fault(cat, kind)
    got, want = raised(validate_fincat, c), raised(exhaustive_validate, c)
    assert type(got) is type(want) is BadComposite
    assert str(got) == str(want) == message


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


@settings(max_examples=80, deadline=None)
@given(base=concrete_categories(), seed=st.integers(0, 2**16),
       g=st.sampled_from(SMALL_GRAPHS))
def test_the_exit_path_limit_gives_rep_tuples_on_random_tables(base, seed, g):
    """Same tuples, same order, on shuffled random concrete categories."""
    cat = shuffled(base, seed)
    assert [r.indices() for r in rep_via_exit_limit(cat, g)] == rep_tuples(cat, g)


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


def compose_along_path(rep, path):
    """The composite morphism a representation assigns to an edge path, run
    as a one-step index_program (the identity at the start for the empty
    path)."""
    c = rep.category
    run = index_program(c, (), [path_steps(rep.graph, path, 0)])
    (m,), = run([rep.indices()])
    return c.morphisms[m].mid


def test_compose_along_path():
    z4 = cyclic_group_category(4)
    g = standard_digraph("linear", 2)
    rep = Representation(z4, g, {"0": "*", "1": "*", "2": "*"},
                         {"e0": "g1", "e1": "g2"})
    p = Path(g, "0", ("e0", "e1"))
    for compose in (compose_along_path, oracle.compose_along_path):
        assert compose(rep, p) == "g3"
        assert compose(rep, Path.empty(g, "1")) == "g0"


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
                   [("is", "is", "is"), ("ia", "ia", "ia"), ("ib", "ib", "ib"),
                    ("f", "is", "f"), ("ia", "f", "f"),
                    ("g", "is", "g"), ("ib", "g", "g")])
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
    empty = FinCat([], [], {}, [])
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


def ambient_enumerations(monkeypatch):
    """Spy on fincat.rep_tuples: the graphs it has been called on."""
    graphs = []
    real = fincat.rep_tuples

    def spy(category, graph, limit=None):
        graphs.append(graph)
        return real(category, graph, limit)

    monkeypatch.setattr(fincat, "rep_tuples", spy)
    return graphs


@pytest.mark.parametrize("cat", FIXTURE_CATS,
                         ids=["arrow", "z2", "z3", "s3", "chain3"])
def test_closed_sheaf_on_generated_covers(cat, monkeypatch):
    """On every cover make_closed_cover builds, restriction to the union of
    the pieces is the identity: Rep(whole) is counted, never enumerated."""
    graphs = ambient_enumerations(monkeypatch)
    for g in COVER_GRAPHS:
        for left, right in graph_covers(g):
            graphs.clear()
            verdict = check_closed_sheaf(cat, make_closed_cover(g, left, right))
            assert verdict.ok, (g.vertices, left, right, verdict.witness)
            assert verdict.total == rep_count(cat, g)
            assert not any(h is g for h in graphs)


def test_a_covering_cover_that_fails_names_the_oracles_witness(monkeypatch):
    """Make the whole graph lose one representation, both from its
    enumeration and from its count: the covering cover then fails, the
    rows are enumerated for the witness, and the witness is the string
    oracle's, which sees the same loss."""
    g = standard_digraph("linear", 2)
    cover = make_closed_cover(g, (["0", "1"], ["e0"]), (["1", "2"], ["e1"]))
    cat = symmetric_group_category(3)
    real_tuples, real_count = fincat.rep_tuples, fincat.rep_count
    lost = real_tuples(cat, g)[7]

    def lossy(category, graph, limit=None):
        xs = real_tuples(category, graph, limit)
        return [x for x in xs if x != lost] if graph is g else xs

    monkeypatch.setattr(fincat, "rep_tuples", lossy)
    monkeypatch.setattr(fincat, "rep_count", lambda category, graph: (
        len(lossy(category, graph)) if graph is g else real_count(category, graph)))
    graphs = ambient_enumerations(monkeypatch)
    v = check_closed_sheaf(cat, cover)
    assert sum(h is g for h in graphs) == 1
    assert (v.ok, v.total, v.fiber_product) == (False, 35, 36)
    r = Representation.from_indices(cat, g, lost)
    pair = (r.restrict(cover.left).key(), r.restrict(cover.right).key())
    assert v.witness == f"unglued compatible pair: {pair}"
    assert v == oracle.check_closed_sheaf(cat, cover)


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


def random_piece(rng, g):
    """A subgraph of g: about half its edges, with their endpoints, and
    about half of its other vertices."""
    es = [e for e in g.edges if rng.random() < 0.5]
    vs = {v for e in es for v in (e.src, e.tgt)} | \
        {v for v in g.vertices if rng.random() < 0.5}
    return g.subgraph([v for v in g.vertices if v in vs], [e.eid for e in es])


def sheaf_witness_kind(v):
    return None if v.ok else v.witness.split(" at ")[0].split(":")[0]


@settings(max_examples=40, deadline=None)
@given(base=concrete_categories(max_objects=2, max_size=2),
       g=st.sampled_from(COVER_GRAPHS[:6]), seed=st.integers(0, 2**16))
def test_sheaf_verdicts_match_the_string_oracle_on_random_tables(base, g, seed):
    """Shuffled random tables, on genuine covers and on pieces that may
    leave a vertex or an edge uncovered."""
    rng = random.Random(seed)
    cat = shuffled(base, seed)
    covers = [make_closed_cover(g, left, right)
              for left, right in rng.sample(list(graph_covers(g)), 3)]
    covers += [ClosedCover(g, random_piece(rng, g), random_piece(rng, g))
               for _ in range(3)]
    for cover in covers:
        assert check_closed_sheaf(cat, cover) == oracle.check_closed_sheaf(cat, cover)


def test_both_sheaf_witnesses_arise_on_random_tables():
    """The count on the union of the pieces, and each witness scan behind
    it, run on random concrete categories, and agree with the oracle."""
    rng = random.Random(11)
    kinds = set()
    for _ in range(120):
        sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        functions = []
        for _ in range(rng.randint(1, 3)):
            x, y = rng.randrange(len(sizes)), rng.randrange(len(sizes))
            functions.append((x, y, tuple(rng.randrange(sizes[y])
                                          for _ in range(sizes[x]))))
        cat = shuffled(concrete_category(sizes, functions), rng.randrange(99))
        g = rng.choice(COVER_GRAPHS[:6])
        cover = ClosedCover(g, random_piece(rng, g), random_piece(rng, g))
        v = check_closed_sheaf(cat, cover)
        assert v == oracle.check_closed_sheaf(cat, cover)
        kinds.add(sheaf_witness_kind(v))
    assert kinds == {None, "restriction not injective", "unglued compatible pair"}


# Restriction picks positions with itemgetter, which returns a bare value for
# one position and cannot be built for none.  These covers give the
# intersection and the pieces 0, 1 and more positions.

TWO_POINTS = Digraph(["a", "b"], [])
LOOP = standard_digraph("bouquet", 1)
SMALL_PIECE_COVERS = {
    "empty-graph": (Digraph([], []), ([], []), ([], [])),
    "point-twice": (standard_digraph("point"), (["0"], []), (["0"], [])),
    "two-points-apart": (TWO_POINTS, (["a"], []), (["b"], [])),
    "interval-ends-apart": (standard_digraph("interval"), (["0"], []), (["1"], [])),
    "interval-empty-left": (standard_digraph("interval"), ([], []),
                            (["0", "1"], ["e0"])),
    "interval-one-end": (standard_digraph("interval"), (["0", "1"], ["e0"]),
                         (["0"], [])),
    "linear-at-the-middle": (standard_digraph("linear", 2), (["0", "1"], ["e0"]),
                             (["1", "2"], ["e1"])),
    "loop-and-its-vertex": (LOOP, (["0"], []), (["0"], ["e0"])),
    "loop-twice": (LOOP, (["0"], ["e0"]), (["0"], ["e0"])),
}


@pytest.mark.parametrize("name", SMALL_PIECE_COVERS)
def test_sheaf_verdicts_on_pieces_of_zero_and_one_positions(name):
    g, left, right = SMALL_PIECE_COVERS[name]
    cover = ClosedCover(g, g.subgraph(*left), g.subgraph(*right))
    for cat in FIXTURE_CATS:
        v = check_closed_sheaf(cat, cover)
        assert v == oracle.check_closed_sheaf(cat, cover), (name, cat)
        assert v.intersection == len(rep_tuples(cat, cover.intersection))


def test_small_piece_covers_give_every_restriction_width():
    def width(p):
        return len(p.vertices) + len(p.edges)
    pieces, meets = set(), set()
    for g, left, right in SMALL_PIECE_COVERS.values():
        cover = ClosedCover(g, g.subgraph(*left), g.subgraph(*right))
        pieces |= {min(width(cover.left), 2), min(width(cover.right), 2)}
        meets.add(min(width(cover.intersection), 2))
    assert pieces == meets == {0, 1, 2}


def test_sheaf_witnesses_on_pieces_of_zero_and_one_positions():
    z2, arrow = cyclic_group_category(2), walking_arrow_category()
    g, left, right = SMALL_PIECE_COVERS["interval-ends-apart"]
    cover = ClosedCover(g, g.subgraph(*left), g.subgraph(*right))
    v = check_closed_sheaf(arrow, cover)
    assert v.witness == "unglued compatible pair: ((('1',), ()), (('0',), ()))"
    g, left, right = SMALL_PIECE_COVERS["loop-and-its-vertex"]
    cover = ClosedCover(g, g.subgraph(*left), g.subgraph(*right))
    assert check_closed_sheaf(z2, cover).ok
    g, left, right = SMALL_PIECE_COVERS["interval-empty-left"]
    cover = ClosedCover(g, g.subgraph(*left), g.subgraph(*right))
    assert check_closed_sheaf(z2, cover).ok
    cover = ClosedCover(g, g.subgraph([], []), g.subgraph(["0", "1"], []))
    v = check_closed_sheaf(z2, cover)
    assert v.witness == "restriction not injective at Rep(0=*, 1=* | e0=g1)"
    assert (v.total, v.left, v.right, v.intersection, v.fiber_product) == \
        (2, 1, 1, 1, 1)


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


FIXTURE_GRAPHS = [Digraph.from_json(json.loads((FIXTURES / f"{name}.json")
                                              .read_text()))
                  for name in ("bouquet2", "interval", "linear2", "triangle")]


@settings(max_examples=80, deadline=None)
@given(cat=concrete_categories(),
       g=st.sampled_from(SMALL_GRAPHS + TUPLE_GRAPHS + FIXTURE_GRAPHS))
def test_rep_count_is_the_number_of_rep_tuples(cat, g):
    assert rep_count(cat, g) == len(rep_tuples(cat, g))


def test_rep_count_is_the_number_of_h_colourings():
    # the stage graphs of excision sites, too: their representations run
    # to millions, which rep_tuples could not build
    stages = [make_excision_site(standard_digraph("cyclic", 3),
                                 ["e0", "e1", "e2"]).level_graph(p)
              for p in (0, 1)]
    for cat in test_acceptance.FIXTURE_CATS.values():
        h, n = hom_size_matrix(cat), len(cat.objects)
        for g in SMALL_GRAPHS + TUPLE_GRAPHS + FIXTURE_GRAPHS + stages:
            assert rep_count(cat, g) == h_colourings(g, n, lambda e: h)


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
    assert compile_pullback(cat, mor, offset)([padded]) == [want.indices()]
    for e in mor.source.edges:
        path = mor.edge_paths[e.eid]
        assert compose_along_path(rep, path) == oracle.compose_along_path(rep, path)


def without_composite(cat, g, f):
    """cat with the table entry for g∘f deleted (so it fails validation)."""
    table = dict(cat.table)
    del table[(g, f)]
    return FinCat(cat.objects, cat.morphisms, cat.identities, triples(table))


def test_missing_composite_raises_and_is_never_indexed():
    """A table that has not passed validate_fincat is validated when a
    program is compiled: its first fault is raised before any row is read,
    so a -1 of the table is never used as an index.  The string oracle
    still meets the fault on the row."""
    broken = without_composite(walking_arrow_category(), "le:1:1", "le:0:1")
    b, g = standard_digraph("linear", 2), standard_digraph("interval")
    f = QuiverMor(g, b, {"0": "0", "1": "2"}, {"e0": Path(b, "0", ("e0", "e1"))})
    rep = Representation(broken, b, {"0": "0", "1": "1", "2": "1"},
                         {"e0": "le:0:1", "e1": "le:1:1"})
    for compile_ in (lambda: compile_pullback(broken, f, 0),
                     lambda: pullback_rep(f, rep),
                     lambda: index_program(broken, (), []),
                     lambda: compose_along_path(rep, Path(b, "0", ("e0", "e1")))):
        with pytest.raises(BadComposite) as e:
            compile_()
        assert str(e.value) == "missing composite 'le:1:1'∘'le:0:1'"
    assert broken.generators is None
    with pytest.raises(BadComposite, match="'le:1:1' after 'le:0:1'"):
        oracle.pullback_rep(f, rep)


def test_compiling_twice_validates_an_unvalidated_table_once(monkeypatch):
    calls = []
    monkeypatch.setattr(fincat, "validate_fincat",
                        lambda c: calls.append(c) or validate_fincat(c))
    cat = FinCat.from_json(symmetric_group_category(3).to_json())
    for mor in PULLBACK_POOL[:2]:
        compile_pullback(cat, mor, 0)
    index_program(cat, (), [])
    assert calls == [cat] and cat.generators is not None


# --- index programs map whole blocks of tuples ------------------------------


@settings(max_examples=60, deadline=None)
@given(cat=concrete_categories(max_objects=2, max_size=2),
       mor=st.sampled_from(PULLBACK_POOL), offset=st.integers(0, 2))
def test_a_block_of_every_representation_matches_the_string_oracle(cat, mor,
                                                                   offset):
    xs = rep_tuples(cat, mor.target)
    assume(len(xs) <= 3000)         # the oracle builds each row as strings
    want = [oracle.pullback_rep(
                mor, Representation.from_indices(cat, mor.target, x)).indices()
            for x in xs]
    pad = (len(cat.objects),) * offset
    assert compile_pullback(cat, mor, offset)([pad + x for x in xs]) == want


@settings(max_examples=60, deadline=None)
@given(cat=concrete_categories(max_objects=2, max_size=2),
       mor=st.sampled_from(PULLBACK_POOL), offset=st.integers(0, 2))
def test_a_validated_table_starts_at_the_first_edge_with_the_same_rows(cat, mor,
                                                                      offset):
    """A validated category's programs start each path at its first edge.
    A copy of the same table that has not passed validate_fincat is
    validated when its program is compiled, so its program starts at the
    first edge too, and both map every representation to the same row."""
    unvalidated = FinCat.from_json(cat.to_json())
    validate_fincat(cat)
    assert cat.generators is not None and unvalidated.generators is None
    xs = rep_tuples(cat, mor.target)
    assume(len(xs) <= 3000)
    block = [(len(cat.objects),) * offset + x for x in xs]
    program = compile_pullback(unvalidated, mor, offset)
    assert unvalidated.generators is not None
    assert compile_pullback(cat, mor, offset)(block) == program(block)


def test_an_empty_block_and_an_empty_program():
    s3 = symmetric_group_category(3)
    for mor in PULLBACK_POOL:
        assert compile_pullback(s3, mor, 0)([]) == []
    assert index_program(s3, (), [])([]) == []
    assert index_program(s3, (), [])([(), (0, 1)]) == [(), ()]
    into_point = QuiverMor(Digraph([], []), standard_digraph("point"), {}, {})
    assert compile_pullback(s3, into_point, 0)([(0,), (0,)]) == [(), ()]


def test_a_bad_row_in_the_middle_of_a_block_is_named():
    """A bad row of an unvalidated table is named when the program is
    compiled, before the block around it is read; the string oracle meets
    the same fault on that row alone."""
    broken = without_composite(walking_arrow_category(), "le:1:1", "le:0:1")
    b, g = standard_digraph("linear", 2), standard_digraph("interval")
    f = QuiverMor(g, b, {"0": "0", "1": "2"}, {"e0": Path(b, "0", ("e0", "e1"))})
    bad = Representation(broken, b, {"0": "0", "1": "1", "2": "1"},
                         {"e0": "le:0:1", "e1": "le:1:1"})
    with pytest.raises(BadComposite) as e:
        compile_pullback(broken, f, 0)
    assert str(e.value) == "missing composite 'le:1:1'∘'le:0:1'"
    with pytest.raises(BadComposite, match="'le:1:1' after 'le:0:1'"):
        oracle.pullback_rep(f, bad)
    for x in rep_tuples(broken, b):
        if x != bad.indices():
            oracle.pullback_rep(f, Representation.from_indices(broken, b, x))


def test_the_first_bad_row_of_a_column_is_named():
    """Of two gaps in a table, the one validate_fincat meets first is named,
    whichever was made first and whichever row of a block would meet it."""
    z3 = cyclic_group_category(3)
    b, g = standard_digraph("linear", 2), standard_digraph("interval")
    f = QuiverMor(g, b, {"0": "0", "1": "2"}, {"e0": Path(b, "0", ("e0", "e1"))})
    for first, second in (("g1", "g2"), ("g2", "g1")):
        broken = without_composite(without_composite(z3, first, first),
                                   second, second)
        with pytest.raises(BadComposite) as e:
            compile_pullback(broken, f, 0)
        assert str(e.value) == "missing composite 'g1'∘'g1'"


def test_a_missing_identity_in_the_middle_of_a_block_is_named():
    """An identity missing from an unvalidated table is named when the
    program is compiled; collapsing an edge needs it, and the string oracle
    meets it on the row that does."""
    no_id = FinCat(["0", "1"], [("i0", "0", "0"), ("a", "0", "1")],
                   {"0": "i0"}, [("i0", "i0", "i0"), ("a", "i0", "a")])
    g, pt = standard_digraph("interval"), standard_digraph("point")
    collapse = QuiverMor(g, pt, {"0": "0", "1": "0"}, {"e0": Path.empty(pt, "0")})
    rep = Representation(no_id, pt, {"0": "1"}, {})
    for pull in (lambda: compile_pullback(no_id, collapse, 0),
                 lambda: oracle.pullback_rep(collapse, rep)):
        with pytest.raises(MissingIdentity) as e:
            pull()
        assert str(e.value) == "object '1' has no identity"
    assert oracle.pullback_rep(
        collapse, Representation(no_id, pt, {"0": "0"}, {})).indices() == (0, 0, 0)


# --- the composition table is read as triples, in order ---------------------


def test_a_repeated_pair_keeps_its_last_entry():
    c = FinCat(["x"], [("e", "x", "x"), ("g", "x", "x")], {"x": "e"},
               [("e", "e", "e"), ("e", "g", "g"), ("g", "e", "g"),
                ("g", "g", "g"), ("g", "g", "e")])
    assert c.comp("g", "g") == "e"
    assert c.table == {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
                       ("g", "g"): "e"}
    validate_fincat(c)      # C2: the entry g∘g = g was overwritten
    data = c.to_json()
    data["compose"] = [["g", "g", "g"]] + data["compose"]
    assert FinCat.from_json(data).table == c.table


def test_an_overwritten_entry_must_still_resolve():
    data = cyclic_group_category(3).to_json()
    data["compose"] = [["g1", "g1", "zz"]] + data["compose"]
    with pytest.raises(QuivercalcError,
                       match="^composition table mentions unknown 'zz'$"):
        FinCat.from_json(data)


@pytest.mark.parametrize("bad", [["g1", "g1"], [["g1"], "g1", "g1"], 5,
                                 ["g1", "g1", 0]],
                         ids=["pair", "list-name", "number", "number-name"])
def test_a_malformed_entry_is_reported_before_an_unknown_name(bad):
    # the unknown name comes first in the file, the malformed entry last
    data = cyclic_group_category(3).to_json()
    data["compose"] = [["zz", "g1", "g1"]] + data["compose"] + [bad]
    n = len(data["compose"]) - 1
    with pytest.raises(QuivercalcError) as e:
        FinCat.from_json(data)
    assert str(e.value) == f"compose entry {n} is not a [g, f, h] triple"


@pytest.mark.parametrize("change,message", [
    ({"morphisms": "g1"},
     "morphisms must be a list of objects with 'id', 'src' and 'tgt'"),
    ({"morphisms": [{"id": "g0", "src": "*", "tgt": "*"}, "g1"]},
     "morphism entry 1 is not an object with 'id', 'src' and 'tgt'"),
    ({"morphisms": [{"id": "g0", "tgt": "*"}]}, "morphism entry 0 has no 'src'"),
    ({"ids": ["g0"]}, "'ids' must map objects to morphism names"),
    ({"ids": {"*": ["g0"]}}, "'ids' must map objects to morphism names"),
    ({"compose": {"g0": "g0"}}, "'compose' must be a list of [g, f, h] triples"),
], ids=["morphisms", "morphism-entry", "morphism-src", "ids-list", "ids-value",
        "compose"])
def test_category_json_errors_name_the_entry(change, message):
    data = {**cyclic_group_category(3).to_json(), **change}
    with pytest.raises(QuivercalcError) as e:
        FinCat.from_json(data)
    assert str(e.value) == message


def test_poset_error_does_not_depend_on_string_hashing():
    # relation fails transitivity at (a, b, c) and at (b, c, d); the first
    # in declaration order is named whatever the hash seed
    script = ("from quivercalc.fincat import poset_category\n"
              "poset_category(['a', 'b', 'c', 'd'],"
              " [('a', 'b'), ('b', 'c'), ('c', 'd')])\n")
    for seed in ("1", "4"):
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONHASHSEED": seed})
        assert out.stderr.strip().endswith(
            "QuivercalcError: relation not transitive at ('a', 'b', 'c')")


# --- every rejection names what is wrong -------------------------------------

ARROW, C3, I1 = (walking_arrow_category(), cyclic_group_category(3),
                 standard_digraph("interval"))
ARROW_IDS = {"le:0:0": "le:0:0", "le:1:1": "le:1:1"}
FINCAT_REJECTIONS = {
    "json-key": (lambda: FinCat.from_json({"objects": []}),
                 QuivercalcError, "category JSON needs 'morphisms'"),
    "object-names": (
        lambda: FinCat.from_json({"objects": "x", "morphisms": [], "ids": {},
                                  "compose": []}),
        QuivercalcError, "object names must be a list of strings"),
    "unknown-object": (lambda: ARROW.object_index("zz"), QuivercalcError,
                       "unknown object 'zz'"),
    "unknown-morphism": (lambda: ARROW.mor("zz"), QuivercalcError,
                         "unknown morphism 'zz'"),
    "incomposable": (lambda: ARROW.comp("le:0:1", "le:0:1"), Incomposable,
                     "'le:0:1' after 'le:0:1'"),
    "cyclic-group": (lambda: cyclic_group_category(0), QuivercalcError,
                     "the cyclic group C_n needs n >= 1, not 0"),
    "symmetric-group": (lambda: symmetric_group_category(7), QuivercalcError,
                        "symmetric groups are built for 1 <= n <= 6, not 7"),
    "poset": (lambda: poset_category(["a", "b", "c"], [("a", "b"), ("b", "c")]),
              QuivercalcError, "relation not transitive at ('a', 'b', 'c')"),
    "poset-undeclared": (
        lambda: poset_category(["a", "b"], [("a", "b"), ("b", "z"), ("y", "a")]),
        QuivercalcError, "related pair ('b', 'z') has an undeclared element"),
    "functor-object": (lambda: Functor(ARROW, ARROW, {"0": "0"}, {}),
                       QuivercalcError, "object '1' has no image"),
    "functor-unknown-object": (
        lambda: Functor(ARROW, ARROW, {"0": "zz", "1": "1"}, {}),
        QuivercalcError, "unknown object 'zz'"),
    "functor-morphism": (lambda: Functor(ARROW, ARROW, {"0": "0", "1": "1"}, {}),
                         QuivercalcError, "morphism 'le:0:0' has no image"),
    "functor-endpoints": (
        lambda: Functor(ARROW, ARROW, {"0": "0", "1": "1"},
                        {**ARROW_IDS, "le:0:1": "le:0:0"}),
        QuivercalcError, "image of 'le:0:1' has the wrong endpoints"),
    "functor-identity": (
        lambda: Functor(C3, C3, {"*": "*"}, {"g0": "g1", "g1": "g1", "g2": "g2"}),
        QuivercalcError, "identity of '*' not preserved"),
    "functor-composition": (
        lambda: Functor(C3, C3, {"*": "*"}, {"g0": "g0", "g1": "g1", "g2": "g1"}),
        QuivercalcError, "composition not preserved at ('g1', 'g1')"),
    "representation-endpoints": (
        lambda: Representation(ARROW, I1, {"0": "1", "1": "0"}, {"e0": "le:0:1"}),
        QuivercalcError,
        "label of edge 'e0' has endpoints ('0', '1'), expected ('1', '0')"),
    "representation-label": (
        lambda: Representation(ARROW, I1, {"0": "0"}, {}),
        QuivercalcError, "no label for vertex or edge '1'"),
    "pullback-graph": (
        lambda: pullback_rep(QuiverMor.identity(I1), enumerate_reps(
            ARROW, standard_digraph("point"))[0]),
        QuivercalcError, "representation lives on a different graph"),
}


@pytest.mark.parametrize("name", FINCAT_REJECTIONS)
def test_fincat_rejections_name_the_fault(name):
    build, error, message = FINCAT_REJECTIONS[name]
    with pytest.raises(error) as e:
        build()
    assert str(e.value) == message
