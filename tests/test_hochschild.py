import functools
import gc
import itertools
import json
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import quivercalc.fincat as fincat
from quivercalc.digraph import (QuivercalcError, lyndon_rotation,
                                standard_digraph)
from quivercalc.fincat import (BadComposite, FinCat, Functor, NotAssociative,
                               chain_poset_category, cyclic_group_category,
                               exit_path, monoid_category,
                               symmetric_group_category, validate_fincat,
                               walking_arrow_category)
from quivercalc.hochschild import (CyclicWord, HHTable, class_of_word,
                                   compute_hh, hh_map, power_endo, psi,
                                   trace_end, trace_obj)
from random_categories import concrete_categories, concrete_category
from union_find import UnionFind
from tests.conftest import FIXTURES, triples

GROUPS = [
    (cyclic_group_category(2), 2),
    (cyclic_group_category(3), 3),
    (cyclic_group_category(4), 4),
    (symmetric_group_category(3), 3),
    (symmetric_group_category(4), 5),
]

NON_GROUPS = [
    walking_arrow_category(),
    chain_poset_category(3),
    exit_path(standard_digraph("interval")),
    exit_path(standard_digraph("bouquet", 2)),
]


# --- two independent oracles -------------------------------------------------


def conjugacy_classes(cat):
    """For a one-object category whose table is a group: orbits of
    h g h^{-1}, found directly from the table."""
    els = [m.mid for m in cat.morphisms]
    unit = cat.identity(cat.objects[0])
    inverse = {}
    for g in els:
        for h in els:
            if cat.comp(g, h) == unit and cat.comp(h, g) == unit:
                inverse[g] = h
    assert len(inverse) == len(els), "not a group"
    classes = []
    seen = set()
    for g in els:
        if g in seen:
            continue
        orbit = {cat.comp(cat.comp(h, g), inverse[h]) for h in els}
        seen |= orbit
        classes.append(orbit)
    return classes


def naive_trace_classes(cat):
    """Fixpoint closure of the relation g∘f ~ f∘g on endomorphisms,
    re-scanning from scratch instead of union-find."""
    endos = cat.endomorphisms()
    cls = {e: i for i, e in enumerate(endos)}
    changed = True
    while changed:
        changed = False
        for f in cat.morphisms:
            for g_mid in cat.hom(f.tgt, f.src):
                a = cat.comp(g_mid, f.mid)
                b = cat.comp(f.mid, g_mid)
                if cls[a] != cls[b]:
                    lo, hi = sorted((cls[a], cls[b]))
                    for k, v in cls.items():
                        if v == hi:
                            cls[k] = lo
                    changed = True
    groups = {}
    for e, i in cls.items():
        groups.setdefault(i, set()).add(e)
    return list(groups.values())


@pytest.mark.parametrize("cat,expected", GROUPS,
                         ids=["z2", "z3", "z4", "s3", "s4"])
def test_group_counts_match_conjugacy(cat, expected):
    table = compute_hh(cat)
    conj = conjugacy_classes(cat)
    assert len(conj) == expected
    assert len(table) == expected
    assert sorted(map(frozenset, (c.members for c in table.classes))) == \
        sorted(map(frozenset, conj))


@pytest.mark.parametrize("cat", NON_GROUPS,
                         ids=["arrow", "chain3", "exit-interval", "exit-bouquet2"])
def test_counts_match_naive_closure(cat):
    table = compute_hh(cat)
    naive = naive_trace_classes(cat)
    assert sorted(map(frozenset, (c.members for c in table.classes))) == \
        sorted(map(frozenset, naive))


def test_gaunt_categories_have_one_class_per_object():
    # poset and exit-path categories have only identity endomorphisms
    for cat in NON_GROUPS:
        assert len(compute_hh(cat)) == len(cat.objects)


def string_sweep(category):
    """The union-find sweep over morphism names, as HHTable ran it before
    the category was compiled to indices: (representative, members) per
    class, in class order."""
    endos = category.endomorphisms()
    uf = UnionFind(endos)
    for f in category.morphisms:
        for g in category.hom(f.tgt, f.src):
            uf.union(category.comp(g, f.mid), category.comp(f.mid, g))
    groups = sorted(
        uf.classes().values(),
        key=lambda ms: min(category.morphism_index(m) for m in ms))
    out = []
    for members in groups:
        members = tuple(sorted(members, key=category.morphism_index))
        out.append((members[0], members))
    return out


def index_sweep(category):
    """The union-find sweep over every composable round trip, on indices,
    as HHTable ran it before it swept only the generators' rows.  It needs
    no validation: (representative, members) per class, in class order."""
    t = category.int_table
    src, tgt, comp, at = t.src, t.tgt, t.comp, t.at
    uf = UnionFind([m for m in range(len(comp)) if src[m] == tgt[m]])
    for f, row_f in enumerate(comp):
        for g in t.out[tgt[f]]:
            if tgt[g] == src[f]:
                uf.union(comp[g][at[f]], row_f[at[g]])
    names = [m.mid for m in category.morphisms]
    return [(names[ms[0]], tuple(names[m] for m in ms))
            for ms in sorted(map(sorted, uf.classes().values()))]


def classes(category):
    """compute_hh's classes as (representative, members), in class order."""
    return [(cls.rep, cls.members) for cls in compute_hh(category).classes]


def shuffled(cat, seed):
    """The same category with fresh names and shuffled declaration orders
    of objects, morphisms and table entries."""
    rng = random.Random(seed)
    objects, morphisms = list(cat.objects), list(cat.morphisms)
    entries = list(cat.table.items())
    for seq in (objects, morphisms, entries):
        rng.shuffle(seq)
    oname = {x: f"x{k}" for x, k in
             zip(objects, rng.sample(range(10 * len(objects)), len(objects)))}
    mname = {m.mid: f"m{k}" for m, k in
             zip(morphisms, rng.sample(range(10 * len(morphisms)), len(morphisms)))}
    return FinCat([oname[x] for x in objects],
                  [(mname[m.mid], oname[m.src], oname[m.tgt]) for m in morphisms],
                  {oname[x]: mname[i] for x, i in cat.identities.items()},
                  [(mname[g], mname[f], mname[h]) for (g, f), h in entries])


SWEPT = [symmetric_group_category(n) for n in (3, 4, 5)] + \
    [cyclic_group_category(n) for n in range(1, 13)] + \
    [chain_poset_category(n) for n in range(1, 7)]


SWEPT_IDS = [f"s{n}" for n in (3, 4, 5)] + \
    [f"c{n}" for n in range(1, 13)] + [f"chain{n}" for n in range(1, 7)]


@pytest.mark.parametrize("cat", SWEPT, ids=SWEPT_IDS)
def test_table_and_identities_read_back(cat):
    for seed in range(3):
        c = shuffled(cat, seed) if seed else cat
        entries = list(c.table.items())
        random.Random(seed).shuffle(entries)
        ids, table = dict(c.identities), dict(entries)
        again = FinCat(c.objects, c.morphisms, ids, triples(table))
        assert again.table == table
        assert again.identities == ids


@pytest.mark.parametrize("cat", SWEPT, ids=SWEPT_IDS)
def test_classes_match_the_string_sweep(cat):
    for seed in range(3):
        c = shuffled(cat, seed) if seed else cat
        validate_fincat(c)
        assert classes(c) == index_sweep(c) == string_sweep(c)


@functools.cache
def s6_category():
    return symmetric_group_category(6)


def test_s6_validates_and_has_eleven_classes():
    # 720 morphisms: the exhaustive check would take 720³ ≈ 3.7·10⁸ lookups
    s6 = s6_category()
    validate_fincat(s6)
    assert len(compute_hh(s6)) == 11    # p(6)


def transformation_monoid(n):
    """T_n: all n^n maps [n] -> [n] under composition, on one object."""
    maps = itertools.product(range(n), repeat=n)
    return concrete_category([n], [(0, 0, v) for v in maps], cap=n ** n)


def fixture_category(path):
    return FinCat.from_json(json.loads(path.read_text()))


FIXTURE_CATEGORIES = {
    f"fixture-{p.stem}": p for p in sorted(FIXTURES.glob("*.json"))
    if "compose" in json.loads(p.read_text())}
# the categories SWEPT lacks; S6 is swept on its own, since it is slow to build
UNSWEPT = {
    "s1": functools.partial(symmetric_group_category, 1),
    "s2": functools.partial(symmetric_group_category, 2),
    "t3": functools.partial(transformation_monoid, 3),
    "arrow": walking_arrow_category,
    **{name: functools.partial(fixture_category, p)
       for name, p in FIXTURE_CATEGORIES.items()},
}


@pytest.mark.parametrize("name", UNSWEPT)
def test_generator_sweep_equals_the_full_sweep(name):
    cat = UNSWEPT[name]()
    for seed in range(3):
        c = shuffled(cat, seed) if seed else cat
        assert classes(c) == index_sweep(c) == string_sweep(c)


def test_generator_sweep_equals_the_full_sweep_on_s6():
    assert classes(s6_category()) == index_sweep(s6_category())


def test_full_transformation_monoid_t3():
    t3 = transformation_monoid(3)
    assert len(t3.morphisms) == 27
    assert len(compute_hh(t3)) == 6


@settings(max_examples=200, deadline=None)
@given(concrete_categories(), st.integers(0, 2))
def test_generator_sweep_equals_the_full_sweep_on_random_categories(cat, seed):
    c = shuffled(cat, seed) if seed else cat
    assert classes(c) == index_sweep(c) == string_sweep(c)


def test_the_fixture_categories_are_all_swept():
    assert sorted(FIXTURE_CATEGORIES) == ["fixture-arrow", "fixture-chain3",
                                          "fixture-cyclic3", "fixture-s3"]


def test_compute_hh_validates_once(monkeypatch):
    calls = []
    monkeypatch.setattr(fincat, "validate_fincat",
                        lambda c: calls.append(c) or validate_fincat(c))
    fresh, checked = cyclic_group_category(4), cyclic_group_category(4)
    validate_fincat(checked)
    compute_hh(fresh), compute_hh(checked)
    assert calls == [fresh]
    assert fresh.generators == checked.generators == [1]


def test_non_associative_table_raises_not_associative():
    # e is neutral and the table complete, but (a·a)·b != a·(a·b); the full
    # sweep still answers (e~c, a, b), and a sweep of a's rows alone would
    # give four classes
    els = ["e", "a", "b", "c"]
    table = {("e", x): x for x in els} | {(x, "e"): x for x in els} | {
        ("a", "a"): "c", ("a", "b"): "c", ("a", "c"): "b",
        ("b", "a"): "c", ("b", "b"): "b", ("b", "c"): "e",
        ("c", "a"): "b", ("c", "b"): "c", ("c", "c"): "e"}
    c = monoid_category(els, table, "e")
    assert index_sweep(c) == [("e", ("e", "c")), ("a", ("a",)), ("b", ("b",))]
    with pytest.raises(NotAssociative) as e:
        compute_hh(c)
    assert str(e.value) == "('a', 'a', 'b')"
    assert c.generators is None and c.hh_table is None


def test_unvalidated_table_is_rejected():
    c = FinCat(["x"], [("e", "x", "x"), ("g", "x", "x")], {"x": "e"},
               [("e", "e", "e"), ("e", "g", "g"), ("g", "e", "g")])
    with pytest.raises(BadComposite):
        compute_hh(c)       # g∘g is missing


# --- table mechanics ---------------------------------------------------------


def test_class_representative_is_least_index():
    s3 = symmetric_group_category(3)
    table = compute_hh(s3)
    for cls in table.classes:
        idx = min(s3.morphism_index(m) for m in cls.members)
        assert s3.morphism_index(cls.rep) == idx


def test_class_of_rejects_non_endomorphisms():
    c = walking_arrow_category()
    table = compute_hh(c)
    with pytest.raises(QuivercalcError):
        table.class_of("le:0:1")


def test_cached_tables_share_identity():
    c = cyclic_group_category(3)
    t1 = compute_hh(c)
    t2 = compute_hh(c)
    assert t1 is t2
    a = t1.class_of("g1")
    b = t2.class_of("g1")
    assert a == b and hash(a) == hash(b)


def test_cached_table_is_dropped_with_its_category():
    c = cyclic_group_category(3)
    assert compute_hh(c).class_of("g1") == compute_hh(c).class_of("g1")
    alive = weakref.ref(c)
    del c
    gc.collect()
    assert alive() is None


def test_classes_from_equal_but_distinct_categories_do_not_mix():
    a = cyclic_group_category(3)
    b = cyclic_group_category(3)
    ca = compute_hh(a).class_of("g1")
    cb = compute_hh(b).class_of("g1")
    assert ca != cb  # table identity is part of class identity


# --- cyclic words ------------------------------------------------------------


def test_cyclic_word_validation():
    c = walking_arrow_category()
    CyclicWord(c, ["le:0:0"])
    with pytest.raises(QuivercalcError):
        CyclicWord(c, [])
    with pytest.raises(QuivercalcError):
        CyclicWord(c, ["le:0:1", "le:0:1"])  # endpoints do not chain


def test_cyclic_word_rotation_invariance():
    s3 = symmetric_group_category(3)
    w = CyclicWord(s3, ["p102", "p021", "p120"])
    for j in range(3):
        assert w.rotate(j) == w
        assert class_of_word(w.rotate(j)) == class_of_word(w)


def test_word_class_equals_composite_class():
    s3 = symmetric_group_category(3)
    table = compute_hh(s3)
    for word in itertools.product([m.mid for m in s3.morphisms], repeat=2):
        w = CyclicWord(s3, list(word))
        assert class_of_word(w) == table.class_of(w.composite())


def test_repeat_concatenates():
    z4 = cyclic_group_category(4)
    w = CyclicWord(z4, ["g1"])
    assert w.repeat(3).word == ("g1", "g1", "g1")
    assert w.repeat(3).composite() == "g3"


# --- power operators ----------------------------------------------------------


def test_power_endo():
    z4 = cyclic_group_category(4)
    assert power_endo(z4, "g1", 1) == "g1"
    assert power_endo(z4, "g1", 3) == "g3"
    assert power_endo(z4, "g3", 4) == "g0"


def looped_power(cat, endo, r):
    """r - 1 compositions, one factor at a time."""
    out = endo
    for _ in range(r - 1):
        out = cat.comp(endo, out)
    return out


@pytest.mark.parametrize("cat", [symmetric_group_category(3),
                                 cyclic_group_category(5)], ids=["s3", "c5"])
def test_power_endo_by_squaring_matches_the_loop(cat):
    for e in cat.endomorphisms():
        for r in range(1, 41):
            assert power_endo(cat, e, r) == looped_power(cat, e, r)


def test_power_endo_huge_exponent():
    c5 = cyclic_group_category(5)
    r = 10 ** 12 + 3        # = 3 mod 5
    assert power_endo(c5, "g1", r) == "g3"
    assert power_endo(c5, "g2", r) == "g1"


@pytest.mark.parametrize("cat", [c for c, _ in GROUPS] + NON_GROUPS)
def test_psi_composition_law(cat):
    for r in (1, 2, 3, 4):
        for s in (1, 2, 3, 4):
            for e in cat.endomorphisms():
                assert psi(cat, r, psi(cat, s, e)) == psi(cat, r * s, e)


def test_psi_well_defined_on_classes():
    # psi computed through any member of a class lands in one class
    s4 = symmetric_group_category(4)
    table = compute_hh(s4)
    for cls in table.classes:
        for r in (2, 3):
            images = {psi(s4, r, m) for m in cls.members}
            assert len(images) == 1
            assert psi(s4, r, cls) == images.pop()


def test_psi_accepts_words():
    z3 = cyclic_group_category(3)
    w = CyclicWord(z3, ["g1", "g1"])
    assert psi(z3, 2, w) == psi(z3, 2, "g2")


@pytest.mark.parametrize("cat,exponent", [(symmetric_group_category(3), 6),
                                          (cyclic_group_category(5), 5)],
                         ids=["s3", "c5"])
def test_psi_on_words_matches_the_repeat(cat, exponent):
    mids = [m.mid for m in cat.morphisms]
    big = 10 ** 12
    for word in itertools.chain(itertools.product(mids, repeat=1),
                                itertools.product(mids, repeat=2)):
        w = CyclicWord(cat, word)
        for r in range(1, 13):
            assert psi(cat, r, w) == class_of_word(w.repeat(r))
        # the exponent of the group divides big - small
        small = (big - 1) % exponent + 1
        assert psi(cat, big, w) == class_of_word(w.repeat(small))


def test_trace_fixed_by_psi():
    for cat in [c for c, _ in GROUPS] + NON_GROUPS:
        for x in cat.objects:
            t = trace_obj(cat, x)
            for r in range(1, 7):
                assert psi(cat, r, t) == t


def test_trace_relation_invariance():
    s3 = symmetric_group_category(3)
    for f in s3.morphisms:
        for g_mid in s3.hom(f.tgt, f.src):
            assert trace_end(s3, s3.comp(g_mid, f.mid)) == \
                trace_end(s3, s3.comp(f.mid, g_mid))


def test_psi_on_z_n_is_power_map():
    z6_elements = [f"g{i}" for i in range(6)]
    z6 = cyclic_group_category(6)
    table = compute_hh(z6)
    for i, e in enumerate(z6_elements):
        for r in (2, 3, 5):
            assert psi(z6, r, e) == table.class_of(f"g{(i * r) % 6}")


# --- pushforward along functors ------------------------------------------------


def test_hh_map_along_group_homomorphism():
    z2 = cyclic_group_category(2)
    z4 = cyclic_group_category(4)
    f = Functor(z2, z4, {"*": "*"}, {"g0": "g0", "g1": "g2"})
    t2, t4 = compute_hh(z2), compute_hh(z4)
    assert hh_map(f, t2.class_of("g1")) == t4.class_of("g2")
    assert hh_map(f, t2.class_of("g0")) == t4.class_of("g0")


def test_hh_map_respects_psi():
    z2 = cyclic_group_category(2)
    z4 = cyclic_group_category(4)
    f = Functor(z2, z4, {"*": "*"}, {"g0": "g0", "g1": "g2"})
    for e in z2.endomorphisms():
        for r in (1, 2, 3):
            assert hh_map(f, psi(z2, r, e)) == psi(z4, r, f(e))


def test_hh_map_rejects_foreign_classes():
    z2 = cyclic_group_category(2)
    z4 = cyclic_group_category(4)
    f = Functor(z2, z4, {"*": "*"}, {"g0": "g0", "g1": "g2"})
    with pytest.raises(QuivercalcError):
        hh_map(f, compute_hh(z4).class_of("g1"))


# --- least rotation (CyclicWord.canonical) -------------------------------------


def naive_least_rotation(seq):
    n = len(seq)
    best = min(tuple(seq[i:]) + tuple(seq[:i]) for i in range(n))
    for i in range(n):
        if tuple(seq[i:]) + tuple(seq[:i]) == best:
            return i
    raise AssertionError


def naive_period(seq):
    """The least d > 0 with seq equal to its rotation by d."""
    return next(d for d in range(1, len(seq) + 1)
                if tuple(seq[d:]) + tuple(seq[:d]) == tuple(seq))


def test_least_rotation_hand_cases():
    assert lyndon_rotation([1, 0]) == (1, 2)
    assert lyndon_rotation([2, 1, 1]) == (1, 3)
    assert lyndon_rotation([0, 0, 0]) == (0, 1)
    assert lyndon_rotation([3]) == (0, 1)
    assert lyndon_rotation([1, 0, 1, 0]) == (1, 2)
    assert lyndon_rotation([0, 1, 0, 0, 1, 0]) == (2, 3)


letters = st.lists(st.integers(0, 3), min_size=1, max_size=12)
powers = st.builds(lambda w, k: w * k,
                   st.lists(st.integers(0, 3), min_size=1, max_size=5),
                   st.integers(2, 4))


@given(st.one_of(letters, powers))
def test_least_rotation_matches_naive(seq):
    assert lyndon_rotation(seq) == (naive_least_rotation(seq), naive_period(seq))


# --- every rejection names what is wrong -------------------------------------

HH_ARROW = walking_arrow_category()
# one object, unit e, a∘a = a∘b = b∘a = e and b∘b = a: not associative.
# Squaring would give b^4 = e, but b composed four times from the left is b.
SKEW = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("e", "b"): "b",
        ("b", "e"): "b", ("a", "a"): "e", ("a", "b"): "e", ("b", "a"): "e",
        ("b", "b"): "a"}
HH_REJECTIONS = {
    "rotation": (lambda: lyndon_rotation([]),
                 "an empty sequence has no least rotation"),
    "word-empty": (lambda: CyclicWord(HH_ARROW, ()), "cyclic words are nonempty"),
    "word-chain": (lambda: CyclicWord(HH_ARROW, ("le:0:1",)),
                   "'le:0:1' then 'le:0:1' does not chain cyclically"),
    "word-repeat": (lambda: CyclicWord(HH_ARROW, ("le:0:0",)).repeat(0),
                    "a word repeats r >= 1 times, not 0"),
    "word-repeat-float": (lambda: CyclicWord(HH_ARROW, ("le:0:0",)).repeat(2.0),
                          "a word repeats an integer number of times, not 2.0"),
    "word-repeat-bool": (lambda: CyclicWord(HH_ARROW, ("le:0:0",)).repeat(True),
                         "a word repeats an integer number of times, not True"),
    "power-r": (lambda: power_endo(HH_ARROW, "le:0:0", 0),
                "powers are taken for r >= 1, not 0"),
    "power-float": (lambda: power_endo(HH_ARROW, "le:0:0", 2.5),
                    "powers are taken for integers r, not 2.5"),
    "power-bool": (lambda: power_endo(cyclic_group_category(3), "g1", True),
                   "powers are taken for integers r, not True"),
    "psi-float": (lambda: psi(cyclic_group_category(3), 2.0, "g1"),
                  "powers are taken for integers r, not 2.0"),
    "power-unknown": (lambda: power_endo(HH_ARROW, "nope", 2),
                      "'nope' is not an endomorphism of this category"),
    "power-not-endo": (lambda: power_endo(HH_ARROW, "le:0:1", 3),
                       "'le:0:1' is not an endomorphism of this category"),
    "power-not-associative": (
        lambda: power_endo(monoid_category(["e", "a", "b"], SKEW, "e"), "b", 4),
        "('a', 'a', 'b')"),
    "class-unknown": (lambda: compute_hh(HH_ARROW).class_of("nope"),
                      "'nope' is not an endomorphism of this category"),
    "psi-class": (lambda: psi(cyclic_group_category(3), 2,
                              compute_hh(cyclic_group_category(2)).class_of("g1")),
                  "the class belongs to another category"),
    "psi-word": (lambda: psi(cyclic_group_category(3), 1,
                             CyclicWord(cyclic_group_category(2), ["g1"])),
                 "the word belongs to another category"),
    "hh-map": (lambda: hh_map(Functor(HH_ARROW, HH_ARROW, {"0": "0", "1": "1"},
                                      {m.mid: m.mid for m in HH_ARROW.morphisms}),
                              trace_obj(cyclic_group_category(2), "*")),
               "the class belongs to another category than the functor's source"),
}


@pytest.mark.parametrize("name", HH_REJECTIONS)
def test_hochschild_rejections_name_the_fault(name):
    build, message = HH_REJECTIONS[name]
    with pytest.raises(QuivercalcError) as e:
        build()
    assert str(e.value) == message
