"""Endomorphism classes under the trace relation, and their power operators.

Two endomorphisms are identified when they are the two ways around a
composable round trip: for f: x -> y and g: y -> x, the loops g∘f and f∘g
fall in the same class.  The classes of a finite category are the
connected components of the morphisms under the pairs (u∘v, v∘u), over the
round trips (u, v) in which u is one of the generators validate_fincat
found: O(|gens|·M) pairs for M morphisms, not O(M²).  For a one-object
group category the classes are exactly the conjugacy classes.

Cyclic words (composable cycles of morphisms) represent classes too: a word
maps to the class of its composite, independently of the chosen basepoint.
The operator psi_r sends a class to the class of the r-th power of any
member; equivalently it repeats a cyclic word r times.
"""
from __future__ import annotations

from .digraph import QuivercalcError, component_labels, lyndon_rotation
from .fincat import FinCat, Functor, validate_fincat


class HHClass:
    """One trace class: its representative (least morphism index) and all
    member endomorphisms."""

    def __init__(self, table: "HHTable", rep: str, members: tuple):
        self.table = table
        self.rep = rep
        self.members = members

    def __eq__(self, other):
        if not isinstance(other, HHClass):
            return NotImplemented
        return self.table is other.table and self.rep == other.rep

    def __hash__(self):
        return hash((id(self.table), self.rep))

    def __repr__(self):
        return f"HHClass({self.rep}: {{{', '.join(self.members)}}})"


class HHTable:
    """The trace classes of a category, computed from its generators' rows.

    The relation u∘v ~ v∘u, over all u: x -> y and v: y -> x, is generated
    by the pairs in which u is a generator.  Every non-identity u is a
    composite of generators, and an identity relates nothing new; so
    induct on the number of factors, with u = a∘u' for a generator a:

        u∘v = a∘(u'∘v) ~ (u'∘v)∘a = u'∘(v∘a) ~ (v∘a)∘u' = v∘u,

    the first step by the pair (a, u'∘v), the second by (u', v∘a), where
    u' has fewer factors.  Regrouping needs associativity, so a category
    that has not passed validate_fincat is validated first, and its error
    raised.
    """

    def __init__(self, category: FinCat):
        if category.generators is None:
            validate_fincat(category)
        self.category = category
        t = category.int_table
        src, tgt, comp, at = t.src, t.tgt, t.comp, t.at
        label = component_labels(len(comp), (
            (comp[u][at[v]], comp[v][at[u]]) for u in category.generators
            for v in t.hom[tgt[u]].get(src[u], ())))
        # the endomorphisms by label, in index order: classes come in order
        # of their least members, each listing its members in index order
        groups: dict[int, list[int]] = {}
        for m in range(len(comp)):
            if src[m] == tgt[m]:
                groups.setdefault(label[m], []).append(m)
        names = [m.mid for m in category.morphisms]
        self._class_index = [-1] * len(comp)    # per morphism, -1 if no endo
        self.classes: list[HHClass] = []
        for members in groups.values():
            for m in members:
                self._class_index[m] = len(self.classes)
            self.classes.append(HHClass(self, names[members[0]],
                                        tuple(names[m] for m in members)))

    def class_of(self, endo: str) -> HHClass:
        return self.classes[self._class_index[_endo_index(self.category, endo)]]

    def __len__(self):
        return len(self.classes)

    def __repr__(self):
        return f"HHTable({len(self.classes)} classes of {self.category!r})"


def _endo_index(category: FinCat, endo: str) -> int:
    """The index of endo; an unknown name or a non-endomorphism raises."""
    m = category._mindex.get(endo)
    if m is None or category.int_table.src[m] != category.int_table.tgt[m]:
        raise QuivercalcError(f"{endo!r} is not an endomorphism of this category")
    return m


def compute_hh(category: FinCat) -> HHTable:
    """The table of trace classes; cached on the category instance so classes
    from repeated calls compare equal, and dropped along with it."""
    if category.hh_table is None:
        category.hh_table = HHTable(category)
    return category.hh_table


class CyclicWord:
    """A composable cycle of morphisms, read left to right; the target of
    the last wraps to the source of the first."""

    def __init__(self, category: FinCat, word):
        self.category = category
        self.word = tuple(word)
        if not self.word:
            raise QuivercalcError("cyclic words are nonempty")
        for a, b in zip(self.word, self.word[1:] + self.word[:1]):
            if category.tgt(a) != category.src(b):
                raise QuivercalcError(f"{a!r} then {b!r} does not chain cyclically")

    def rotate(self, j: int) -> "CyclicWord":
        j %= len(self.word)
        return CyclicWord(self.category, self.word[j:] + self.word[:j])

    def canonical(self) -> "CyclicWord":
        start, _ = lyndon_rotation(
            [self.category.morphism_index(m) for m in self.word])
        return self.rotate(start)

    def repeat(self, r: int) -> "CyclicWord":
        if type(r) is not int:          # bool is no count
            raise QuivercalcError(f"a word repeats an integer number of times, "
                                  f"not {r!r}")
        if r < 1:
            raise QuivercalcError(f"a word repeats r >= 1 times, not {r}")
        return CyclicWord(self.category, self.word * r)

    def composite(self) -> str:
        """The endomorphism at the basepoint: last ∘ ... ∘ first."""
        c = self.category
        out = c.identity(c.src(self.word[0]))
        for m in self.word:
            out = c.comp(m, out)
        return out

    def __eq__(self, other):
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return (self.category is other.category
                and self.canonical().word == other.canonical().word)

    def __hash__(self):
        return hash(self.canonical().word)

    def __repr__(self):
        return f"CyclicWord({' · '.join(self.word)})"


def class_of_word(w: CyclicWord) -> HHClass:
    """Basepoint-independent: rotations give the same class."""
    return compute_hh(w.category).class_of(w.composite())


def power_endo(category: FinCat, endo: str, r: int) -> str:
    """endo composed with itself r times, by repeated squaring: O(log r)
    compositions.  Regrouping the factors needs associativity, so a
    category that has not passed validate_fincat is validated first, and
    its error raised."""
    if type(r) is not int:              # bool is no exponent
        raise QuivercalcError(f"powers are taken for integers r, not {r!r}")
    if r < 1:
        raise QuivercalcError(f"powers are taken for r >= 1, not {r}")
    _endo_index(category, endo)
    if category.generators is None:
        validate_fincat(category)
    out, square = None, endo
    while True:
        if r & 1:
            out = square if out is None else category.comp(square, out)
        r >>= 1
        if not r:
            return out
        square = category.comp(square, square)


def psi(category: FinCat, r: int, x) -> HHClass:
    """The r-th power operator on trace classes.

    Accepts an endomorphism id, a cyclic word, or a class, all of category
    itself; a word or class of another category is rejected.  It powers the
    endomorphism, the word's composite or the class representative: by the
    trace relation the r-fold repeat of a word has the class of its
    composite's r-th power, and psi_r psi_s = psi_rs.
    """
    if isinstance(x, CyclicWord):
        if x.category is not category:
            raise QuivercalcError("the word belongs to another category")
        endo = x.composite()
    elif isinstance(x, HHClass):
        if x.table.category is not category:
            raise QuivercalcError("the class belongs to another category")
        endo = x.rep
    else:
        endo = x
    return compute_hh(category).class_of(power_endo(category, endo, r))


def trace_end(category: FinCat, endo: str) -> HHClass:
    return compute_hh(category).class_of(endo)


def trace_obj(category: FinCat, x: str) -> HHClass:
    """The class of the identity; fixed by every psi_r."""
    return compute_hh(category).class_of(category.identity(x))


def hh_map(functor: Functor, cls: HHClass) -> HHClass:
    """Push a class forward along a functor (well-defined on classes)."""
    if cls.table.category is not functor.source:
        raise QuivercalcError("the class belongs to another category "
                              "than the functor's source")
    return compute_hh(functor.target).class_of(functor(cls.rep))
