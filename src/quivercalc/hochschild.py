"""Endomorphism classes under the trace relation, and their power operators.

Two endomorphisms are identified when they are the two ways around a
composable round trip: for f: x -> y and g: y -> x, the loops g∘f and f∘g
fall in the same class.  The classes of a finite category are computed by a
union-find sweep over all such pairs.  For a one-object group category the
classes are exactly the conjugacy classes.

Cyclic words (composable cycles of morphisms) represent classes too: a word
maps to the class of its composite, independently of the chosen basepoint.
The operator psi_r sends a class to the class of the r-th power of any
member; equivalently it repeats a cyclic word r times.
"""
from __future__ import annotations

from .digraph import QuivercalcError
from .fincat import BadComposite, FinCat, Functor


def least_rotation_index(seq) -> int:
    """Booth's algorithm: index of the lexicographically least rotation."""
    s = list(seq) + list(seq)
    n = len(seq)
    if n < 1:
        raise QuivercalcError("an empty sequence has no least rotation")
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k % n


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]

    def classes(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


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
    def __init__(self, category: FinCat):
        self.category = category
        t = category.int_table()
        src, tgt, comp = t.src, t.tgt, t.comp
        uf = UnionFind([m for m in range(len(comp)) if src[m] == tgt[m]])
        try:
            for f, row_f in enumerate(comp):
                for g in t.out[tgt[f]]:
                    if tgt[g] == src[f]:
                        uf.union(comp[g][f], row_f[g])
        except KeyError:        # a missing or non-endomorphic round trip
            raise BadComposite("trace classes need a category that passes "
                               "validate_fincat") from None
        names = [m.mid for m in category.morphisms]
        self._class_of: dict[str, HHClass] = {}
        self.classes: list[HHClass] = []
        for members in sorted(uf.classes().values(), key=min):
            members = tuple(names[m] for m in sorted(members))
            cls = HHClass(self, members[0], members)
            self.classes.append(cls)
            for m in members:
                self._class_of[m] = cls

    def class_of(self, endo: str) -> HHClass:
        if endo not in self._class_of:
            raise QuivercalcError(f"{endo!r} is not an endomorphism of this category")
        return self._class_of[endo]

    def __len__(self):
        return len(self.classes)

    def __repr__(self):
        return f"HHTable({len(self.classes)} classes of {self.category!r})"


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
        idx = least_rotation_index(
            [self.category.morphism_index(m) for m in self.word])
        return self.rotate(idx)

    def repeat(self, r: int) -> "CyclicWord":
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
    compositions.  Regrouping the factors is sound because composition is
    associative, which validate_fincat establishes for a loaded category."""
    if r < 1:
        raise QuivercalcError(f"powers are taken for r >= 1, not {r}")
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

    Accepts an endomorphism id, a cyclic word, or a class.  It powers the
    endomorphism, the word's composite or the class representative: by the
    trace relation the r-fold repeat of a word has the class of its
    composite's r-th power, and psi_r psi_s = psi_rs.
    """
    if isinstance(x, CyclicWord):
        endo = x.composite()
    elif isinstance(x, HHClass):
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
