"""Random concrete categories, the oracle family for category-level tests.

The objects are small sets [k]; the morphisms are the identities and the
closure under composition of a few functions between them, so the table is
associative by construction and needs no validation code of its own.  Unlike
groups and posets, these have several objects, non-invertible
endomorphisms and trace classes that are neither conjugacy classes nor one
per object.
"""
from hypothesis import strategies as st

from quivercalc.fincat import FinCat

CAP = 60        # a function whose closure would pass CAP morphisms is skipped


def _compose(g, f):
    """g∘f of morphisms (src, tgt, values), or None when they do not chain."""
    if f[1] != g[0]:
        return None
    return (f[0], g[1], tuple(g[2][i] for i in f[2]))


def _close(mors: list, cap: int):
    """mors closed under composition, in order of discovery; None past cap."""
    out, seen = list(mors), set(mors)
    for a in out:                   # out grows while it is read
        for b in list(out):
            for c in (_compose(a, b), _compose(b, a)):
                if c is not None and c not in seen:
                    if len(out) == cap:
                        return None
                    seen.add(c)
                    out.append(c)
    return out


def concrete_category(sizes, functions, cap: int = CAP) -> FinCat:
    """Object x is the set [sizes[x]]; each function (x, y, values), with
    values[i] in [sizes[y]] for i in [sizes[x]], is added with everything it
    composes to, unless that would pass cap morphisms."""
    mors = [(x, x, tuple(range(k))) for x, k in enumerate(sizes)]
    for f in functions:
        if f not in mors:
            mors = _close(mors + [f], cap) or mors
    name = {m: f"m{i}" for i, m in enumerate(mors)}
    return FinCat([f"o{x}" for x in range(len(sizes))],
                  [(name[m], f"o{m[0]}", f"o{m[1]}") for m in mors],
                  {f"o{x}": f"m{x}" for x in range(len(sizes))},
                  [(name[g], name[f], name[_compose(g, f)])
                   for g in mors for f in mors if f[1] == g[0]])


@st.composite
def concrete_categories(draw, max_objects: int = 3, max_size: int = 3,
                        max_functions: int = 4) -> FinCat:
    sizes = draw(st.lists(st.integers(1, max_size), min_size=1,
                          max_size=max_objects))
    functions = []
    for _ in range(draw(st.integers(1, max_functions))):
        x, y = (draw(st.integers(0, len(sizes) - 1)) for _ in "xy")
        values = draw(st.lists(st.integers(0, sizes[y] - 1),
                               min_size=sizes[x], max_size=sizes[x]))
        functions.append((x, y, tuple(values)))
    return concrete_category(sizes, functions)
