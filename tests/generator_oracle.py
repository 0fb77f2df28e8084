"""The two-sided greedy generating set that validate_fincat used before
its generators were found by left closure: the oracle the left closure is
tested against."""
from quivercalc.fincat import IntTable


def two_sided_generators(t: IntTable) -> list[int]:
    """Morphism indices that generate every non-identity under composition.

    Greedy in declaration order: a morphism not yet reached becomes a
    generator, and the reached set is closed again by composing each new
    member with every member on both sides.  Only table lookups are used,
    so no associativity is assumed; the table must be complete and its
    identities neutral.  O(M²).
    """
    comp, src, tgt, at = t.comp, t.src, t.tgt, t.at
    reached = [False] * len(comp)
    for i in t.identity:
        reached[i] = True
    into: list[list[int]] = [[] for _ in t.into]   # reached, by target
    out: list[list[int]] = [[] for _ in t.out]     # reached, by source
    gens = []
    for m in range(len(comp)):
        if reached[m]:
            continue
        gens.append(m)
        reached[m] = True
        work = [m]
        while work:
            a = work.pop()
            into[tgt[a]].append(a)
            out[src[a]].append(a)
            row = comp[a]
            for h in ([row[at[b]] for b in into[src[a]]]
                      + [comp[b][at[a]] for b in out[tgt[a]]]):
                if not reached[h]:
                    reached[h] = True
                    work.append(h)
    return gens
