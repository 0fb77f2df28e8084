"""The graph searches that the pruned ones in digraph, quiver and emm
replaced, kept as oracles for the tests.

Each visits everything the replaced code visited: walks takes every edge
out of the end of the walk, cycle_length_bound scans all edges once per
strong component, components builds each piece with Digraph.subgraph, and
path_options enumerates every path up to |E| edges before it applies the
cap.  None of them calls the pruned search it checks, or reads the
graph's adjacency other than through out_edges.
"""
from quivercalc.digraph import QuivercalcError, strong_components, weak_components
from quivercalc.quiver import hom_is_finite


def walks(d, start, end, max_len):
    """Every walk start -> end with at most max_len edges, depth first with
    edges in declaration order, with no pruning."""
    if max_len < 0:
        raise QuivercalcError(f"a length cap must be >= 0, not {max_len}")
    out = d.out_edges
    if start == end:
        yield ()
    walk = []
    stack = [iter(out(start))] if max_len else []
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if walk:
                walk.pop()
            continue
        walk.append(e.eid)
        if e.tgt == end:
            yield tuple(walk)
        if len(walk) < max_len:
            stack.append(iter(out(e.tgt)))
        else:
            walk.pop()


def paths(d, start, end, max_len):
    """The edge tuples of enumerate_paths, in its order."""
    return sorted(walks(d, start, end, max_len), key=len)


def cycle_length_bound(graph):
    bound = 0
    for comp in strong_components(graph):
        cset = set(comp)
        internal = [e for e in graph.edges if e.src in cset and e.tgt in cset]
        if not internal:
            continue
        outs = {v: 0 for v in comp}
        for e in internal:
            outs[e.src] += 1
        if any(n != 1 for n in outs.values()) or len(internal) != len(comp):
            return None
        bound = max(bound, len(comp))
    return bound


def components(d):
    out = []
    for verts in weak_components(d):
        vset = set(verts)
        eids = [e.eid for e in d.edges if e.src in vset]
        out.append(d.subgraph(verts, eids))
    return out


def path_options(tgt, a, b, path_cap):
    """The edge tuples of the candidate image paths a -> b, and whether the
    list is exact."""
    finite, _ = hom_is_finite(tgt, a, b)
    if finite:
        # in the acyclic relevant region no path repeats an edge
        full = paths(tgt, a, b, len(tgt.edges))
        if path_cap is not None and any(len(p) > path_cap for p in full):
            return [p for p in full if len(p) <= path_cap], False
        return full, True
    if path_cap is None:
        raise QuivercalcError(f"infinitely many paths {a!r} -> {b!r}; "
                              "a path cap is required")
    return paths(tgt, a, b, path_cap), False


def hom_size(d, start, end):
    """The number of paths start -> end, or None when there are infinitely
    many: a path with |V| or more edges repeats a vertex, so it runs through
    a cycle on a route, and such a cycle can be pumped into a path whose
    length lies in [|V|, 2|V| - 1]."""
    n = len(d.vertices)
    found = paths(d, start, end, 2 * n - 1)
    if any(len(p) >= n for p in found):
        return None
    return len(found)
