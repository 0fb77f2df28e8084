"""The graph searches that the pruned ones in digraph, quiver and emm
replaced, kept as oracles for the tests.

Each visits everything the replaced code visited: walks takes every edge
out of the end of the walk, cycle_length_bound scans all edges once per
strong component, components builds each piece with Digraph.subgraph,
path_options enumerates every path up to |E| edges before it applies the
cap, and labellings and quiver_mors walk the full product of vertex
labellings.  None of them calls the pruned search it checks, or reads the
graph's adjacency other than through out_edges and the edge list.
"""
import itertools
import math

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


def path_words(d, start, end, max_len):
    """The edge tuples of digraph.walks, in its order: the walks, sorted by
    length (a stable sort of the depth-first order)."""
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
        full = path_words(tgt, a, b, len(tgt.edges))
        if path_cap is not None and any(len(p) > path_cap for p in full):
            return [p for p in full if len(p) <= path_cap], False
        return full, True
    if path_cap is None:
        raise QuivercalcError(f"infinitely many paths {a!r} -> {b!r}; "
                              "a path cap is required")
    return path_words(tgt, a, b, path_cap), False


def hom_size(d, start, end):
    """The number of paths start -> end, or None when there are infinitely
    many: a path with |V| or more edges repeats a vertex, so it runs through
    a cycle on a route, and such a cycle can be pumped into a path whose
    length lies in [|V|, 2|V| - 1]."""
    n = len(d.vertices)
    found = path_words(d, start, end, 2 * n - 1)
    if any(len(p) >= n for p in found):
        return None
    return len(found)


def labellings(category, graph):
    """Every labelling of graph's vertices by object indices, in product
    order, with the morphism indices each edge may then take, in
    declaration order; an edge with no hom-set gets an empty list."""
    objects = category.objects
    hom = {}
    for i, m in enumerate(category.morphisms):
        hom.setdefault((objects.index(m.src), objects.index(m.tgt)), []).append(i)
    vindex = {v: i for i, v in enumerate(graph.vertices)}
    ends = [(vindex[e.src], vindex[e.tgt]) for e in graph.edges]
    for objs in itertools.product(range(len(objects)), repeat=len(graph.vertices)):
        yield objs, [hom.get((objs[s], objs[t]), []) for s, t in ends]


def rep_tuples(category, graph):
    """The index tuples of fincat.rep_tuples, from the full product."""
    return [objs + choice for objs, options in labellings(category, graph)
            for choice in itertools.product(*options)]


def mor_options(src, tgt, path_cap, cache):
    """The option table of src -> tgt, a row per vertex assignment in
    product order, each with the candidate image paths of each source edge
    as edge tuples, empty where an edge has none.  Every pair of target
    vertices it consults is left in cache, with its exactness; with no cap
    the first infinite pair it consults raises."""
    vindex = {v: i for i, v in enumerate(src.vertices)}
    ends = [(vindex[e.src], vindex[e.tgt]) for e in src.edges]
    for assignment in itertools.product(tgt.vertices, repeat=len(src.vertices)):
        options = []
        for s, t in ends:
            key = (assignment[s], assignment[t])
            if key not in cache:
                cache[key] = path_options(tgt, *key, path_cap)
            options.append(cache[key][0])
        yield assignment, options


def quiver_mors(src, tgt, path_cap=None, limit=None):
    """What enumerate_quiver_mors returns, each morphism as its vertex
    images and its edges' image edge tuples, or the error it raises."""
    cache, mors, count = {}, [], 0
    try:
        for assignment, options in mor_options(src, tgt, path_cap, cache):
            n = math.prod(map(len, options))
            room = n if limit is None else min(n, limit - len(mors))
            mors.extend((assignment, choice) for choice in
                        itertools.islice(itertools.product(*options), room))
            count += n
    except QuivercalcError as e:
        return str(e)
    return mors, count, not all(exact for _, exact in cache.values())
