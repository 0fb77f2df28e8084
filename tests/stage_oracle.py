"""The hand-written stage graphs and stage maps of a graph site that
ExcisionSite's one lift rule replaced, kept as an oracle for the tests.

Each function takes a graph site and builds its own stage graphs, naming
every weld vertex and chain edge itself; nothing reads the site's kept
stages.  Maps compare equal to the site's by value (quiver morphisms of
equal graphs).
"""
from quivercalc.digraph import Digraph
from quivercalc.quiver import Path, QuiverMor


def level_graph(site, p):
    """Stage p: each cut edge s -> t becomes the chain s, w0, ..., wp, t."""
    g, cut = site.graph, set(site.cut_edges)
    cuts = [e for e in g.edges if e.eid in cut]
    vs = list(g.vertices)
    for e in cuts:
        vs.extend(f"{e.eid}:w{i}" for i in range(p + 1))
    es = []
    for e in g.edges:
        if e.eid not in cut:
            es.append((e.eid, e.src, e.tgt))
            continue
        chain = [e.src] + [f"{e.eid}:w{i}" for i in range(p + 1)] + [e.tgt]
        es.extend((f"{e.eid}:c{i}", chain[i], chain[i + 1])
                  for i in range(p + 2))
    return Digraph(vs, es)


def face_maps(site):
    """Stage 0 into stage 1: the weld vertex goes to the first or the
    second joint, and the middle chain edge is absorbed on that side."""
    g0, g1 = level_graph(site, 0), level_graph(site, 1)
    cut = set(site.cut_edges)
    va = {v: v for v in site.graph.vertices}
    vb = dict(va)
    pa, pb = {}, {}
    for e in site.graph.edges:
        s = e.eid
        if s not in cut:
            pa[s] = Path.of_edge(g1, s)
            pb[s] = Path.of_edge(g1, s)
            continue
        va[f"{s}:w0"] = f"{s}:w0"
        vb[f"{s}:w0"] = f"{s}:w1"
        pa[f"{s}:c0"] = Path(g1, e.src, (f"{s}:c0",))
        pa[f"{s}:c1"] = Path(g1, f"{s}:w0", (f"{s}:c1", f"{s}:c2"))
        pb[f"{s}:c0"] = Path(g1, e.src, (f"{s}:c0", f"{s}:c1"))
        pb[f"{s}:c1"] = Path(g1, f"{s}:w1", (f"{s}:c2",))
    return (QuiverMor(g0, g1, va, pa), QuiverMor(g0, g1, vb, pb))


def degeneracies(site):
    """Stage 1 onto stage 0, one sigma_k per cut edge k = s -> t in cut
    order: k's weld vertices w0, w1 go to s, w0 and its chain c0, c1, c2 to
    the empty path at s, c0, c1; every other cut's w0, w1 go to w0 and its
    c0, c1, c2 to c0, the empty path at w0, c1."""
    g0, g1 = level_graph(site, 0), level_graph(site, 1)
    cut = set(site.cut_edges)
    out = []
    for k in site.cut_edges:
        vmap = {v: v for v in site.graph.vertices}
        paths = {}
        for e in site.graph.edges:
            s = e.eid
            if s not in cut:
                paths[s] = Path.of_edge(g0, s)
                continue
            w0, c0, c1 = f"{s}:w0", f"{s}:c0", f"{s}:c1"
            if s == k:
                vmap[w0] = e.src
                paths[c0] = Path.empty(g0, e.src)
                paths[c1] = Path.of_edge(g0, c0)
            else:
                vmap[w0] = w0
                paths[c0] = Path.of_edge(g0, c0)
                paths[c1] = Path.empty(g0, w0)
            vmap[f"{s}:w1"] = w0
            paths[f"{s}:c2"] = Path.of_edge(g0, c1)
        out.append(QuiverMor(g1, g0, vmap, paths))
    return tuple(out)


def refinement(site, p):
    """The uncut graph into stage p: each cut edge becomes its chain."""
    gp = level_graph(site, p)
    paths = {}
    for e in site.graph.edges:
        if e.eid in site.cut_edges:
            paths[e.eid] = Path(gp, e.src,
                                tuple(f"{e.eid}:c{i}" for i in range(p + 2)))
        else:
            paths[e.eid] = Path.of_edge(gp, e.eid)
    return QuiverMor(site.graph, gp, {v: v for v in site.graph.vertices}, paths)
