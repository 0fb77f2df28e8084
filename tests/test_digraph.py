import itertools
import json
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from quivercalc import digraph
from quivercalc.digraph import (ClosedCover, Digraph, Incomposable, NotACover,
                                QuivercalcError, UnknownEdge, UnknownVertex,
                                classify_digraph, component_labels,
                                disjoint_union, make_closed_cover, reachable,
                                standard_digraph, strong_components, walks,
                                weak_components)
from quivercalc.fincat import exit_path, validate_fincat
from quivercalc.quiver import (Path, QuiverMor, classify_quiver_mor,
                               compose_quiver_mor)
import search_oracle
from union_find import UnionFind


def test_basic_accessors():
    g = Digraph(["a", "b"], [("e", "a", "b"), ("f", "b", "b")])
    assert g.vertices == ("a", "b")
    assert [e.eid for e in g.edges] == ["e", "f"]
    assert g.edge("e").src == "a" and g.edge("e").tgt == "b"
    assert [e.eid for e in g.out_edges("b")] == ["f"]
    assert [e.eid for e in g.in_edges("b")] == ["e", "f"]
    assert g.valence("b").incoming == 2
    assert g.valence("a").outgoing == 1


def test_bad_construction():
    with pytest.raises(QuivercalcError):
        Digraph(["a", "a"], [])
    with pytest.raises(QuivercalcError):
        Digraph(["a"], [("e", "a", "b")])
    with pytest.raises(QuivercalcError):
        Digraph(["a"], [("e", "a", "a"), ("e", "a", "a")])


def test_unknown_lookups():
    g = standard_digraph("interval")
    with pytest.raises(UnknownVertex):
        g.out_edges("zzz")
    with pytest.raises(UnknownEdge):
        g.edge("zzz")


def test_standard_shapes():
    assert len(standard_digraph("point").vertices) == 1
    assert len(standard_digraph("interval").edges) == 1
    lin = standard_digraph("linear", 3)
    assert len(lin.vertices) == 4 and len(lin.edges) == 3
    cyc = standard_digraph("cyclic", 4)
    assert len(cyc.vertices) == 4 and len(cyc.edges) == 4
    bq = standard_digraph("bouquet", 3)
    assert len(bq.vertices) == 1 and len(bq.edges) == 3
    with pytest.raises(QuivercalcError):
        standard_digraph("cyclic", 0)
    with pytest.raises(QuivercalcError):
        standard_digraph("nonsense")


def test_classification():
    shape = classify_digraph(standard_digraph("cyclic", 3))
    assert shape.connected and shape.cyclically_directed
    assert not shape.linearly_directed
    shape = classify_digraph(standard_digraph("linear", 3))
    assert shape.connected and shape.linearly_directed
    assert not shape.cyclically_directed
    two = disjoint_union([standard_digraph("point"), standard_digraph("point")])
    assert not classify_digraph(two).connected


def has_directed_cycle(d):
    """A loop, or a strong component with more than one vertex."""
    return (any(e.src == e.tgt for e in d.edges)
            or any(len(c) > 1 for c in strong_components(d)))


def test_cycle_detection():
    assert has_directed_cycle(standard_digraph("cyclic", 1))
    assert has_directed_cycle(standard_digraph("bouquet", 2))
    assert not has_directed_cycle(standard_digraph("linear", 4))
    # a directed zig-zag has no directed cycle even though it loops weakly
    zig = Digraph(["a", "b", "c"], [("e", "a", "b"), ("f", "c", "b"),
                                    ("g", "a", "c")])
    assert not has_directed_cycle(zig)


def test_weak_components_order():
    g = disjoint_union([standard_digraph("interval"),
                        standard_digraph("point")], prefixes=["i.", "p."])
    comps = weak_components(g)
    assert comps == [["i.0", "i.1"], ["p.0"]]
    # the graph keeps its components and hands out new lists on each call
    comps[0].append("x")
    comps.append(["y"])
    with mock.patch.object(digraph, "component_labels") as search:
        assert weak_components(g) == [["i.0", "i.1"], ["p.0"]]
    search.assert_not_called()


def test_disjoint_union_prefixes_on_clash():
    a = standard_digraph("interval")
    u = disjoint_union([a, a])
    assert len(u.vertices) == 4
    assert len({e.eid for e in u.edges}) == 2


def test_subgraph_checks_endpoints():
    g = standard_digraph("linear", 2)
    sub = g.subgraph(["0", "1"], ["e0"])
    assert [e.eid for e in sub.edges] == ["e0"]
    with pytest.raises(QuivercalcError):
        g.subgraph(["0"], ["e0"])  # e0 ends outside


def test_subgraph_names_the_first_unknown_name_given():
    g = standard_digraph("linear", 2)
    with pytest.raises(QuivercalcError, match="unknown vertex 'b'"):
        g.subgraph(["0", "b", "a"], [])
    with pytest.raises(QuivercalcError, match="unknown edge 'zz'"):
        g.subgraph(["0", "1"], ["e0", "zz", "aa"])


def test_json_round_trip_fixture_bytes():
    import tests.conftest as c
    raw = (c.FIXTURES / "triangle.json").read_text()
    g = Digraph.from_json(json.loads(raw))
    again = json.dumps(g.to_json(), indent=2, sort_keys=True) + "\n"
    assert again == raw


ids = st.text(alphabet="abxy", min_size=1, max_size=3)


@st.composite
def digraphs(draw):
    vs = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    n_edges = draw(st.integers(0, 6))
    edges = []
    for i in range(n_edges):
        edges.append((f"e{i}", draw(st.sampled_from(vs)),
                      draw(st.sampled_from(vs))))
    return Digraph(vs, edges)


# a route a -> b beside two loops that no route passes through; and that
# graph again, in one graph with a 2-cycle and an isolated vertex
SIDE_CYCLE = Digraph(["a", "b", "c"], [("ab", "a", "b"), ("ac", "a", "c"),
                                       ("l0", "c", "c"), ("l1", "c", "c")])
PIECES = disjoint_union([SIDE_CYCLE, standard_digraph("cyclic", 2),
                         standard_digraph("point")])


@example(SIDE_CYCLE)
@example(PIECES)
@given(digraphs())
def test_edge_lists_and_valences_read_the_declared_edges(g):
    for v in g.vertices:
        outs = [e for e in g.edges if e.src == v]
        ins = [e for e in g.edges if e.tgt == v]
        assert (g.out_edges(v), g.in_edges(v)) == (outs, ins)
        assert g.valence(v) == (len(ins), len(outs))


@example(SIDE_CYCLE)
@example(PIECES)
@given(digraphs())
def test_walks_match_the_unpruned_search(g):
    for u, v in itertools.product(g.vertices, repeat=2):
        for max_len in range(5):
            assert (walks(g, u, v, max_len)
                    == search_oracle.path_words(g, u, v, max_len)), (u, v, max_len)


def test_walks_reject_an_unknown_start_or_end():
    g = standard_digraph("interval")
    for start, end in (("zz", "1"), ("0", "zz"), ("zz", "zz")):
        with pytest.raises(UnknownVertex) as e:
            walks(g, start, end, 2)
        assert str(e.value) == "unknown vertex 'zz'"


@given(digraphs())
def test_json_round_trip(g):
    assert Digraph.from_json(g.to_json()) == g


@given(digraphs())
def test_components_partition_vertices(g):
    seen = [v for comp in weak_components(g) for v in comp]
    assert sorted(seen) == sorted(g.vertices)


@given(digraphs())
def test_strong_components_against_mutual_reachability(g):
    def reach(v):
        return reachable(v, lambda x: [e.tgt for e in g.out_edges(x)])

    comps = strong_components(g)
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    assert sorted(where) == sorted(g.vertices)
    for u in g.vertices:
        for v in g.vertices:
            same = v in reach(u) and u in reach(v)
            assert same == (where[u] == where[v])
    # reverse topological order: edges never point to a later component
    assert all(where[e.tgt] <= where[e.src] for e in g.edges)


@given(digraphs())
def test_linear_shape_is_an_acyclic_chain(g):
    """classify_digraph reads a chain as a connected graph of valences <= 1
    that is not a cycle; here, as one that has no directed cycle."""
    shape = classify_digraph(g)
    assert shape.linearly_directed == (
        shape.connected and not has_directed_cycle(g)
        and all(val.incoming <= 1 and val.outgoing <= 1
                for val in shape.valences.values()))


def union_find_labels(n, pairs):
    """Component labels from a union-find, numbered by least member."""
    uf = UnionFind(range(n))
    for a, b in pairs:
        uf.union(a, b)
    first: dict = {}
    return [first.setdefault(uf.find(i), len(first)) for i in range(n)]


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0))),
                         max_size=12 if n else 0))))
def test_component_labels_match_union_find(case):
    n, pairs = case
    assert component_labels(n, pairs) == union_find_labels(n, pairs)


def test_component_labels_edge_cases():
    assert component_labels(0, []) == []
    assert component_labels(3, [(1, 1)]) == [0, 1, 2]
    assert component_labels(4, [(3, 1), (1, 3), (3, 1)]) == [0, 1, 2, 1]
    assert component_labels(4, iter([(2, 0), (3, 3)])) == [0, 1, 0, 2]


def test_strong_components_of_a_deep_cycle():
    assert len(strong_components(standard_digraph("cyclic", 3000))) == 1
    assert len(strong_components(standard_digraph("linear", 3000))) == 3001


# A strict map of digraphs is a quiver morphism whose image paths have
# length <= 1: an edge goes to one edge, or collapses to the empty path.


def test_digraph_mor_validation():
    g = standard_digraph("interval")
    h = standard_digraph("cyclic", 1)
    f = QuiverMor(g, h, {"0": "0", "1": "0"}, {"e0": Path.of_edge(h, "e0")})
    assert f.vertex_map["1"] == "0"
    with pytest.raises(QuivercalcError):
        # collapsing an edge whose endpoints stay distinct is illegal
        QuiverMor(g, g, {"0": "0", "1": "1"}, {"e0": Path.empty(g, "0")})
    lin = standard_digraph("linear", 2)
    with pytest.raises(QuivercalcError):
        # image edge endpoints must match the vertex map
        QuiverMor(g, lin, {"0": "0", "1": "2"}, {"e0": Path.of_edge(lin, "e0")})
    p = standard_digraph("point")
    coll = QuiverMor(g, p, {"0": "0", "1": "0"}, {"e0": Path.empty(p, "0")})
    assert coll.edge_paths["e0"].length == 0
    assert classify_quiver_mor(coll).idle


def test_digraph_mor_compose():
    g = standard_digraph("linear", 2)
    h = standard_digraph("interval")
    p = standard_digraph("point")
    f = QuiverMor(g, h, {"0": "0", "1": "0", "2": "1"},
                  {"e0": Path.empty(h, "0"), "e1": Path.of_edge(h, "e0")})
    q = QuiverMor(h, p, {"0": "0", "1": "0"}, {"e0": Path.empty(p, "0")})
    qf = compose_quiver_mor(q, f)
    assert qf.vertex_map == {"0": "0", "1": "0", "2": "0"}
    assert qf.edge_paths == {"e0": Path.empty(p, "0"), "e1": Path.empty(p, "0")}
    i = QuiverMor.identity(g)
    assert compose_quiver_mor(f, i) == f
    assert compose_quiver_mor(QuiverMor.identity(h), f) == f
    with pytest.raises(Incomposable):
        compose_quiver_mor(f, q)


def test_closed_cover():
    g = standard_digraph("linear", 2)
    cover = make_closed_cover(g, (["0", "1"], ["e0"]), (["1", "2"], ["e1"]))
    assert isinstance(cover, ClosedCover)
    assert cover.intersection.vertices == ("1",)
    assert cover.intersection.edges == ()
    with pytest.raises(NotACover):
        make_closed_cover(g, (["0", "1"], ["e0"]), (["1"], []))


def test_exit_path_is_a_valid_category():
    # linear(1200): 2401 objects and 4801 morphisms, but only 7201 table
    # entries, which is all the integer table stores
    for g in [standard_digraph("interval"), standard_digraph("bouquet", 2),
              standard_digraph("cyclic", 3), standard_digraph("linear", 1200)]:
        cat = exit_path(g)
        validate_fincat(cat)
        # one object per vertex and per edge
        assert len(cat.objects) == len(g.vertices) + len(g.edges)
        # two non-identity morphisms per edge, even for self-loops
        non_id = [m for m in cat.morphisms if not cat.is_identity(m.mid)]
        assert len(non_id) == 2 * len(g.edges)


def test_exit_path_loop_endpoints():
    loop = standard_digraph("cyclic", 1)
    cat = exit_path(loop)
    srcs = [m for m in cat.morphisms if m.mid == "src:e0"]
    tgts = [m for m in cat.morphisms if m.mid == "tgt:e0"]
    assert len(srcs) == 1 and len(tgts) == 1
    assert srcs[0].src == "v:0" and srcs[0].tgt == "e:e0"
    assert tgts[0].src == "v:0" and tgts[0].tgt == "e:e0"


# --- every rejection names what is wrong -------------------------------------

G2 = standard_digraph("linear", 2)
DIGRAPH_REJECTIONS = {
    "vertex-names-not-a-list": (
        lambda: Digraph.from_json({"vertices": "ab", "edges": []}),
        QuivercalcError, "vertex names must be a list of strings"),
    "edge-names-not-strings": (
        lambda: Digraph.from_json({"vertices": ["a"],
                                   "edges": [{"id": 1, "src": "a", "tgt": "a"}]}),
        QuivercalcError, "edge names must be a list of strings"),
    "edges-not-a-list": (
        lambda: Digraph.from_json({"vertices": ["a"], "edges": "e0"}),
        QuivercalcError,
        "edges must be a list of objects with 'id', 'src' and 'tgt'"),
    "edge-source-not-a-string": (
        lambda: Digraph.from_json({"vertices": ["a"],
                                   "edges": [{"id": "e", "src": ["a"], "tgt": "a"}]}),
        QuivercalcError, "edge entry 0 has a non-string 'src'"),
    "duplicate-vertex": (lambda: Digraph(["a", "a"], []),
                         QuivercalcError, "duplicate vertex names"),
    "duplicate-edge": (lambda: Digraph(["a"], [("e", "a", "a"), ("e", "a", "a")]),
                       QuivercalcError, "duplicate edge names"),
    "undeclared-source": (lambda: Digraph(["a"], [("e", "x", "a")]),
                          UnknownVertex, "edge 'e' has undeclared source 'x'"),
    "undeclared-target": (lambda: Digraph(["a"], [("e", "a", "y")]),
                          UnknownVertex, "edge 'e' has undeclared target 'y'"),
    "edge": (lambda: G2.edge("zz"), UnknownEdge, "unknown edge 'zz'"),
    "edge-index": (lambda: G2.edge_index("zz"), UnknownEdge, "unknown edge 'zz'"),
    "vertex-index": (lambda: G2.vertex_index("zz"), UnknownVertex,
                     "unknown vertex 'zz'"),
    "out-edges": (lambda: G2.out_edges("zz"), UnknownVertex, "unknown vertex 'zz'"),
    "in-edges": (lambda: G2.in_edges("zz"), UnknownVertex, "unknown vertex 'zz'"),
    "valence": (lambda: G2.valence("zz"), UnknownVertex, "unknown vertex 'zz'"),
    "subgraph-vertex": (lambda: G2.subgraph(["0", "zz"], []), UnknownVertex,
                        "unknown vertex 'zz'"),
    "subgraph-edge": (lambda: G2.subgraph(["0", "1"], ["e0", "zz"]), UnknownEdge,
                      "unknown edge 'zz'"),
    "subgraph-endpoint": (
        lambda: G2.subgraph(["0"], ["e0"]), QuivercalcError,
        "edge 'e0' of the subgraph has an endpoint outside the chosen vertex set"),
    "linear-negative": (lambda: standard_digraph("linear", -1), QuivercalcError,
                        "linear(p) needs p >= 0"),
    "bouquet-negative": (lambda: standard_digraph("bouquet", -1), QuivercalcError,
                         "bouquet(k) needs k >= 0"),
    "unknown-kind": (lambda: standard_digraph("star", 3), QuivercalcError,
                     "unknown standard digraph kind 'star'"),
    "prefixes": (lambda: disjoint_union([G2, G2], ["a."]), QuivercalcError,
                 "need one prefix per graph"),
}


@pytest.mark.parametrize("name", DIGRAPH_REJECTIONS)
def test_digraph_rejections_name_the_fault(name):
    build, error, message = DIGRAPH_REJECTIONS[name]
    with pytest.raises(error) as e:
        build()
    assert str(e.value) == message
