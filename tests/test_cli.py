import contextlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from quivercalc import cli, digraph
from quivercalc.cli import main
from quivercalc.digraph import Digraph, standard_digraph
from quivercalc.emm import MObject
from quivercalc.fincat import (FinCat, rep_via_exit_limit,
                               symmetric_group_category, validate_fincat)
from tests.conftest import FIXTURES, ROOT

import cycle_oracle
import search_oracle
import string_oracle
from test_acceptance import CLASS_COUNTS, h_colourings, hom_size_matrix


def run(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_classify(capsys):
    code, out, _ = run("classify", "--graph", str(FIXTURES / "triangle.json"),
                       capsys=capsys)
    assert (code, out) == (0, "vertices: 3  edges: 3\n"
                              "connected: yes\n"
                              "cyclically directed: yes\n"
                              "linearly directed: no\n"
                              "valence 0: in=1 out=1\n"
                              "valence 1: in=1 out=1\n"
                              "valence 2: in=1 out=1\n")


def test_paths_finite_and_truncated(capsys):
    code, out, _ = run("paths", "--graph", str(FIXTURES / "interval.json"),
                       "0", "1", capsys=capsys)
    assert code == 0
    assert "count: 1 (complete" in out
    code, out, _ = run("paths", "--graph", str(FIXTURES / "bouquet2.json"),
                       "0", "0", "--max-len", "2", capsys=capsys)
    assert code == 0
    assert "infinitely many" in out


def test_paths_cut_by_the_length_cap_is_not_complete(capsys):
    # the hom-set 0 -> 2 of linear(2) is finite, but its one path is longer
    # than the cap, so the listing is not the whole hom-set
    code, out, _ = run("paths", "--graph", str(FIXTURES / "linear2.json"),
                       "0", "2", "--max-len", "1", capsys=capsys)
    assert (code, out) == (0, "count: 0 (truncated at length 1; 1 in total)\n")
    code, out, _ = run("paths", "--graph", str(FIXTURES / "linear2.json"),
                       "0", "2", "--max-len", "2", capsys=capsys)
    assert (code, out) == (0, "e0·e1\ncount: 1 (complete; 1 in total)\n")


def test_paths_unknown_vertex_is_usage_error(capsys):
    code, _, err = run("paths", "--graph", str(FIXTURES / "interval.json"),
                       "0", "zzz", capsys=capsys)
    assert code == 2
    assert "unknown vertex" in err


GRAPH_FIXTURES = ("bouquet2", "interval", "linear2", "triangle")


def paths_listing(g, u, v, max_len):
    """What `paths` prints, rendered from the unpruned search oracle."""
    found = search_oracle.paths(g, u, v, max_len)
    total = search_oracle.hom_size(g, u, v)
    lines = ["·".join(p) if p else "(empty)" for p in found]
    if total is not None and len(found) == total:
        lines.append(f"count: {len(found)} (complete; {total} in total)")
    else:
        lines.append(f"count: {len(found)} (truncated at length {max_len}; "
                     f"{'infinitely many' if total is None else total} in total)")
    return "".join(line + "\n" for line in lines)


def cycles_listing(g, max_len):
    """What `cycles` prints, rendered from the exhaustive cycle oracle."""
    return "".join(("·".join(z.edges) if z.edges else f"constant at {z.vertex}")
                   + "\n" for z in cycle_oracle.enumerate_directed_cycles(g, max_len))


@pytest.mark.parametrize("name", GRAPH_FIXTURES)
def test_paths_and_cycles_listings_are_byte_identical_to_the_oracles(name, capsys):
    path = str(FIXTURES / f"{name}.json")
    g = Digraph.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
    for max_len in (0, 1, 3):
        for u, v in itertools.product(g.vertices, repeat=2):
            code, out, err = run("paths", "--graph", path, u, v,
                                 "--max-len", str(max_len), capsys=capsys)
            assert (code, out, err) == (0, paths_listing(g, u, v, max_len), ""), \
                (u, v, max_len)
        code, out, err = run("cycles", "--graph", path, "--max-len", str(max_len),
                             capsys=capsys)
        assert (code, out, err) == (0, cycles_listing(g, max_len), ""), max_len


def test_listing_edge_cases(tmp_path, capsys):
    # no walks: only the count line
    linear2 = str(FIXTURES / "linear2.json")
    assert run("paths", "--graph", linear2, "2", "0", capsys=capsys) == (
        0, "count: 0 (complete; 0 in total)\n", "")
    # the empty walk, at length cap 0
    bouquet2 = str(FIXTURES / "bouquet2.json")
    assert run("paths", "--graph", bouquet2, "0", "0", "--max-len", "0",
               capsys=capsys) == (
        0, "(empty)\ncount: 1 (truncated at length 0; infinitely many in total)\n", "")
    # an edgeless graph has only constant cycles, and an empty one none
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"vertices": ["p", "q"], "edges": []}))
    assert run("cycles", "--graph", str(points), capsys=capsys) == (
        0, "constant at p\nconstant at q\n", "")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "edges": []}))
    assert run("cycles", "--graph", str(empty), capsys=capsys) == (0, "", "")
    # an unknown vertex prints nothing on stdout
    code, out, err = run("paths", "--graph", linear2, "0", "zz", capsys=capsys)
    assert (code, out, err) == (2, "", "error: unknown vertex 'zz'\n")


def test_one_paths_call_searches_backward_from_its_target_once(monkeypatch, capsys):
    starts = []
    real = digraph.reachable

    def spy(start, step):
        starts.append(start)
        return real(start, step)

    monkeypatch.setattr(digraph, "reachable", spy)
    code, out, _ = run("paths", "--graph", str(FIXTURES / "triangle.json"),
                       "0", "2", "--max-len", "4", capsys=capsys)
    assert code == 0 and out.endswith("in total)\n")
    assert starts.count(2) == 1, starts     # 2 is the index of vertex "2"


def test_paths_on_a_long_chain(tmp_path, capsys):
    n = 50_000
    g = tmp_path / "chain.json"
    g.write_text(json.dumps(standard_digraph("linear", n).to_json()))
    assert run("paths", "--graph", str(g), "0", str(n), "--max-len", str(n),
               capsys=capsys) == (0, "·".join(f"e{i}" for i in range(n))
                                  + "\ncount: 1 (complete; 1 in total)\n", "")


def test_reps(capsys):
    code, out, _ = run("reps", "--cat", str(FIXTURES / "arrow.json"),
                       "--graph", str(FIXTURES / "interval.json"),
                       capsys=capsys)
    assert code == 0
    assert out.strip().endswith("count: 3")


def test_sheaf_passes(capsys):
    code, out, _ = run("sheaf", "--cat", str(FIXTURES / "s3.json"),
                       "--graph", str(FIXTURES / "linear2.json"),
                       "--left", "0,1;e0", "--right", "1,2;e1",
                       capsys=capsys)
    assert code == 0
    assert "glue perfectly" in out


def test_sheaf_bad_cover_is_usage_error(capsys):
    code, _, err = run("sheaf", "--cat", str(FIXTURES / "s3.json"),
                       "--graph", str(FIXTURES / "linear2.json"),
                       "--left", "0,1;e0", "--right", "1,2;",
                       capsys=capsys)
    assert code == 2


def test_hh_and_psi_and_trace(capsys):
    code, out, _ = run("hh", "--cat", str(FIXTURES / "arrow.json"),
                       capsys=capsys)
    assert (code, out) == (0, "class 0: le:0:0  {le:0:0}\n"
                              "class 1: le:1:1  {le:1:1}\n"
                              "classes: 2\n")
    code, out, _ = run("hh", "--cat", str(FIXTURES / "s3.json"),
                       capsys=capsys)
    assert code == 0
    assert "classes: 3" in out
    code, out, _ = run("psi", "--cat", str(FIXTURES / "cyclic3.json"),
                       "--r", "2", "g1", capsys=capsys)
    assert code == 0
    assert "g2" in out
    # 10^12 = 1 mod 3, so g1 to that power is g1 again
    code, out, _ = run("psi", "--cat", str(FIXTURES / "cyclic3.json"),
                       "--r", "1000000000000", "g1", capsys=capsys)
    assert code == 0
    assert out == "psi_1000000000000(g1) = class of g1: g1  {g1}\n"
    code, out, _ = run("trace", "--cat", str(FIXTURES / "arrow.json"), "0",
                       capsys=capsys)
    assert code == 0
    code, _, err = run("trace", "--cat", str(FIXTURES / "arrow.json"), "xx",
                       capsys=capsys)
    assert code == 2


def test_para_and_epi(capsys):
    code, out, _ = run("para", "2 3 : 0 2", "3 1 : 0 0 1", capsys=capsys)
    assert code == 0
    assert "composite: 2 1 : 0 1" in out
    code, out, _ = run("para", "1 1 : 1", "--r", "2", capsys=capsys)
    assert code == 0
    assert "inflation by 2: 2 2 : 1 2" in out
    code, out, _ = run("epi", "1 1 : 0 | 6", capsys=capsys)
    assert code == 0
    assert "degree: 6" in out
    code, _, err = run("epi", "2 3 : 0 2 | 9 9", capsys=capsys)
    assert code == 2
    # main takes any iterable of words
    assert main(iter(["epi", "1 1 : 0 | 6"])) == 0
    assert "degree: 6" in capsys.readouterr().out


def test_para_and_epi_with_huge_values(capsys):
    code, out, _ = run("para", "1 1 : -1000000000000", capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["morphism: 1 1 : -1000000000000",
                                "dual: 1 1 : 1000000000000",
                                "projection: 1 1 : 0 | 1"]
    code, out, _ = run("epi", "1 1 : 0 | 1000000000000", "1 1 : 0 | 1",
                       capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["composite: 1 1 : 0 | 1000000000000",
                                "degree: 1000000000000"]


def test_cycles(capsys):
    code, out, _ = run("cycles", "--graph", str(FIXTURES / "bouquet2.json"),
                       "--max-len", "2", capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["constant at 0", "e0", "e1", "e0·e1"]


def test_hom_m_and_fact(capsys):
    code, out, _ = run("hom-m", str(FIXTURES / "interval_obj.json"),
                       str(FIXTURES / "circle_obj.json"), capsys=capsys)
    assert code == 0
    assert "count: 2 (complete)" in out
    code, out, _ = run("fact", "--cat", str(FIXTURES / "cyclic3.json"),
                       "--m", str(FIXTURES / "circle_obj.json"),
                       capsys=capsys)
    assert code == 0
    assert "size: 3" in out


def test_hom_m_lines_for_every_kind_of_component(tmp_path, capsys):
    circle = str(FIXTURES / "circle_obj.json")
    interval = str(FIXTURES / "interval_obj.json")
    code, out, _ = run("hom-m", circle, circle, "--max-weight", "2",
                       capsys=capsys)
    assert (code, out) == (0, "circle0 ← circle0 ^1\n"
                              "circle0 ← circle0 ^2\n"
                              "count: 2 (truncated)\n")
    bouquet = tmp_path / "bouquet_obj.json"
    bouquet.write_text(json.dumps(
        {"circles": 0, "quivers": [json.loads((FIXTURES / "bouquet2.json").read_text())]}))
    code, out, _ = run("hom-m", str(bouquet), circle, "--max-len", "2",
                       "--max-weight", "1", capsys=capsys)
    assert (code, out) == (0, "circle0 ← quiver0@0\n"
                              "circle0 ← quiver0[e0]^1\n"
                              "circle0 ← quiver0[e1]^1\n"
                              "circle0 ← quiver0[e0·e1]^1\n"
                              "count: 4 (truncated)\n")
    code, out, _ = run("hom-m", interval, interval, "--limit", "2",
                       capsys=capsys)
    assert (code, out) == (0, "quiver0 ↪ quiver0(0→0,1→0)\n"
                              "quiver0 ↪ quiver0(0→0,1→1)\n"
                              "... and 1 more\n"
                              "count: 3 (complete)\n")


def test_hom_m_lists_every_quivers_constant_cycles_first(tmp_path, capsys):
    """Circle components: the source circles by weight, then the constant
    cycles of every quiver, then each quiver's cycles by weight."""
    quivers = [json.loads((FIXTURES / name).read_text())
               for name in ("bouquet2.json", "triangle.json")]
    source = tmp_path / "two_quivers.json"
    source.write_text(json.dumps({"circles": 1, "quivers": quivers}))
    code, out, _ = run("hom-m", str(source), str(FIXTURES / "circle_obj.json"),
                       "--max-len", "3", "--max-weight", "2", capsys=capsys)
    assert (code, out) == (0, "circle0 ← circle0 ^1\n"
                              "circle0 ← circle0 ^2\n"
                              "circle0 ← quiver0@0\n"
                              "circle0 ← quiver1@0\n"
                              "circle0 ← quiver1@1\n"
                              "circle0 ← quiver1@2\n"
                              "circle0 ← quiver0[e0]^1\n"
                              "circle0 ← quiver0[e0]^2\n"
                              "circle0 ← quiver0[e1]^1\n"
                              "circle0 ← quiver0[e1]^2\n"
                              "circle0 ← quiver0[e0·e1]^1\n"
                              "circle0 ← quiver0[e0·e1]^2\n"
                              "circle0 ← quiver0[e0·e0·e1]^1\n"
                              "circle0 ← quiver0[e0·e0·e1]^2\n"
                              "circle0 ← quiver0[e0·e1·e1]^1\n"
                              "circle0 ← quiver0[e0·e1·e1]^2\n"
                              "circle0 ← quiver1[e0·e1·e2]^1\n"
                              "circle0 ← quiver1[e0·e1·e2]^2\n"
                              "count: 18 (truncated)\n")


def test_reps_and_fact_say_how_many_rows_they_left_out(capsys):
    code, out, _ = run("reps", "--cat", str(FIXTURES / "s3.json"),
                       "--graph", str(FIXTURES / "interval.json"),
                       "--limit", "2", capsys=capsys)
    assert (code, out) == (0, "0:* 1:* | e0:p012\n"
                              "0:* 1:* | e0:p021\n"
                              "... and 4 more\n"
                              "count: 6\n")
    code, out, _ = run("fact", "--cat", str(FIXTURES / "s3.json"),
                       "--m", str(FIXTURES / "circle_obj.json"),
                       "--limit", "1", capsys=capsys)
    assert (code, out) == (0, "p012\n... and 2 more\nsize: 3\n")


CAT_FIXTURES = {"arrow": "arrow", "chain3": "chain3", "cyclic3": "z3", "s3": "s3"}


def listing(rows, limit, last):
    """What reps and fact print for a full list of rendered rows."""
    lines = rows[:limit]
    if len(rows) > limit:
        lines.append(f"... and {len(rows) - limit} more")
    return "".join(line + "\n" for line in lines + [f"{last}: {len(rows)}"])


def limits(count):
    return sorted({0, 1, 7, count, count + 1})


@pytest.mark.parametrize("cat_name", CAT_FIXTURES)
def test_reps_listings_are_the_full_enumeration_cut_at_the_limit(cat_name, capsys):
    """Rendered from the exit-path limit's full list, which enumerates
    without the lazy route."""
    cat = FinCat.from_json(json.loads((FIXTURES / f"{cat_name}.json").read_text()))
    for name in GRAPH_FIXTURES:
        g = Digraph.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
        rows = [f"{' '.join(f'{v}:{r.vertex_labels[v]}' for v in g.vertices)} | "
                f"{' '.join(f'{e.eid}:{r.edge_labels[e.eid]}' for e in g.edges)}"
                .strip(" |") for r in rep_via_exit_limit(cat, g)]
        for limit in limits(len(rows)):
            assert run("reps", "--cat", str(FIXTURES / f"{cat_name}.json"),
                       "--graph", str(FIXTURES / f"{name}.json"),
                       "--limit", str(limit), capsys=capsys) == \
                (0, listing(rows, limit, "count"), ""), (name, limit)


@pytest.fixture(scope="module")
def mobject_files(tmp_path_factory):
    """The two object fixtures, the unit and three objects of several
    factors, so that a limit cuts the product inside a factor."""
    d = tmp_path_factory.mktemp("objects")
    paths = [FIXTURES / "circle_obj.json", FIXTURES / "interval_obj.json"]
    for i, (circles, graphs) in enumerate([
            (0, []), (2, [standard_digraph("bouquet", 1)]),
            (1, [standard_digraph("interval"), standard_digraph("linear", 2)]),
            (0, [standard_digraph("cyclic", 2), standard_digraph("point")])]):
        paths.append(d / f"obj{i}.json")
        paths[-1].write_text(json.dumps(
            {"circles": circles, "quivers": [g.to_json() for g in graphs]}))
    return paths


@pytest.mark.parametrize("cat_name", CAT_FIXTURES)
def test_fact_listings_and_sizes_match_the_oracles(cat_name, mobject_files, capsys):
    """Rows from the string oracle's full product; the size is |HH|^circles
    times the H-colourings of each quiver."""
    cat = FinCat.from_json(json.loads((FIXTURES / f"{cat_name}.json").read_text()))
    validate_fincat(cat)
    h, n = hom_size_matrix(cat), len(cat.objects)
    for path in mobject_files:
        m = MObject.from_json(json.loads(path.read_text()))
        rows = [(" ".join(c.rep for c in classes) + " " + " ".join(
                    "(" + " ".join(f"{e.eid}:{r.edge_labels[e.eid]}"
                                   for e in r.graph.edges) + ")" for r in reps)
                 ).strip() or "(unit)"
                for classes, reps in string_oracle.fact_homology(cat, m)]
        assert len(rows) == CLASS_COUNTS[CAT_FIXTURES[cat_name]] ** m.circles * \
            math.prod(h_colourings(q, n, lambda e: h) for q in m.quivers)
        for limit in limits(len(rows)):
            assert run("fact", "--cat", str(FIXTURES / f"{cat_name}.json"),
                       "--m", str(path), "--limit", str(limit), capsys=capsys) == \
                (0, listing(rows, limit, "size"), ""), (path.name, limit)


def test_reps_of_a_large_hom_set_use_memory_for_the_rows_shown(tmp_path, capsys):
    """S4 on the 4-cycle has 24^4 = 331 776 representations; listing the
    default 200 of them peaks near 0.4 MB of traced allocations (CPython
    3.11), where building every tuple took about 36 MB."""
    cat, graph = tmp_path / "s4.json", tmp_path / "c4.json"
    cat.write_text(json.dumps(symmetric_group_category(4).to_json()))
    graph.write_text(json.dumps(standard_digraph("cyclic", 4).to_json()))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code = main(["reps", "--cat", str(cat), "--graph", str(graph)])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    out = capsys.readouterr().out.splitlines()
    assert (code, len(out)) == (0, 202)
    assert out[-2:] == ["... and 331576 more", "count: 331776"]
    assert peak < 2_000_000


def test_excise(capsys):
    code, out, _ = run("excise", "--cat", str(FIXTURES / "arrow.json"),
                       "--site", str(FIXTURES / "site_interval_e0.json"),
                       capsys=capsys)
    assert code == 0
    assert "coequalizer: 3" in out
    code, out, _ = run("excise", "--cat", str(FIXTURES / "cyclic3.json"),
                       "--site", str(FIXTURES / "site_circle.json"),
                       capsys=capsys)
    assert code == 0
    assert "stage 1: 9" in out


def test_dot_output(capsys):
    code, out, _ = run("dot", "--graph", str(FIXTURES / "interval.json"),
                       capsys=capsys)
    assert code == 0
    assert out.startswith("digraph")
    assert '"0" -> "1" [label="e0"];' in out


def test_verify_battery(capsys):
    code, out, _ = run("verify", "--seed", "3", capsys=capsys)
    assert code == 0
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = run("reps", "--cat", "/does/not/exist.json",
                       "--graph", str(FIXTURES / "interval.json"),
                       capsys=capsys)
    assert code == 2
    assert "cannot read" in err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run("classify", "--graph", str(bad), capsys=capsys)
    assert code == 2
    assert "not valid JSON" in err


def test_invalid_category_is_usage_error(tmp_path, capsys):
    broken = tmp_path / "cat.json"
    data = json.loads((FIXTURES / "cyclic3.json").read_text())
    data["compose"] = [t for t in data["compose"]
                       if not (t[0] == "g1" and t[1] == "g1")]
    broken.write_text(json.dumps(data))
    code, _, err = run("hh", "--cat", str(broken), capsys=capsys)
    assert code == 2
    assert "bad category" in err


def test_unknown_morphism_in_table_is_usage_error(tmp_path, capsys):
    broken = tmp_path / "cat.json"
    data = json.loads((FIXTURES / "cyclic3.json").read_text())
    data["compose"][0][2] = "zz"
    broken.write_text(json.dumps(data))
    code, out, err = run("hh", "--cat", str(broken), capsys=capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: bad category in {broken}: "
                   "composition table mentions unknown 'zz'\n")


@pytest.mark.parametrize("r", ["1", "2", "3"])
@pytest.mark.parametrize("name", ["le:0:1", "nope"])
def test_psi_rejects_a_non_endomorphism_the_same_way_for_every_r(name, r, capsys):
    code, out, err = run("psi", "--cat", ARROW, "--r", r, name, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {name!r} is not an endomorphism of this category\n"


def test_cover_piece_needs_a_semicolon(capsys):
    code, out, err = run("sheaf", "--cat", ARROW, "--graph",
                         str(FIXTURES / "linear2.json"), "--left", "0,1",
                         "--right", "1,2;e1", capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: --left must look like 'v1,v2;e1,e2' (';' required)\n"


def test_trace_of_an_unknown_object_names_it(capsys):
    code, out, err = run("trace", "--cat", str(FIXTURES / "arrow.json"),
                         "nope", capsys=capsys)
    assert (code, out, err) == (2, "", "error: unknown object 'nope'\n")


def test_fixture_round_trips_are_byte_identical(tmp_path):
    # parsing a fixture and re-serializing it canonically reproduces the file
    from quivercalc.digraph import Digraph
    from quivercalc.fincat import FinCat
    from quivercalc.emm import MObject
    loaders = {
        "interval.json": lambda d: Digraph.from_json(d).to_json(),
        "linear2.json": lambda d: Digraph.from_json(d).to_json(),
        "triangle.json": lambda d: Digraph.from_json(d).to_json(),
        "bouquet2.json": lambda d: Digraph.from_json(d).to_json(),
        "arrow.json": lambda d: FinCat.from_json(d).to_json(),
        "s3.json": lambda d: FinCat.from_json(d).to_json(),
        "cyclic3.json": lambda d: FinCat.from_json(d).to_json(),
        "chain3.json": lambda d: FinCat.from_json(d).to_json(),
        "circle_obj.json": lambda d: MObject.from_json(d).to_json(),
        "interval_obj.json": lambda d: MObject.from_json(d).to_json(),
    }
    for name, loader in loaders.items():
        raw = (FIXTURES / name).read_text()
        again = json.dumps(loader(json.loads(raw)), indent=2,
                           sort_keys=True) + "\n"
        assert again == raw, name


def readme_commands() -> list[list[str]]:
    """The argv of every `quivercalc ...` line in README's sh blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(),
                            re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["quivercalc"]:
                commands.append(words[1:])
    return commands


def test_every_readme_command_exits_0(monkeypatch):
    monkeypatch.chdir(ROOT)
    commands = readme_commands()
    assert len(commands) >= 16
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (0, ""), argv
        assert out.getvalue(), argv


def test_console_script_entry_point():
    out = subprocess.run([sys.executable, "-m", "quivercalc", "hh",
                          "--cat", str(FIXTURES / "arrow.json")],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "classes: 2" in out.stdout


def test_subgraph_error_does_not_depend_on_string_hashing():
    # 'a' and 'b' are both unknown: the first one given is the one named
    argv = ["sheaf", "--cat", str(FIXTURES / "arrow.json"),
            "--graph", str(FIXTURES / "triangle.json"),
            "--left", "a,b;e", "--right", "b;"]
    for seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-m", "quivercalc", *argv],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONHASHSEED": seed})
        assert (out.returncode, out.stderr) == (2, "error: unknown vertex 'a'\n")


# --- one cached grammar per verb for every call of main in a process ----------

BOUQUET2 = str(FIXTURES / "bouquet2.json")
REUSE_SEQUENCE = [
    ["para", "2 3 : 0 2", "--r", "3"],
    ["para", "2 3 : 0 2"],                       # without --r: no inflation line
    ["epi", "2 2 : 0 1 | 1 1", "2 2 : 0 1 | 1 1"],
    ["epi", "2 2 : 0 1 | 1 1"],                  # one morphism: no composite
    ["cycles", "--graph", BOUQUET2, "--max-len", "-1"],
    ["nonsense"],
    ["hh", "--cat", str(FIXTURES / "missing.json")],
    ["cycles", "--graph", BOUQUET2, "--max-len", "2"],
]
RUN_SEQUENCE = """\
import contextlib, io, json, sys
from quivercalc.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def fresh_process_results():
    """Each argv of REUSE_SEQUENCE run in its own python -m quivercalc."""
    results = []
    for argv in REUSE_SEQUENCE:
        out = subprocess.run([sys.executable, "-m", "quivercalc", *argv],
                             capture_output=True, text=True)
        results.append([out.returncode, out.stdout, out.stderr])
    return results


def test_reused_parser_leaks_nothing_between_calls(fresh_process_results):
    assert "inflation by 3" in fresh_process_results[0][1]
    assert "inflation" not in fresh_process_results[1][1]
    assert [r[0] for r in fresh_process_results] == [0, 0, 0, 0, 2, 2, 2, 0]
    for argv, want in zip(REUSE_SEQUENCE, fresh_process_results):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert [code, out.getvalue(), err.getvalue()] == want, argv


def test_reused_parser_leaks_nothing_between_calls_under_O(fresh_process_results):
    out = subprocess.run([sys.executable, "-O", "-c", RUN_SEQUENCE,
                          json.dumps(REUSE_SEQUENCE)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == fresh_process_results


# --- the error contract: bad input is exit 2 with one line on stderr ---------


@pytest.fixture(scope="module")
def bad_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bad")
    (tmp / "site.json").write_text("[1, 2]")
    (tmp / "obj.json").write_text('{"circles": -2, "quivers": []}')
    (tmp / "bool_obj.json").write_text('{"circles": true, "quivers": []}')
    interval = json.loads((FIXTURES / "interval.json").read_text())
    (tmp / "string_cuts.json").write_text(
        json.dumps({"graph": interval, "cut_edges": "e0"}))
    (tmp / "circle_cuts.json").write_text(
        json.dumps({"graph": "circle", "cut_edges": ["e0"]}))
    (tmp / "circle_junk_cuts.json").write_text(
        json.dumps({"graph": "circle", "cut_edges": "junk"}))
    (tmp / "deep.json").write_text("[" * 100_000)
    arrow = json.loads((FIXTURES / "arrow.json").read_text())
    arrow["compose"].append(["le:0:0", "le:0:0"])
    (tmp / "pair_compose.json").write_text(json.dumps(arrow))
    (tmp / "string_compose.json").write_text(json.dumps(
        {"objects": ["*"], "morphisms": [{"id": m, "src": "*", "tgt": "*"}
                                         for m in "ea"],
         "ids": {"*": "e"}, "compose": ["eee", "eaa", "aea", "aae"]}))
    (tmp / "no_tgt.json").write_text(json.dumps(
        {"vertices": ["0", "1"], "edges": [{"id": "e0", "src": "0", "tgt": "1"},
                                           {"id": "e1", "src": "1"}]}))
    (tmp / "string_edge.json").write_text(
        json.dumps({"vertices": ["0"], "edges": ["e0"]}))
    return tmp


ARROW = str(FIXTURES / "arrow.json")
BAD_INPUTS = {
    "para-not-monotone": ["para", "2 3 : 5 0"],
    "psi-r-0": ["psi", "--cat", str(FIXTURES / "cyclic3.json"), "--r", "0", "g1"],
    "para-r-0": ["para", "2 3 : 0 2", "--r", "0"],
    "reps-limit-negative": ["reps", "--cat", ARROW, "--graph",
                            str(FIXTURES / "interval.json"), "--limit", "-1"],
    "cycles-max-len-negative": ["cycles", "--graph", str(FIXTURES / "bouquet2.json"),
                                "--max-len", "-1"],
    "paths-max-len-negative": ["paths", "--graph", str(FIXTURES / "bouquet2.json"),
                               "0", "0", "--max-len", "-1"],
    "hom-m-max-weight-0": ["hom-m", str(FIXTURES / "circle_obj.json"),
                           str(FIXTURES / "circle_obj.json"), "--max-weight", "0"],
    "hom-m-path-cap-negative": ["hom-m", str(FIXTURES / "interval_obj.json"),
                                str(FIXTURES / "interval_obj.json"), "--path-cap", "-1"],
    "excise-site-not-an-object": ["excise", "--cat", ARROW, "--site", "{bad}/site.json"],
    "fact-negative-circles": ["fact", "--cat", ARROW, "--m", "{bad}/obj.json"],
    "fact-bool-circles": ["fact", "--cat", str(FIXTURES / "cyclic3.json"),
                          "--m", "{bad}/bool_obj.json"],
    "excise-cut-edges-string": ["excise", "--cat", ARROW,
                                "--site", "{bad}/string_cuts.json"],
    "hh-compose-pair": ["hh", "--cat", "{bad}/pair_compose.json"],
    "hh-compose-string": ["hh", "--cat", "{bad}/string_compose.json"],
    "classify-edge-without-tgt": ["classify", "--graph", "{bad}/no_tgt.json"],
    "classify-edge-string": ["classify", "--graph", "{bad}/string_edge.json"],
    "hh-deep-json": ["hh", "--cat", "{bad}/deep.json"],
    "excise-circle-cut-edges": ["excise", "--cat", ARROW,
                                "--site", "{bad}/circle_cuts.json"],
    "excise-circle-cut-edges-string": ["excise", "--cat", ARROW,
                                       "--site", "{bad}/circle_junk_cuts.json"],
}
BAD_MESSAGES = {
    "excise-site-not-an-object": "error: bad site in {bad}/site.json: "
                                 "site JSON needs 'graph'\n",
    "hh-compose-pair": "error: bad category in {bad}/pair_compose.json: "
                       "compose entry 4 is not a [g, f, h] triple\n",
    "hh-compose-string": "error: bad category in {bad}/string_compose.json: "
                         "compose entry 0 is not a [g, f, h] triple\n",
    "classify-edge-without-tgt": "error: bad digraph in {bad}/no_tgt.json: "
                                 "edge entry 1 has no 'tgt'\n",
    "classify-edge-string": "error: bad digraph in {bad}/string_edge.json: edge "
                            "entry 0 is not an object with 'id', 'src' and 'tgt'\n",
    "fact-bool-circles": "error: bad object in {bad}/bool_obj.json: "
                         "the circle count must be an integer >= 0, not True\n",
    "excise-cut-edges-string": "error: bad site in {bad}/string_cuts.json: "
                               "cut edge names must be a list of strings\n",
    "hh-deep-json": "error: {bad}/deep.json is not valid JSON: nested too deeply\n",
    "excise-circle-cut-edges": "error: bad site in {bad}/circle_cuts.json: a site "
                               "is a graph with cut edges, or a bare circle\n",
    "excise-circle-cut-edges-string": "error: bad site in {bad}/circle_junk_cuts.json: "
                                      "cut edge names must be a list of strings\n",
}


def _bad_argv(name, bad_files):
    return [a.replace("{bad}", str(bad_files)) for a in BAD_INPUTS[name]]


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_is_one_line_exit_2(name, bad_files, capsys):
    code, out, err = run(*_bad_argv(name, bad_files), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not err.rstrip().endswith(":")       # the message says what is wrong


@pytest.mark.parametrize("name", BAD_MESSAGES)
def test_bad_input_message(name, bad_files, capsys):
    code, out, err = run(*_bad_argv(name, bad_files), capsys=capsys)
    assert (code, out) == (2, "")
    assert err == BAD_MESSAGES[name].replace("{bad}", str(bad_files))


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_is_one_line_exit_2_under_O(name, bad_files):
    out = subprocess.run([sys.executable, "-O", "-m", "quivercalc",
                          *_bad_argv(name, bad_files)],
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


def test_verify_battery_still_checks_under_O():
    script = ("import sys, quivercalc.cli as cli\n"
              "cli._necklaces = lambda k, n: -1\n"
              "sys.exit(cli.main(['verify']))\n")
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True)
    assert out.returncode == 1
    assert "[FAIL] circle maps from bouquets count primitive necklaces" in out.stdout


# --- the command-line grammar: argv -> namespace, error line or help ---------

# every verb's namespace before any word is read
DEFAULTS = {
    "classify": {"graph": None},
    "paths": {"graph": None, "src": None, "tgt": None, "max_len": 6},
    "reps": {"cat": None, "graph": None, "limit": 200},
    "sheaf": {"cat": None, "graph": None, "left": None, "right": None},
    "hh": {"cat": None},
    "psi": {"cat": None, "r": 2, "endo": None},
    "trace": {"cat": None, "object": None},
    "para": {"mor": None, "compose": None, "r": 1},
    "epi": {"mor": None, "compose": None},
    "cycles": {"graph": None, "max_len": 6},
    "hom-m": {"source": None, "target": None, "max_len": 6, "max_weight": 3,
              "path_cap": 4, "limit": 200},
    "fact": {"cat": None, "mobject": None, "limit": 200},
    "excise": {"cat": None, "site": None},
    "dot": {"graph": None},
    "verify": {"seed": 0},
}
HELP = "help"
OBJ = str(FIXTURES / "circle_obj.json")
VERBS_LISTED = ("'classify', 'paths', 'reps', 'sheaf', 'hh', 'psi', 'trace', 'para', "
                "'epi', 'cycles', 'hom-m', 'fact', 'excise', 'dot', 'verify'")


def fx(name):
    return f"fixtures/{name}.json"


# what each BAD_INPUTS command line parses to: its fault is in the command
# line itself, or only in the files or morphisms it names
BAD_PARSES = {
    "para-not-monotone": {"mor": "2 3 : 5 0"},
    "psi-r-0": "error: argument --r: must be >= 1, not 0",
    "para-r-0": "error: argument --r: must be >= 1, not 0",
    "reps-limit-negative": "error: argument --limit: must be >= 0, not -1",
    "cycles-max-len-negative": "error: argument --max-len: must be >= 0, not -1",
    "paths-max-len-negative": "error: argument --max-len: must be >= 0, not -1",
    "hom-m-max-weight-0": "error: argument --max-weight: must be >= 1, not 0",
    "hom-m-path-cap-negative": "error: argument --path-cap: must be >= 0, not -1",
    "excise-site-not-an-object": {"cat": ARROW, "site": "{bad}/site.json"},
    "fact-negative-circles": {"cat": ARROW, "mobject": "{bad}/obj.json"},
    "fact-bool-circles": {"cat": str(FIXTURES / "cyclic3.json"),
                          "mobject": "{bad}/bool_obj.json"},
    "excise-cut-edges-string": {"cat": ARROW, "site": "{bad}/string_cuts.json"},
    "hh-compose-pair": {"cat": "{bad}/pair_compose.json"},
    "hh-compose-string": {"cat": "{bad}/string_compose.json"},
    "classify-edge-without-tgt": {"graph": "{bad}/no_tgt.json"},
    "classify-edge-string": {"graph": "{bad}/string_edge.json"},
    "hh-deep-json": {"cat": "{bad}/deep.json"},
    "excise-circle-cut-edges": {"cat": ARROW, "site": "{bad}/circle_cuts.json"},
    "excise-circle-cut-edges-string": {"cat": ARROW,
                                       "site": "{bad}/circle_junk_cuts.json"},
}

# argv -> the words it sets (over DEFAULTS), the one error line, or HELP
GRAMMAR = [
    # README's commands
    (["verify", "--seed", "7"], {"seed": 7}),
    (["classify", "--graph", fx("triangle")], {"graph": fx("triangle")}),
    (["paths", "--graph", fx("linear2"), "0", "2", "--max-len", "4"],
     {"graph": fx("linear2"), "src": "0", "tgt": "2", "max_len": 4}),
    (["reps", "--cat", fx("cyclic3"), "--graph", fx("interval")],
     {"cat": fx("cyclic3"), "graph": fx("interval")}),
    (["sheaf", "--cat", fx("arrow"), "--graph", fx("linear2"), "--left", "0,1;e0",
      "--right", "1,2;e1"],
     {"cat": fx("arrow"), "graph": fx("linear2"), "left": "0,1;e0", "right": "1,2;e1"}),
    (["hh", "--cat", fx("s3")], {"cat": fx("s3")}),
    (["psi", "--cat", fx("cyclic3"), "--r", "2", "g1"],
     {"cat": fx("cyclic3"), "r": 2, "endo": "g1"}),
    (["trace", "--cat", fx("arrow"), "0"], {"cat": fx("arrow"), "object": "0"}),
    (["para", "2 3 : 0 1", "--r", "2"], {"mor": "2 3 : 0 1", "r": 2}),
    (["epi", "1 1 : 0 | 6"], {"mor": "1 1 : 0 | 6"}),
    (["epi", "2 2 : 0 1 | 1 1", "2 2 : 1 0 | 1 1"],
     {"mor": "2 2 : 0 1 | 1 1", "compose": "2 2 : 1 0 | 1 1"}),
    (["cycles", "--graph", fx("bouquet2"), "--max-len", "4"],
     {"graph": fx("bouquet2"), "max_len": 4}),
    (["hom-m", fx("interval_obj"), fx("circle_obj")],
     {"source": fx("interval_obj"), "target": fx("circle_obj")}),
    (["fact", "--cat", fx("cyclic3"), "--m", fx("circle_obj")],
     {"cat": fx("cyclic3"), "mobject": fx("circle_obj")}),
    (["excise", "--cat", fx("cyclic3"), "--site", fx("site_circle")],
     {"cat": fx("cyclic3"), "site": fx("site_circle")}),
    (["excise", "--cat", fx("s3"), "--site", fx("site_bouquet2")],
     {"cat": fx("s3"), "site": fx("site_bouquet2")}),
    (["dot", "--graph", fx("triangle")], {"graph": fx("triangle")}),
    # REUSE_SEQUENCE
    (["para", "2 3 : 0 2", "--r", "3"], {"mor": "2 3 : 0 2", "r": 3}),
    (["para", "2 3 : 0 2"], {"mor": "2 3 : 0 2"}),
    (["epi", "2 2 : 0 1 | 1 1", "2 2 : 0 1 | 1 1"],
     {"mor": "2 2 : 0 1 | 1 1", "compose": "2 2 : 0 1 | 1 1"}),
    (["epi", "2 2 : 0 1 | 1 1"], {"mor": "2 2 : 0 1 | 1 1"}),
    (["cycles", "--graph", BOUQUET2, "--max-len", "-1"],
     "error: argument --max-len: must be >= 0, not -1"),
    (["nonsense"], f"error: argument verb: invalid choice: 'nonsense' (choose from "
                   f"{VERBS_LISTED})"),
    (["hh", "--cat", str(FIXTURES / "missing.json")],
     {"cat": str(FIXTURES / "missing.json")}),
    (["cycles", "--graph", BOUQUET2, "--max-len", "2"], {"graph": BOUQUET2, "max_len": 2}),
    # BAD_INPUTS
    *((BAD_INPUTS[name], want) for name, want in BAD_PARSES.items()),
    # help: for the whole command line, and for each verb
    *(([verb, "-h"], HELP) for verb in DEFAULTS),
    (["-h"], HELP), (["--help"], HELP), (["--he"], HELP), (["para", "--he"], HELP),
    (["paths", "--graph", BOUQUET2, "--help", "--max-len", "x"], HELP),
    # no verb, or an unknown one
    ([], "error: the following arguments are required: verb"),
    (["-x"], "error: the following arguments are required: verb"),
    # required arguments left out, named in VERBS order
    (["classify"], "error: the following arguments are required: --graph"),
    (["paths"], "error: the following arguments are required: --graph, src, tgt"),
    (["paths", "--graph", BOUQUET2, "0"], "error: the following arguments are required: tgt"),
    (["para"], "error: the following arguments are required: 'm n : g0 g1 ...'"),
    (["sheaf", "--cat", ARROW, "--graph", BOUQUET2, "--left", "0;"],
     "error: the following arguments are required: --right"),
    (["fact", "--cat", ARROW], "error: the following arguments are required: --m"),
    # values that do not read
    (["paths", "--graph", BOUQUET2, "0", "0", "--max-len", "x"],
     "error: argument --max-len: invalid count value: 'x'"),
    (["verify", "--seed", "1.5"], "error: argument --seed: invalid int value: '1.5'"),
    (["para", "1 1 : 0", "--r", "x"], "error: argument --r: invalid count value: 'x'"),
    (["paths", "--graph", BOUQUET2, "0", "0", "--max-len", "-1"],
     "error: argument --max-len: must be >= 0, not -1"),
    (["para", "1 1 : 0", "--r", "0"], "error: argument --r: must be >= 1, not 0"),
    (["psi", "--cat", ARROW, "--r", "-2", "g"], "error: argument --r: must be >= 1, not -2"),
    (["verify", "--seed", "-1"], {"seed": -1}),
    # an option with no value after it
    (["para", "1 1 : 0", "--r"], "error: argument --r: expected one argument"),
    (["paths", "--graph", BOUQUET2, "0", "0", "--graph"],
     "error: argument --graph: expected one argument"),
    (["para", "1 1 : 0", "--r", "--r"], "error: argument --r: expected one argument"),
    (["para", "1 1 : 0", "--r", "-x"], "error: argument --r: expected one argument"),
    (["para", "1 1 : 0", "--r", "--", "2"], "error: argument --r: expected one argument"),
    # words left over, unknown options among them, in the order given
    (["hh", "--cat", ARROW, "extra"], "error: unrecognized arguments: extra"),
    (["dot", "--graph", BOUQUET2, "a", "b"], "error: unrecognized arguments: a b"),
    (["para", "1 1 : 0", "1 1 : 0", "1 1 : 0"], "error: unrecognized arguments: 1 1 : 0"),
    (["epi", "1 1 : 0 | 1", "x", "y"], "error: unrecognized arguments: y"),
    (["paths", "--graph", BOUQUET2, "0", "0", "0"], "error: unrecognized arguments: 0"),
    (["trace", "--cat", ARROW, "0", "1"], "error: unrecognized arguments: 1"),
    (["para", "--bogus", "1 1 : 0"], "error: unrecognized arguments: --bogus"),
    (["para", "1 1 : 0", "-x", "1 1 : 0", "y"], "error: unrecognized arguments: -x y"),
    (["para", "1 1 : 0", "--bogus=1"], "error: unrecognized arguments: --bogus=1"),
    (["hh", "--cat", ARROW, "--", "--"], "error: unrecognized arguments: --"),
    # "--": every later word is a positional
    (["para", "--", "1 1 : 0"], {"mor": "1 1 : 0"}),
    (["paths", "--graph", BOUQUET2, "--", "0", "0"], {"graph": BOUQUET2, "src": "0", "tgt": "0"}),
    (["para", "1 1 : 0", "--", "--r"], {"mor": "1 1 : 0", "compose": "--r"}),
    (["trace", "--cat", ARROW, "--", "-h"], {"cat": ARROW, "object": "-h"}),
    (["psi", "--cat", ARROW, "--", "-1"], {"cat": ARROW, "endo": "-1"}),
    # positionals: a negative number, a lone "-", "", or a word with a space
    (["para", "1 1 : -1"], {"mor": "1 1 : -1"}),
    (["paths", "--graph", BOUQUET2, "-1", "0"], {"graph": BOUQUET2, "src": "-1", "tgt": "0"}),
    (["para", "-1 1 : 0"], {"mor": "-1 1 : 0"}),
    (["para", "-"], {"mor": "-"}), (["para", ""], {"mor": ""}),
    (["trace", "--cat", ARROW, "-"], {"cat": ARROW, "object": "-"}),
    (["paths", "--graph", "-", "0", "0"], {"graph": "-", "src": "0", "tgt": "0"}),
    (["paths", "--graph", "", "0", ""], {"graph": "", "src": "0", "tgt": ""}),
    (["sheaf", "--cat", ARROW, "--graph", BOUQUET2, "--left", "", "--right", "-"],
     {"cat": ARROW, "graph": BOUQUET2, "left": "", "right": "-"}),
    # positionals split by an option
    (["paths", "--graph", BOUQUET2, "0", "--max-len", "2", "0"],
     {"graph": BOUQUET2, "src": "0", "tgt": "0", "max_len": 2}),
    (["para", "1 1 : 0", "--r", "2", "1 1 : 0"],
     {"mor": "1 1 : 0", "compose": "1 1 : 0", "r": 2}),
    (["para", "--r", "2", "1 1 : 0"], {"mor": "1 1 : 0", "r": 2}),
    (["hom-m", OBJ, "--max-len", "2", OBJ], {"source": OBJ, "target": OBJ, "max_len": 2}),
    # unique prefixes, and the ambiguous one
    (["paths", "--graph", BOUQUET2, "0", "0", "--max", "2"],
     {"graph": BOUQUET2, "src": "0", "tgt": "0", "max_len": 2}),
    (["hom-m", OBJ, OBJ, "--max-w", "2"], {"source": OBJ, "target": OBJ, "max_weight": 2}),
    (["fact", "--ca", ARROW, "--m", OBJ], {"cat": ARROW, "mobject": OBJ}),
    (["verify", "--se", "2"], {"seed": 2}),
    (["hom-m", OBJ, OBJ, "--max", "2"],
     "error: ambiguous option: --max could match --max-len, --max-weight"),
    (["hom-m", OBJ, OBJ, "--max=2"],
     "error: ambiguous option: --max=2 could match --max-len, --max-weight"),
    # --opt=value, with a prefix too
    (["para", "1 1 : 0", "--r=2"], {"mor": "1 1 : 0", "r": 2}),
    (["cycles", "--graph=" + BOUQUET2, "--max-l=2"], {"graph": BOUQUET2, "max_len": 2}),
    (["para", "1 1 : 0", "--r=x"], "error: argument --r: invalid count value: 'x'"),
    (["para", "1 1 : 0", "--r="], "error: argument --r: invalid count value: ''"),
    (["sheaf", "--cat", ARROW, "--graph", BOUQUET2, "--left=", "--right=-"],
     {"cat": ARROW, "graph": BOUQUET2, "left": "", "right": "-"}),
    # a repeated option: the last one wins, but every value must read
    (["para", "1 1 : 0", "--r", "2", "--r", "3"], {"mor": "1 1 : 0", "r": 3}),
    (["paths", "--graph", "nope", "0", "0", "--graph", BOUQUET2],
     {"graph": BOUQUET2, "src": "0", "tgt": "0"}),
    (["para", "1 1 : 0", "--r", "x", "--r", "2"],
     "error: argument --r: invalid count value: 'x'"),
]


def test_the_grammar_reads_each_command_line_as_written(bad_files, capsys):
    """Each GRAMMAR row, and every README, REUSE_SEQUENCE and BAD_INPUTS
    command line among them."""
    argvs = [argv for argv, _want in GRAMMAR]
    for argv in [*readme_commands(), *REUSE_SEQUENCE, *BAD_INPUTS.values()]:
        assert argv in argvs, argv
    assert BAD_PARSES.keys() == BAD_INPUTS.keys()
    for argv, want in GRAMMAR:
        if isinstance(want, dict):
            args = vars(cli._parse(argv))
            assert args.pop("func") is cli.VERBS[argv[0]][1], argv
            assert args == {**DEFAULTS[argv[0]], **want, "verb": argv[0]}, argv
            continue
        code, out, err = run(*argv, capsys=capsys)
        if want == HELP:
            assert (code, err) == (0, ""), argv
            assert out.startswith("usage: quivercalc "), argv
        else:
            assert (code, out, err) == (2, "", want + "\n"), argv


# argvs shaped like the benchmark's walks jobs
WALKS_ARGVS = [
    ["para", "2 3 : 0 2", "--r", "3"], ["para", "2 3 : 0 2", "3 1 : 0 0 1"],
    ["epi", "2 2 : 0 1 | 1 1"], ["epi", "1 1 : 0 | 2", "1 1 : 0 | 3"],
    ["paths", "--graph", BOUQUET2, "0", "0", "--max-len", "3"],
    ["cycles", "--graph", BOUQUET2, "--max-len", "3"], ["classify", "--graph", BOUQUET2],
    ["hom-m", OBJ, OBJ, "--max-len", "2"],
]


def test_each_verb_reads_its_grammar_from_verbs_once(capsys):
    cli._grammar.cache_clear()
    for _ in range(3):
        for argv in WALKS_ARGVS + REUSE_SEQUENCE:
            main(argv)
        for verb in cli.VERBS:
            assert main([verb, "--no-such-option"]) == 2
    capsys.readouterr()
    info = cli._grammar.cache_info()
    assert (info.misses, info.currsize) == (len(cli.VERBS), len(cli.VERBS))


def test_help_names_every_argument_and_returns_0(capsys):
    code, out, err = run("-h", capsys=capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: quivercalc [-h] VERB ...\n")
    for verb, (about, _func, _arguments) in cli.VERBS.items():
        assert f"  {verb}" in out and about in out
    for verb, (about, _func, arguments) in cli.VERBS.items():
        code, out, err = run(verb, "-h", capsys=capsys)
        assert (code, err) == (0, ""), verb
        assert out.startswith(f"usage: quivercalc {verb} [-h]"), verb
        assert about in out, verb
        for names, kw in arguments:
            for name in names:
                shown = name if name.startswith("-") else kw.get("metavar", name)
                assert shown in out, (verb, shown)
    assert run("fact", "-h", capsys=capsys)[1] == (
        "usage: quivercalc fact [-h] --cat CAT --m MOBJECT [--limit LIMIT]\n\n"
        "invariant of a one-manifold object\n")
    assert run("para", "--help", capsys=capsys)[1] == (
        "usage: quivercalc para [-h] 'm n : g0 g1 ...' ['n p : h0 ...'] [--r R]\n\n"
        "paracyclic morphism arithmetic\n"
        "  'n p : h0 ...'  compose (applied second)\n")


def test_help_from_the_console_script_exits_0():
    out = subprocess.run([sys.executable, "-m", "quivercalc", "paths", "-h"],
                         capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("usage: quivercalc paths [-h] --graph GRAPH src tgt")


def test_top_level_help_and_errors_are_unchanged(capsys):
    code, out, err = run("-h", capsys=capsys)
    assert (code, out.startswith("usage: quivercalc"), err) == (0, True, "")
    assert run(capsys=capsys) == (
        2, "", "error: the following arguments are required: verb\n")
    assert run("nonsense", capsys=capsys) == (
        2, "", f"error: argument verb: invalid choice: 'nonsense' (choose from "
               f"{VERBS_LISTED})\n")


# --- fuzzing main: any argv and any JSON end in exit 0, 1 or 2 ---------------

FUZZ_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))
SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
           | st.sampled_from(["", "0", "e0", "g1", "circle", "le:0:1"]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(
                       ["vertices", "edges", "id", "src", "tgt", "objects",
                        "morphisms", "ids", "compose", "circles", "quivers",
                        "graph", "cut_edges"]), inner, max_size=3)),
    max_leaves=6)


@st.composite
def mutated(draw, data):
    """data with one node replaced by a random value, or one key dropped."""
    if isinstance(data, dict) and data and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(data)))
        if draw(st.booleans()):
            return {k: v for k, v in data.items() if k != key}
        return {**data, key: draw(mutated(data[key]))}
    if isinstance(data, list) and data and draw(st.booleans()):
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + [draw(mutated(data[i]))] + data[i + 1:]
    return draw(JSON_VALUES)


@st.composite
def json_docs(draw):
    data = json.loads((FIXTURES / draw(st.sampled_from(FUZZ_FIXTURES))).read_text())
    for _ in range(draw(st.integers(0, 2))):
        data = draw(mutated(data))
    return data


FILE = st.sampled_from(["{0}", "{1}", "{missing}"])
NAME = st.sampled_from(["0", "1", "2", "e0", "g1", "p012", "*", "le:0:1", "zz"])
NUM = st.sampled_from(["-2", "-1", "0", "1", "2", "3", "x"])
COVER = st.sampled_from(["0,1;e0", "1,2;e1", "1;", "0,1", ";", "zz;e9"])
PARA = st.sampled_from(["2 3 : 0 2", "3 1 : 0 0 1", "1 1 : 1", "2 3 : 5 0",
                        "0 1 : ", "2 3", "x"])
EPI = st.sampled_from(["1 1 : 0 | 6", "2 2 : 0 1 | 1 1", "2 3 : 0 2 | 9 9",
                       "1 1 : 0 | 0", "2 2 : 0 1", "x"])
SLOTS = {
    "classify": [("--graph", FILE)],
    "paths": [("--graph", FILE), NAME, NAME, ("--max-len", NUM)],
    "reps": [("--cat", FILE), ("--graph", FILE), ("--limit", NUM)],
    "sheaf": [("--cat", FILE), ("--graph", FILE), ("--left", COVER),
              ("--right", COVER)],
    "hh": [("--cat", FILE)],
    "psi": [("--cat", FILE), ("--r", NUM), NAME],
    "trace": [("--cat", FILE), NAME],
    "para": [PARA, PARA, ("--r", NUM)],
    "epi": [EPI, EPI],
    "cycles": [("--graph", FILE), ("--max-len", NUM)],
    "hom-m": [FILE, FILE, ("--max-len", NUM), ("--max-weight", NUM),
              ("--path-cap", NUM), ("--limit", NUM)],
    "fact": [("--cat", FILE), ("--m", FILE), ("--limit", NUM)],
    "excise": [("--cat", FILE), ("--site", FILE)],
    "dot": [("--graph", FILE)],
    "verify": [("--seed", NUM)],
    "nonsense": [],
}


@st.composite
def argvs(draw):
    """A verb and a random subset of its arguments, in order or shuffled, so
    that options also fall between positionals."""
    verb = draw(st.sampled_from(sorted(SLOTS)))
    slots = [slot for slot in SLOTS[verb] if draw(st.integers(0, 5))]
    if draw(st.booleans()):
        slots = draw(st.permutations(slots))
    argv = [verb]
    for slot in slots:
        if isinstance(slot, tuple):
            argv += [slot[0], draw(slot[1])]
        else:
            argv.append(draw(slot))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


@settings(max_examples=100, deadline=None)
@given(argv=argvs(), docs=st.lists(json_docs(), min_size=2, max_size=2))
@example(argv=["excise", "--cat", "{0}", "--site", "{1}"],
         docs=[_fixture("arrow.json"), [1, 2]])
@example(argv=["fact", "--cat", "{0}", "--m", "{1}"],
         docs=[_fixture("arrow.json"), {"circles": -2, "quivers": []}])
def test_main_never_raises(fuzz_dir, argv, docs):
    paths = {"{missing}": str(fuzz_dir / "missing.json")}
    for i, doc in enumerate(docs):
        paths[f"{{{i}}}"] = str(fuzz_dir / f"{i}.json")
        (fuzz_dir / f"{i}.json").write_text(json.dumps(doc))
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
