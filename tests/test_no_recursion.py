"""No function in the package calls itself.

Python's recursion limit turns a deep enough input into a RecursionError,
so every search in quivercalc keeps an explicit stack.  This test reads the
source and fails on a function that calls its own name, directly or as
self.<name> / cls.<name>; and it runs the labelling search on a graph
deeper than the recursion limit.
"""
import ast
import pathlib
import sys

import pytest

import quivercalc
from quivercalc.digraph import standard_digraph, walks
from quivercalc.fincat import cyclic_group_category, rep_count, rep_tuples
from quivercalc.quiver import enumerate_quiver_mors

SOURCES = sorted(pathlib.Path(quivercalc.__file__).parent.glob("*.py"))


def self_calls(tree: ast.AST):
    """(line, name) for each call of a function's own name inside it."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == fn.name:
                yield node.lineno, fn.name
            elif (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                  and isinstance(callee.value, ast.Name)
                  and callee.value.id in ("self", "cls")):
                yield node.lineno, fn.name


def test_the_guard_sees_recursion():
    src = ("def walk(n):\n    return walk(n - 1)\n"
           "class A:\n    def go(self):\n        return self.go()\n"
           "def outer():\n    def inner():\n        inner()\n")
    assert list(self_calls(ast.parse(src))) == [
        (2, "walk"), (5, "go"), (8, "inner")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    found = [f"{path.name}:{line} {name}"
             for line, name in self_calls(ast.parse(path.read_text()))]
    assert not found, "recursive calls: " + ", ".join(found)


def test_the_labelling_search_keeps_its_own_stack():
    """The labelling search of rep_count, rep_tuples and
    enumerate_quiver_mors goes one vertex deeper per labelled vertex, so a
    chain longer than the recursion limit would overflow a recursive one."""
    g = standard_digraph("linear", 3000)
    n = len(g.vertices)
    assert n > sys.getrecursionlimit()
    one = cyclic_group_category(1)
    assert rep_count(one, g) == 1
    assert rep_tuples(one, g) == [(0,) * (2 * n - 1)]
    mors, count, truncated = enumerate_quiver_mors(g, standard_digraph("point"))
    assert (count, truncated) == (1, False)
    assert all(not p.edges for p in mors[0].edge_paths.values())


def test_the_walk_search_keeps_its_own_stack():
    """walks goes one vertex deeper per edge of a walk, so the one path
    along a chain longer than the recursion limit would overflow a
    recursive search."""
    n = max(3000, sys.getrecursionlimit() + 100)
    g = standard_digraph("linear", n)
    assert walks(g, "0", str(n), n) == [tuple(f"e{i}" for i in range(n))]
    assert walks(g, "0", str(n), n - 1) == []
