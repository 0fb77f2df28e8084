"""No function in the package calls itself.

Python's recursion limit turns a deep enough input into a RecursionError,
so every search in quivercalc keeps an explicit stack.  This test reads the
source and fails on a function that calls its own name, directly or as
self.<name> / cls.<name>.
"""
import ast
import pathlib

import pytest

import quivercalc

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
