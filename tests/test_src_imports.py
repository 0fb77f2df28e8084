"""The package imports only the standard library and itself.

pyproject.toml declares no dependencies, and the tests' oracles (the
modules beside this one, perfbench's, numpy and sympy) stay independent
only while the code they check never reads them.  This test reads the
source and fails on any import of another top-level module, including a
call of __import__ or importlib.import_module on a constant name.
"""
import ast
import pathlib
import sys

import pytest

import quivercalc

SOURCES = sorted(pathlib.Path(quivercalc.__file__).parent.glob("*.py"))
ALLOWED = frozenset(sys.stdlib_module_names) | {"quivercalc"}


def imported(tree: ast.AST):
    """(line, top-level module) for each absolute import in the tree;
    a relative import is the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and (isinstance(node.func, ast.Name) and node.func.id == "__import__"
                   or isinstance(node.func, ast.Attribute)
                   and node.func.attr == "import_module")):
            names = [node.args[0].value]
        else:
            continue
        for name in names:
            yield node.lineno, name.partition(".")[0]


def test_the_guard_sees_foreign_imports():
    src = ("import numpy as np\nfrom hypothesis import given\n"
           "import os.path, search_oracle\nfrom . import quiver\n"
           "from quivercalc.digraph import Digraph\n"
           "importlib.import_module('perfbench.spans')\n__import__('sympy')\n")
    found = [(line, name) for line, name in imported(ast.parse(src))
             if name not in ALLOWED]
    assert found == [(1, "numpy"), (2, "hypothesis"), (3, "search_oracle"),
                     (6, "perfbench"), (7, "sympy")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library(path):
    found = [f"{path.name}:{line} {name}"
             for line, name in imported(ast.parse(path.read_text()))
             if name not in ALLOWED]
    assert not found, "imports outside the standard library: " + ", ".join(found)
