"""The tools reach into the package by name; every such name must resolve.

``tools/hessian_crossover.py`` is the measurement ``calculus.DENSE_MAX_N`` is
set from, and it calls private ``calculus`` helpers that no test runs. The
file is parsed, not run, so a rename fails here rather than in the tool.
"""

import ast
import os

import pytest

import sandwich_opt
from sandwich_opt import calculus

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "hessian_crossover.py")


def _tree():
    with open(TOOL, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _calculus_names():
    return sorted({node.attr for node in ast.walk(_tree())
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "calculus"})


def _imported_names():
    return sorted(alias.name for node in ast.walk(_tree())
                  if isinstance(node, ast.ImportFrom) and node.module == "sandwich_opt"
                  for alias in node.names)


def test_tool_reads_the_private_helpers():
    assert {"_twin_matrix", "_twin_matvec", "_lanczos_extreme", "DENSE_MAX_N"} <= set(_calculus_names())


@pytest.mark.parametrize("name", _calculus_names())
def test_tool_calculus_name_resolves(name):
    assert hasattr(calculus, name)


@pytest.mark.parametrize("name", _imported_names())
def test_tool_package_import_resolves(name):
    assert hasattr(sandwich_opt, name)
