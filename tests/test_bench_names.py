"""The benchmark reaches into the package by name; every such name must resolve.

``bench/tracer.py`` wraps the functions listed in ``SPANNED`` and ``COUNTED``
and ``bench/run.py`` reads suite spans by the names in ``SUITE_RUNNERS``. The
files are parsed, not imported or modified, so a rename fails here rather
than in a benchmark run.
"""

import ast
import os

import pytest

import sandwich_opt
from sandwich_opt.inequalities import SUITES

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _literal(filename, name):
    with open(os.path.join(BENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in bench/{filename}")


def _traced_names():
    pairs = list(_literal("tracer.py", "SPANNED")) + list(_literal("tracer.py", "COUNTED"))
    pairs += [tuple(path.split(".")) for path in _literal("run.py", "SUITE_RUNNERS").values()]
    return pairs


@pytest.mark.parametrize("module,name", _traced_names())
def test_bench_name_resolves(module, name):
    assert callable(getattr(getattr(sandwich_opt, module), name))


def test_bench_suite_runners_cover_every_suite():
    assert set(_literal("run.py", "SUITE_RUNNERS")) == set(SUITES)
