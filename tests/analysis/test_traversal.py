"""The analyzer's traversal: one walker, one walk per module model.

``lint.walk`` must visit exactly what ``ast.walk`` visits, in the same
order, because messages quote the first yield a walk finds and
``fn.yields`` keeps walk order among equal lines.  The kernel index
must answer what a fresh walk of each node would.  The visit budget
turns a re-walk creeping back into the analyzer into a failing test
rather than a noisy benchmark row.
"""

from __future__ import annotations

import ast
import glob
import os
import sys

import pytest

from repro.analysis import dataflow, lint
from repro.analysis.rules import ALL_RULES

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
APP_FILES = sorted(
    glob.glob(os.path.join(REPO_ROOT, "src", "repro", "apps", "*", "ppm_*.py"))
)

#: Statement and expression forms the repository's own code barely uses.
SNIPPET = """\
def f(xs, kw):
    match xs:
        case [a, *rest] if (n := len(rest)) > 1:
            g = lambda y: (lambda z: y + z + n)
        case {"k": v, **more}:
            global G
        case Point(x=0, y=[_, *_]) | None:
            pass
    return {k: (lambda: v) for k, v in kw.items() if (w := k)}, f"{xs!r:>{n}}"
"""
EXCEPT_STAR = """\
try:
    pass
except* (ValueError, TypeError) as eg:
    h = lambda: (w := eg)
"""

#: Nodes one ``verify_paths`` + ``lint_paths`` sweep over the six apps
#: may visit.  Each sweep builds every module model twice (4 070 nodes
#: each time); the rest is access collection.  The sweep visited 37 328
#: nodes before the analyzer walked each tree once.
VISIT_BUDGET = 15_000


def _corpus():
    for top in ("src", "examples", "tests"):
        yield from glob.glob(
            os.path.join(REPO_ROOT, top, "**", "*.py"), recursive=True
        )


def test_walk_matches_ast_walk_order():
    sources = [open(p, encoding="utf-8").read() for p in _corpus()]
    sources.append(SNIPPET)
    if sys.version_info >= (3, 11):
        sources.append(EXCEPT_STAR)
    assert len(sources) > 100
    for source in sources:
        tree = ast.parse(source)
        # List equality tries identity first: same nodes, same order.
        assert list(lint.walk(tree)) == list(ast.walk(tree))


def test_walk_records_every_parent():
    tree = ast.parse(SNIPPET)
    parents: dict = {}
    for node in lint.walk(tree, parents):
        for child in ast.iter_child_nodes(node):
            assert parents[child] is node
    assert tree not in parents


def test_kernel_index_answers_what_a_walk_would():
    checked = 0
    for path in APP_FILES:
        with open(path, encoding="utf-8") as fh:
            model = lint.build_module_model(fh.read(), path)
        for fn in model.functions:
            shared = set(fn.shared_params)
            assert shared
            for node in ast.walk(fn.node):
                under = list(ast.walk(node))
                assert fn.ylines.get(node, []) == [
                    n.lineno for n in under if isinstance(n, ast.Yield)
                ]
                assert (node in fn.touches) == any(
                    isinstance(n, ast.Name) and n.id in shared for n in under
                )
                checked += 1
    assert checked > 2_000  # every node of the six kernels


def test_sweep_visit_budget(monkeypatch):
    real = lint.walk
    visits = 0

    def counting(node, parents=None):
        nonlocal visits
        for n in real(node, parents):
            visits += 1
            yield n

    users = [
        m for name, m in sys.modules.items()
        if name.startswith("repro.analysis") and getattr(m, "walk", None) is real
    ]
    assert ALL_RULES and lint in users and len(users) > 1  # a rule walks too
    for module in users:
        monkeypatch.setattr(module, "walk", counting)
    diags, summaries = dataflow.verify_paths(APP_FILES)
    lint.lint_paths(APP_FILES)
    assert len(summaries) == 6
    assert 2 * 4_070 < visits <= VISIT_BUDGET
