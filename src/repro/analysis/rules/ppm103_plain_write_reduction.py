"""PPM103 — plain-write reduction pattern that should be ``accumulate``.

``X[i] += v`` (or the spelled-out ``X[i] = X[i] + v``) on a shared
variable reads the *phase-start snapshot* (R1) and plain-writes the sum
back: if any other VP updates the same element in the same phase, all
but the highest-ranked VP's contribution silently vanishes under R3.
The combining form ``X.accumulate(i, v)`` merges every contribution
(R4) and is what a reduction means in this model.  Even when elements
never actually overlap, the accumulate form states the intent and stays
correct under re-chunking.

Reference (triggering example and fix): docs/DIAGNOSTICS.md#ppm103
"""

from __future__ import annotations

import ast

from repro.analysis.lint import walk
from repro.analysis.rules.base import LintRule

#: Operators with an ``accumulate`` equivalent (``+``/``-`` map to
#: add/subtract, ``*`` to multiply).
_COMBINABLE_OPS = (ast.Add, ast.Sub, ast.Mult)


def _self_update(acc, rhs: ast.expr) -> bool:
    """True when ``rhs`` contains ``base[index]`` with the same base
    and index as the write target ``acc``."""
    for node in walk(rhs):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and ast.dump(node.value) == acc.base_dump
            and ast.dump(node.slice) == acc.index_dump
        ):
            return True
    return False


class PlainWriteReductionRule(LintRule):
    rule_id = "PPM103"
    severity = "error"
    summary = "plain-write reduction should be accumulate"

    def check(self, model):
        for fn in model.functions:
            for acc in fn.accesses:
                if acc.kind != "write":
                    continue
                stmt = acc.stmt
                hit = False
                if (
                    isinstance(stmt, ast.AugAssign)
                    and stmt.target is acc.node
                    and isinstance(stmt.op, _COMBINABLE_OPS)
                ):
                    hit = True
                elif (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and stmt.targets[0] is acc.node
                    and isinstance(stmt.value, ast.BinOp)
                    and isinstance(stmt.value.op, _COMBINABLE_OPS)
                    and _self_update(acc, stmt.value)
                ):
                    hit = True
                if hit:
                    yield self.diag(
                        model,
                        acc.lineno,
                        f"read-modify-write on shared variable {acc.name!r} "
                        "plain-writes a value derived from the phase-start "
                        "snapshot: concurrent updates by other VPs are "
                        "silently lost under rank-order resolution (R3); "
                        f"use {acc.name}.accumulate(...) (R4) instead",
                    )


RULE = PlainWriteReductionRule()
