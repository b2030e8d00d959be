"""Liveness analysis: dead writes (PPM409).

A phase write is *dead* when a later phase provably overwrites the same
elements before any VP or the driver can read them: the value was
bundled, shipped and committed for nothing.  The check runs over the
per-phase access summaries the :mod:`repro.analysis.dataflow` verifier
builds, in straight-line kernels only — under a phase loop the segments
repeat dynamically and the static "later phase" order says nothing.

Diagnostics:

* **PPM409** (warning) — a dead write: the value a phase writes is
  provably overwritten by a later phase before any VP or the driver
  can read it.
"""

from __future__ import annotations

import ast

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.lint import FunctionModel
from repro.analysis.summaries import (
    SET_TOP,
    SET_WHOLE,
    cross_vp_relation,
    same_vp_relation,
)

__all__ = ["analyze_liveness"]


def analyze_liveness(fn: FunctionModel, summary, path: str) -> list[Diagnostic]:
    """Run the liveness pass for one kernel; returns its PPM409
    diagnostics."""
    diags: list[Diagnostic] = []
    loops_with_yields = any(
        isinstance(node, (ast.For, ast.While)) for node in fn.ylines
    )
    if loops_with_yields or not summary.analyzable:
        # Segments repeat dynamically under phase loops; the static
        # "later phase" order is then unsound for deadness.
        return diags
    accesses = [
        (seg, phase, a)
        for seg, phase in enumerate(summary.phases)
        for a in phase.accesses
    ]
    for sw, pw, w in accesses:
        if w.kind != "write" or w.guards or w.iset == SET_TOP:
            continue
        killer = None
        for sk, _pk, k in accesses:
            if (
                k.kind == "write"
                and k is not w
                and sk > sw
                and not k.guards
                and k.variable == w.variable
                and (k.iset == w.iset or k.iset == SET_WHOLE)
            ):
                killer = (sk, k)
                break
        if killer is None:
            continue
        sk, k = killer
        observed = False
        for sr, _pr, r in accesses:
            if (
                r.variable == w.variable
                and r.kind == "read"
                and sw < sr <= sk
            ):
                if (
                    same_vp_relation(r.iset, w.iset) != "disjoint"
                    or cross_vp_relation(r.iset, w.iset, "global")
                    != "disjoint"
                ):
                    observed = True
                    break
        if observed:
            continue
        diags.append(Diagnostic(
            tool="dataflow",
            rule="PPM409",
            severity="warning",
            message=(
                f"dead write: `{w.expr}` (line {w.lineno}) is "
                f"overwritten by `{k.expr}` (line {k.lineno}) before "
                "any snapshot read observes it"
            ),
            path=path,
            line=w.lineno,
            phase_index=sw,
            phase_kind=pw.kind,
            variable=w.variable,
            expr=w.expr,
        ))
    return diags
