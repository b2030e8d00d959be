"""Observability sweep: traced CG traffic and bundling effectiveness.

Runs the PPM CG under a :class:`~repro.obs.events.PhaseTrace` and
reports, per node count, the runtime's communication picture straight
from the :class:`~repro.obs.metrics.RunReport`: fine-grained access
operations, the deduplicated unbundled message count (what a
bundling-disabled runtime would put on the wire), the bundled wire
messages actually sent, the resulting bundling ratio, bytes moved,
the fraction of communication hidden under compute, and the worst
barrier skew.  This is the quantitative backing for the paper's
section 3.3 bundling claim, measured rather than asserted.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps.cg import build_chimney_problem, ppm_cg_solve
from repro.bench.harness import SweepResult, run_sweep
from repro.config import franklin
from repro.machine import Cluster
from repro.obs import PhaseTrace, RunReport


def obs_cg_traffic(
    node_counts: Sequence[int] = (2, 4, 8, 16),
    *,
    nx: int = 10,
    iters: int = 10,
    **overrides,
) -> SweepResult:
    """Traced CG: per-node-count traffic and bundling metrics."""
    problem = build_chimney_problem(nx)

    def runner(nodes: int) -> dict:
        trace = PhaseTrace()
        cluster = Cluster(franklin(n_nodes=nodes, **overrides))
        _, t_ppm = ppm_cg_solve(
            problem, cluster, max_iters=iters, tol=0.0, trace=trace
        )
        report = RunReport.from_trace(trace)
        return {
            "ppm_s": t_ppm,
            "phases": len(report.phases),
            "access_ops": report.access_ops,
            "unbundled_msgs": report.unbundled_messages,
            "bundled_msgs": report.total_messages,
            "bundling_ratio": report.bundling_ratio,
            "bytes": report.total_bytes,
            "overlap_pct": 100.0 * report.overlap_fraction,
            "skew_us": 1e6 * report.max_barrier_skew,
        }

    result = run_sweep(
        "obs_cg_traffic",
        "nodes",
        node_counts,
        runner,
        notes=(
            f"Traced PPM CG, 27-pt stencil on {nx}x{nx}x{2*nx} grid "
            f"({problem.n} rows), {iters} iterations; metrics from "
            "RunReport (see docs/OBSERVABILITY.md for formulas)"
        ),
    )
    result.claim(
        "bundling beats one message per element by > 10x everywhere",
        all(ratio > 10.0 for ratio in result.series("bundling_ratio")),
    )
    result.claim(
        "bundled wire messages: some, and fewer than unbundled",
        all(0 < r["bundled_msgs"] < r["unbundled_msgs"] for r in result.rows),
    )
    result.claim(
        "the hidden share of communication is a percentage (0-100)",
        all(0.0 <= pct <= 100.0 for pct in result.series("overlap_pct")),
    )
    return result
