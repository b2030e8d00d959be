"""PPM implementation of the multigrid V-cycle.

Every grid operation of the flat schedule is one global phase; VPs own
chunks of each level's points (aligned with the shared arrays' block
distribution) and read their one-point halos with plain indexing.
Nothing in the code knows about neighbours, ghost cells or level
repartitioning — the runtime resolves every read.  Note how the
hierarchy shows the model's cost profile: deep levels have almost no
work per phase but still pay the phase synchronisation.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import split_range
from repro.apps.multigrid.problem import (
    MgProblem,
    coarse_solve,
    op_flops,
    prolong_window,
    residual_window,
    restrict_window,
    smooth_window,
    vcycle_schedule,
)
from repro.core import ppm_function, run_ppm
from repro.machine import Cluster


@ppm_function
def _mg_kernel(ctx, problem, U, F, R, cycles, nu1, nu2):
    L = problem.levels
    # Interior chunk of each level, inside this VP's node's block.
    chunks = []
    for l in range(L + 1):
        n = problem.sizes[l]
        node_lo, node_hi = U[l].local_range(ctx.node_id)
        ilo, ihi = max(node_lo, 1), min(node_hi, n - 1)
        span = max(0, ihi - ilo)
        lo, hi = split_range(span, ctx.node_vp_count)[ctx.node_rank]
        chunks.append((ilo + lo, ilo + hi))
    schedule = vcycle_schedule(L, nu1=nu1, nu2=nu2)

    for _cycle in range(cycles):
        for op, l in schedule:
            yield ctx.global_phase
            h = problem.h(l)
            if op == "coarse":
                if ctx.global_rank == 0:
                    n = problem.sizes[l]
                    U[l][:] = coarse_solve(F[l][0:n], h)
                    ctx.work(op_flops("coarse", n))
                continue
            if op == "restrict":
                # Operates on the VP's *coarse* chunk (which can be
                # non-empty even when its fine chunk is empty).
                clo, chi = chunks[l + 1]
                if clo < chi:
                    F[l + 1][clo:chi] = restrict_window(
                        R[l][2 * clo - 1 : 2 * (chi - 1) + 2]
                    )
                    U[l + 1][clo:chi] = np.zeros(chi - clo)
                    ctx.work(op_flops("restrict", chi - clo))
                continue
            lo, hi = chunks[l]
            if lo >= hi:
                continue
            if op == "smooth":
                U[l][lo:hi] = smooth_window(U[l][lo - 1 : hi + 1], F[l][lo:hi], h)
            elif op == "residual":
                R[l][lo:hi] = residual_window(U[l][lo - 1 : hi + 1], F[l][lo:hi], h)
            elif op == "prolong":
                a, b = lo // 2, (hi - 1) // 2 + 2
                corr = prolong_window(U[l + 1][a:b], lo, hi - lo)
                U[l].accumulate(np.arange(lo, hi), corr)
            ctx.work(op_flops(op, hi - lo))


def ppm_mg_solve(
    problem: MgProblem,
    cluster: Cluster,
    *,
    cycles: int = 8,
    nu1: int = 2,
    nu2: int = 2,
    vp_per_core: int = 2,
    trace=None,
    **run_opts,
) -> tuple[np.ndarray, float]:
    """Run the PPM V-cycles; returns the finest iterate and the
    simulated time."""

    def main(ppm):
        L = problem.levels
        U = [ppm.global_shared(f"mg_u{l}", problem.sizes[l]) for l in range(L + 1)]
        F = [ppm.global_shared(f"mg_f{l}", problem.sizes[l]) for l in range(L + 1)]
        R = [ppm.global_shared(f"mg_r{l}", problem.sizes[l]) for l in range(L + 1)]
        F[0][:] = problem.f
        ppm.reset_clocks()
        k = ppm.cores_per_node * vp_per_core
        ppm.do(k, _mg_kernel, problem, U, F, R, cycles, nu1, nu2)
        return U[0].committed

    ppm, u = run_ppm(main, cluster, trace=trace, **run_opts)
    return u, ppm.elapsed
