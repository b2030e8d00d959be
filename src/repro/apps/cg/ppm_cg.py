"""PPM implementation of the Conjugate Gradient solver.

Communication structure (all implicit, through shared variables):

* the vectors ``x, r, p, q`` are global shared arrays, block-
  distributed with the matrix rows;
* each VP owns a contiguous chunk of its node's rows and keeps its
  matrix block as private (resident) data;
* one CG iteration is three global phases —

  1. gather ``p`` over the chunk's column footprint (the runtime
     bundles the remote part), compute ``q = A p``, contribute the
     ``p·q`` partial to a phase reduction;
  2. update ``x`` and ``r`` with ``alpha``, contribute ``r·r``;
  3. check convergence and update the search direction ``p``.

Note how little code this is next to :mod:`repro.apps.cg.mpi_cg` —
Table 1 of the paper (161 vs 733 lines) is about exactly this gap.
"""

from __future__ import annotations

import numpy as np

from repro.apps.cg.problem import CgProblem
from repro.apps.cg.serial_cg import CgResult
from repro.apps.common import CsrBlock, csr_matvec, split_range
from repro.core import ppm_function, run_ppm
from repro.machine import Cluster


@ppm_function
def _cg_kernel(ctx, A, xs, rs, ps, qs, stats, b_norm, max_iters, tol):
    # Private prologue: this VP's matrix block with its columns
    # renumbered into its footprint ``cols`` (static, resident data).
    node_lo, node_hi = xs.local_range(ctx.node_id)
    lo, hi = split_range(node_hi - node_lo, ctx.node_vp_count)[ctx.node_rank]
    lo, hi = node_lo + lo, node_lo + hi
    Ac = CsrBlock(A, lo, hi)
    cols = Ac.cols
    m = hi - lo
    # Positions of this VP's own rows inside its column footprint —
    # static, so hoisted out of the iteration loop.
    own = np.searchsorted(cols, np.arange(lo, hi))

    yield ctx.global_phase
    r_chunk = rs[lo:hi]
    h_rz = ctx.reduce(float(r_chunk @ r_chunk), "sum")
    ctx.work(2 * m)

    rz = None
    for it in range(1, max_iters + 1):
        yield ctx.global_phase
        if rz is None:
            rz = h_rz.value
        p_needed = ps[cols]
        q_chunk = csr_matvec(Ac, p_needed)
        qs[lo:hi] = q_chunk
        p_chunk = p_needed[own]
        h_pq = ctx.reduce(float(p_chunk @ q_chunk), "sum")
        ctx.work(2 * Ac.nnz + 2 * m)

        yield ctx.global_phase
        alpha = rz / h_pq.value
        x_new = xs[lo:hi] + alpha * ps[lo:hi]
        r_new = rs[lo:hi] - alpha * qs[lo:hi]
        xs[lo:hi] = x_new
        rs[lo:hi] = r_new
        h_rz_new = ctx.reduce(float(r_new @ r_new), "sum")
        ctx.work(6 * m)

        yield ctx.global_phase
        rz_new = h_rz_new.value
        if np.sqrt(rz_new) <= tol * b_norm or it == max_iters:
            if ctx.global_rank == 0:
                stats[0] = rz_new
                stats[1] = float(it)
                stats[2] = 1.0 if np.sqrt(rz_new) <= tol * b_norm else 0.0
            if np.sqrt(rz_new) <= tol * b_norm:
                return
            rz = rz_new
            continue
        beta = rz_new / rz
        rz = rz_new
        p_new = rs[lo:hi] + beta * ps[lo:hi]
        ps[lo:hi] = p_new
        ctx.work(2 * m)


def ppm_cg_solve(
    problem: CgProblem,
    cluster: Cluster,
    *,
    max_iters: int = 200,
    tol: float = 1e-8,
    vp_per_core: int = 2,
    trace=None,
    **run_opts,
) -> tuple[CgResult, float]:
    """Solve the problem with the PPM CG on the given cluster.

    Returns the solver result and the simulated execution time of the
    solve (setup is untimed, as in the paper's measurements).  Pass a
    :class:`~repro.obs.events.PhaseTrace` as ``trace`` to collect
    phase-level observability events for the run.  Extra keyword
    arguments (``resilience=``, ``sanitize=``, ``executor=``, ...) pass through to
    :func:`~repro.core.program.run_ppm`.
    """

    def main(ppm):
        n = problem.n
        xs = ppm.global_shared("cg_x", n)
        rs = ppm.global_shared("cg_r", n)
        ps = ppm.global_shared("cg_p", n)
        qs = ppm.global_shared("cg_q", n)
        stats = ppm.global_shared("cg_stats", 3)
        rs[:] = problem.b
        ps[:] = problem.b
        b_norm = float(np.sqrt(problem.b @ problem.b)) or 1.0
        ppm.reset_clocks()
        k = ppm.cores_per_node * vp_per_core
        ppm.do(k, _cg_kernel, problem.A, xs, rs, ps, qs, stats, b_norm, max_iters, tol)
        return xs.committed, stats.committed

    ppm, (x, stats) = run_ppm(main, cluster, trace=trace, **run_opts)
    result = CgResult(
        x=x,
        iterations=int(stats[1]),
        residual_norm=float(np.sqrt(stats[0])),
        converged=bool(stats[2]),
    )
    return result, ppm.elapsed
