"""PPM implementation of the level-scheduled triangular solve.

One global phase per wavefront level: every VP solves its own rows of
that level, reading the dependency entries of ``x`` — solution values
committed on earlier wavefronts, scattered across the cluster — with
plain array indexing that the runtime bundles.  The code is a direct
transcription of the mathematical recurrence; there is no trace of the
communication choreography that makes the MPI version of this kernel
notorious ([20]).
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import split_range
from repro.apps.sptrsv.problem import TrsvProblem
from repro.core import ppm_function, run_ppm
from repro.machine import Cluster


@ppm_function
def _trsv_kernel(ctx, problem, X):
    node_lo, node_hi = X.local_range(ctx.node_id)
    lo, hi = split_range(node_hi - node_lo, ctx.node_vp_count)[ctx.node_rank]
    lo, hi = node_lo + lo, node_lo + hi
    L, b, levels = problem.L, problem.b, problem.levels
    indptr, indices, data = L.indptr, L.indices, L.data
    my_rows_by_level = [
        rows[(rows >= lo) & (rows < hi)]
        for rows in (problem.rows_of_level(l) for l in range(problem.n_levels))
    ]

    for level in range(problem.n_levels):
        yield ctx.global_phase
        rows = my_rows_by_level[level]
        if rows.size == 0:
            continue
        # Dependency footprint: each row's off-diagonal columns (all
        # solved on strictly earlier wavefronts).
        spans = [
            indices[indptr[i] : indptr[i + 1]][indices[indptr[i] : indptr[i + 1]] < i]
            for i in rows
        ]
        deps = np.unique(np.concatenate(spans)) if spans else np.empty(0, np.int64)
        lookup = X[deps] if deps.size else np.empty(0)
        x_new = np.empty(rows.size)
        flops = 0
        for k, i in enumerate(rows):
            cols = indices[indptr[i] : indptr[i + 1]]
            vals = data[indptr[i] : indptr[i + 1]]
            off = cols < i
            s = float(vals[off] @ lookup[np.searchsorted(deps, cols[off])])
            x_new[k] = (b[i] - s) / vals[~off][0]
            flops += 2 * int(off.sum()) + 2
        X[rows] = x_new
        ctx.work(flops)


def ppm_trsv(
    problem: TrsvProblem,
    cluster: Cluster,
    *,
    vp_per_core: int = 2,
    trace=None,
    **run_opts,
) -> tuple[np.ndarray, float]:
    """Solve with PPM on the cluster; returns x and simulated time."""

    def main(ppm):
        X = ppm.global_shared("trsv_x", problem.n)
        ppm.reset_clocks()
        k = ppm.cores_per_node * vp_per_core
        ppm.do(k, _trsv_kernel, problem, X)
        return X.committed

    ppm, x = run_ppm(main, cluster, trace=trace, **run_opts)
    return x, ppm.elapsed
