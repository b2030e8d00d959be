"""PPM implementation of the multiscale matrix generation.

Structure per level (exactly the paper's description):

1. a global phase computing the level's cache of kernel integrals —
   "the intermediate results of the numerical integrations are stored
   as global data" — each VP filling the part of the distributed cache
   its node owns;
2. a global phase assembling every nonzero whose column lives at that
   level — "then very randomly accessed in the patterns determined by
   the linear combinations" — each VP gathering the (mostly remote)
   cache entries its rows' combinations touch.  The PPM runtime
   bundles these fine-grained random reads automatically.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.apps.collocation.multiscale import MultiscaleProblem, slots_to_coo
from repro.apps.common import split_range
from repro.core import ppm_function, run_ppm
from repro.machine import Cluster


@ppm_function
def _gen_kernel(ctx, problem, CACHE, VALS):
    # Private prologue: this VP's row chunk and cache chunk, both
    # aligned with the arrays' node-block distribution.
    row_lo, row_hi = VALS.local_range(ctx.node_id)
    rlo, rhi = split_range(row_hi - row_lo, ctx.node_vp_count)[ctx.node_rank]
    my_rows = np.arange(row_lo + rlo, row_lo + rhi, dtype=np.int64)
    cache_lo, cache_hi = CACHE.local_range(ctx.node_id)
    clo, chi = split_range(cache_hi - cache_lo, ctx.node_vp_count)[ctx.node_rank]
    clo, chi = cache_lo + clo, cache_lo + chi
    base = problem.config.base_cols

    for level in range(problem.config.levels + 1):
        yield ctx.global_phase
        # Cache phase: evaluate my slice of this level's table.
        lo = max(clo, int(problem.cache_offsets[level]))
        hi = min(chi, int(problem.cache_offsets[level + 1]))
        if lo < hi:
            idx = np.arange(lo, hi, dtype=np.int64)
            CACHE[idx] = problem.cache_values(idx)
            ctx.work(problem.quad_flops(hi - lo))

        yield ctx.global_phase
        # Assembly phase: combine cached integrals into my rows'
        # entries at this column level.
        r, _c, cache_idx, coeffs, slot_j = problem.row_entries(my_rows, level)
        if r.size == 0:
            continue
        # row_entries draws r from my_rows, so this is an identity; it
        # re-expresses the rows through the contiguous arange so the
        # static verifier can prove the write stays in this VP's chunk.
        r = my_rows[r - my_rows[0]]
        uniq, inv = np.unique(cache_idx, return_inverse=True)
        cached = CACHE[uniq]
        vals = (coeffs * cached[inv].reshape(cache_idx.shape)).sum(axis=1)
        VALS[r, level * base + slot_j] = vals
        ctx.work(problem.combine_flops(r.size))


def ppm_generate(
    problem: MultiscaleProblem,
    cluster: Cluster,
    *,
    vp_per_core: int = 2,
    trace=None,
    **run_opts,
) -> tuple[sp.coo_matrix, float]:
    """Generate the matrix with PPM on the given cluster.

    Returns the assembled sparse matrix and the simulated generation
    time.
    """

    def main(ppm):
        CACHE = ppm.global_shared("msc_cache", problem.cache_total)
        VALS = ppm.global_shared(
            "msc_vals",
            (problem.n, problem.config.base_cols * (problem.config.levels + 1)),
        )
        ppm.reset_clocks()
        k = ppm.cores_per_node * vp_per_core
        ppm.do(k, _gen_kernel, problem, CACHE, VALS)
        return VALS.committed

    ppm, vals = run_ppm(main, cluster, trace=trace, **run_opts)
    matrix = slots_to_coo(problem, vals)
    return matrix, ppm.elapsed
