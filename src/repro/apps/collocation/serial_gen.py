"""Serial reference for the multiscale matrix generation."""

from __future__ import annotations

import numpy as np

from repro.apps.collocation.multiscale import MultiscaleProblem


def serial_generate(
    problem: MultiscaleProblem,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate the full sparse matrix directly, as its COO triple
    ``(rows, cols, vals)``.

    Iterates the levels like the parallel versions: evaluate level
    ``l``'s cache table, then assemble every nonzero whose column
    lives at level ``l``.
    """
    rows_all = np.arange(problem.n, dtype=np.int64)
    out_r: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    for level in range(problem.config.levels + 1):
        lo = int(problem.cache_offsets[level])
        hi = int(problem.cache_offsets[level + 1])
        cache = problem.cache_values(np.arange(lo, hi, dtype=np.int64))
        r, c, cache_idx, coeffs, _j = problem.row_entries(rows_all, level)
        if r.size == 0:
            continue
        vals = (coeffs * cache[cache_idx - lo]).sum(axis=1)
        out_r.append(r)
        out_c.append(c)
        out_v.append(vals)
    return np.concatenate(out_r), np.concatenate(out_c), np.concatenate(out_v)
