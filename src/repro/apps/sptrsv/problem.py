"""Triangular system construction and level scheduling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.cg.problem import build_chimney_problem
from repro.apps.common import Csr


@dataclass(frozen=True)
class TrsvProblem:
    """A lower-triangular system ``L x = b`` with its wavefront
    schedule."""

    L: Csr
    b: np.ndarray
    levels: np.ndarray
    """Dependency level of every row (0 = no off-diagonal deps)."""

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def n_levels(self) -> int:
        return int(self.levels.max()) + 1 if self.levels.size else 0

    def rows_of_level(self, level: int) -> np.ndarray:
        """Rows solvable on the given wavefront."""
        return np.nonzero(self.levels == level)[0]


def level_schedule(L: Csr) -> np.ndarray:
    """Wavefront levels of a lower-triangular CSR matrix.

    ``level[i] = 1 + max(level[j])`` over the off-diagonal dependencies
    ``j < i`` of row ``i`` (0 when the row only touches its diagonal).
    One increasing-row pass suffices because dependencies always point
    backwards in a lower-triangular matrix.
    """
    n = L.shape[0]
    levels = np.zeros(n, dtype=np.int64)
    indptr, indices = L.indptr, L.indices
    for i in range(n):
        deps = indices[indptr[i] : indptr[i + 1]]
        deps = deps[deps < i]
        if deps.size:
            levels[i] = levels[deps].max() + 1
    return levels


def build_trsv_problem(nx: int, *, seed: int = 2009) -> TrsvProblem:
    """Lower-triangular factor of the CG application's 27-point stencil
    matrix (the incomplete-factorisation structure of [20]) plus a
    deterministic right-hand side."""
    cg = build_chimney_problem(nx, seed=seed)
    A = cg.A
    # Each stencil row holds its columns sorted, so keeping the entries
    # at or left of the diagonal gives scipy's ``tril(A, format="csr")``
    # after ``sort_indices()``, array for array; a row's new start is
    # the count of kept entries before its old one.
    keep = A.indices <= A.rows
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    indptr = kept_before[A.indptr].astype(A.indptr.dtype)
    lower = Csr(A.data[keep], A.indices[keep], indptr, A.shape)
    levels = level_schedule(lower)
    return TrsvProblem(L=lower, b=cg.b.copy(), levels=levels)
