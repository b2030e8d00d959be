"""Multiscale collocation discretisation of a weakly singular
Fredholm integral equation of the second kind.

The structure follows the fast collocation method of Chen, Wu and Xu
[6]: basis functions and collocation functionals organised in dyadic
levels 0..L (level ``l`` holds ``2**l`` functions), a truncation
strategy that keeps fewer couplings between distant levels (giving the
method its near-linear nonzero count), and entry values assembled as
linear combinations of *cached* kernel integrals.

The cached integral is computed for real — a Gauss-Legendre quadrature
of ``integral(s) = ∫ |s - t|^{-1/2} φ(t) dt`` for a level-scaled hat
function φ — and the selection of collocation points, supports,
combination terms and coefficients is derived from a deterministic
SplitMix64 hash so that serial, PPM and MPI implementations compute
bit-identical matrices.

Substitution note (see DESIGN.md): the paper's instance uses the full
multi-dimensional integration of [6], far costlier per cache entry
than our 1-D quadrature; ``quad_cost_factor`` scales the *charged*
flops to restore the paper's compute/communication ratio while the
numerics stay real and verifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import hash_u64, hash_unit

_P_ROW = np.uint64(0x9E3779B97F4A7C15)
_P_LEVEL = np.uint64(0xC2B2AE3D27D4EB4F)
_P_TERM = np.uint64(0x165667B19E3779F9)


@dataclass(frozen=True)
class CollocationConfig:
    """Parameters of the multiscale generation workload."""

    levels: int = 8
    """Finest level L; the matrix has ``2**(L+1) - 1`` rows/columns."""

    n_terms: int = 8
    """Cached integrals combined per nonzero entry (the "linear
    combination of multiple functions' values")."""

    base_cols: int = 4
    """Couplings a row has with its own level; the count halves per
    level of distance (the truncation strategy)."""

    quad_points: int = 32
    """Gauss-Legendre points per cached integral."""

    quad_cost_factor: float = 10.0
    """Charged-flop multiplier standing in for the full method's
    high-complexity integration."""

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {self.n_terms}")
        if self.base_cols < 1:
            raise ValueError(f"base_cols must be >= 1, got {self.base_cols}")
        if self.quad_points < 2:
            raise ValueError(f"quad_points must be >= 2, got {self.quad_points}")


class MultiscaleProblem:
    """Index arithmetic, sparsity pattern and cache evaluation."""

    def __init__(self, config: CollocationConfig | None = None) -> None:
        self.config = config or CollocationConfig()
        L = self.config.levels
        # Functions of level l occupy ids [2**l - 1, 2**(l+1) - 1).
        self.level_offsets = np.array([2**l - 1 for l in range(L + 2)], dtype=np.int64)
        self.n = int(self.level_offsets[-1])
        # Cache table of level l: 2 * 2**l + 8 integrals.
        sizes = [2 * 2**l + 8 for l in range(L + 1)]
        self.cache_offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        self.cache_total = int(self.cache_offsets[-1])
        self._gauss_x, self._gauss_w = np.polynomial.legendre.leggauss(
            self.config.quad_points
        )

    # ------------------------------------------------------------------
    # Index arithmetic
    # ------------------------------------------------------------------
    def level_of(self, ids: np.ndarray | int) -> np.ndarray | int:
        """Level of basis/collocation function id(s)."""
        scalar = np.isscalar(ids)
        arr = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        lv = np.searchsorted(self.level_offsets, arr, side="right") - 1
        return int(lv[0]) if scalar else lv

    def level_width(self, level: int) -> int:
        """Functions at ``level``."""
        return 2**level

    def cache_size(self, level: int) -> int:
        """Cache-table entries of ``level``."""
        return int(self.cache_offsets[level + 1] - self.cache_offsets[level])

    def cache_level_of(self, gidx: np.ndarray) -> np.ndarray:
        """Level owning each global cache index."""
        return np.searchsorted(self.cache_offsets, gidx, side="right") - 1

    # ------------------------------------------------------------------
    # Sparsity pattern + combination terms (pure index hashing)
    # ------------------------------------------------------------------
    def row_entries(self, rows: np.ndarray, col_level: int):
        """The nonzeros of ``rows`` whose *columns* live at
        ``col_level``, with their combination terms.

        Returns ``(row_ids, col_ids, cache_idx, coeffs, slot_j)``
        where ``cache_idx``/``coeffs`` have shape ``(nnz, n_terms)``,
        ``cache_idx`` holds *global* cache indices (all at
        ``col_level`` — each level's pass touches only that level's
        cache, as the paper describes), and ``slot_j`` is each entry's
        within-(row, level) ordinal, giving every nonzero a canonical
        dense slot ``(row, col_level * base_cols + slot_j)``.
        """
        cfg = self.config
        rows = np.asarray(rows, dtype=np.int64)
        row_levels = np.asarray(self.level_of(rows))
        dist = np.abs(row_levels - col_level)
        k = cfg.base_cols >> dist  # truncation: halve per level distance
        out_rows = []
        out_cols = []
        out_j = []
        width = self.level_width(col_level)
        for j in range(cfg.base_cols):
            mask = k > j
            if not mask.any():
                continue
            r = rows[mask]
            with np.errstate(over="ignore"):
                h = hash_u64(
                    r.astype(np.uint64) * _P_ROW
                    + np.uint64(col_level) * _P_LEVEL
                    + np.uint64(j)
                )
            c = self.level_offsets[col_level] + (h % np.uint64(width)).astype(np.int64)
            out_rows.append(r)
            out_cols.append(c)
            out_j.append(np.full(r.shape, j, dtype=np.int64))
        if not out_rows:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                empty,
                empty.reshape(0, cfg.n_terms),
                np.empty((0, cfg.n_terms)),
                empty,
            )
        row_ids = np.concatenate(out_rows)
        col_ids = np.concatenate(out_cols)
        slot_j = np.concatenate(out_j)
        # Combination terms: n_terms cache entries of col_level plus
        # hash-derived coefficients.
        t = np.arange(cfg.n_terms, dtype=np.uint64)
        with np.errstate(over="ignore"):
            key = (
                row_ids.astype(np.uint64)[:, None] * _P_ROW
                + col_ids.astype(np.uint64)[:, None] * _P_LEVEL
                + t[None, :] * _P_TERM
            )
        h = hash_u64(key)
        csize = np.uint64(self.cache_size(col_level))
        cache_idx = int(self.cache_offsets[col_level]) + (h % csize).astype(np.int64)
        coeffs = hash_unit(h ^ _P_TERM) - 0.5
        return row_ids, col_ids, cache_idx, coeffs, slot_j

    # ------------------------------------------------------------------
    # Cache evaluation (real quadrature)
    # ------------------------------------------------------------------
    def cache_values(self, gidx: np.ndarray) -> np.ndarray:
        """Evaluate the cached kernel integrals for global cache
        indices ``gidx`` (vectorised Gauss-Legendre quadrature of the
        weakly singular kernel against level-scaled hat functions)."""
        gidx = np.asarray(gidx, dtype=np.int64)
        levels = self.cache_level_of(gidx)
        local = gidx - self.cache_offsets[levels]
        with np.errstate(over="ignore"):
            key = gidx.astype(np.uint64) * _P_TERM
        s = hash_unit(key)  # collocation point
        center = hash_unit(key ^ _P_ROW)
        halfw = 0.5 ** (levels.astype(np.float64) + 1.0)
        lo = np.clip(center - halfw, 0.0, 1.0)
        hi = np.clip(center + halfw, 0.0, 1.0)
        # Map Gauss nodes onto each support [lo, hi].
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        t = mid[:, None] + half[:, None] * self._gauss_x[None, :]
        # Hat function peaked at the centre of the support.
        phi = np.maximum(0.0, 1.0 - np.abs(t - center[:, None]) / np.maximum(halfw[:, None], 1e-300))
        kernel = 1.0 / np.sqrt(np.abs(s[:, None] - t) + 1e-12)
        vals = (self._gauss_w[None, :] * phi * kernel).sum(axis=1) * half
        # Tiny level-dependent shift keeps values distinct across
        # levels even when supports clip identically.
        return vals + 1e-3 * local.astype(np.float64) / np.maximum(self.cache_size(0), 1)

    def quad_flops(self, n_entries: int) -> float:
        """Charged flops for evaluating ``n_entries`` cache values."""
        per_entry = 8.0 * self.config.quad_points * self.config.quad_cost_factor
        return per_entry * n_entries

    def combine_flops(self, nnz: int) -> float:
        """Charged flops for combining cached values into ``nnz``
        entries."""
        return 2.0 * self.config.n_terms * nnz


def slots_to_coo(
    problem: MultiscaleProblem, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble a canonical slot array (one column per (level, j)
    ordinal) into the COO triple ``(rows, cols, vals)`` by regenerating
    the deterministic sparsity pattern, in :func:`serial_generate`'s
    entry order.  Shared by the PPM and MPI generators."""
    base = problem.config.base_cols
    rows_all = np.arange(problem.n, dtype=np.int64)
    out_r, out_c, out_v = [], [], []
    for level in range(problem.config.levels + 1):
        r, c, _ci, _co, slot_j = problem.row_entries(rows_all, level)
        if r.size == 0:
            continue
        out_r.append(r)
        out_c.append(c)
        out_v.append(vals[r, level * base + slot_j])
    return np.concatenate(out_r), np.concatenate(out_c), np.concatenate(out_v)
