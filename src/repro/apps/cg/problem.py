"""27-point finite-difference diffusion problem on a 3D chimney domain.

The matrix is the implicit discretisation of a diffusion operator on a
``nx x ny x nz`` box (a "chimney": taller than wide), coupling every
cell to its 26 neighbours.  Stored in CSR with rows in x-major order;
the assembled operator is symmetric positive definite (strictly
diagonally dominant), as a CG solver requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import Csr


@dataclass(frozen=True)
class CgProblem:
    """A linear system ``A x = b`` plus its grid metadata.  ``A`` is a
    numpy :class:`~repro.apps.common.Csr` with the arrays, dtypes and
    products scipy's ``csr_matrix`` would hold, so CG loads no scipy."""

    A: Csr
    b: np.ndarray
    nx: int
    ny: int
    nz: int

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.A.nnz)


def build_chimney_problem(
    nx: int, ny: int | None = None, nz: int | None = None, *, seed: int = 2009
) -> CgProblem:
    """Assemble the 27-point stencil system.

    ``ny`` defaults to ``nx`` and ``nz`` to ``2 * nx`` (the chimney is
    taller than its cross-section).  The right-hand side is a smooth
    deterministic field plus hashed noise, seeded for reproducibility.
    """
    ny = nx if ny is None else ny
    nz = 2 * nx if nz is None else nz
    if min(nx, ny, nz) < 1:
        raise ValueError(f"grid dims must be >= 1, got {(nx, ny, nz)}")
    n = nx * ny * nz

    ix, iy, iz = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    ix, iy, iz = ix.ravel(), iy.ravel(), iz.ravel()

    # The diagonal (the centre of the stencil) first, its value filled
    # in once the off-diagonal row sums are known.
    rows_list, cols_list, vals_list = [np.arange(n)], [np.arange(n)], [np.zeros(n)]
    # 26 neighbour offsets of the 27-point stencil.
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                jx, jy, jz = ix + dx, iy + dy, iz + dz
                valid = (
                    (jx >= 0) & (jx < nx)
                    & (jy >= 0) & (jy < ny)
                    & (jz >= 0) & (jz < nz)
                )
                r = (ix[valid] * ny + iy[valid]) * nz + iz[valid]
                c = (jx[valid] * ny + jy[valid]) * nz + jz[valid]
                dist2 = dx * dx + dy * dy + dz * dz
                w = -1.0 / dist2  # nearer neighbours couple stronger
                rows_list.append(r)
                cols_list.append(c)
                vals_list.append(np.full(r.shape, w))

    # The bytes scipy's coo -> csr, ``abs(A).sum(axis=1)`` and
    # ``A + diags(rowsum + 1.0)`` give: entries sorted by (row, column),
    # each row's off-diagonal |values| summed by ``np.add.reduceat`` (as
    # scipy's ``_minor_reduce`` does), the diagonal that sum + 1.0 for
    # strict dominance, which makes the operator SPD.
    rows, cols = np.concatenate(rows_list), np.concatenate(cols_list)
    order = np.lexsort((cols, rows))
    cols, vals = cols[order], np.concatenate(vals_list)[order]
    diag = cols == rows[order]
    off_counts = np.bincount(rows, minlength=n) - 1
    starts = np.cumsum(off_counts) - off_counts
    has_off = off_counts > 0
    rowsum = np.zeros(n)
    rowsum[has_off] = np.add.reduceat(np.abs(vals[~diag]), starts[has_off])
    vals[diag] = rowsum + 1.0
    idx = np.int32 if cols.size <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(off_counts + 1, out=indptr[1:])
    A = Csr(vals, cols.astype(idx), indptr, (n, n))

    rng = np.random.default_rng(seed)
    x_coord = ix / max(nx - 1, 1)
    z_coord = iz / max(nz - 1, 1)
    b = np.sin(2 * np.pi * x_coord) + z_coord + 0.01 * rng.standard_normal(n)
    return CgProblem(A=A, b=b, nx=nx, ny=ny, nz=nz)

