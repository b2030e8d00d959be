"""27-point finite-difference diffusion problem on a 3D chimney domain.

The matrix is the implicit discretisation of a diffusion operator on a
``nx x ny x nz`` box (a "chimney": taller than wide), coupling every
cell to its 26 neighbours.  Stored in CSR with rows in x-major order;
the assembled operator is symmetric positive definite (strictly
diagonally dominant), as a CG solver requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


@dataclass(frozen=True)
class CgProblem:
    """A linear system ``A x = b`` plus its grid metadata."""

    A: csr_matrix
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
    import scipy.sparse as sp  # here, so importing repro.apps.cg stays scipy-free

    ny = nx if ny is None else ny
    nz = 2 * nx if nz is None else nz
    if min(nx, ny, nz) < 1:
        raise ValueError(f"grid dims must be >= 1, got {(nx, ny, nz)}")
    n = nx * ny * nz

    ix, iy, iz = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    ix, iy, iz = ix.ravel(), iy.ravel(), iz.ravel()

    rows_list = []
    cols_list = []
    vals_list = []
    # 26 neighbour offsets of the 27-point stencil (the centre is the
    # diagonal, added afterwards for diagonal dominance).
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

    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    vals = np.concatenate(vals_list)

    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    # Diagonal: strict dominance makes the operator SPD.
    offdiag_rowsum = np.abs(A).sum(axis=1).A1
    A = A + sp.diags(offdiag_rowsum + 1.0)
    A = A.tocsr()
    A.sort_indices()

    rng = np.random.default_rng(seed)
    x_coord = ix / max(nx - 1, 1)
    z_coord = iz / max(nz - 1, 1)
    b = np.sin(2 * np.pi * x_coord) + z_coord + 0.01 * rng.standard_normal(n)
    return CgProblem(A=A, b=b, nx=nx, ny=ny, nz=nz)

