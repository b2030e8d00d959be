"""Problem setup and the V-cycle operation schedule.

The discrete problem is the standard second-order finite-difference
Poisson equation ``-u'' = f`` on [0, 1] with homogeneous Dirichlet
boundaries: ``(-u[i-1] + 2 u[i] - u[i+1]) / h² = f[i]``.

The V-cycle is expressed as a flat *schedule* of grid operations so
that all three implementations execute the identical op sequence (and
the PPM version can map each op to one phase):

    ("smooth", l)     one weighted-Jacobi sweep on level l
    ("residual", l)   r_l = f_l - A_l u_l
    ("restrict", l)   f_{l+1} = full-weighting(r_l); u_{l+1} = 0
    ("coarse", L)     direct solve on the coarsest level
    ("prolong", l)    u_l += linear-interpolation(u_{l+1})
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Weighted-Jacobi relaxation factor (the textbook 2/3).
JACOBI_WEIGHT = 2.0 / 3.0


@dataclass(frozen=True)
class MgProblem:
    """A Poisson problem with its grid hierarchy metadata."""

    levels: int
    """Number of coarsening steps; level 0 is the finest grid."""

    sizes: tuple[int, ...]
    """Points per level including both boundary points."""

    f: np.ndarray
    """Right-hand side on the finest grid (boundary entries zero)."""

    @property
    def n(self) -> int:
        """Finest-grid point count."""
        return self.sizes[0]

    def h(self, level: int) -> float:
        """Mesh width of ``level``."""
        return 1.0 / (self.sizes[level] - 1)


def build_mg_problem(levels: int = 6, *, coarsest: int = 3, seed: int = 7) -> MgProblem:
    """Build a hierarchy with ``2**(levels + log2(coarsest-1)) + 1``
    fine points and a smooth deterministic right-hand side.

    ``coarsest`` is the interior size the coarsest level is allowed
    (default 3 interior points, solved directly).
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    base = coarsest + 1  # intervals on the coarsest grid
    sizes = tuple(base * 2 ** (levels - l) + 1 for l in range(levels + 1))
    n = sizes[0]
    x = np.linspace(0.0, 1.0, n)
    rng = np.random.default_rng(seed)
    bumps = sum(
        a * np.sin((k + 1) * np.pi * x)
        for k, a in enumerate(rng.uniform(0.5, 1.5, 4))
    )
    f = (np.pi**2) * bumps
    f[0] = f[-1] = 0.0
    return MgProblem(levels=levels, sizes=sizes, f=f)


def vcycle_schedule(levels: int, *, nu1: int = 2, nu2: int = 2) -> list[tuple[str, int]]:
    """Flatten one V-cycle into its operation sequence."""
    ops: list[tuple[str, int]] = []

    def descend(l: int) -> None:
        if l == levels:
            ops.append(("coarse", l))
            return
        for _ in range(nu1):
            ops.append(("smooth", l))
        ops.append(("residual", l))
        ops.append(("restrict", l))
        descend(l + 1)
        ops.append(("prolong", l))
        for _ in range(nu2):
            ops.append(("smooth", l))

    descend(0)
    return ops


# ----------------------------------------------------------------------
# The grid operations, expressed over index windows so that serial,
# PPM and MPI implementations share the identical arithmetic (and
# therefore produce bit-identical iterates).
# ----------------------------------------------------------------------

def smooth_window(u_window: np.ndarray, f_chunk: np.ndarray, h: float) -> np.ndarray:
    """One weighted-Jacobi update for the interior points covered by
    ``u_window[1:-1]`` (the window carries one halo point per side)."""
    h2 = h * h
    au = (-u_window[:-2] + 2.0 * u_window[1:-1] - u_window[2:]) / h2
    return u_window[1:-1] + JACOBI_WEIGHT * (h2 / 2.0) * (f_chunk - au)


def residual_window(u_window: np.ndarray, f_chunk: np.ndarray, h: float) -> np.ndarray:
    """Residual ``f - A u`` for the window's interior points."""
    h2 = h * h
    au = (-u_window[:-2] + 2.0 * u_window[1:-1] - u_window[2:]) / h2
    return f_chunk - au


def restrict_window(r_window: np.ndarray) -> np.ndarray:
    """Full-weighting restriction of fine residuals onto the coarse
    points whose fine images are ``r_window[1:-1:2]``: the window spans
    fine indices ``[2*clo - 1, 2*(chi-1) + 2)`` for coarse chunk
    ``[clo, chi)``."""
    return 0.25 * (r_window[:-2:2] + 2.0 * r_window[1:-1:2] + r_window[2::2])


def prolong_window(uc_window: np.ndarray, fine_lo: int, count: int) -> np.ndarray:
    """Linear-interpolation corrections for ``count`` fine points
    starting at fine index ``fine_lo``; ``uc_window`` must span coarse
    indices ``[fine_lo // 2, (fine_lo + count - 1) // 2 + 2)``."""
    base = fine_lo // 2
    j = fine_lo + np.arange(count)
    even = j % 2 == 0
    ci = j // 2 - base
    out = np.empty(count)
    out[even] = uc_window[ci[even]]
    out[~even] = 0.5 * (uc_window[ci[~even]] + uc_window[ci[~even] + 1])
    return out


def coarse_solve(f_coarse: np.ndarray, h: float) -> np.ndarray:
    """Direct (Thomas) solve of the coarsest level; returns the full
    vector including zero boundaries.

    Eliminates ``-u[i-1] + 2 u[i] - u[i+1] = h² f[i]`` top down, then
    substitutes bottom up: ``sup`` holds the eliminated superdiagonal,
    ``rhs`` the eliminated right-hand side.
    """
    m = f_coarse.size - 2
    u = np.zeros_like(f_coarse)
    sup = np.empty(m)
    rhs = f_coarse[1:-1] * (h * h)
    sup[0] = -0.5
    rhs[0] /= 2.0
    for i in range(1, m):
        pivot = 2.0 + sup[i - 1]
        sup[i] = -1.0 / pivot
        rhs[i] = (rhs[i] + rhs[i - 1]) / pivot
    u[m] = rhs[m - 1]
    for i in range(m - 2, -1, -1):
        u[i + 1] = rhs[i] - sup[i] * u[i + 2]
    return u


def op_flops(op: str, interior: int) -> float:
    """Charged flops of one grid operation over ``interior`` points."""
    if op in ("smooth", "residual"):
        return 6.0 * interior
    if op == "restrict":
        return 4.0 * interior
    if op == "prolong":
        return 3.0 * interior
    if op == "coarse":
        return 20.0 * interior  # tridiagonal factor+solve
    raise ValueError(f"unknown multigrid op {op!r}")
