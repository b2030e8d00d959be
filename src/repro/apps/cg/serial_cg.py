"""Serial reference Conjugate Gradient solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import Csr


@dataclass(frozen=True)
class CgResult:
    """Outcome of a CG solve."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    residual_history: tuple[float, ...] = ()


def serial_cg_solve(
    A: Csr,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iters: int = 500,
) -> CgResult:
    """Plain (unpreconditioned) CG on a SPD CSR matrix (only ``A @ p``
    is used, so a scipy matrix serves too).

    This is the exact algorithm the PPM and MPI implementations
    distribute, with the same floating-point evaluation order per
    element, so distributed results agree to rounding error.
    """
    n = A.shape[0]
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rz = float(r @ r)
    b_norm = float(np.sqrt(b @ b)) or 1.0
    history = [float(np.sqrt(rz))]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        q = A @ p
        pq = float(p @ q)
        if pq == 0.0:
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rz_new = float(r @ r)
        history.append(float(np.sqrt(rz_new)))
        if np.sqrt(rz_new) <= tol * b_norm:
            rz = rz_new
            converged = True
            break
        beta = rz_new / rz
        rz = rz_new
        p = r + beta * p
    return CgResult(
        x=x,
        iterations=it,
        residual_norm=float(np.sqrt(rz)),
        converged=converged,
        residual_history=tuple(history),
    )
