"""Serial reference Barnes-Hut simulation and verification helpers."""

from __future__ import annotations

import numpy as np

from repro.apps.barneshut.octree import build_octree
from repro.apps.barneshut.traversal import flat_ranges, walk_forces


def make_plummer_cloud(
    n: int, *, seed: int = 42, radius: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A deterministic particle cloud: Plummer-like radial profile,
    equal masses, zero initial velocities (cold collapse)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    # Plummer-profile radii with a sanity cap, isotropic directions.
    u = rng.uniform(0.05, 0.95, n)
    r = radius / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    r = np.minimum(r, 5.0 * radius)
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pos = v * r[:, None]
    mass = np.full(n, 1.0 / n)
    vel = np.zeros((n, 3))
    return pos, vel, mass


def direct_forces(pos: np.ndarray, mass: np.ndarray, *, eps: float = 1e-3) -> np.ndarray:
    """Exact O(n^2) accelerations, the ground truth the Barnes-Hut
    approximations are verified against."""
    d = pos[None, :, :] - pos[:, None, :]
    r2 = np.einsum("ijk,ijk->ij", d, d) + eps * eps
    inv_r3 = mass[None, :] / (r2 * np.sqrt(r2))
    np.fill_diagonal(inv_r3, 0.0)
    return (d * inv_r3[:, :, None]).sum(axis=1)


def bh_forces(
    pos: np.ndarray,
    mass: np.ndarray,
    *,
    theta: float = 0.5,
    eps: float = 1e-3,
    leaf_size: int = 16,
) -> np.ndarray:
    """Single-tree Barnes-Hut accelerations (serial)."""
    tree = build_octree(pos, mass, leaf_size=leaf_size)
    posm = np.concatenate([pos, mass[:, None]], axis=1)
    result = walk_forces(
        pos,
        lambda rows: tree.nodes[rows],
        lambda starts, counts: posm[tree.perm[flat_ranges(starts, counts)]],
        theta=theta,
        eps=eps,
    )
    return result.acc


def serial_bh_simulate(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    *,
    steps: int = 2,
    dt: float = 1e-3,
    theta: float = 0.5,
    eps: float = 1e-3,
    leaf_size: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference time integration: per step, rebuild the tree, compute
    forces, kick velocities and drift positions (symplectic Euler)."""
    pos = pos.copy()
    vel = vel.copy()
    for _ in range(steps):
        acc = bh_forces(pos, mass, theta=theta, eps=eps, leaf_size=leaf_size)
        vel += dt * acc
        pos += dt * vel
    return pos, vel
