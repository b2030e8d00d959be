"""Linearised octree for Barnes-Hut.

The tree is a flat ``(n_nodes, 12)`` float array so that it can live in
a PPM global shared variable (or be shipped whole by the MPI baseline)
and be fetched record-by-record during the data-driven traversal.

Record layout (one row per tree node)::

    0..2   cell centre (x, y, z)
    3      cell half-width
    4      subtree mass
    5..7   subtree centre of mass
    8      first child row (-1 for leaves)
    9      child count (0 for leaves)
    10     first particle slot in the permutation array (-1 internal)
    11     particle count (leaf: stored particles; internal: subtree)

Children of a node are contiguous rows, so a traversal can expand a
rejected cell without extra lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RECORD_LEN = 12
F_CENTER = slice(0, 3)
F_HALFW = 3
F_MASS = 4
F_COM = slice(5, 8)
F_FIRST_CHILD = 8
F_NCHILDREN = 9
F_PSTART = 10
F_PCOUNT = 11


@dataclass
class Octree:
    """A built octree: node records, the particle permutation that
    groups each leaf's particles contiguously, and build statistics."""

    nodes: np.ndarray
    perm: np.ndarray
    leaf_size: int
    build_flops: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def traversal_depth(n_particles: int) -> int:
    """Upper-bound octree traversal depth (the force phase's latency rounds)."""
    return int(np.ceil(np.log2(max(n_particles, 2)) / 3)) + 2


def max_tree_nodes(n_particles: int, leaf_size: int) -> int:
    """Safe upper bound on octree size for allocation purposes."""
    leaves = max(1, (2 * n_particles) // max(leaf_size, 1) + 1)
    return 8 * leaves + 64


def build_octree(
    pos: np.ndarray, mass: np.ndarray, *, leaf_size: int = 16
) -> Octree:
    """Build the octree top-down (breadth-first, deterministic).

    Cells with at most ``leaf_size`` particles become leaves; others
    split into up to eight children (empty octants are skipped).
    Masses and centres of mass are exact per subtree.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    n = pos.shape[0]
    if pos.shape != (n, 3):
        raise ValueError(f"pos must have shape (n, 3), got {pos.shape}")
    if mass.shape != (n,):
        raise ValueError(f"mass must have shape ({n},), got {mass.shape}")
    if n == 0:
        raise ValueError("cannot build an octree with zero particles")
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")

    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    center = 0.5 * (lo + hi)
    halfw = float(max(0.5 * (hi - lo).max(), 1e-12)) * 1.0000001

    records: list[np.ndarray] = []
    perm = np.empty(n, dtype=np.int64)
    perm_fill = 0
    partitioned = 0

    def new_record(c: np.ndarray, hw: float, idx: np.ndarray) -> np.ndarray:
        rec = np.zeros(RECORD_LEN)
        rec[F_CENTER] = c
        rec[F_HALFW] = hw
        m = mass[idx]
        total = float(m.sum())
        rec[F_MASS] = total
        if total > 0:
            rec[F_COM] = (pos[idx] * m[:, None]).sum(axis=0) / total
        else:
            rec[F_COM] = c
        rec[F_FIRST_CHILD] = -1
        rec[F_NCHILDREN] = 0
        rec[F_PSTART] = -1
        rec[F_PCOUNT] = len(idx)
        return rec

    # BFS queue of (record row, centre, halfwidth, particle ids).
    root_idx = np.arange(n, dtype=np.int64)
    records.append(new_record(center, halfw, root_idx))
    queue: list[tuple[int, np.ndarray, float, np.ndarray]] = [
        (0, center, halfw, root_idx)
    ]

    while queue:
        row, c, hw, idx = queue.pop(0)
        if idx.size <= leaf_size:
            records[row][F_PSTART] = perm_fill
            perm[perm_fill : perm_fill + idx.size] = idx
            perm_fill += idx.size
            continue
        partitioned += idx.size
        p = pos[idx]
        octant = (
            (p[:, 0] >= c[0]).astype(np.int64) * 4
            + (p[:, 1] >= c[1]).astype(np.int64) * 2
            + (p[:, 2] >= c[2]).astype(np.int64)
        )
        first_child = len(records)
        n_children = 0
        child_hw = 0.5 * hw
        for o in range(8):
            sub = idx[octant == o]
            if sub.size == 0:
                continue
            offs = np.array(
                [1.0 if o & 4 else -1.0, 1.0 if o & 2 else -1.0, 1.0 if o & 1 else -1.0]
            )
            cc = c + child_hw * offs
            records.append(new_record(cc, child_hw, sub))
            queue.append((len(records) - 1, cc, child_hw, sub))
            n_children += 1
        records[row][F_FIRST_CHILD] = first_child
        records[row][F_NCHILDREN] = n_children

    nodes = np.vstack(records)
    # Build cost: partitioning plus per-record mass/COM accumulation.
    build_flops = 10.0 * partitioned + 8.0 * sum(r[F_PCOUNT] for r in records)
    return Octree(nodes=nodes, perm=perm, leaf_size=leaf_size, build_flops=build_flops)


def check_octree(tree: Octree, pos: np.ndarray, mass: np.ndarray) -> None:
    """Validate structural invariants; raises AssertionError on breakage.

    Used by tests and the property-based suite: exact total mass,
    exact COM, leaves partition the particle set, children lie inside
    their parents.
    """
    nodes = tree.nodes
    root = nodes[0]
    assert abs(root[F_MASS] - mass.sum()) < 1e-9 * max(1.0, abs(mass.sum()))
    com = (pos * mass[:, None]).sum(axis=0) / mass.sum()
    assert np.allclose(root[F_COM], com, atol=1e-9)
    assert sorted(tree.perm.tolist()) == list(range(pos.shape[0]))
    for row in range(tree.n_nodes):
        rec = nodes[row]
        fc, nc = int(rec[F_FIRST_CHILD]), int(rec[F_NCHILDREN])
        if nc == 0:
            ps, pc = int(rec[F_PSTART]), int(rec[F_PCOUNT])
            assert ps >= 0
            ids = tree.perm[ps : ps + pc]
            inside = np.abs(pos[ids] - rec[F_CENTER]) <= rec[F_HALFW] * (1 + 1e-9)
            assert inside.all()
        else:
            child_mass = nodes[fc : fc + nc, F_MASS].sum()
            assert abs(child_mass - rec[F_MASS]) < 1e-9 * max(1.0, abs(rec[F_MASS]))
            child_hw = nodes[fc : fc + nc, F_HALFW]
            assert np.allclose(child_hw, 0.5 * rec[F_HALFW])
