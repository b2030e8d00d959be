"""MPI baseline for Barnes-Hut: per-rank subtrees, replicated each step.

This follows the message-passing method the paper cites ([9], Garmire
and Ong): "a hierarchical representation of the force field data is
implemented [as] a tree data structure on each MPI node, then in every
round of computation, each node needs to receive copies of the trees
from all other nodes.  This requires [an] extremely high volume of
data exchange."

Per step, each rank builds an octree over its own particle block,
allgathers *every* rank's serialised tree (records, permutation and
the underlying particle table — whole structures on the wire), then
computes its particles' accelerations as the sum of the per-subtree
Barnes-Hut forces.  No further communication is needed within the
step, but the replication traffic grows with both the particle count
and the rank count — the scaling wall Figure 3 shows.
"""

from __future__ import annotations

import numpy as np

from repro.apps.barneshut.octree import RECORD_LEN, build_octree
from repro.apps.barneshut.traversal import FLOPS_PER_INTERACTION, flat_ranges, walk_forces
from repro.apps.common import split_range
from repro.machine import Cluster
from repro.mpi import run_mpi


def _serialize_tree(comm, tree, posm) -> np.ndarray:
    """Flatten a subtree package into one contiguous send buffer:
    [n_nodes, n_particles, node records..., permutation..., posm...].
    Real MPI codes must do exactly this — a tree of separate arrays is
    not a sendable buffer."""
    n_nodes = tree.nodes.shape[0]
    n_part = tree.perm.shape[0]
    buf = np.empty(2 + n_nodes * RECORD_LEN + n_part + n_part * 4)
    buf[0] = n_nodes
    buf[1] = n_part
    cursor = 2
    buf[cursor : cursor + n_nodes * RECORD_LEN] = tree.nodes.ravel()
    cursor += n_nodes * RECORD_LEN
    buf[cursor : cursor + n_part] = tree.perm
    cursor += n_part
    buf[cursor : cursor + n_part * 4] = posm.ravel()
    comm.mem_work(buf.size)  # packing cost
    return buf


def _deserialize_tree(comm, buf: np.ndarray):
    """Reverse of :func:`_serialize_tree` (unpacking cost charged)."""
    n_nodes = int(buf[0])
    n_part = int(buf[1])
    cursor = 2
    nodes = buf[cursor : cursor + n_nodes * RECORD_LEN].reshape(n_nodes, RECORD_LEN)
    cursor += n_nodes * RECORD_LEN
    perm = buf[cursor : cursor + n_part].astype(np.int64)
    cursor += n_part
    posm = buf[cursor : cursor + n_part * 4].reshape(n_part, 4)
    comm.mem_work(n_part)  # unpacking/indexing setup
    return nodes, perm, posm


def _bh_rank(comm, pos0, vel0, mass0, blocks, steps, dt, theta, eps, leaf_size):
    lo, hi = blocks[comm.rank]
    pos = pos0[lo:hi].copy()
    vel = vel0[lo:hi].copy()
    mass = mass0[lo:hi].copy()

    for _step in range(steps):
        # Local subtree over this rank's particles.
        if pos.shape[0] > 0:
            tree = build_octree(pos, mass, leaf_size=leaf_size)
            comm.work(tree.build_flops)
            posm = np.concatenate([pos, mass[:, None]], axis=1)
            buf = _serialize_tree(comm, tree, posm)
        else:
            buf = np.zeros(2)

        # Replicate every rank's whole tree (the method's hallmark).
        all_bufs = comm.allgather(buf)

        acc = np.zeros((pos.shape[0], 3))
        for buf_r in all_bufs:
            if buf_r[0] == 0:
                continue
            nodes_r, perm_r, posm_r = _deserialize_tree(comm, buf_r)
            result = walk_forces(
                pos,
                lambda rows: nodes_r[rows],
                lambda starts, counts: posm_r[perm_r[flat_ranges(starts, counts)]],
                theta=theta,
                eps=eps,
            )
            acc += result.acc
            comm.work(result.interactions * FLOPS_PER_INTERACTION)

        vel += dt * acc
        pos += dt * vel
        comm.work(12 * pos.shape[0])

    return pos, vel


def mpi_bh_simulate(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    cluster: Cluster,
    *,
    steps: int = 2,
    dt: float = 1e-3,
    theta: float = 0.5,
    eps: float = 1e-3,
    leaf_size: int = 16,
    ranks: int | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the tree-replication MPI Barnes-Hut baseline.

    Returns final positions, velocities and the simulated time.  Note
    the *forces differ slightly* from the single-tree algorithm: each
    subtree is approximated independently, so the summed accelerations
    carry a (bounded) different approximation error — both versions
    are verified against direct summation.
    """
    size = cluster.total_cores if ranks is None else ranks
    blocks = split_range(pos.shape[0], size)
    res = run_mpi(
        _bh_rank, cluster, pos, vel, mass, blocks,
        steps, dt, theta, eps, leaf_size, ranks=ranks,
    )
    pos_out = np.vstack([r[0] for r in res.results])
    vel_out = np.vstack([r[1] for r in res.results])
    return pos_out, vel_out, res.elapsed
