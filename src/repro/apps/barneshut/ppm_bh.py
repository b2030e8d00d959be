"""PPM implementation of the Barnes-Hut simulation.

The tree, the particle permutation and the particle table all live in
global shared memory.  Per time step:

1. **build** — one VP reads the particle table and publishes the new
   tree (a bulk write the runtime streams out);
2. **forces** — every VP walks the shared tree for its own particles.
   The walk's reads are exactly the paper's nightmare workload:
   data-driven, fine-grained, unpredictable ("they cannot be
   anticipated and prepared in advance").  Each VP simply indexes the
   shared arrays; the runtime deduplicates and bundles the fetches,
   which is why PPM "avoids the need to copy the entire tree
   structures from other nodes";
3. **integrate** — every VP advances its own particles.

The force phase declares ``latency_rounds`` equal to the tree depth:
each traversal level's fetches depend on the previous level's records.
"""

from __future__ import annotations

import numpy as np

from repro.apps.barneshut.octree import build_octree, max_tree_nodes
from repro.apps.barneshut.traversal import FLOPS_PER_INTERACTION, walk_forces
from repro.apps.common import split_range
from repro.core import ppm_function, run_ppm
from repro.machine import Cluster


@ppm_function
def _bh_kernel(ctx, POSM, VEL, ACC, TREE, PERM, steps, dt, theta, eps, leaf_size, depth_hint):
    n = POSM.shape[0]
    node_lo, node_hi = POSM.local_range(ctx.node_id)
    lo, hi = split_range(node_hi - node_lo, ctx.node_vp_count)[ctx.node_rank]
    lo, hi = node_lo + lo, node_lo + hi

    for _step in range(steps):
        yield ctx.global_phase
        # Build phase: one VP constructs this step's tree from the
        # shared particle table and publishes it.
        if ctx.global_rank == 0:
            pm = POSM[:]
            tree = build_octree(pm[:, 0:3], pm[:, 3], leaf_size=leaf_size)
            TREE[0 : tree.n_nodes] = tree.nodes
            PERM[:] = tree.perm
            ctx.work(tree.build_flops)

        yield ctx.phase("global", latency_rounds=depth_hint)
        # Force phase: data-driven traversal through shared memory.
        pos_chunk = POSM[lo:hi][:, 0:3]
        result = walk_forces(
            pos_chunk,
            lambda rows: TREE[rows],
            lambda start, count: PERM[start : start + count],
            lambda ids: POSM[ids],
            theta=theta,
            eps=eps,
        )
        ACC[lo:hi] = result.acc
        ctx.work(result.interactions * FLOPS_PER_INTERACTION)

        yield ctx.global_phase
        # Integration phase: kick + drift over the VP's own particles.
        # Snapshot reads are read-only views; copy before mutating.
        pm = POSM[lo:hi].copy()
        vel = VEL[lo:hi] + dt * ACC[lo:hi]
        pm[:, 0:3] += dt * vel
        VEL[lo:hi] = vel
        POSM[lo:hi] = pm
        ctx.work(12 * (hi - lo))


def ppm_bh_simulate(
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
    vp_per_core: int = 2,
    trace=None,
    **run_opts,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the PPM Barnes-Hut on the cluster.

    Returns final positions, velocities and the simulated time.
    """
    n = pos.shape[0]
    depth_hint = int(np.ceil(np.log2(max(n, 2)) / 3)) + 2

    def main(ppm):
        POSM = ppm.global_shared("bh_posm", (n, 4))
        VEL = ppm.global_shared("bh_vel", (n, 3))
        ACC = ppm.global_shared("bh_acc", (n, 3))
        TREE = ppm.global_shared("bh_tree", (max_tree_nodes(n, leaf_size), 12))
        PERM = ppm.global_shared("bh_perm", n, dtype=np.int64)
        POSM[:] = np.concatenate([pos, mass[:, None]], axis=1)
        VEL[:] = vel
        ppm.reset_clocks()
        k = ppm.cores_per_node * vp_per_core
        ppm.do(
            k, _bh_kernel, POSM, VEL, ACC, TREE, PERM,
            steps, dt, theta, eps, leaf_size, depth_hint,
        )
        return POSM.committed, VEL.committed

    ppm, (posm, vel_out) = run_ppm(main, cluster, trace=trace, **run_opts)
    return posm[:, 0:3], vel_out, ppm.elapsed
