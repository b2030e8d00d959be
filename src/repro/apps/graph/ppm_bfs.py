"""PPM implementation of level-synchronous BFS.

One global phase per BFS level: each VP scans its owned slice of the
distance array for current-frontier vertices, then posts combining
``minimum`` writes to every neighbour — fine-grained, data-driven,
graph-structured traffic that the runtime deduplicates and bundles.
A phase reduction of the frontier size drives termination.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.apps.graph.generator import Graph
from repro.apps.graph.serial_bfs import UNREACHED
from repro.apps.common import split_range
from repro.core import ppm_function, run_ppm
from repro.machine import Cluster


@ppm_function
def _bfs_kernel(ctx, graph, DIST):
    node_lo, node_hi = DIST.local_range(ctx.node_id)
    lo, hi = split_range(node_hi - node_lo, ctx.node_vp_count)[ctx.node_rank]
    lo, hi = node_lo + lo, node_lo + hi

    handle = None
    for level in itertools.count():
        yield ctx.global_phase
        if handle is not None and handle.value == 0:
            return  # previous level's global frontier was empty
        mine = DIST[lo:hi]
        frontier = lo + np.nonzero(mine == level)[0]
        if frontier.size:
            nbrs, edges = graph.expand(frontier)
            DIST.accumulate(nbrs, level + 1, op="minimum")
            del nbrs  # the runtime holds its own copy until the commit
            ctx.work(2 * edges)
        handle = ctx.reduce(int(frontier.size), "sum")


def ppm_bfs(
    graph: Graph,
    source: int,
    cluster: Cluster,
    *,
    vp_per_core: int = 2,
    trace=None,
    **run_opts,
) -> tuple[np.ndarray, float]:
    """Run the PPM BFS; returns distances and the simulated time.

    The runtime owns a level's neighbour rows from the ``accumulate``
    on, so each VP drops its own array before the barrier."""

    def main(ppm):
        DIST = ppm.global_shared("bfs_dist", graph.n, dtype=np.int64, fill=UNREACHED)
        DIST[source] = 0
        ppm.reset_clocks()
        k = ppm.cores_per_node * vp_per_core
        ppm.do(k, _bfs_kernel, graph, DIST)
        return DIST.committed

    ppm, dist = run_ppm(main, cluster, trace=trace, **run_opts)
    return dist, ppm.elapsed
