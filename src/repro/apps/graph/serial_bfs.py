"""Serial reference breadth-first search."""

from __future__ import annotations

import numpy as np

from repro.apps.graph.generator import Graph

#: Distance assigned to vertices the search never reaches.
UNREACHED = np.iinfo(np.int64).max


def serial_bfs(graph: Graph, source: int) -> np.ndarray:
    """Level-synchronous BFS; returns the distance of every vertex
    from ``source`` (``UNREACHED`` where disconnected)."""
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range [0, {graph.n})")
    dist = np.full(graph.n, UNREACHED, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        nbrs, _ = graph.expand(frontier)
        fresh = nbrs[dist[nbrs] == UNREACHED]
        dist[fresh] = level + 1
        frontier = fresh
        level += 1
    return dist
