"""Deterministic sparse graph generation.

Graphs are built from the repository's SplitMix64 hash, so every
implementation (and every test run) sees the identical structure
without carrying adjacency data around.  Each vertex draws ``degree``
pseudo-random out-neighbours; edges are symmetrised, self-loops and
duplicates removed, and the result stored in CSR form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.apps.common import hash_u64


@dataclass(frozen=True)
class Graph:
    """An undirected graph in CSR adjacency form."""

    indptr: np.ndarray
    indices: np.ndarray
    n: int

    @property
    def n_edges(self) -> int:
        """Undirected edge count."""
        return int(self.indices.size) // 2

    def neighbors(self, v: int) -> np.ndarray:
        """Adjacency list of vertex ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self) -> np.ndarray:
        """Degree of every vertex."""
        return np.diff(self.indptr)

    def expand(self, frontier: np.ndarray) -> tuple[np.ndarray, int]:
        """The sorted unique neighbours of ``frontier`` and the number
        of edges scanned: one gather of the CSR spans, deduplicated by
        marking a bitmap rather than by sorting."""
        starts = self.indptr[frontier]
        counts = self.indptr[frontier + 1] - starts
        edges = int(counts.sum())
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        offsets += np.arange(edges)
        mark = np.zeros(self.n, dtype=bool)
        mark[self.indices[offsets]] = True
        return np.flatnonzero(mark), edges


def hashed_graph(n: int, degree: int = 4, *, seed: int = 1) -> Graph:
    """Build a deterministic pseudo-random graph.

    Every vertex draws ``degree`` hash-derived neighbours (plus the
    reverse edges), giving an expander-like structure with small
    diameter — the worst case for BFS communication, since frontiers
    touch most nodes of the cluster within a few levels.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    k = np.tile(np.arange(degree, dtype=np.int64), n)
    with np.errstate(over="ignore"):
        key = (
            src.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + k.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
            + np.uint64(seed)
        )
    dst = (hash_u64(key) % np.uint64(n)).astype(np.int64)
    keep = src != dst  # no self-loops
    src, dst = src[keep], dst[keep]
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    adj = sp.coo_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n)
    ).tocsr()
    adj.data[:] = 1  # collapse duplicate edges
    adj.sum_duplicates()
    adj.sort_indices()
    return Graph(indptr=adj.indptr.astype(np.int64), indices=adj.indices.astype(np.int64), n=n)


def to_networkx(graph: Graph):
    """Convert to a networkx Graph (verification helper)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for v in range(graph.n):
        for w in graph.neighbors(v):
            g.add_edge(v, int(w))
    return g
