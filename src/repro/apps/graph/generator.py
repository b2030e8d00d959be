"""Deterministic sparse graph generation.

Graphs are built from the repository's SplitMix64 hash, so every
implementation (and every test run) sees the identical structure
without carrying adjacency data around.  Each vertex draws ``degree``
pseudo-random out-neighbours; edges are symmetrised, self-loops and
duplicates removed, and the result stored in CSR form.  The CSR is
built in numpy, without scipy: both directions of every edge become
one ``row * n + col`` int64 key, the keys are sorted in place and
deduplicated, the row boundaries come from one ``searchsorted`` and the
column indices are the keys' remainders, taken in place.  The hash
inputs and the edge keys are built in place too, so the build's peak
memory is a few edge-sized arrays, not a chain of matrix temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    key = src.astype(np.uint64)
    key *= np.uint64(0x9E3779B97F4A7C15)
    key += np.tile(np.arange(degree, dtype=np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F), n)
    key += np.uint64(seed)
    dst = hash_u64(key)
    del key
    dst %= np.uint64(n)
    dst = dst.view(np.int64)  # every value is below n
    keep = src != dst  # no self-loops
    src, dst = src[keep], dst[keep]
    m = src.size
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(src, n, out=keys[:m])
    keys[:m] += dst
    np.multiply(dst, n, out=keys[m:])
    keys[m:] += src
    del src, dst, keep
    keys.sort()
    fresh = np.empty(keys.size, dtype=bool)  # collapse duplicate edges
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    del fresh
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return Graph(indptr=indptr, indices=np.remainder(keys, n, out=keys), n=n)


def to_networkx(graph: Graph):
    """Convert to a networkx Graph (verification helper)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for v in range(graph.n):
        for w in graph.neighbors(v):
            g.add_edge(v, int(w))
    return g
