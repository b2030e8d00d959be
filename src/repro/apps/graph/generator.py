"""Deterministic sparse graph generation.

Graphs are built from the repository's SplitMix64 hash, so every
implementation (and every test run) sees the identical structure
without carrying adjacency data around.  Each vertex draws ``degree``
pseudo-random out-neighbours; edges are symmetrised, self-loops and
duplicates removed, and the result stored in CSR form.  The CSR is
built in numpy, without scipy, in one int64 buffer of ``2 * n * degree``
keys: the draws are hashed a chunk at a time into both directions'
``row * n + col`` keys (a self-loop's into a sentinel that sorts first),
the buffer is sorted in place, its duplicates compacted forward a chunk
at a time, the row boundaries come from one ``searchsorted`` and the
column indices are the keys' remainders, taken in place.  The build's
peak memory is that buffer plus one chunk; ``indices`` is its prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import hash_u64

_CHUNK = 1 << 13  # keys per chunk of the build's temporaries


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
    m = n * degree
    keys = np.empty(2 * m, dtype=np.int64)
    fwd, bwd = keys[:m].reshape(n, degree), keys[m:].reshape(n, degree)
    salt = np.arange(degree, dtype=np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    salt += np.uint64(seed)
    step = max(1, _CHUNK // degree)
    for lo in range(0, n, step):
        src = np.arange(lo, min(lo + step, n), dtype=np.int64)[:, None]
        dst = hash_u64(src.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + salt)
        dst %= np.uint64(n)
        dst = dst.view(np.int64)  # every value is below n
        f, b = fwd[lo : lo + step], bwd[lo : lo + step]
        np.add(src * n, dst, out=f)
        np.add(dst * n, src, out=b)
        loop = dst == src  # a self-loop's two keys: a sentinel that sorts first
        f[loop] = b[loop] = -1
    keys.sort()
    size, last = 0, -1  # collapse duplicate edges, skipping the sentinels
    for lo in range(int(np.searchsorted(keys, 0)), keys.size, _CHUNK):
        chunk = keys[lo : lo + _CHUNK]
        kept, last = chunk[np.diff(chunk, prepend=last) != 0], chunk[-1]
        keys[size : size + kept.size] = kept
        size += kept.size
    keys = keys[:size]
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
