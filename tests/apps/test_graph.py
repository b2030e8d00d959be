"""Tests for the BFS graph application."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.graph import (
    UNREACHED,
    hashed_graph,
    mpi_bfs,
    ppm_bfs,
    serial_bfs,
    to_networkx,
)
from repro.apps.common import hash_u64
from repro.apps.graph.generator import Graph
from repro.config import franklin
from repro.core.runtime import PpmRuntime
from repro.machine import Cluster


def _scipy_csr(n: int, degree: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``hashed_graph``'s CSR the scipy way: the same hashed edges,
    symmetrised through a COO matrix, converted, deduplicated."""
    import scipy.sparse as sp

    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    k = np.tile(np.arange(degree, dtype=np.int64), n)
    with np.errstate(over="ignore"):
        key = (
            src.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + k.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
            + np.uint64(seed)
        )
    dst = (hash_u64(key) % np.uint64(n)).astype(np.int64)
    keep = src != dst
    rows = np.concatenate([src[keep], dst[keep]])
    cols = np.concatenate([dst[keep], src[keep]])
    adj = sp.coo_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n)
    ).tocsr()
    adj.sum_duplicates()
    adj.sort_indices()
    return adj.indptr.astype(np.int64), adj.indices.astype(np.int64)


@pytest.fixture(scope="module")
def graph():
    return hashed_graph(300, degree=3, seed=5)


class TestGenerator:
    def test_csr_structure(self, graph):
        assert graph.indptr.shape == (graph.n + 1,)
        assert graph.indptr[0] == 0
        assert graph.indptr[-1] == graph.indices.size

    def test_undirected(self, graph):
        edges = set()
        for v in range(graph.n):
            for w in graph.neighbors(v):
                edges.add((v, int(w)))
        for v, w in edges:
            assert (w, v) in edges

    def test_no_self_loops(self, graph):
        for v in range(graph.n):
            assert v not in graph.neighbors(v)

    def test_no_duplicate_edges(self, graph):
        for v in range(graph.n):
            nbrs = graph.neighbors(v)
            assert np.unique(nbrs).size == nbrs.size

    def test_deterministic(self):
        a = hashed_graph(100, seed=9)
        b = hashed_graph(100, seed=9)
        assert (a.indices == b.indices).all()

    def test_seed_changes_graph(self):
        a = hashed_graph(100, seed=9)
        b = hashed_graph(100, seed=10)
        assert a.indices.size != b.indices.size or not (a.indices == b.indices).all()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 40),
        degree=st.integers(1, 60),
        seed=st.integers(0, 2**32),
    )
    @example(n=2, degree=1, seed=6)  # every draw a self-loop: no edge at all
    @example(n=2, degree=3, seed=138)  # the same with degree > n
    @example(n=3, degree=9, seed=1)  # degree >= n: duplicates everywhere
    def test_csr_equals_scipy_reference(self, n, degree, seed):
        g = hashed_graph(n, degree, seed=seed)
        indptr, indices = _scipy_csr(n, degree, seed)
        assert g.indptr.dtype == g.indices.dtype == np.int64
        np.testing.assert_array_equal(g.indptr, indptr)
        np.testing.assert_array_equal(g.indices, indices)

    def test_validation(self):
        with pytest.raises(ValueError):
            hashed_graph(1)
        with pytest.raises(ValueError):
            hashed_graph(10, degree=0)

    def test_build_peak_is_the_graph_it_returns(self):
        """The build holds one key buffer plus one chunk's temporaries:
        its traced peak stays within 1.25x of what the graph keeps alive
        (``indices`` is a prefix view of that buffer)."""
        tracemalloc.start()
        try:
            g = hashed_graph(20_000, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(
            (a if a.base is None else a.base).nbytes for a in (g.indptr, g.indices)
        )
        assert peak <= 1.25 * kept, (peak, kept)


@st.composite
def _graph_and_frontier(draw):
    n = draw(st.integers(2, 200))
    g = hashed_graph(n, degree=draw(st.integers(1, 12)), seed=draw(st.integers(0, 2**32)))
    isolated = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if isolated.any():
        # Cut every edge touching the chosen vertices: degree zero.
        src = np.repeat(np.arange(n), g.degree())
        keep = ~isolated[src] & ~isolated[g.indices]
        counts = np.bincount(src[keep], minlength=n)
        g = Graph(np.r_[0, np.cumsum(counts)], g.indices[keep], n)
    order = draw(st.permutations(range(n)))
    frontier = np.array(order[: draw(st.integers(1, n))], dtype=np.int64)
    return g, frontier


class TestExpand:
    @settings(max_examples=50, deadline=None)
    @given(_graph_and_frontier())
    def test_equals_unique_of_the_spans(self, case):
        g, frontier = case
        spans = [g.indices[g.indptr[v] : g.indptr[v + 1]] for v in frontier]
        nbrs, edges = g.expand(frontier)
        assert nbrs.dtype == np.int64
        assert np.array_equal(nbrs, np.unique(np.concatenate(spans)))
        assert edges == sum(len(s) for s in spans)


class TestSerialBfs:
    def test_matches_networkx(self, graph):
        import networkx as nx

        dist = serial_bfs(graph, 0)
        lengths = nx.single_source_shortest_path_length(to_networkx(graph), 0)
        for v in range(graph.n):
            if v in lengths:
                assert dist[v] == lengths[v]
            else:
                assert dist[v] == UNREACHED

    def test_source_distance_zero(self, graph):
        assert serial_bfs(graph, 7)[7] == 0

    def test_neighbour_distances_differ_by_at_most_one(self, graph):
        dist = serial_bfs(graph, 0)
        for v in range(graph.n):
            if dist[v] == UNREACHED:
                continue
            for w in graph.neighbors(v):
                if dist[w] != UNREACHED:
                    assert abs(int(dist[v]) - int(dist[w])) <= 1

    def test_disconnected_vertices_unreached(self):
        # A path graph built by hand: 0-1, plus isolated vertex 2.
        import scipy.sparse as sp

        adj = sp.csr_matrix(
            (np.ones(2), (np.array([0, 1]), np.array([1, 0]))), shape=(3, 3)
        )
        g = Graph(indptr=adj.indptr.astype(np.int64), indices=adj.indices.astype(np.int64), n=3)
        dist = serial_bfs(g, 0)
        assert dist.tolist() == [0, 1, UNREACHED]

    def test_source_validation(self, graph):
        with pytest.raises(ValueError):
            serial_bfs(graph, -1)
        with pytest.raises(ValueError):
            serial_bfs(graph, graph.n)


class TestDistributedAgreement:
    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_ppm_matches_serial(self, graph, nodes):
        ref = serial_bfs(graph, 0)
        dist, elapsed = ppm_bfs(graph, 0, Cluster(franklin(n_nodes=nodes)))
        assert (dist == ref).all()
        assert elapsed > 0

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_mpi_matches_serial(self, graph, nodes):
        ref = serial_bfs(graph, 0)
        dist, elapsed = mpi_bfs(graph, 0, Cluster(franklin(n_nodes=nodes)))
        assert (dist == ref).all()
        assert elapsed > 0

    def test_nonzero_source(self, graph):
        ref = serial_bfs(graph, 42)
        dist, _ = ppm_bfs(graph, 42, Cluster(franklin(n_nodes=2)))
        assert (dist == ref).all()

    @pytest.mark.parametrize(
        "engine", [{}, {"executor": "process", "workers": 2}], ids=["inline", "process"]
    )
    def test_vps_hold_no_neighbour_array_across_the_barrier(self, graph, monkeypatch, engine):
        """The runtime owns an accumulate's rows from the access on; a
        VP still holding its ``nbrs`` at the barrier would keep a second
        copy alive, visible as a live id-keyed memo entry at the commit."""
        held = []
        lookup = PpmRuntime._lookup_plan

        def spy(self, signature):
            held.append(len(self.shared_registry["bfs_dist"]._index_refs))
            return lookup(self, signature)

        monkeypatch.setattr(PpmRuntime, "_lookup_plan", spy)
        dist, _ = ppm_bfs(graph, 0, Cluster(franklin(n_nodes=2)), **engine)
        assert (dist == serial_bfs(graph, 0)).all()
        assert len(held) > 3 and not any(held), held

    def test_ppm_independent_of_vp_count(self, graph):
        d1, _ = ppm_bfs(graph, 0, Cluster(franklin(n_nodes=2)), vp_per_core=1)
        d2, _ = ppm_bfs(graph, 0, Cluster(franklin(n_nodes=2)), vp_per_core=4)
        assert (d1 == d2).all()

    def test_ppm_degrades_slower_than_mpi(self):
        """BFS is latency-bound at this size, so strong scaling stalls
        for both; the meaningful comparison is that PPM's per-level
        cost stays bounded while MPI's per-level message count grows
        with the rank count."""
        g = hashed_graph(2000, degree=4, seed=3)
        _, tp1 = ppm_bfs(g, 0, Cluster(franklin(n_nodes=1)))
        _, tp8 = ppm_bfs(g, 0, Cluster(franklin(n_nodes=8)))
        _, tm8 = mpi_bfs(g, 0, Cluster(franklin(n_nodes=8)))
        assert tp8 < tm8, "PPM should beat MPI at scale"
        assert tp8 < 2.0 * tp1, "PPM overhead must stay bounded"
