"""Tests for the multiscale collocation matrix generation."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps.collocation import (
    CollocationConfig,
    MultiscaleProblem,
    mpi_generate,
    ppm_generate,
    serial_generate,
)
from repro.config import franklin
from repro.machine import Cluster


@pytest.fixture(scope="module")
def problem():
    return MultiscaleProblem(CollocationConfig(levels=6))


def as_csr(problem, triple):
    """The generators' ``(rows, cols, vals)`` triple as a scipy matrix,
    the reference the agreement tests compare in."""
    rows, cols, vals = triple
    return sp.coo_matrix((vals, (rows, cols)), shape=(problem.n, problem.n)).tocsr()


class TestStructure:
    def test_dimension_is_dyadic(self, problem):
        assert problem.n == 2**7 - 1

    def test_level_of_matches_offsets(self, problem):
        for level in range(7):
            lo = int(problem.level_offsets[level])
            hi = int(problem.level_offsets[level + 1])
            assert problem.level_of(lo) == level
            assert problem.level_of(hi - 1) == level
            assert hi - lo == problem.level_width(level)

    def test_cache_offsets_consistent(self, problem):
        total = sum(problem.cache_size(l) for l in range(7))
        assert total == problem.cache_total

    def test_cache_level_of(self, problem):
        gidx = np.arange(problem.cache_total)
        levels = problem.cache_level_of(gidx)
        for level in range(7):
            lo = int(problem.cache_offsets[level])
            assert levels[lo] == level

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CollocationConfig(levels=0)
        with pytest.raises(ValueError):
            CollocationConfig(n_terms=0)
        with pytest.raises(ValueError):
            CollocationConfig(quad_points=1)


class TestPattern:
    def test_truncation_halves_with_level_distance(self, problem):
        rows = np.arange(problem.n, dtype=np.int64)
        base = problem.config.base_cols
        # A row at level 3 gets `base` columns at level 3, base/2 at
        # levels 2 and 4, etc.
        r, c, _ci, _co, _j = problem.row_entries(rows, col_level=3)
        row3 = int(problem.level_offsets[3])
        assert (r == row3).sum() == base
        r2, *_ = problem.row_entries(rows, col_level=2)
        assert (r2 == row3).sum() == base // 2

    def test_columns_live_at_requested_level(self, problem):
        rows = np.arange(problem.n, dtype=np.int64)
        for level in (0, 3, 6):
            _r, c, _ci, _co, _j = problem.row_entries(rows, level)
            if c.size:
                assert (np.asarray(problem.level_of(c)) == level).all()

    def test_cache_indices_live_at_requested_level(self, problem):
        rows = np.arange(problem.n, dtype=np.int64)
        _r, _c, cache_idx, _co, _j = problem.row_entries(rows, 4)
        levels = problem.cache_level_of(cache_idx.ravel())
        assert (levels == 4).all()

    def test_deterministic(self, problem):
        rows = np.arange(20, dtype=np.int64)
        a = problem.row_entries(rows, 3)
        b = problem.row_entries(rows, 3)
        for x, y in zip(a, b):
            assert (np.asarray(x) == np.asarray(y)).all()

    def test_near_linear_nnz(self):
        """The truncation keeps nnz ~ O(n log n), far below dense."""
        p = MultiscaleProblem(CollocationConfig(levels=8))
        m = as_csr(p, serial_generate(p))
        assert m.nnz < 0.1 * p.n * p.n
        assert m.nnz > p.n  # but not trivially sparse


class TestCacheValues:
    def test_integrals_are_finite_and_positive(self, problem):
        vals = problem.cache_values(np.arange(problem.cache_total))
        assert np.isfinite(vals).all()
        assert (vals >= 0.0).all()  # kernel and hat are non-negative

    def test_deterministic(self, problem):
        idx = np.arange(0, problem.cache_total, 7)
        assert (problem.cache_values(idx) == problem.cache_values(idx)).all()

    def test_flop_charges_scale(self, problem):
        assert problem.quad_flops(10) == 10 * problem.quad_flops(1)
        assert problem.combine_flops(100) > 0


class TestAgreement:
    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_ppm_matches_serial(self, problem, nodes):
        ref = as_csr(problem, serial_generate(problem))
        m, elapsed = ppm_generate(problem, Cluster(franklin(n_nodes=nodes)))
        diff = (as_csr(problem, m) - ref)
        assert diff.nnz == 0 or abs(diff).max() < 1e-12
        assert elapsed > 0

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_mpi_matches_serial(self, problem, nodes):
        ref = as_csr(problem, serial_generate(problem))
        m, elapsed = mpi_generate(problem, Cluster(franklin(n_nodes=nodes)))
        diff = (as_csr(problem, m) - ref)
        assert diff.nnz == 0 or abs(diff).max() < 1e-12
        assert elapsed > 0

    def test_parallel_pattern_matches_serial_array_for_array(self, problem):
        """The slot assembly walks the levels in the serial order, so
        the PPM and MPI triples hold the serial entries in its order."""
        rows, cols, _ = serial_generate(problem)
        for generate in (ppm_generate, mpi_generate):
            (r, c, v), _ = generate(problem, Cluster(franklin(n_nodes=2)))
            assert np.array_equal(r, rows) and np.array_equal(c, cols)
            assert r.dtype == rows.dtype and c.dtype == cols.dtype
            assert v.shape == rows.shape

    def test_ppm_independent_of_vp_count(self, problem):
        m1, _ = ppm_generate(problem, Cluster(franklin(n_nodes=2)), vp_per_core=1)
        m2, _ = ppm_generate(problem, Cluster(franklin(n_nodes=2)), vp_per_core=4)
        diff = (as_csr(problem, m1) - as_csr(problem, m2))
        assert diff.nnz == 0 or abs(diff).max() < 1e-15


class TestFigure2Shape:
    def test_ppm_scales_better_than_mpi(self):
        problem = MultiscaleProblem(CollocationConfig(levels=8))
        t_ppm = []
        t_mpi = []
        for nodes in (2, 16):
            _, tp = ppm_generate(problem, Cluster(franklin(n_nodes=nodes)))
            _, tm = mpi_generate(problem, Cluster(franklin(n_nodes=nodes)))
            t_ppm.append(tp)
            t_mpi.append(tm)
        # PPM at least as good at 2 nodes and clearly better at 16.
        assert t_ppm[0] <= 1.1 * t_mpi[0]
        assert t_ppm[1] < 0.5 * t_mpi[1]
