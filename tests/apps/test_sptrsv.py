"""Tests for the sparse triangular solve application."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.apps.cg import build_chimney_problem
from repro.apps.sptrsv import (
    build_trsv_problem,
    level_schedule,
    mpi_trsv,
    ppm_trsv,
    serial_trsv,
)
from repro.config import franklin
from repro.machine import Cluster


@pytest.fixture(scope="module")
def problem():
    return build_trsv_problem(6)  # 432 rows


def as_scipy(M) -> sp.csr_matrix:
    """A numpy ``Csr``'s arrays as scipy's matrix, the reference."""
    return sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)


class TestLowerFactor:
    @pytest.mark.parametrize("nx", [4, 6, 8])
    def test_arrays_equal_scipy_tril(self, nx):
        A = build_chimney_problem(nx).A
        ref = sp.tril(as_scipy(A), k=0, format="csr")
        ref.sort_indices()
        L = build_trsv_problem(nx).L
        assert L.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(L, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name


class TestLevelSchedule:
    def test_no_dependency_rows_are_level_zero(self, problem):
        L = problem.L
        for i in range(problem.n):
            deps = L.indices[L.indptr[i] : L.indptr[i + 1]]
            if (deps < i).sum() == 0:
                assert problem.levels[i] == 0

    def test_levels_respect_dependencies(self, problem):
        """Every row's level is strictly greater than all of its
        dependencies' levels — the property that makes wavefront
        scheduling legal."""
        L = problem.L
        for i in range(problem.n):
            deps = L.indices[L.indptr[i] : L.indptr[i + 1]]
            for j in deps[deps < i]:
                assert problem.levels[i] > problem.levels[j]

    def test_levels_partition_rows(self, problem):
        counted = sum(
            problem.rows_of_level(l).size for l in range(problem.n_levels)
        )
        assert counted == problem.n

    def test_diagonal_matrix_single_level(self):
        L = sp.identity(10, format="csr")
        assert (level_schedule(L) == 0).all()

    def test_chain_matrix_n_levels(self):
        """A bidiagonal matrix forces fully sequential levels."""
        n = 6
        L = sp.diags([np.ones(n - 1), np.full(n, 2.0)], offsets=[-1, 0]).tocsr()
        levels = level_schedule(L)
        assert levels.tolist() == list(range(n))


class TestSerial:
    def test_matches_scipy(self, problem):
        x = serial_trsv(problem)
        x_ref = spla.spsolve_triangular(as_scipy(problem.L), problem.b, lower=True)
        assert np.allclose(x, x_ref, atol=1e-9)

    def test_residual_small(self, problem):
        x = serial_trsv(problem)
        assert np.linalg.norm(problem.L @ x - problem.b) < 1e-9


class TestDistributedAgreement:
    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_ppm_matches_serial(self, problem, nodes):
        ref = serial_trsv(problem)
        x, elapsed = ppm_trsv(problem, Cluster(franklin(n_nodes=nodes)))
        assert np.allclose(x, ref, atol=1e-12)
        assert elapsed > 0

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_mpi_matches_serial(self, problem, nodes):
        ref = serial_trsv(problem)
        x, elapsed = mpi_trsv(problem, Cluster(franklin(n_nodes=nodes)))
        assert np.allclose(x, ref, atol=1e-12)
        assert elapsed > 0

    def test_ppm_independent_of_vp_count(self, problem):
        x1, _ = ppm_trsv(problem, Cluster(franklin(n_nodes=2)), vp_per_core=1)
        x2, _ = ppm_trsv(problem, Cluster(franklin(n_nodes=2)), vp_per_core=4)
        assert np.allclose(x1, x2, atol=1e-15)


class TestHonestLimitation:
    def test_wavefront_ppm_loses_to_tuned_push(self, problem):
        """Documented negative result (EXPERIMENTS.md): the strict
        phase-per-wavefront PPM pays a cluster barrier per level, so a
        hand-tuned asynchronous push MPI code wins this latency-bound
        kernel — consistent with [20]'s reputation."""
        _, t_ppm = ppm_trsv(problem, Cluster(franklin(n_nodes=4)))
        _, t_mpi = mpi_trsv(problem, Cluster(franklin(n_nodes=4)))
        assert t_mpi < t_ppm
