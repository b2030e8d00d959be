"""Tests for the multigrid application."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.apps.multigrid import (
    build_mg_problem,
    mpi_mg_solve,
    ppm_mg_solve,
    serial_mg_solve,
    vcycle_schedule,
)
from repro.apps.multigrid.problem import (
    coarse_solve,
    prolong_window,
    restrict_window,
)
from repro.config import franklin
from repro.machine import Cluster


@pytest.fixture(scope="module")
def problem():
    return build_mg_problem(levels=5)  # 129 fine points


def operator(m: int, h: float) -> sp.csc_matrix:
    """The discrete operator on ``m`` interior unknowns of mesh width
    ``h``: scipy's matrix for the reference direct solves."""
    return sp.diags(
        [np.full(m - 1, -1.0), np.full(m, 2.0), np.full(m - 1, -1.0)],
        offsets=[-1, 0, 1],
    ).tocsc() / (h * h)


class TestHierarchy:
    def test_sizes_halve(self, problem):
        for a, b in zip(problem.sizes, problem.sizes[1:]):
            assert a == 2 * (b - 1) + 1

    def test_mesh_widths(self, problem):
        assert problem.h(0) == pytest.approx(1.0 / (problem.n - 1))
        assert problem.h(1) == pytest.approx(2 * problem.h(0))

    def test_rhs_boundaries_zero(self, problem):
        assert problem.f[0] == 0.0 and problem.f[-1] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_mg_problem(levels=0)


class TestSchedule:
    def test_op_counts(self):
        sched = vcycle_schedule(3, nu1=2, nu2=1)
        ops = [op for op, _ in sched]
        assert ops.count("coarse") == 1
        assert ops.count("restrict") == 3
        assert ops.count("prolong") == 3
        assert ops.count("smooth") == 3 * (2 + 1)

    def test_descend_then_ascend(self):
        sched = vcycle_schedule(2, nu1=1, nu2=1)
        levels = [l for op, l in sched]
        # down: 0, 0(res), 0(restr), 1, 1, 1, coarse(2), up: 1..., 0...
        assert levels[0] == 0
        assert max(levels) == 2
        assert levels[-1] == 0


class TestGridOperators:
    def test_restriction_of_constant(self):
        r = np.ones(17)
        coarse = restrict_window(r[1 : 2 * 7 + 2])
        assert np.allclose(coarse, 1.0)

    def test_prolongation_of_linear_is_exact(self):
        # Linear functions are reproduced exactly by linear interpolation.
        xc = np.linspace(0, 1, 9)
        uc = 3.0 * xc
        fine = prolong_window(uc, 1, 15)
        xf = np.linspace(0, 1, 17)[1:-1]
        assert np.allclose(fine, 3.0 * xf)

    def test_coarse_solve_exact(self):
        n = 9
        h = 1.0 / (n - 1)
        x = np.linspace(0, 1, n)
        f = np.pi**2 * np.sin(np.pi * x)
        f[0] = f[-1] = 0.0
        u = coarse_solve(f, h)
        # Residual of the *discrete* system must vanish.
        res = (-u[:-2] + 2 * u[1:-1] - u[2:]) / h**2 - f[1:-1]
        assert np.abs(res).max() < 1e-10

    @pytest.mark.parametrize("m", range(1, 32))
    def test_coarse_solve_matches_spsolve(self, m):
        """The Thomas solve agrees with SuperLU to rounding.  A positive
        right-hand side has a positive solution, so no entry cancels
        to near zero and a relative tolerance per entry is fair."""
        h = 1.0 / (m + 1)
        f = np.zeros(m + 2)
        f[1:-1] = np.random.default_rng(m).uniform(0.5, 1.5, m)
        u = coarse_solve(f, h)
        u_ref = np.atleast_1d(spla.spsolve(operator(m, h), f[1:-1]))
        assert u[0] == 0.0 and u[-1] == 0.0
        np.testing.assert_allclose(u[1:-1], u_ref, rtol=1e-12, atol=0.0)


class TestSerial:
    def test_converges_to_direct_solution(self, problem):
        u, hist = serial_mg_solve(problem, cycles=12)
        u_ref = spla.spsolve(operator(problem.n - 2, problem.h(0)), problem.f[1:-1])
        assert np.abs(u[1:-1] - u_ref).max() < 1e-8

    def test_textbook_convergence_rate(self, problem):
        """Weighted-Jacobi V(2,2) cycles contract the residual by ~0.1
        per cycle — the multigrid signature."""
        _, hist = serial_mg_solve(problem, cycles=6)
        rates = [b / a for a, b in zip(hist, hist[1:])]
        assert max(rates) < 0.2

    def test_boundaries_stay_zero(self, problem):
        u, _ = serial_mg_solve(problem, cycles=3)
        assert u[0] == 0.0 and u[-1] == 0.0


class TestDistributedAgreement:
    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_ppm_matches_serial_bitwise(self, problem, nodes):
        ref, _ = serial_mg_solve(problem, cycles=6)
        u, elapsed = ppm_mg_solve(problem, Cluster(franklin(n_nodes=nodes)), cycles=6)
        assert np.abs(u - ref).max() == 0.0
        assert elapsed > 0

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_mpi_matches_serial_bitwise(self, problem, nodes):
        ref, _ = serial_mg_solve(problem, cycles=6)
        u, elapsed = mpi_mg_solve(problem, Cluster(franklin(n_nodes=nodes)), cycles=6)
        assert np.abs(u - ref).max() == 0.0
        assert elapsed > 0

    def test_ppm_independent_of_vp_count(self, problem):
        u1, _ = ppm_mg_solve(problem, Cluster(franklin(n_nodes=2)), cycles=3, vp_per_core=1)
        u2, _ = ppm_mg_solve(problem, Cluster(franklin(n_nodes=2)), cycles=3, vp_per_core=4)
        assert (u1 == u2).all()

    def test_many_ranks_small_levels(self, problem):
        """More ranks than coarse-level points: the replicated-level
        machinery must keep the MPI version exact."""
        ref, _ = serial_mg_solve(problem, cycles=4)
        u, _ = mpi_mg_solve(problem, Cluster(franklin(n_nodes=4)), cycles=4)
        assert np.abs(u - ref).max() == 0.0
