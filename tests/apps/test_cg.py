"""Tests for the CG application: problem generator, serial reference,
PPM and MPI solvers, and their agreement."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._compressed as sp_compressed
import scipy.sparse.linalg as spla

from repro.apps.cg import (
    build_chimney_problem,
    mpi_cg_solve,
    ppm_cg,
    ppm_cg_solve,
    serial_cg_solve,
)
from repro.config import franklin
from repro.machine import Cluster


@pytest.fixture(scope="module")
def problem():
    return build_chimney_problem(6)  # 6x6x12 = 432 rows


def scipy_matrix(A):
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def scipy_chimney(nx, ny=None, nz=None):
    """The chimney matrix as scipy assembles it: the reference the numpy
    assembly must reproduce byte for byte."""
    ny = nx if ny is None else ny
    nz = 2 * nx if nz is None else nz
    ix, iy, iz = (g.ravel() for g in np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    ))
    rows, cols, vals = [], [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                jx, jy, jz = ix + dx, iy + dy, iz + dz
                valid = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny) & (jz >= 0) & (jz < nz)
                rows.append((ix[valid] * ny + iy[valid]) * nz + iz[valid])
                cols.append((jx[valid] * ny + jy[valid]) * nz + jz[valid])
                vals.append(np.full(rows[-1].shape, -1.0 / (dx * dx + dy * dy + dz * dz)))
    n = nx * ny * nz
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    A = (A + sp.diags(np.abs(A).sum(axis=1).A1 + 1.0)).tocsr()
    A.sort_indices()
    return A


class TestProblemGenerator:
    @pytest.mark.parametrize("dims", [(12,), (4,), (6, 6, 4), (3, 5, 2), (1,), (2, 1, 1)])
    def test_numpy_assembly_equals_scipy_bytes(self, dims):
        A, ref = build_chimney_problem(*dims).A, scipy_chimney(*dims)
        assert A.shape == ref.shape and A.nnz == ref.nnz
        for name in ("indptr", "indices", "data"):
            got, want = getattr(A, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_dimensions(self, problem):
        assert problem.n == 6 * 6 * 12
        assert problem.A.shape == (432, 432)
        assert problem.b.shape == (432,)

    def test_27_point_interior_rows(self, problem):
        # An interior cell couples to all 26 neighbours + itself.
        nnz_per_row = np.diff(problem.A.indptr)
        assert nnz_per_row.max() == 27
        # Corners couple to 7 neighbours + diagonal.
        assert nnz_per_row.min() == 8

    def test_symmetric(self, problem):
        A = scipy_matrix(problem.A)
        d = A - A.T
        assert abs(d).max() < 1e-12 if d.nnz else True

    def test_positive_definite(self, problem):
        # Strict diagonal dominance with positive diagonal implies SPD.
        A = scipy_matrix(problem.A)
        diag = A.diagonal()
        offdiag = np.abs(A).sum(axis=1).A1 - np.abs(diag)
        assert (diag > offdiag).all()

    def test_deterministic(self):
        p1 = build_chimney_problem(4)
        p2 = build_chimney_problem(4)
        assert (p1.b == p2.b).all()
        assert (scipy_matrix(p1.A) != scipy_matrix(p2.A)).nnz == 0

    def test_chimney_default_is_tall(self, problem):
        assert problem.nz == 2 * problem.nx

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            build_chimney_problem(0)


class TestSerialCg:
    def test_solves_the_system(self, problem):
        res = serial_cg_solve(problem.A, problem.b, tol=1e-10)
        assert res.converged
        assert np.linalg.norm(problem.A @ res.x - problem.b) < 1e-8

    def test_matches_scipy(self, problem):
        res = serial_cg_solve(problem.A, problem.b, tol=1e-10)
        x_ref = spla.spsolve(scipy_matrix(problem.A).tocsc(), problem.b)
        assert np.allclose(res.x, x_ref, atol=1e-7)

    def test_residual_history_decreases_overall(self, problem):
        res = serial_cg_solve(problem.A, problem.b, tol=1e-10)
        hist = res.residual_history
        assert hist[-1] < 1e-3 * hist[0]

    def test_max_iters_respected(self, problem):
        res = serial_cg_solve(problem.A, problem.b, tol=0.0, max_iters=5)
        assert res.iterations == 5
        assert not res.converged

    def test_shape_validation(self, problem):
        with pytest.raises(ValueError):
            serial_cg_solve(problem.A, np.zeros(3))

    def test_identity_system(self):
        A = sp.identity(10, format="csr")
        b = np.arange(10.0)
        res = serial_cg_solve(A, b)
        assert np.allclose(res.x, b)


class TestDistributedAgreement:
    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_ppm_matches_serial(self, problem, nodes):
        ref = serial_cg_solve(problem.A, problem.b, tol=1e-9)
        res, elapsed = ppm_cg_solve(
            problem, Cluster(franklin(n_nodes=nodes)), tol=1e-9
        )
        assert res.converged
        assert res.iterations == ref.iterations
        assert np.allclose(res.x, ref.x, atol=1e-6)
        assert elapsed > 0

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_mpi_matches_serial(self, problem, nodes):
        ref = serial_cg_solve(problem.A, problem.b, tol=1e-9)
        res, elapsed = mpi_cg_solve(
            problem, Cluster(franklin(n_nodes=nodes)), tol=1e-9
        )
        assert res.converged
        assert np.allclose(res.x, ref.x, atol=1e-6)
        assert elapsed > 0

    def test_ppm_result_independent_of_vp_count(self, problem):
        cluster = Cluster(franklin(n_nodes=2))
        r1, _ = ppm_cg_solve(problem, cluster, tol=1e-9, vp_per_core=1)
        r2, _ = ppm_cg_solve(
            problem, Cluster(franklin(n_nodes=2)), tol=1e-9, vp_per_core=4
        )
        assert np.allclose(r1.x, r2.x, atol=1e-9)

    def test_mpi_reduced_rank_count(self, problem):
        ref = serial_cg_solve(problem.A, problem.b, tol=1e-9)
        res, _ = mpi_cg_solve(
            problem, Cluster(franklin(n_nodes=2)), tol=1e-9, ranks=3
        )
        assert np.allclose(res.x, ref.x, atol=1e-6)


class TestPrivateBlocks:
    """Deterministic gates on the VPs' private matrix blocks: built from
    CSR slices, never as scipy objects, and footprints that keep their
    memoised access records."""

    @pytest.fixture
    def runtimes(self, monkeypatch):
        caught, run_ppm = [], ppm_cg.run_ppm

        def spy(*args, **kwargs):
            ppm, out = run_ppm(*args, **kwargs)
            caught.append(ppm.runtime)
            return ppm, out

        monkeypatch.setattr(ppm_cg, "run_ppm", spy)
        return caught

    @pytest.mark.parametrize("nodes", [1, 4, 16])
    def test_no_scipy_matrix_per_vp_and_plans_hit(self, problem, runtimes, monkeypatch, nodes):
        built = []
        init = sp_compressed._cs_matrix.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sp_compressed._cs_matrix, "__init__", counting_init)
        ppm_cg_solve(problem, Cluster(franklin(n_nodes=nodes)), max_iters=10, tol=0.0)
        assert built == []
        rt = runtimes[-1]
        # A non-owned footprint would miss every plan after the first.
        assert (rt.stats_phase_plan_hits, rt.stats_phase_plan_misses) == (26, 5)

    def test_vps_without_rows(self):
        tiny = build_chimney_problem(2)  # 16 rows for 4 x 8 VPs
        ref = serial_cg_solve(tiny.A, tiny.b)
        res, elapsed = ppm_cg_solve(tiny, Cluster(franklin(n_nodes=4)))
        assert res.converged and res.iterations == ref.iterations
        assert np.allclose(res.x, ref.x, atol=1e-12)
        assert elapsed == 0.0008438580000000001


class TestFigure1Shape:
    """The paper's Figure 1 story, as assertions."""

    def test_ppm_much_slower_on_one_node(self):
        problem = build_chimney_problem(8)
        _, t_ppm = ppm_cg_solve(problem, Cluster(franklin(n_nodes=1)), max_iters=10, tol=0)
        _, t_mpi = mpi_cg_solve(problem, Cluster(franklin(n_nodes=1)), max_iters=10, tol=0)
        assert t_ppm > 2.0 * t_mpi

    def test_ppm_catches_up_at_scale(self):
        problem = build_chimney_problem(8)
        ratios = []
        for nodes in (1, 16):
            _, t_ppm = ppm_cg_solve(problem, Cluster(franklin(n_nodes=nodes)), max_iters=10, tol=0)
            _, t_mpi = mpi_cg_solve(problem, Cluster(franklin(n_nodes=nodes)), max_iters=10, tol=0)
            ratios.append(t_ppm / t_mpi)
        assert ratios[1] < 0.5 * ratios[0]
