"""Geometric multigrid V-cycles — the intro's "multi-grid" workload.

Solves the 1-D Poisson problem with textbook V(2,2) cycles in all
three forms, shows the multigrid signature (residual contraction by
~10x per cycle), and the model comparison: every grid operation is one
PPM phase with plain indexing, versus the MPI version's per-level halo
plans, ghost exchanges, coarse-level agglomeration and replication.

Run with:  python examples/multigrid_solver.py
"""

import numpy as np

from repro import Cluster, franklin
from repro.apps.multigrid import (
    build_mg_problem,
    mpi_mg_solve,
    ppm_mg_solve,
    serial_mg_solve,
)

if __name__ == "__main__":
    problem = build_mg_problem(levels=8)  # 1025 fine points
    print(
        f"1-D Poisson, {problem.n} fine points, "
        f"{problem.levels + 1} levels: {problem.sizes}"
    )

    u, history = serial_mg_solve(problem, cycles=8)
    print("\nresidual per V(2,2) cycle:")
    for i, res in enumerate(history):
        rate = f"  (x{res / history[i-1]:.3f})" if i else ""
        print(f"  cycle {i + 1}: {res:.3e}{rate}")

    # Dense direct solve of the fine-grid system, the reference.
    m, h = problem.n - 2, problem.h(0)
    A = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / (h * h)
    u_ref = np.linalg.solve(A, problem.f[1:-1])
    print(f"error vs direct solve: {np.abs(u[1:-1] - u_ref).max():.2e}")

    print(f"\n{'nodes':>5}  {'PPM (ms)':>9}  {'MPI (ms)':>9}")
    for nodes in (1, 2, 4, 8):
        u_p, t_ppm = ppm_mg_solve(problem, Cluster(franklin(n_nodes=nodes)), cycles=8)
        u_m, t_mpi = mpi_mg_solve(problem, Cluster(franklin(n_nodes=nodes)), cycles=8)
        assert np.abs(u_p - u).max() == 0.0, "PPM must match serial bitwise"
        assert np.abs(u_m - u).max() == 0.0, "MPI must match serial bitwise"
        print(f"{nodes:>5}  {t_ppm * 1e3:>9.3f}  {t_mpi * 1e3:>9.3f}")

    print(
        "\nBoth parallel versions reproduce the serial iterates exactly.\n"
        "Neither scales well — the V-cycle's deep levels have almost no\n"
        "work but still pay per-operation synchronisation, the classic\n"
        "multigrid communication squeeze."
    )
