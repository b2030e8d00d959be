"""Application 2: multiscale collocation matrix generation (Figure 2).

Generates the sparse collocation matrix with PPM and with the MPI
request/reply baseline, checks both against the direct serial
computation, and prints the scaling comparison — PPM's implicit
bundled access wins, and the gap grows with the node count.

Run with:  python examples/matrix_generation.py
"""

import numpy as np

from repro import Cluster, franklin
from repro.apps.collocation import (
    CollocationConfig,
    MultiscaleProblem,
    mpi_generate,
    ppm_generate,
    serial_generate,
)

if __name__ == "__main__":
    problem = MultiscaleProblem(CollocationConfig(levels=9))
    rows, cols, vals = serial_generate(problem)
    nnz = np.unique(rows * problem.n + cols).size  # repeated entries add up
    print(
        f"multiscale collocation matrix: {problem.n} x {problem.n}, "
        f"{nnz} nonzeros, {problem.cache_total} cached integrals "
        f"across {problem.config.levels + 1} levels"
    )

    print(f"\n{'nodes':>5}  {'PPM (ms)':>9}  {'MPI (ms)':>9}  {'PPM/MPI':>7}")
    for nodes in (1, 2, 4, 8, 16):
        m_ppm, t_ppm = ppm_generate(problem, Cluster(franklin(n_nodes=nodes)))
        m_mpi, t_mpi = mpi_generate(problem, Cluster(franklin(n_nodes=nodes)))
        # Both assemble the serial entries in the serial order.
        for name, (r, c, v) in (("PPM", m_ppm), ("MPI", m_mpi)):
            assert np.array_equal(r, rows) and np.array_equal(c, cols), f"{name} pattern mismatch"
            assert np.abs(v - vals).max() < 1e-12, f"{name} result mismatch"
        print(
            f"{nodes:>5}  {t_ppm * 1e3:>9.3f}  {t_mpi * 1e3:>9.3f}  "
            f"{t_ppm / t_mpi:>7.2f}"
        )
    print("\nBoth parallel versions reproduce the serial matrix exactly.")
