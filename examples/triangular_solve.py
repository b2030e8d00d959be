"""Wavefront-scheduled sparse triangular solve — and an honest limit.

The paper's introduction cites the parallel ICCG triangular solve [20]
as an application "considered unsuitable for MPI parallel
programming".  This example runs the kernel both ways and shows two
things at once:

* the *programmability* story holds — the PPM version is a direct
  transcription of the recurrence (one global phase per wavefront),
  while the MPI version needs a precomputed push plan and per-level
  message choreography;
* the *performance* story is honest — on this latency-bound kernel the
  hand-tuned asynchronous MPI push beats phase-per-wavefront PPM,
  because PPM pays a cluster barrier on all ~60 wavefronts (see
  EXPERIMENTS.md, extension experiments).

Run with:  python examples/triangular_solve.py
"""

import numpy as np

from repro import Cluster, franklin
from repro.apps.sptrsv import build_trsv_problem, mpi_trsv, ppm_trsv, serial_trsv

if __name__ == "__main__":
    problem = build_trsv_problem(8)
    print(
        f"lower-triangular system: {problem.n} unknowns, "
        f"{problem.L.nnz} nonzeros, {problem.n_levels} wavefront levels"
    )
    sizes = [problem.rows_of_level(l).size for l in range(problem.n_levels)]
    print(f"wavefront widths: min {min(sizes)}, max {max(sizes)}")

    x_ref = serial_trsv(problem)
    L = problem.L
    dense = np.zeros(L.shape)
    dense[L.rows, L.indices] = L.data
    assert np.allclose(x_ref, np.linalg.solve(dense, problem.b), atol=1e-9)

    print(f"\n{'nodes':>5}  {'PPM (ms)':>9}  {'MPI (ms)':>9}  {'PPM/MPI':>7}")
    for nodes in (1, 2, 4, 8):
        x_p, t_ppm = ppm_trsv(problem, Cluster(franklin(n_nodes=nodes)))
        x_m, t_mpi = mpi_trsv(problem, Cluster(franklin(n_nodes=nodes)))
        assert np.allclose(x_p, x_ref, atol=1e-12)
        assert np.allclose(x_m, x_ref, atol=1e-12)
        print(
            f"{nodes:>5}  {t_ppm * 1e3:>9.3f}  {t_mpi * 1e3:>9.3f}  "
            f"{t_ppm / t_mpi:>7.2f}"
        )
    print(
        "\nBoth versions match the serial solve to 1e-12.  The tuned MPI\n"
        "push wins this latency-bound kernel — a documented limitation of\n"
        "strict phase-per-wavefront synchronisation (EXPERIMENTS.md)."
    )
