"""Every app and the analyzer run on numpy alone; scipy is only the
tests' reference.

Checked in a fresh interpreter, since the test process has long since
loaded scipy through the other app tests; ``sys.modules["scipy"] =
None`` makes any import of scipy raise, so a stray one fails loudly.
CG runs in all three forms, Barnes-Hut and BFS under PPM.
Collocation, multigrid and SpTRSV run serially and, through their
figure builders at ``tests/bench/test_harness.py``'s ``REDUCED``
sizes, under PPM and MPI."""

from __future__ import annotations

import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

_PROGRAM = """
import sys

sys.modules["scipy"] = None

import repro, repro.analysis, repro.apps
from repro.apps.barneshut import make_plummer_cloud, ppm_bh_simulate
from repro.apps.cg import build_chimney_problem, mpi_cg_solve, ppm_cg_solve, serial_cg_solve
from repro.apps.collocation import CollocationConfig, MultiscaleProblem, serial_generate
from repro.apps.graph import hashed_graph, ppm_bfs
from repro.apps.multigrid import build_mg_problem, serial_mg_solve
from repro.apps.sptrsv import build_trsv_problem, serial_trsv
from repro.bench.figures import ext_multigrid, ext_trsv, fig2_matgen

cluster = lambda: repro.Cluster(repro.franklin(n_nodes=2))
pos, vel, mass = make_plummer_cloud(256, seed=3)
ppm_bh_simulate(pos, vel, mass, cluster(), steps=1)
ppm_bfs(hashed_graph(2000, degree=4, seed=3), 0, cluster())
problem = build_chimney_problem(4)
ppm_cg_solve(problem, cluster(), max_iters=3, tol=0.0)
ppm_cg_solve(problem, cluster(), max_iters=3, tol=0.0, executor="process", workers=2)
mpi_cg_solve(problem, cluster(), max_iters=3, tol=0.0)
serial_cg_solve(problem.A, problem.b, max_iters=3, tol=0.0)
serial_generate(MultiscaleProblem(CollocationConfig(levels=4)))
serial_mg_solve(build_mg_problem(levels=3), cycles=1)
serial_trsv(build_trsv_problem(4))
for result in (
    fig2_matgen((1, 4, 16), levels=7),
    ext_multigrid((1, 8), levels=5, cycles=1),
    ext_trsv(),
):
    assert all(holds for _, holds in result.claims), result.claims
print("ok")
"""


def test_cg_barneshut_bfs_and_analyzer_run_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
