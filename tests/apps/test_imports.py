"""What importing and running an app loads: CG, Barnes-Hut, BFS and the
analyzer run on numpy alone; scipy loads with the apps that use it.

Checked in a fresh interpreter, since the test process has long since
loaded scipy through the other app tests."""

from __future__ import annotations

import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

_PROGRAM = """
import sys

import repro, repro.analysis, repro.apps, repro.apps.barneshut, repro.apps.graph, repro.apps.cg
from repro.apps.barneshut import make_plummer_cloud, ppm_bh_simulate
from repro.apps.cg import build_chimney_problem, mpi_cg_solve, ppm_cg_solve, serial_cg_solve
from repro.apps.graph import hashed_graph, ppm_bfs

cluster = lambda: repro.Cluster(repro.franklin(n_nodes=2))
pos, vel, mass = make_plummer_cloud(256, seed=3)
ppm_bh_simulate(pos, vel, mass, cluster(), steps=1)
ppm_bfs(hashed_graph(2000, degree=4, seed=3), 0, cluster())
problem = build_chimney_problem(4)
ppm_cg_solve(problem, cluster(), max_iters=3, tol=0.0)
ppm_cg_solve(problem, cluster(), max_iters=3, tol=0.0, executor="process", workers=2)
mpi_cg_solve(problem, cluster(), max_iters=3, tol=0.0)
serial_cg_solve(problem.A, problem.b, max_iters=3, tol=0.0)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))[:5]

assert repro.apps.multigrid.__name__ == "repro.apps.multigrid"
assert "scipy" in sys.modules
print("ok")
"""


def test_cg_barneshut_bfs_and_analyzer_run_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
