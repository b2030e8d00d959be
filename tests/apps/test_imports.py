"""What importing and running an app loads: Barnes-Hut, BFS and the
analyzer never load scipy, CG loads it when it builds its matrix.

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
from repro.apps.cg import build_chimney_problem
from repro.apps.graph import hashed_graph, ppm_bfs

pos, vel, mass = make_plummer_cloud(256, seed=3)
ppm_bh_simulate(pos, vel, mass, repro.Cluster(repro.franklin(n_nodes=2)), steps=1)
ppm_bfs(hashed_graph(2000, degree=4, seed=3), 0, repro.Cluster(repro.franklin(n_nodes=2)))
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))[:5]

build_chimney_problem(4)
assert "scipy" in sys.modules
assert repro.apps.multigrid.__name__ == "repro.apps.multigrid"
print("ok")
"""


def test_barneshut_bfs_and_analyzer_do_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
