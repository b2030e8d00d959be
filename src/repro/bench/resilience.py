"""Checkpoint overhead and crash-recovery cost on the Figure-1 CG run.

All numbers are **simulated** seconds on the Franklin-like machine
model (host seconds are ``perfbench/``'s job).
Two questions, one sweep over the checkpoint interval:

* **Fault-free overhead** — how much simulated time phase-boundary
  checkpointing adds when nothing fails (``clean_s`` vs the
  no-resilience ``base_s``; ``overhead%``).  Tighter intervals pay
  more checkpoints.
* **Recovery cost** — the same run with a node crash two thirds of
  the way through: detection, restore and the re-execution of lost
  work (``crash_s``; ``recovery_s = crash_s - clean_s``).  Tighter
  intervals lose less work, so the two columns pull the interval in
  opposite directions — the classic checkpoint-interval trade-off.

The ``off`` row runs without checkpointing: the crash restarts the
run from phase 0, bounding the trade-off from the other side.  Every
crashed run's committed solution is verified bitwise-identical to the
fault-free one before its row is accepted.

Run via ``python -m repro.bench resilience`` — writes the table under
``bench_results/`` and the machine-readable ``BENCH_resilience.json``
at the repo root.
"""

from __future__ import annotations

import json
import os
import platform

import numpy as np

from repro.bench.harness import SweepResult
from repro.config import franklin
from repro.machine import Cluster

INTERVALS: tuple[int | None, ...] = (1, 5, 10, None)

_JSON_DEFAULT = os.path.join(
    os.path.dirname(__file__), "..", "..", "..", "BENCH_resilience.json"
)


def bench_resilience(
    *,
    nodes: int = 8,
    nx: int = 12,
    iters: int = 30,
    seed: int = 7,
    json_path: str | None = _JSON_DEFAULT,
) -> SweepResult:
    """Sweep the checkpoint interval on the Figure-1 CG workload.

    Returns the table and (unless ``json_path`` is None) writes
    ``BENCH_resilience.json``.
    """
    from repro.apps.cg import build_chimney_problem, ppm_cg_solve
    from repro.resilience import FaultPlan

    problem = build_chimney_problem(nx)
    # CG runs 3 global phases per iteration plus setup; crash two
    # thirds of the way through, offset so the crash phase is not a
    # common multiple of the swept intervals (a crash right after
    # everyone's checkpoint would hide the lost-work differences).
    crash_phase = 2 * iters + 7

    def cluster() -> Cluster:
        return Cluster(franklin(n_nodes=nodes))

    base_result, base_s = ppm_cg_solve(
        problem, cluster(), max_iters=iters, tol=0.0
    )

    rows: list[dict] = []
    for every in INTERVALS:
        label = "off" if every is None else str(every)
        if every is None:
            clean_s = base_s
        else:
            _, clean_s = ppm_cg_solve(
                problem,
                cluster(),
                max_iters=iters,
                tol=0.0,
                checkpoint_every=every,
            )
        plan = FaultPlan(seed=seed).crash(node=nodes - 1, phase=crash_phase)
        crashed, crash_s = ppm_cg_solve(
            problem,
            cluster(),
            max_iters=iters,
            tol=0.0,
            faults=plan,
            checkpoint_every=every,
        )
        if not np.array_equal(base_result.x, crashed.x):
            raise AssertionError(
                f"recovery equivalence violated at checkpoint_every={label}"
            )
        rows.append(
            {
                "checkpoint_every": label,
                "base_s": base_s,
                "clean_s": clean_s,
                "overhead%": 100.0 * (clean_s / base_s - 1.0),
                "crash_s": crash_s,
                "recovery_s": crash_s - clean_s,
            }
        )

    result = SweepResult(
        name="resilience",
        columns=[
            "checkpoint_every",
            "base_s",
            "clean_s",
            "overhead%",
            "crash_s",
            "recovery_s",
        ],
        rows=rows,
        notes=(
            f"SIMULATED seconds: PPM CG ({nx}x{nx}x{2*nx} chimney grid, "
            f"{iters} iterations) on {nodes} Franklin-like nodes; "
            f"clean_s = fault-free with checkpointing, crash_s = node "
            f"{nodes - 1} crashes at phase {crash_phase} and the run "
            "rolls back to its last checkpoint (or restarts, row 'off'); "
            "every crashed run's solution verified bitwise-identical to "
            "the fault-free one"
        ),
    )
    restart = next(r for r in rows if r["checkpoint_every"] == "off")
    checkpointed = [r for r in rows if r is not restart]
    overheads = [r["overhead%"] for r in checkpointed]
    result.claim(
        "checkpoint overhead falls as the interval grows",
        all(b < a for a, b in zip(overheads, overheads[1:])),
    )
    result.claim(
        "recovery from any checkpoint costs less than restarting the run",
        all(r["recovery_s"] < restart["recovery_s"] for r in checkpointed),
    )
    if json_path is not None:
        write_resilience_json(result, json_path, nodes=nodes, nx=nx, iters=iters)
    return result


def write_resilience_json(
    result: SweepResult,
    path: str = _JSON_DEFAULT,
    **params,
) -> dict:
    """Serialise the resilience sweep to ``BENCH_resilience.json``."""
    report = {
        "schema": "ppm-resilience/1",
        "generated_by": "python -m repro.bench resilience",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "units": "simulated seconds on the Franklin-like machine model",
        "params": params,
        "rows": result.rows,
        "acceptance": {
            "recovery_equivalence": (
                "every crashed run committed a solution bitwise-identical "
                "to the fault-free run (asserted during the sweep)"
            ),
            "disabled_cost": (
                "with faults/checkpoint_every/resilience all None, run_ppm "
                "takes the pre-resilience code path — perfbench's "
                "cg_sweep host_s (python3 perfbench/run.py --workload "
                "cg_sweep) covers the no-overhead claim"
            ),
        },
        "notes": result.notes,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report
