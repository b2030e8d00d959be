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

``python -m repro.bench resilience --executor process`` measures the
*other* fault domain in **host** seconds: the worker supervisor
(docs/PARALLEL.md).  Fault-free supervision must stay inside a 1.05×
guard band of the unsupervised pool (detection is passive deadline
bookkeeping on the reply gather the parent performs anyway), and a
``ProcessChaos`` SIGKILL run reports the host-side recovery latency
per respawn.  The table is merged into ``BENCH_resilience.json``
under the ``process_executor`` key.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from repro.bench.harness import SweepResult
from repro.config import franklin
from repro.machine import Cluster

INTERVALS: tuple[int | None, ...] = (1, 5, 10, None)

#: Fault-free supervised/unsupervised host-seconds ratio the process
#: sweep's ``--check`` enforces.
SUPERVISION_GUARD_BAND = 1.05

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
    if json_path is not None:
        write_resilience_json(result, json_path, nodes=nodes, nx=nx, iters=iters)
    return result


def write_resilience_json(
    result: SweepResult,
    path: str = _JSON_DEFAULT,
    **params,
) -> dict:
    """Serialise the resilience sweep to ``BENCH_resilience.json``
    (preserving an existing ``process_executor`` section)."""
    previous: dict = {}
    try:
        with open(path) as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        previous = {}
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
    if "process_executor" in previous:
        report["process_executor"] = previous["process_executor"]
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


# ----------------------------------------------------------------------
# Process executor: supervision overhead and real recovery latency
# ----------------------------------------------------------------------

def bench_resilience_process(
    *,
    nodes: int = 4,
    nx: int = 8,
    iters: int = 10,
    seed: int = 7,
    workers: int = 2,
    reps: int = 3,
    small: bool = False,
    json_path: str | None = _JSON_DEFAULT,
) -> SweepResult:
    """Measure the worker supervisor in **host** seconds on the
    Figure-1 CG workload under ``executor="process"``.

    Three scenarios, one row each:

    * ``unsupervised`` — the plain pool (the reference clock);
    * ``supervised`` — the same run under a default
      :class:`~repro.parallel.SupervisionPolicy`; ``overhead_x`` is
      its ratio to the reference and must stay inside
      :data:`SUPERVISION_GUARD_BAND` (detection costs one deadline
      computation and one history-log append per round);
    * ``supervised+sigkill`` — :class:`~repro.parallel.ProcessChaos`
      SIGKILLs a worker on every 3rd round; ``recovery_ms`` is the
      total host-side recovery time and ``ms_per_respawn`` the
      per-victim latency (fork + re-init + replay), both from the
      supervisor's published counters.

    The chaos run's solution is asserted bitwise-identical to the
    inline engine before its row is accepted.
    """
    from repro.apps.cg import build_chimney_problem, ppm_cg_solve
    from repro.parallel import ProcessChaos, SupervisionPolicy
    from repro.parallel.supervisor import LAST_SUPERVISION

    if small:
        nodes, nx, iters, reps = min(nodes, 2), min(nx, 4), min(iters, 6), 2

    problem = build_chimney_problem(nx)

    def cluster() -> Cluster:
        return Cluster(franklin(n_nodes=nodes))

    def run(**opts):
        return ppm_cg_solve(
            problem, cluster(), max_iters=iters, tol=0.0,
            executor="process", workers=workers, **opts,
        )

    ref, _ = ppm_cg_solve(problem, cluster(), max_iters=iters, tol=0.0)
    run()  # warmup: imports, fork template, problem caches

    def best_of(**opts) -> float:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            run(**opts)
            best = min(best, time.perf_counter() - t0)
        return best

    unsup_s = best_of()
    sup_s = best_of(supervision=SupervisionPolicy())

    t0 = time.perf_counter()
    # A generous respawn budget: the row measures recovery latency,
    # not degradation, so every kill must be recovered in place.
    chaotic, _ = run(
        supervision=SupervisionPolicy(
            chaos=ProcessChaos(seed=seed, every=3), max_respawns=1024
        )
    )
    chaos_s = time.perf_counter() - t0
    sup = dict(LAST_SUPERVISION)
    if not np.array_equal(ref.x, chaotic.x):
        raise AssertionError(
            "supervised recovery equivalence violated under SIGKILL chaos"
        )
    respawns = sup.get("respawns", 0)
    recovery_s = sup.get("recovery_host_s", 0.0)

    rows = [
        {
            "scenario": "unsupervised",
            "host_s": unsup_s,
            "overhead_x": 1.0,
            "crashes": 0,
            "respawns": 0,
            "recovery_ms": 0.0,
            "ms_per_respawn": 0.0,
        },
        {
            "scenario": "supervised",
            "host_s": sup_s,
            "overhead_x": sup_s / unsup_s,
            "crashes": 0,
            "respawns": 0,
            "recovery_ms": 0.0,
            "ms_per_respawn": 0.0,
        },
        {
            "scenario": "supervised+sigkill",
            "host_s": chaos_s,
            "overhead_x": chaos_s / unsup_s,
            "crashes": sup.get("crashes", 0),
            "respawns": respawns,
            "recovery_ms": 1e3 * recovery_s,
            "ms_per_respawn": 1e3 * recovery_s / respawns if respawns else 0.0,
        },
    ]
    result = SweepResult(
        name="resilience_process",
        columns=[
            "scenario",
            "host_s",
            "overhead_x",
            "crashes",
            "respawns",
            "recovery_ms",
            "ms_per_respawn",
        ],
        rows=rows,
        notes=(
            f"HOST seconds: PPM CG ({nx}x{nx}x{2*nx} chimney grid, "
            f"{iters} iterations) on {nodes} Franklin-like nodes, "
            f"executor=process with {workers} workers "
            f"({os.cpu_count()} host cpu(s)), min of {reps} rep(s); "
            "supervised = default SupervisionPolicy, fault-free; "
            "supervised+sigkill = ProcessChaos kills a worker on every "
            "3rd round and the supervisor respawns-and-replays "
            "(solution asserted bitwise-identical to inline); "
            "recovery_ms is the supervisor's total host-side recovery "
            f"time.  Guard band: overhead_x <= {SUPERVISION_GUARD_BAND} "
            "for the fault-free supervised row"
        ),
    )
    if json_path is not None:
        write_resilience_process_json(
            result, json_path,
            nodes=nodes, nx=nx, iters=iters, workers=workers,
        )
    return result


def write_resilience_process_json(
    result: SweepResult,
    path: str = _JSON_DEFAULT,
    **params,
) -> dict:
    """Merge the process-executor supervision sweep into
    ``BENCH_resilience.json`` under ``process_executor`` (the
    simulated-sweep keys are preserved when the file exists)."""
    report: dict = {}
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = {
            "schema": "ppm-resilience/1",
            "generated_by": "python -m repro.bench resilience",
        }
    report["process_executor"] = {
        "generated_by": "python -m repro.bench resilience --executor process",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "units": "host seconds (wall clock), not simulated seconds",
        "params": params,
        "rows": result.rows,
        "acceptance": {
            "supervision_guard_band": SUPERVISION_GUARD_BAND,
            "recovery_equivalence": (
                "the SIGKILL-chaos run committed a solution "
                "bitwise-identical to the inline engine (asserted "
                "during the sweep)"
            ),
        },
        "notes": result.notes,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI: ``python -m repro.bench resilience [--executor process]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Resilience benchmarks (checkpoint sweep / supervisor)"
    )
    parser.add_argument(
        "--executor",
        choices=("simulated", "process"),
        default="simulated",
        help="simulated: checkpoint-interval sweep in simulated seconds "
        "(default); process: supervision overhead and recovery latency "
        "in host seconds",
    )
    parser.add_argument("--small", action="store_true", help="CI-sized workload")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--check",
        action="store_true",
        help="process only: nonzero exit if fault-free supervision "
        f"exceeds the {SUPERVISION_GUARD_BAND}x guard band or no "
        "worker died under chaos",
    )
    args = parser.parse_args(argv)

    from repro.bench.report import format_table, save_result

    if args.executor == "process":
        result = bench_resilience_process(
            small=args.small,
            workers=args.workers,
            json_path=None if args.small else _JSON_DEFAULT,
        )
        if args.small:
            print(format_table(result))
        else:
            print(save_result(result))
        if args.check:
            sup_row = result.rows[1]
            kill_row = result.rows[2]
            ok = (
                sup_row["overhead_x"] <= SUPERVISION_GUARD_BAND
                and kill_row["crashes"] > 0
                and kill_row["respawns"] > 0
            )
            print(
                f"guard band: supervised overhead {sup_row['overhead_x']:.3f}x "
                f"(band {SUPERVISION_GUARD_BAND}x), "
                f"{kill_row['crashes']} kill(s), "
                f"{kill_row['respawns']} respawn(s) -> "
                f"{'ok' if ok else 'FAIL'}"
            )
            return 0 if ok else 1
        return 0

    result = bench_resilience()
    print(save_result(result))
    return 0


if __name__ == "__main__":
    import sys

    raise SystemExit(main(sys.argv[1:]))
