"""Host wall-clock benchmarks of the runtime.

Every other experiment in this suite reports *simulated* seconds on the
modelled machine; these report **host** seconds — how long the
simulator itself takes to run.  Simulated times and committed results
are bitwise identical across every variant compared here; only the
wall clock moves.  Reps of the variants interleave and the minimum is
kept, the standard defence against noisy shared hosts.  (The repo's
gated host-time yardstick is ``perfbench/``; these are the per-feature
comparisons and CI gates.)

Four tables, one per mode::

    python -m repro.bench wallclock                       # guard band
    python -m repro.bench wallclock --executor process    # inline vs process
    python -m repro.bench wallclock --executor process --supervised
    python -m repro.bench wallclock --snapshot pruned     # full vs pruned

The default (inline) mode is the *guard band*: untraced vs traced vs
sanitized vs certified-auto on a small CG workload.  ``--check`` turns
each mode's invariant into the exit status (guard band: every factor
within :data:`GUARD_BAND`); ``--small`` shrinks the process / pruned
workloads for CI and keeps any table out of ``bench_results/``.  Each
mode merges its own section into ``BENCH_wallclock.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro.bench.harness import SweepResult
from repro.config import franklin
from repro.machine import Cluster

#: CI guard band: traced / sanitized runs may cost at most this factor
#: over the untraced default on the same workload.  Generous on
#: purpose — observability is allowed to cost something, it is not
#: allowed to quietly become the bottleneck again.
GUARD_BAND = 4.0

_JSON_DEFAULT = os.path.join(
    os.path.dirname(__file__), "..", "..", "..", "BENCH_wallclock.json"
)


def _cluster(nodes: int, **overrides) -> Cluster:
    return Cluster(franklin(n_nodes=nodes, **overrides))


def _merge_json(path: str, key: str, section: dict) -> dict:
    """Set one section of the JSON report at ``path``, keeping the
    sections the other modes wrote."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = {
            "schema": "ppm-wallclock/1",
            "units": "host seconds (wall clock), not simulated seconds",
        }
    report[key] = section
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def _rows_by_name(result: SweepResult) -> dict:
    """A sweep's rows keyed by their first column (JSON form)."""
    name = result.columns[0]
    return {
        row[name]: {k: v for k, v in row.items() if k != name}
        for row in result.rows
    }


# ----------------------------------------------------------------------
# Snapshot pruning: snapshot="full" vs snapshot="pruned" host seconds.
# ----------------------------------------------------------------------

def _pruned_run(app: str, small: bool):
    """One (runner, note) pair; the runner executes the app under the
    given ``snapshot`` mode and returns (result_array, simulated_s,
    runtime) so the caller can read the pruning counters."""
    if app == "cg_fig1":
        import repro.apps.cg.ppm_cg as cg_module
        from repro.apps.cg import build_chimney_problem, ppm_cg_solve

        nodes = (1, 2, 4) if small else (1, 2, 4, 8)
        iters = 10 if small else 30
        problem = build_chimney_problem(12)

        def run(snapshot: str):
            captured = {}
            orig = cg_module.run_ppm

            def wrapped(main, cluster, *a, **kw):
                ppm, out = orig(main, cluster, *a, **kw)
                captured["rt"] = ppm.runtime
                return ppm, out

            cg_module.run_ppm = wrapped
            try:
                copy_s = copy_b = pruned_b = 0.0
                elapsed = 0.0
                res = None
                for n in nodes:
                    res, t = ppm_cg_solve(
                        problem, _cluster(n), max_iters=iters, tol=0.0,
                        snapshot=snapshot,
                    )
                    rt = captured["rt"]
                    copy_s += rt.stats_commit_copy_s
                    copy_b += rt.stats_commit_copy_bytes
                    pruned_b += rt.stats_pruned_bytes
                    elapsed += t
                return res.x, elapsed, (copy_s, copy_b, pruned_b)
            finally:
                cg_module.run_ppm = orig

        note = f"PPM CG sweep, nodes {nodes}, {iters} iters"
        return run, note

    import repro.apps.multigrid.ppm_mg as mg_module
    from repro.apps.multigrid import build_mg_problem, ppm_mg_solve

    levels = 6 if small else 8
    cycles = 2 if small else 5
    problem = build_mg_problem(levels=levels)

    def run(snapshot: str):
        captured = {}
        orig = mg_module.run_ppm

        def wrapped(main, cluster, *a, **kw):
            ppm, out = orig(main, cluster, *a, **kw)
            captured["rt"] = ppm.runtime
            return ppm, out

        mg_module.run_ppm = wrapped
        try:
            res, t = ppm_mg_solve(
                problem, _cluster(8), cycles=cycles, snapshot=snapshot
            )
            rt = captured["rt"]
            return (
                res.u if hasattr(res, "u") else res,
                t,
                (
                    rt.stats_commit_copy_s,
                    rt.stats_commit_copy_bytes,
                    rt.stats_pruned_bytes,
                ),
            )
        finally:
            mg_module.run_ppm = orig

    note = f"PPM multigrid, L={levels}, {cycles} V-cycles, 8 nodes"
    return run, note


def wallclock_pruned(
    *, small: bool = False, reps: int | None = None
) -> SweepResult:
    """Host-seconds comparison of ``snapshot="full"`` vs ``"pruned"``.

    The liveness certificates let pruned runs skip copy-on-commit for
    arrays proven unread through stale views; this sweep measures what
    that is worth on the two apps with non-trivial certificates (CG:
    all five arrays; multigrid: all twelve level arrays) and records
    the *measured* savings next to the wall clock: ``bytes_avoided``
    (snapshot copies not taken, from the runtime's pruning counters)
    and ``copy_s_avoided`` (the full run's timed copy-on-commit cost
    minus the pruned run's — host seconds actually not spent copying).
    Committed results and simulated times are asserted bitwise
    identical between the modes on every rep.
    """
    if reps is None:
        reps = 1 if small else 2
    rows: list[dict] = []
    notes: list[str] = []
    for app in ("cg_fig1", "multigrid"):
        run, note = _pruned_run(app, small)
        # Warm up both modes: the first pruned run also pays the one-off
        # static analysis (cached on the kernel thereafter), which is
        # analyzer cost — tracked by `bench analyzer` — not commit cost.
        run("full")
        run("pruned")
        best = {"full": float("inf"), "pruned": float("inf")}
        stats = {}
        for _ in range(max(reps, 1)):
            for mode in ("full", "pruned"):
                t0 = time.perf_counter()
                out, sim_t, counters = run(mode)
                best[mode] = min(best[mode], time.perf_counter() - t0)
                stats[mode] = (out, sim_t, counters)
        full_out, full_t, (full_copy_s, full_copy_b, _) = stats["full"]
        pr_out, pr_t, (pr_copy_s, pr_copy_b, pr_bytes) = stats["pruned"]
        if not np.array_equal(full_out, pr_out) or full_t != pr_t:
            raise AssertionError(
                f"{app}: snapshot='pruned' diverged from the default "
                "(committed arrays or simulated time differ)"
            )
        rows.append(
            {
                "workload": app,
                "full_s": best["full"],
                "pruned_s": best["pruned"],
                "speedup": best["full"] / best["pruned"],
                "bytes_avoided": int(pr_bytes),
                "copy_s_avoided": full_copy_s - pr_copy_s,
            }
        )
        notes.append(f"{app}: {note}")
    return SweepResult(
        name="wallclock_pruned",
        columns=[
            "workload",
            "full_s",
            "pruned_s",
            "speedup",
            "bytes_avoided",
            "copy_s_avoided",
        ],
        rows=rows,
        notes=(
            "HOST seconds: snapshot='full' vs 'pruned' (liveness-"
            f"certified copy-on-commit skipping), min of {reps} "
            "interleaved rep(s); committed results and simulated times "
            "are bitwise identical between modes (asserted). "
            "bytes_avoided = snapshot copies skipped (runtime counter); "
            "copy_s_avoided = timed copy-on-commit host cost of the "
            "full run minus the pruned run's. " + " | ".join(notes)
        ),
    )


def write_pruned_json(
    result: SweepResult, path: str = _JSON_DEFAULT, *, small: bool = False
) -> dict:
    """Merge a ``snapshot_pruning`` section into ``BENCH_wallclock.json``
    (the rest of the report is preserved, as with ``process_backend``)."""
    return _merge_json(path, "snapshot_pruning", {
        "generated_by": "python -m repro.bench wallclock --snapshot pruned",
        "small": small,
        "units": "host seconds; bytes_avoided in bytes",
        "workloads": _rows_by_name(result),
        "note": (
            "snapshot='pruned' skips copy-on-commit for arrays the "
            "liveness pass proves unread through stale views; committed "
            "results and simulated times are bitwise identical "
            "(asserted by the sweep)."
        ),
    })


# ----------------------------------------------------------------------
# Process-backend comparison: inline vs executor="process" host seconds.
# ----------------------------------------------------------------------

def _executor_workloads(small: bool):
    """``(name, run(**run_opts), note)`` triples for the executor
    comparison: the macro workloads, parameterised on ``run_ppm``
    options."""
    from repro.apps.cg import build_chimney_problem, ppm_cg_solve
    from repro.apps.graph import hashed_graph, ppm_bfs
    from repro.apps.multigrid import build_mg_problem, ppm_mg_solve

    cg_nodes = (1, 2, 4) if small else (1, 2, 4, 8, 16, 32, 64)
    cg_iters = 10 if small else 30
    cg_problem = build_chimney_problem(12)

    def cg_run(**run_opts) -> None:
        for n in cg_nodes:
            ppm_cg_solve(
                cg_problem, _cluster(n), max_iters=cg_iters, tol=0.0, **run_opts
            )

    n_vertices = 2000 if small else 20000
    graph = hashed_graph(n_vertices, degree=8, seed=7)

    def bfs_run(**run_opts) -> None:
        ppm_bfs(graph, 0, _cluster(8), **run_opts)

    mg_levels = 6 if small else 8
    mg_cycles = 2 if small else 5
    mg_problem = build_mg_problem(levels=mg_levels)

    def mg_run(**run_opts) -> None:
        ppm_mg_solve(mg_problem, _cluster(8), cycles=mg_cycles, **run_opts)

    return [
        ("cg_fig1", cg_run, f"PPM CG sweep, nodes {cg_nodes}, {cg_iters} iters"),
        ("bfs", bfs_run, f"PPM BFS, {n_vertices} vertices, degree 8, 8 nodes"),
        ("multigrid", mg_run, f"PPM multigrid, L={mg_levels}, {mg_cycles} V-cycles"),
    ]


def wallclock_process(
    *,
    small: bool = False,
    workers: int | None = None,
    reps: int | None = None,
    supervised: bool = False,
) -> SweepResult:
    """Host-seconds comparison of ``executor="inline"`` vs
    ``executor="process"`` on the macro workloads.

    Simulated times and committed arrays are bitwise identical between
    the executors (the backend's contract, enforced by
    ``tests/parallel/``); only the host clock moves.  On a single-core
    host the process rows are *slower* — the pool pays fork + IPC with
    no extra cores to win back — and the recording 2-core host measures
    about 0.56x too (perfbench's ``parallel.speedup_vs_inline`` is the
    gated figure); ``BENCH_wallclock.json`` carries only what a run
    measured.
    """
    if workers is None:
        from repro.parallel.backend import default_workers

        workers = default_workers()
    if reps is None:
        reps = 1 if small else 2

    from repro.parallel import backend as backend_mod

    process_opts: dict = {"executor": "process", "workers": workers}
    if supervised:
        from repro.parallel import SupervisionPolicy

        # A fresh default policy per run: fault-free supervision is
        # pure deadline bookkeeping on the existing reply gather.
        process_opts["supervision"] = SupervisionPolicy()
    variants = {
        "inline": {},
        "process": process_opts,
    }
    rows: list[dict] = []
    notes: list[str] = []
    for name, run, note in _executor_workloads(small):
        run()  # warmup (inline: imports and problem caches)
        best = {v: float("inf") for v in variants}
        for _ in range(reps):
            for variant, opts in variants.items():
                t0 = time.perf_counter()
                run(**opts)
                best[variant] = min(best[variant], time.perf_counter() - t0)
        # Zero-merge statistics of the process run just finished (the
        # final run_ppm of the workload — for the CG sweep, the largest
        # node count): commit-plan cache hit rate and the pipe bytes
        # the in-place commits avoided shipping.
        stats = dict(backend_mod.LAST_RUN_STATS)
        hits = stats.get("plan_hits", 0)
        misses = stats.get("plan_misses", 0)
        rows.append(
            {
                "workload": name,
                "inline_s": best["inline"],
                "process_s": best["process"],
                "speedup": best["inline"] / best["process"],
                "plan_hit_rate": (
                    hits / (hits + misses) if hits + misses else 0.0
                ),
                "merge_bytes_avoided": stats.get("bytes_avoided", 0),
            }
        )
        notes.append(f"{name}: {note}")

    return SweepResult(
        name="wallclock_process",
        columns=[
            "workload",
            "inline_s",
            "process_s",
            "speedup",
            "plan_hit_rate",
            "merge_bytes_avoided",
        ],
        rows=rows,
        notes=(
            "HOST seconds: executor inline vs process "
            + ("(supervised pool) " if supervised else "")
            + f"({workers} workers, {os.cpu_count()} host cpu(s)), "
            f"min of {reps} interleaved rep(s); simulated times and "
            "committed arrays are bitwise identical between executors. "
            "On a single-core host the process column is expected to be "
            "slower (fork + IPC, no cores to win back); the gated figure "
            "is perfbench's parallel.speedup_vs_inline. "
            "plan_hit_rate / merge_bytes_avoided are the zero-merge "
            "statistics of each workload's final process run. "
            + " | ".join(notes)
        ),
    )


def process_equivalence_check(*, workers: int = 2, supervised: bool = False) -> dict:
    """Three-engine bitwise check on a small CG workload (the
    ``--check`` half of the CI ``parallel-smoke`` job).

    Inline, process zero-merge and process record-replay
    (``zero_merge=False``) must commit the identical solution and
    report the identical simulated time, and the pool must leave no
    shared-memory segments behind.  The zero-merge run executes with
    ``PPM_ZERO_MERGE_VERIFY`` set, so the parent recomputes and checks
    every worker's committed-rows digest checksum each round — a
    certificate that did not hold raises instead of passing silently.
    The commit-plan cache must also converge: hit rate >= 0.9 over the
    run (every access pattern compiles once and hits thereafter).

    With ``supervised=True`` both process runs execute under a default
    :class:`~repro.parallel.SupervisionPolicy` — the fault-free
    supervised pool must clear the same bar.
    """
    from repro.apps.cg import build_chimney_problem, ppm_cg_solve
    from repro.parallel import backend as backend_mod
    from repro.parallel.shm import live_ppm_segments

    sup_opts: dict = {}
    if supervised:
        from repro.parallel import SupervisionPolicy

        sup_opts["supervision"] = SupervisionPolicy()
    problem = build_chimney_problem(8)
    r1, t1 = ppm_cg_solve(problem, _cluster(4), max_iters=14, tol=0.0)
    prev_verify = os.environ.get("PPM_ZERO_MERGE_VERIFY")
    os.environ["PPM_ZERO_MERGE_VERIFY"] = "1"
    try:
        r2, t2 = ppm_cg_solve(
            problem,
            _cluster(4),
            max_iters=14,
            tol=0.0,
            executor="process",
            workers=workers,
            **sup_opts,
        )
    finally:
        if prev_verify is None:
            del os.environ["PPM_ZERO_MERGE_VERIFY"]
        else:
            os.environ["PPM_ZERO_MERGE_VERIFY"] = prev_verify
    stats = dict(backend_mod.LAST_RUN_STATS)
    r3, t3 = ppm_cg_solve(
        problem,
        _cluster(4),
        max_iters=14,
        tol=0.0,
        executor="process",
        workers=workers,
        zero_merge=False,
        **sup_opts,
    )
    leaked = live_ppm_segments()
    bitwise = bool(np.array_equal(r1.x, r2.x) and np.array_equal(r1.x, r3.x))
    times = bool(t1 == t2 == t3)
    hits = stats.get("plan_hits", 0)
    misses = stats.get("plan_misses", 0)
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    zm_ok = stats.get("zm_rounds", 0) > 0 and hit_rate >= 0.9
    return {
        "workers": workers,
        "supervised": supervised,
        "bitwise_identical": bitwise,
        "simulated_time_identical": times,
        "leaked_segments": leaked,
        "digest_verified_rounds": stats.get("zm_rounds", 0),
        "plan_cache_hit_rate": hit_rate,
        "merge_bytes_avoided": stats.get("bytes_avoided", 0),
        "ok": bitwise and times and not leaked and zm_ok,
    }


def write_process_json(
    result: SweepResult,
    path: str = _JSON_DEFAULT,
    *,
    small: bool = False,
    workers: int | None = None,
    check: dict | None = None,
) -> dict:
    """Merge the executor comparison into ``BENCH_wallclock.json``
    under the ``process_backend`` key (the other modes' sections are
    preserved when the file already exists)."""
    return _merge_json(path, "process_backend", {
        "generated_by": "python -m repro.bench wallclock --executor process",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "small": small,
        "workers": workers,
        "units": "host seconds (wall clock), not simulated seconds",
        "measured": _rows_by_name(result),
        **({"equivalence_check": check} if check is not None else {}),
    })


# ----------------------------------------------------------------------
# CI guard band: tracing and sanitizing must stay within a bounded
# factor of the untraced default.
# ----------------------------------------------------------------------

def guard_band() -> SweepResult:
    """Untraced vs traced vs sanitized vs certified-auto host seconds
    on a small CG workload, one row per variant with its factor over
    the untraced default and whether that stays within
    :data:`GUARD_BAND`.

    The ``auto`` variant runs ``sanitize="auto"``: the static verifier
    certifies every CG phase conflict-free, so the dynamic per-phase
    check is skipped and the run must stay within the *untraced* guard
    band — that is the end-to-end payoff the certificate promises.
    """
    import repro.apps.cg.ppm_cg as _ppm_cg_module
    from repro.apps.cg import build_chimney_problem, ppm_cg_solve

    problem = build_chimney_problem(8)
    variants = {
        "untraced": {},
        "traced": {"trace": True},
        "sanitized": {"sanitize": "warn"},
        "auto": {"sanitize": "auto"},
    }

    def run(kwargs) -> None:
        # The app signature exposes trace but (deliberately, for Table
        # 1's line counts) not sanitize; inject it the same way the
        # sanitizer-overhead sweep does.
        orig = _ppm_cg_module.run_ppm
        if "sanitize" in kwargs:
            def wrapped(main, cluster, *a, **kw):
                kw["sanitize"] = kwargs["sanitize"]
                return orig(main, cluster, *a, **kw)

            _ppm_cg_module.run_ppm = wrapped
        try:
            call_kwargs = {k: v for k, v in kwargs.items() if k != "sanitize"}
            ppm_cg_solve(problem, _cluster(4), max_iters=10, tol=0.0, **call_kwargs)
        finally:
            _ppm_cg_module.run_ppm = orig

    run({})  # warmup
    best = {name: float("inf") for name in variants}
    for _ in range(3):
        for name, kwargs in variants.items():
            t0 = time.perf_counter()
            run(kwargs)
            best[name] = min(best[name], time.perf_counter() - t0)
    factors = {name: best[name] / best["untraced"] for name in variants}
    return SweepResult(
        name="wallclock_guard_band",
        columns=["variant", "host_s", "factor", "within_band"],
        rows=[
            {
                "variant": name,
                "host_s": best[name],
                "factor": factors[name],
                "within_band": factors[name] <= GUARD_BAND,
            }
            for name in variants
        ],
        notes=(
            "HOST seconds: PPM CG (chimney 8, 4 nodes, 10 iters) untraced "
            "vs trace=True vs sanitize='warn' vs sanitize='auto', min of "
            "3 interleaved reps; committed results and simulated times "
            "are bitwise identical across variants.  factor = host_s / "
            f"untraced host_s; the guard band allows {GUARD_BAND:.1f}x."
        ),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmarks of the runtime (host seconds)"
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="CI-sized workloads; the table is printed, not written "
        "under bench_results/",
    )
    parser.add_argument("--out", default=_JSON_DEFAULT, help="JSON report path")
    parser.add_argument(
        "--executor",
        choices=("inline", "process"),
        default="inline",
        help="inline: traced/sanitized guard-band table (default); "
        "process: inline-vs-process executor comparison",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process pool size for --executor process (default: "
        "default_workers() clamp)",
    )
    parser.add_argument(
        "--snapshot",
        choices=("full", "pruned"),
        default="full",
        help="pruned: measure snapshot='full' vs snapshot='pruned' "
        "(liveness-certified copy-on-commit skipping) and record the "
        "snapshot_pruning section of BENCH_wallclock.json",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="inline: every guard-band factor within the band; process: "
        "three-engine equivalence + zero-merge digest/plan-cache check; "
        "with --snapshot pruned: require measurable pruning savings; "
        "nonzero exit on breach",
    )
    parser.add_argument(
        "--supervised",
        action="store_true",
        help="with --executor process: run the process variants under "
        "a default SupervisionPolicy (fault-tolerant pool); the "
        "equivalence bar is unchanged",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the benchmark: parent top-20 cumulative to "
        "bench_results/profiles/parent.prof.txt; with --executor "
        "process, each worker subprocess also dumps "
        "worker-<pid>.prof.txt there (via PPM_PROFILE_DIR)",
    )
    args = parser.parse_args(argv)

    from repro.bench.report import RESULTS_DIR, format_table, save_result

    profiler = None
    if args.profile:
        import cProfile

        prof_dir = os.path.abspath(os.path.join(RESULTS_DIR, "profiles"))
        os.makedirs(prof_dir, exist_ok=True)
        # Workers read this at process start (worker_main) and dump
        # their own top-20 tables on exit.
        os.environ["PPM_PROFILE_DIR"] = prof_dir
        profiler = cProfile.Profile()
        profiler.enable()

    def _dump_profile() -> None:
        if profiler is None:
            return
        import io
        import pstats

        profiler.disable()
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(20)
        prof_dir = os.environ["PPM_PROFILE_DIR"]
        with open(os.path.join(prof_dir, "parent.prof.txt"), "w") as fh:
            fh.write(buf.getvalue())
        print(f"profiles in {prof_dir}")

    if args.supervised and args.executor != "process":
        parser.error("--supervised requires --executor process")
    if args.snapshot == "pruned":
        if args.executor != "inline":
            parser.error("--snapshot pruned runs on the inline executor")
        result = wallclock_pruned(small=args.small)
        write_pruned_json(result, args.out, small=args.small)
        if args.small:
            print(format_table(result))
        else:
            print(save_result(result))
        status = 0
        if args.check:
            # The sweep itself asserts bitwise identity; the check adds
            # that the certificates actually bought something.
            starved = [
                row["workload"]
                for row in result.rows
                if row["bytes_avoided"] <= 0
            ]
            ok = not starved
            print(
                "pruning: "
                + ", ".join(
                    f"{row['workload']} {row['bytes_avoided']} B avoided"
                    for row in result.rows
                )
                + f" -> {'ok' if ok else 'FAIL (' + ', '.join(starved) + ')'}"
            )
            status = 0 if ok else 1
        _dump_profile()
        print(f"wrote {os.path.abspath(args.out)}")
        return status
    if args.executor == "process":
        result = wallclock_process(
            small=args.small, workers=args.workers, supervised=args.supervised
        )
        check = None
        if args.check:
            check = process_equivalence_check(
                workers=args.workers or 2, supervised=args.supervised
            )
            print(
                "equivalence: "
                f"bitwise={check['bitwise_identical']} "
                f"time={check['simulated_time_identical']} "
                f"leaked={check['leaked_segments']} "
                f"digest-verified rounds={check['digest_verified_rounds']} "
                f"plan hits={check['plan_cache_hit_rate']:.0%} -> "
                f"{'ok' if check['ok'] else 'FAIL'}"
            )
        write_process_json(
            result,
            args.out,
            small=args.small,
            workers=args.workers,
            check=check,
        )
        if args.small:
            print(format_table(result))
        else:
            print(save_result(result))
        _dump_profile()
        print(f"wrote {os.path.abspath(args.out)}")
        return 0 if (check is None or check["ok"]) else 1

    result = guard_band()
    ok = all(row["within_band"] for row in result.rows)
    _merge_json(args.out, "guard_band", {
        "generated_by": "python -m repro.bench wallclock",
        "band": GUARD_BAND,
        "variants": _rows_by_name(result),
        "ok": ok,
    })
    if args.small:
        print(format_table(result))
    else:
        print(save_result(result))
    if args.check:
        print(
            "guard band: "
            + ", ".join(
                f"{row['variant']} {row['factor']:.2f}x" for row in result.rows[1:]
            )
            + f" (allowed {GUARD_BAND:.1f}x) -> {'ok' if ok else 'FAIL'}"
        )
    _dump_profile()
    print(f"wrote {os.path.abspath(args.out)}")
    return 0 if ok or not args.check else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
