#!/usr/bin/env python3
"""Host-time benchmark of the PPM reproduction.

    python3 perfbench/run.py                      # all workloads, untraced then traced
    python3 perfbench/run.py --workload cg_sweep --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --repeat-check       # two untraced sets, compared with the bounds
    python3 perfbench/run.py --write-golden       # regenerate golden.json for seed 7
    python3 perfbench/run.py --smoke              # tiny sizes, two passes

Every workload runs in fresh subprocesses of this file (``--child``):
start, build the inputs, one warm-up pass, then timed passes until the
time is up.  An untraced run shares ``--seconds`` between three such
processes: ``setup_s`` is the median of the three set-ups, ``host_s``
and ``cpu_s`` the best of all their passes (interference from the
host only ever adds time, so on a shared sandbox the minimum is the
steadiest estimate of what a pass costs; the median and quartiles are
printed beside it).  A traced run is one process that times a few
untraced passes, one observe pass (PhaseTrace attached) and then
passes with the span wrappers of ``spans.py`` installed.  End-to-end
metrics are never read from the traced run.

A pass is one operation.  It fails if it raises, if its digest
(simulated seconds, wire messages and bytes, CRC of the committed
arrays) differs from the warm-up pass's or from ``golden.json``, if the
result misses its serial reference, if a process/observed
configuration is not bitwise-identical to the plain inline one, or if
a process-backend pass leaves a shared-memory segment or a child
process behind.  Any failed pass makes the command exit non-zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 7
#: Fresh processes an untraced run shares its seconds between.
SETUPS = 3
#: Share of a traced run's seconds spent on its untraced passes.
UNTRACED_SHARE = 0.3
#: The driver allows a run 180 s; leave room to report.
RUN_DEADLINE_S = 165.0

_perf = time.perf_counter


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ======================================================================
# Host fingerprint
# ======================================================================
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def float_env() -> dict:
    """What the last bits of a BLAS dot product depend on."""
    return {
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def fingerprint(seed: int) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    cores = len(os.sched_getaffinity(0))
    return {
        **float_env(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cores": cores,
        "oversubscribed": cores < 2,
        "git_rev": rev,
        "seed": seed,
        "loadavg_1min": os.getloadavg()[0],
    }


# ======================================================================
# Child: one fresh process, one workload
# ======================================================================
class PassRecord(NamedTuple):
    host_s: float
    cpu_s: float
    stolen_s: float
    error: str | None


def _stolen_seconds() -> float:
    """CPU seconds the hypervisor has taken from this machine's cores
    (``steal`` of /proc/stat; 0.0 where the kernel does not report it)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _cpu_seconds() -> float:
    """User plus system CPU seconds of this process and the children it
    has reaped (``os.times()`` at microsecond resolution)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _leak_error() -> str | None:
    """What a process-backend pass left behind, if anything."""
    import multiprocessing

    from repro.parallel import live_ppm_segments

    mine = f"ppm-{os.getpid()}-"
    segments = [s for s in live_ppm_segments() if s.startswith(mine)]
    children = multiprocessing.active_children()
    if segments or children:
        return f"leak: shm segments {segments}, live children {[c.name for c in children]}"
    return None


class Child:
    """Runs and checks the passes of one workload in this process."""

    def __init__(self, spec: dict) -> None:
        from workloads import SIZES, WORKLOADS

        self.spec = spec
        self.wl = WORKLOADS[spec["workload"]](spec["seed"], SIZES[spec["sizes"]])
        self.wl.build()
        self.expected: dict | None = None
        self.last_out = None
        #: The passes that count as operations.
        self.passes: list[PassRecord] = []
        #: Failures that are not one pass's: every pass then fails.
        self.errors: list[str] = []

    def timed(self, run=None, *, check: bool = True) -> PassRecord:
        """One pass, timed from outside and checked against the first
        pass's digest (``check=False``: a baseline pass, which has its
        own digest)."""
        wl = self.wl
        # Start every pass from a collected heap: how much cyclic
        # garbage the previous pass left otherwise decides when the
        # collector runs, and with it peak memory (bfs_scatter: 176 or
        # 192 MiB depending on the seed) and a little of the time.
        gc.collect()
        s0, c0, t0 = _stolen_seconds(), _cpu_seconds(), _perf()
        try:
            out = (run or wl.run)()
            error = None
        except Exception:
            out, error = None, traceback.format_exc()
        host_s = _perf() - t0
        cpu_s = _cpu_seconds() - c0
        stolen_s = _stolen_seconds() - s0
        if error is None and not wl.inline:
            error = _leak_error()
        if error is None and check:
            digest = out.digest()
            if self.expected is None:
                self.expected = digest
            elif digest != self.expected:
                error = f"digest changed between passes: {digest} != {self.expected}"
            self.last_out = out
        return PassRecord(host_s, cpu_s, stolen_s, error)

    def warm_up(self) -> None:
        rec = self.timed()
        if rec.error is not None:
            self.errors.append(f"warm-up pass: {rec.error}")

    def timed_loop(self, seconds: float, run=None) -> list[PassRecord]:
        recs = []
        deadline = _perf() + seconds
        while len(recs) < self.spec["min_passes"] or _perf() < deadline:
            recs.append(self.timed(run))
        return recs

    # ------------------------------------------------------------------
    def verify(self) -> dict:
        """The checks that are not per pass: golden, and (``verify``
        processes only) the serial reference, the cross-configuration
        identity and the observe pass that counts the work.  Returns
        the observed counts."""
        wl, spec = self.wl, self.spec
        if self.expected is None:
            return {}
        observed = {}
        if spec["verify"]:
            t0 = _perf()
            out = wl.run(observe=True)
            wall = _perf() - t0
            observed = {**wl.observed(out), "observe_wall_s": wall}
            self.errors += [f"serial reference: {e}" for e in wl.reference_errors(self.last_out)]
            base = wl.baseline()
            if base is not None and base.digest() != self.expected:
                self.errors.append(
                    f"not bitwise-identical to the plain inline run: {self.expected} "
                    f"!= {base.digest()}"
                )
        self.errors += golden_errors(wl, spec, self.expected, observed)
        return observed

    def result(self, observed: dict, **extra) -> dict:
        return {
            "passes": [
                {"host_s": p.host_s, "cpu_s": p.cpu_s, "stolen_s": p.stolen_s,
                 "ok": p.error is None and not self.errors}
                for p in self.passes
            ],
            "errors": self.errors + [p.error for p in self.passes if p.error is not None],
            "digest": self.expected,
            "observed": observed,
            "work_units": observed.get(self.wl.work_unit),
            **extra,
        }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def golden_errors(wl, spec: dict, digest: dict, observed: dict) -> list[str]:
    """Differences from golden.json, where it applies: the recorded
    size set, and the recorded seed unless the workload ignores it."""
    if spec.get("mode") == "golden" or not GOLDEN.exists():
        return []
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    entry = golden.get(spec["sizes"], {}).get(wl.name)
    if entry is None or (wl.seeded and spec["seed"] != golden["seed"]):
        return []
    same_floats = golden["float_env"] == float_env()
    got = {**digest, **observed}
    return [
        f"golden.json: {key} is {got[key]!r}, recorded {want!r}"
        for key, want in entry.items()
        if key in got
        and (same_floats or key in wl.portable)
        and got[key] != want
    ]


def child_untraced(spec: dict) -> dict:
    child = Child(spec)
    child.warm_up()  # caches fill, certificates and commit plans build
    setup_s = time.time() - spec["spawned_at"]
    deadline = _perf() + spec["seconds"]
    child.passes = [child.timed() for _ in range(spec["min_passes"])]
    # Peak memory after a fixed number of passes: what the program
    # retains from pass to pass (bfs_scatter: 14.5 MiB each) then reads
    # the same on a fast host and a slow one.
    rss = peak_rss_mb()
    while _perf() < deadline:
        child.passes.append(child.timed())
    return child.result(child.verify(), setup_s=setup_s, peak_rss_mb=rss)


def child_golden(spec: dict) -> dict:
    child = Child(spec)
    child.passes = [child.timed()]
    return child.result(child.verify())


def child_traced(spec: dict) -> dict:
    from metrics import ledger
    from spans import Collector

    child = Child(spec)
    wl = child.wl
    child.warm_up()
    # Untraced passes in this same process are the base of the tracing
    # overhead and, interleaved with plain-inline passes, of the
    # cross-configuration ratios.
    budget = spec["seconds"] * UNTRACED_SHARE
    plain: list[PassRecord] = []
    if wl.ratio_metric is None:
        untraced = child.timed_loop(budget)
    else:
        untraced = []
        deadline = _perf() + budget
        while len(untraced) < spec["min_passes"] or _perf() < deadline:
            plain.append(child.timed(wl.baseline, check=False))
            untraced.append(child.timed())
    observed = child.verify()
    col = Collector()

    def traced_pass():
        with col.one_pass():
            return wl.run()

    with col.installed(inline=wl.inline):
        traced = child.timed_loop(spec["seconds"] - budget, traced_pass)
    child.passes = untraced + plain + traced
    if child.expected is None:
        return child.result(observed)

    untraced_best = min(p.host_s for p in untraced)
    ratio = None
    if plain:
        plain_best = min(p.host_s for p in plain)
        ratio = (
            wl.ratio_metric,
            plain_best / untraced_best
            if wl.ratio_metric == "parallel.speedup_vs_inline"
            else untraced_best / plain_best,
        )
    metrics = ledger(
        col,
        digest=child.expected,
        observed=observed,
        workers=wl.workers,
        untraced_best=untraced_best,
        ratio=ratio,
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{wl.name}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": spec["seed"], **col.to_json()}, fh)
    return child.result(observed, per_layer=metrics)


CHILD_MODES = {"untraced": child_untraced, "traced": child_traced, "golden": child_golden}


def child_main(spec_json: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_json)
    result = CHILD_MODES[spec["mode"]](spec)
    print(json.dumps(result))
    return 0


# ======================================================================
# Parent: spawn, aggregate, report
# ======================================================================
def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion; a crash is one failed operation."""
    env = dict(os.environ)
    # Set and dict iteration order feed host time; pin it so runs of
    # one commit differ by the host's noise only.
    env["PYTHONHASHSEED"] = "0"
    spec = {**spec, "spawned_at": time.time()}
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(5.0, deadline - time.time()),
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return json.loads(proc.stdout.strip().splitlines()[-1])
        error = f"child exited with code {proc.returncode} and no result"
    except subprocess.TimeoutExpired:
        error = "child overran the run deadline"
    return {"passes": [{"host_s": 0.0, "cpu_s": 0.0, "ok": False}], "errors": [error],
            "digest": None, "observed": {}}


def measure_untraced(name: str, args) -> dict:
    """The end-to-end metrics of one workload."""
    setups = 1 if args.smoke else SETUPS
    spec = {
        "workload": name, "seed": args.seed, "sizes": args.sizes, "mode": "untraced",
        "seconds": args.seconds / setups, "min_passes": 2,
    }
    deadline = time.time() + RUN_DEADLINE_S
    # Only the first process pays for the serial reference and the
    # plain-inline comparison run; the others must reproduce its digest.
    kids = [spawn({**spec, "verify": i == 0}, deadline) for i in range(setups)]
    passes = [p for k in kids for p in k["passes"]]
    errors = [e for k in kids for e in k["errors"]]
    failed = sum(not p["ok"] for p in passes)
    for k in kids[1:]:
        if k["digest"] != kids[0]["digest"]:
            errors.append(f"digest differs between processes: {k['digest']} != {kids[0]['digest']}")
            failed += sum(p["ok"] for p in k["passes"])
    result = {"workload": name, "attempted": len(passes), "failed": failed, "errors": errors,
              "digest": kids[0]["digest"], "observed": kids[0]["observed"]}
    good = [k for k in kids if "setup_s" in k]
    host = [p["host_s"] for k in good for p in k["passes"]]
    work = kids[0].get("work_units")
    if not good or not work:
        result["failed"] = result["attempted"]
        return result
    cpu = [p["cpu_s"] for k in good for p in k["passes"]]
    q1, _median, q3 = statistics.quantiles(host, n=4)
    result["end_to_end"] = {
        "host_s": min(host),
        "work_per_s": work / min(host),
        "cpu_s": min(cpu),
        "setup_s": statistics.median(k["setup_s"] for k in good),
        "peak_rss_mb": statistics.median(k["peak_rss_mb"] for k in good),
    }
    result["host_s_detail"] = {
        "median": statistics.median(host), "q1": q1, "q3": q3, "samples": len(host),
    }
    # Not a metric: tells a reader whether the host was disturbed.
    result["stolen_share"] = sum(p["stolen_s"] for k in good for p in k["passes"]) / sum(host)
    result["work_units_per_pass"] = work
    return result


def measure_traced(name: str, args) -> dict:
    """The per-layer metrics of one workload."""
    spec = {
        "workload": name, "seed": args.seed, "sizes": args.sizes, "mode": "traced",
        "seconds": args.seconds, "min_passes": 2, "verify": True,
    }
    kid = spawn(spec, time.time() + RUN_DEADLINE_S)
    per_layer = kid.get("per_layer")
    return {
        "workload": name, "attempted": len(kid["passes"]),
        "failed": sum(not p["ok"] or per_layer is None for p in kid["passes"]),
        "errors": kid["errors"], "per_layer": per_layer,
    }


def write_golden(args) -> int:
    entries = {}
    for name in (w["name"] for w in benchmark_spec()["workloads"]):
        spec = {"workload": name, "seed": GOLDEN_SEED, "sizes": args.sizes, "mode": "golden",
                "min_passes": 1, "verify": True}
        kid = spawn(spec, time.time() + RUN_DEADLINE_S)
        if kid["errors"] or kid["digest"] is None:
            print(f"{name}: cannot record a golden from a failing pass: {kid['errors']}",
                  file=sys.stderr)
            return 1
        counts = {k: kid["observed"][k] for k in ("phases", "vp_phases") if k in kid["observed"]}
        entries[name] = {**kid["digest"], **counts}
    golden = {}
    if GOLDEN.exists():
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    golden.update({"seed": GOLDEN_SEED, "float_env": float_env(), args.sizes: entries})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN} ({args.sizes} sizes, seed {GOLDEN_SEED})")
    return 0


# ======================================================================
# Reporting
# ======================================================================
def _print_errors(result: dict) -> None:
    for err in result["errors"]:
        print(f"  FAILED {result['workload']}: {err}", file=sys.stderr)


def print_end_to_end(result: dict, spec: dict) -> None:
    name = result["workload"]
    e2e = result.get("end_to_end")
    print(f"\n{name}: {result['attempted']} passes attempted, {result['failed']} failed")
    _print_errors(result)
    if e2e is None:
        return
    d = result["host_s_detail"]
    for m in spec["end_to_end"]:
        line = f"  {m['name']:<12} {e2e[m['name']]:>14.6f} {m['unit']:<4} ({m['better']} is better, bound {m['bound']:.0%})"
        if m["name"] == "host_s":
            line += f"  median {d['median']:.4f} q1 {d['q1']:.4f} q3 {d['q3']:.4f} n={d['samples']}"
        if m["name"] == "work_per_s":
            line += f"  {result['work_units_per_pass']} work units per pass"
        print(line)
    if result["stolen_share"] > 0.01:
        print(f"  host disturbed: the hypervisor stole {result['stolen_share']:.1%} of a core during "
              "the passes; treat these timings as unresolved")


def print_per_layer(result: dict, spec: dict) -> None:
    print(f"\n{result['workload']} (traced): {result['attempted']} passes attempted, "
          f"{result['failed']} failed")
    _print_errors(result)
    if result["per_layer"] is None:
        return
    for m in spec["per_layer"]:
        print(f"  {m['name']:<40} {result['per_layer'][m['name']]:>16.6f} {m['unit']}")


def repeat_check(names: list[str], args, spec: dict) -> int:
    """Two untraced sets back to back: every end-to-end metric of the
    second must be within its bound of the first."""
    first = [measure_untraced(n, args) for n in names]
    second = [measure_untraced(n, args) for n in names]
    bad = 0
    print(f"{'workload':<14} {'metric':<12} {'first':>14} {'second':>14} {'diff':>8} {'bound':>6}")
    for a, b in zip(first, second):
        failed = a["failed"] + b["failed"]
        if failed or "end_to_end" not in a or "end_to_end" not in b:
            print(f"{a['workload']:<14} {failed} failed passes: {a['errors'] + b['errors']}")
            bad += 1
            continue
        if a["digest"] != b["digest"] or a["observed"].get("vp_phases") != b["observed"].get("vp_phases"):
            print(f"{a['workload']:<14} simulated statistics did not repeat exactly")
            bad += 1
        for m in spec["end_to_end"]:
            x, y = a["end_to_end"][m["name"]], b["end_to_end"][m["name"]]
            diff = abs(y - x) / x
            over = diff > m["bound"]
            bad += over
            print(f"{a['workload']:<14} {m['name']:<12} {x:>14.6f} {y:>14.6f} {diff:>7.1%} "
                  f"{m['bound']:>6.0%}{'  EXCEEDED' if over else ''}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", metavar="NAME")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1,
                        help="0: end-to-end metrics only, 1: per-layer metrics only (default: both)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two passes per process")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--child", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args.child)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    unknown = set(args.workload or ()) - set(names)
    if unknown:
        parser.error(f"unknown workload(s) {sorted(unknown)}; choose from {names}")
    names = args.workload or names
    args.sizes = "smoke" if args.smoke else "full"
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if args.write_golden:
        return write_golden(args)
    if args.repeat_check:
        return repeat_check(names, args, spec)

    host = fingerprint(args.seed)
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    if host["oversubscribed"]:
        print("fewer than 2 cores available: cg_process is oversubscribed, its wall-clock "
              "scaling is reported but unresolved")
    results = {"host": host, "sizes": args.sizes, "untraced": {}, "traced": {}}
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        metrics[name] = {}
        runs = []
        if args.trace in (None, 0):
            r = results["untraced"][name] = measure_untraced(name, args)
            print_end_to_end(r, spec)
            runs.append((r, r.get("end_to_end"), spec["end_to_end"]))
        if args.trace in (None, 1):
            r = results["traced"][name] = measure_traced(name, args)
            print_per_layer(r, spec)
            runs.append((r, r["per_layer"], spec["per_layer"]))
        for r, values, defs in runs:
            attempted += r["attempted"]
            failed += r["failed"]
            if values is not None:
                metrics[name].update(
                    {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in defs}
                )

    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"\nresults written to {OUT / 'results.json'}")
    # One workload: the flat object the driver reads.
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
