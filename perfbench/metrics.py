"""The per-layer metric catalog and the ledger that fills it.

Layer = module name under ``src/repro``.  Written down *before*
measuring: which end-to-end metric each layer metric should move, on
which workload (``moves``), or why it should move nothing (``fixed``).
``BENCHMARK.json`` lists the same names, units and directions;
``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import ROOT, Collector


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workload) pairs this metric should move.
    moves: tuple[tuple[str, str], ...] = ()
    #: Why it should move nothing, for the metrics with no ``moves``.
    fixed: str = ""


def _m(names: str, unit: str, better: str, moves=(), fixed: str = "") -> list[LayerMetric]:
    return [LayerMetric(n, unit, better, tuple(moves), fixed) for n in names.split()]


_CG = (("host_s", "cg_sweep"),)
_BFS = (("host_s", "bfs_scatter"),)
_PROC = (("host_s", "cg_process"), ("cpu_s", "cg_process"), ("setup_s", "cg_process"))
_OBS = (("host_s", "cg_observed"),)
_ANALYZE = (("host_s", "analyze_apps"), ("setup_s", "cg_process"))
_INVARIANT = "simulated statistic: an exact invariant, any change is a failed pass"

PER_LAYER: list[LayerMetric] = [
    *_m("core.runtime.do_s core.runtime.self_s", "s", "lower", _CG),
    *_m("core.runtime.self_us_per_vp_phase", "us", "lower", _CG),
    *_m("core.runtime.phases core.runtime.vp_phases", "count", "lower", fixed=_INVARIANT),
    *_m("apps.body_s", "s", "lower", (("host_s", "bh_reads"),)),
    *_m("core.shared.read_s core.shared.write_s", "s", "lower", _CG + (("host_s", "bh_reads"),)),
    *_m("core.shared.ns_per_access", "ns", "lower", _CG + (("host_s", "bh_reads"),)),
    *_m("core.shared.accumulate_s", "s", "lower", _BFS),
    *_m("core.shared.reads core.shared.writes core.shared.accumulates", "count", "lower",
        fixed="access counts of a fixed kernel on fixed inputs repeat exactly"),
    *_m("core.phase.commit_s core.phase.collectives_s", "s", "lower", _BFS + _CG),
    *_m("core.phase.commits", "count", "lower", fixed=_INVARIANT),
    *_m("core.phase.plan_hit_rate", "ratio", "higher", _CG),
    *_m("core.bundling.aggregate_s", "s", "lower", _BFS),
    *_m("core.bundling.calls", "count", "lower", fixed=_INVARIANT),
    *_m("core.bundling.dedup_ratio", "ratio", "higher", fixed=_INVARIANT),
    *_m("core.scheduler.timing_s", "s", "lower", _CG),
    *_m("core.scheduler.calls", "count", "lower", _CG),
    *_m("machine.sim_s machine.network.barrier_s", "s", "lower", fixed=_INVARIANT),
    *_m("machine.network.messages machine.network.bytes", "count", "lower", fixed=_INVARIANT),
    *_m("parallel.pool.spawn_s parallel.pool.roundtrip_s parallel.pool.close_s "
        "parallel.backend.begin_round_s parallel.backend.fill_recorder_s "
        "parallel.backend.finish_commit_s parallel.shm.swap_s parallel.worker.busy_s",
        "s", "lower", _PROC),
    *_m("parallel.pool.roundtrips parallel.shm.swaps", "count", "lower", _PROC),
    *_m("parallel.backend.zero_merge_share parallel.worker.utilization "
        "parallel.speedup_vs_inline", "ratio", "higher", _PROC),
    *_m("obs.events.emit_s obs.metrics.report_s", "s", "lower", _OBS),
    *_m("obs.events.emitted", "count", "lower", _OBS),
    *_m("obs.overhead_vs_plain", "ratio", "lower", _OBS),
    *_m("analysis.sanitizer.check_s", "s", "lower", _OBS),
    *_m("analysis.sanitizer.checks", "count", "lower", fixed=_INVARIANT),
    *_m("analysis.dataflow.verify_s analysis.lint.lint_s analysis.liveness.analyze_s "
        "analysis.certify.build_s", "s", "lower", _ANALYZE),
    *_m("analysis.certify.calls", "count", "lower", (("setup_s", "cg_process"),)),
    *_m("perfbench.trace_overhead perfbench.unattributed_share", "ratio", "lower",
        fixed="cost of looking: describes the traced run, not the program"),
    *_m("perfbench.unattributed_s", "s", "lower",
        fixed="cost of looking: describes the traced run, not the program"),
]


def ledger(
    col: Collector,
    *,
    digest: dict,
    observed: dict,
    workers: int,
    untraced_best: float,
    ratio: tuple[str, float] | None,
) -> dict[str, float]:
    """Every per-layer metric of one workload, per pass.

    Times are self seconds (span minus child spans) averaged over the
    traced passes; counts come from the same wrappers; the simulated
    statistics come from the pass digest and the observe pass.
    """
    n = len(col.pass_walls)
    rows = col.by_name()

    def count(name: str) -> float:
        return rows.get(name, (0, 0.0, 0.0))[0] / n

    def total(name: str) -> float:
        return rows.get(name, (0, 0.0, 0.0))[1] / n

    def self_s(name: str) -> float:
        return rows.get(name, (0, 0.0, 0.0))[2] / n

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    traced_wall = sum(col.pass_walls) / n
    traced_best = min(col.pass_walls)
    vp_phases = observed.get("vp_phases", 0)
    phases = observed.get("phases", 0)
    runtime_self = self_s("core.runtime.do") + self_s("core.runtime.close")
    accesses = ("core.shared.read", "core.shared.write", "core.shared.accumulate")
    hits = col.counters.get("plan_hits", 0)
    misses = col.counters.get("plan_misses", 0)
    out = {
        "core.runtime.do_s": total("core.runtime.do"),
        "core.runtime.self_s": runtime_self,
        "core.runtime.phases": phases,
        "core.runtime.vp_phases": vp_phases,
        "core.runtime.self_us_per_vp_phase": per(runtime_self * 1e6, vp_phases),
        "apps.body_s": self_s("apps.body"),
        "core.shared.reads": count("core.shared.read"),
        "core.shared.writes": count("core.shared.write"),
        "core.shared.accumulates": count("core.shared.accumulate"),
        "core.shared.read_s": self_s("core.shared.read"),
        "core.shared.write_s": self_s("core.shared.write"),
        "core.shared.accumulate_s": self_s("core.shared.accumulate"),
        "core.shared.ns_per_access": per(
            sum(self_s(a) for a in accesses) * 1e9, sum(count(a) for a in accesses)
        ),
        "core.phase.commit_s": self_s("core.phase.commit"),
        "core.phase.commits": count("core.phase.commit"),
        "core.phase.collectives_s": self_s("core.phase.collectives"),
        # Under the process backend certified rounds commit in the
        # workers, whose plan caches only the trace events report.
        "core.phase.plan_hit_rate": (
            per(hits, hits + misses) if hits + misses
            else observed.get("zero_merge_plan_hit_rate", 0.0)
        ),
        "core.bundling.aggregate_s": self_s("core.bundling.aggregate"),
        "core.bundling.calls": count("core.bundling.aggregate"),
        "core.bundling.dedup_ratio": observed.get("bundling_ratio", 0.0),
        "core.scheduler.timing_s": self_s("core.scheduler.timing"),
        "core.scheduler.calls": count("core.scheduler.timing"),
        "machine.sim_s": sum(digest["sim_s"]),
        "machine.network.messages": digest["messages"],
        "machine.network.bytes": digest["bytes"],
        "machine.network.barrier_s": col.counters.get("machine.network.barrier_s", 0.0) / n,
        "parallel.pool.spawn_s": self_s("parallel.pool.spawn"),
        "parallel.pool.roundtrip_s": self_s("parallel.pool.roundtrip"),
        "parallel.pool.roundtrips": count("parallel.pool.roundtrip"),
        "parallel.pool.close_s": self_s("parallel.pool.close"),
        "parallel.backend.begin_round_s": self_s("parallel.backend.begin_round"),
        "parallel.backend.fill_recorder_s": self_s("parallel.backend.fill_recorder"),
        "parallel.backend.finish_commit_s": self_s("parallel.backend.finish_commit"),
        "parallel.backend.zero_merge_share": per(observed.get("zero_merge_commits", 0), phases),
        "parallel.shm.swap_s": self_s("parallel.shm.swap"),
        "parallel.shm.swaps": count("parallel.shm.swap"),
        "parallel.worker.busy_s": observed.get("worker_busy_s", 0.0),
        "parallel.worker.utilization": per(
            observed.get("worker_busy_s", 0.0), workers * observed["observe_wall_s"]
        ),
        "parallel.speedup_vs_inline": 0.0,
        "obs.events.emit_s": self_s("obs.events.emit"),
        "obs.events.emitted": count("obs.events.emit"),
        "obs.metrics.report_s": self_s("obs.metrics.report"),
        "obs.overhead_vs_plain": 0.0,
        "analysis.sanitizer.check_s": self_s("analysis.sanitizer.check"),
        "analysis.sanitizer.checks": count("analysis.sanitizer.check"),
        "analysis.dataflow.verify_s": self_s("analysis.dataflow.verify"),
        "analysis.lint.lint_s": self_s("analysis.lint.lint"),
        "analysis.liveness.analyze_s": self_s("analysis.liveness.analyze"),
        "analysis.certify.build_s": self_s("analysis.certify.build"),
        "analysis.certify.calls": count("analysis.certify.build"),
        "perfbench.trace_overhead": per(traced_best, untraced_best),
        "perfbench.unattributed_s": self_s(ROOT),
        "perfbench.unattributed_share": per(self_s(ROOT), traced_wall),
    }
    if ratio is not None:
        out[ratio[0]] = ratio[1]
    return out
