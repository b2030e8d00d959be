"""Trace persistence and rendering: JSON trace files, Chrome
``trace_event`` timelines and plain-text per-phase report tables.

Trace-file schema (version 2; see docs/OBSERVABILITY.md)::

    {"schema": "ppm-trace", "version": 2,
     "events": [{"event": "phase_begin", "phase": 0, ...}, ...]}

``save_trace``/``load_trace`` round-trip losslessly;
``chrome_trace`` emits the Chrome/Perfetto ``trace_event`` JSON array
format (load the file at chrome://tracing or https://ui.perfetto.dev).
"""

from __future__ import annotations

import json

from repro.obs.events import (
    MessageSend,
    PhaseCommit,
    PhaseTrace,
    event_from_dict,
)
from repro.obs.metrics import RunReport

SCHEMA_NAME = "ppm-trace"
SCHEMA_VERSION = 2

#: Simulated seconds -> trace_event microseconds.
_US = 1e6


# ----------------------------------------------------------------------
# Trace files
# ----------------------------------------------------------------------

def trace_to_dict(trace) -> dict:
    """JSON-ready dict of a trace (any iterable of events)."""
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "events": [ev.to_dict() for ev in trace],
    }


def save_trace(trace, path: str) -> None:
    """Write a trace to ``path`` in the versioned JSON schema."""
    with open(path, "w") as fh:
        json.dump(trace_to_dict(trace), fh, indent=1)
        fh.write("\n")


def load_trace(path: str) -> PhaseTrace:
    """Load a trace file saved by :func:`save_trace`."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != SCHEMA_NAME:
        raise ValueError(
            f"{path}: not a {SCHEMA_NAME} file (schema={payload.get('schema')!r})"
        )
    if payload.get("version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported trace version {payload.get('version')!r} "
            f"(this reader understands {SCHEMA_VERSION})"
        )
    trace = PhaseTrace()
    for i, d in enumerate(payload.get("events", [])):
        try:
            trace.emit(event_from_dict(d))
        except ValueError as exc:
            raise ValueError(f"{path}: event {i}: {exc}") from None
    if trace.events:
        trace.phase = max(ev.phase for ev in trace.events)
    return trace


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------

def chrome_trace(events) -> dict:
    """Convert a trace to the Chrome ``trace_event`` JSON format.

    Layout: one process per node (pid = node id + 1, named
    ``node N``), whose timeline shows each phase's node slice split
    into ``compute``, ``commit``, ``exposed comm`` (communication not
    hidden under computation) and ``barrier wait`` duration events;
    wire transfers appear as instant events on the sending node's
    row.  Process 0 (``cluster``) carries per-phase counter tracks
    for bundled messages and bytes moved.  Times are simulated
    microseconds.
    """
    out: list[dict] = []
    seen_nodes: set[int] = set()

    def meta(pid: int, name: str) -> None:
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )

    def slice_ev(pid: int, name: str, ts: float, dur: float, args: dict) -> None:
        out.append(
            {
                "name": name,
                "cat": "ppm",
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": ts * _US,
                "dur": dur * _US,
                "args": args,
            }
        )

    meta(0, "cluster")
    for ev in events:
        if isinstance(ev, PhaseCommit):
            label = f"phase {ev.phase} ({ev.phase_kind})"
            for ns in ev.nodes:
                pid = ns.node + 1
                if ns.node not in seen_nodes:
                    seen_nodes.add(ns.node)
                    meta(pid, f"node {ns.node}")
                busy = ns.compute + ns.commit_cpu + ns.comm - ns.overlapped
                if busy <= 0 and ns.wait <= 0:
                    continue
                t = ns.t0
                common = {"phase": ev.phase, "kind": ev.phase_kind}
                if ns.compute > 0:
                    slice_ev(pid, f"{label}: compute", t, ns.compute, common)
                    t += ns.compute
                if ns.commit_cpu > 0:
                    slice_ev(pid, f"{label}: commit", t, ns.commit_cpu, common)
                    t += ns.commit_cpu
                exposed = ns.comm - ns.overlapped
                if exposed > 0:
                    slice_ev(
                        pid,
                        f"{label}: exposed comm",
                        t,
                        exposed,
                        {**common, "comm_s": ns.comm, "overlapped_s": ns.overlapped},
                    )
                    t += exposed
                if ns.wait > 0:
                    slice_ev(pid, f"{label}: barrier wait", ns.arrival, ns.wait, common)
            for counter, value in (
                ("bundled messages", ev.messages),
                ("bytes moved", ev.nbytes),
            ):
                out.append(
                    {
                        "name": counter,
                        "ph": "C",
                        "pid": 0,
                        "tid": 0,
                        "ts": ev.t_end * _US,
                        "args": {counter: value},
                    }
                )
        elif isinstance(ev, MessageSend):
            out.append(
                {
                    "name": f"{ev.purpose} {ev.src}->{ev.dst}",
                    "cat": "ppm.net",
                    "ph": "i",
                    "s": "p",
                    "pid": ev.src + 1,
                    "tid": 0,
                    # Placed at commit time resolution: instant events
                    # carry traffic args, the slices carry the timing.
                    "ts": 0.0,
                    "args": {
                        "phase": ev.phase,
                        "variable": ev.variable,
                        "messages": ev.messages,
                        "nbytes": ev.nbytes,
                    },
                }
            )
    # Give message instants real timestamps now that commit times are
    # known: place each at its phase's commit end.
    ends = {
        ev.phase: ev.t_end for ev in events if isinstance(ev, PhaseCommit)
    }
    for entry in out:
        if entry.get("cat") == "ppm.net":
            entry["ts"] = ends.get(entry["args"]["phase"], 0.0) * _US
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def save_chrome_trace(events, path: str) -> None:
    """Write a Chrome-loadable ``trace_event`` JSON file."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(events), fh, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------------
# Plain-text report
# ----------------------------------------------------------------------

def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.4f}"


def _fmt_ratio(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


def format_report(report: RunReport) -> str:
    """Aligned per-phase table plus run totals for a
    :class:`~repro.obs.metrics.RunReport`."""
    headers = [
        "phase",
        "kind",
        "dur_ms",
        "vps",
        "work_ms",
        "comm_ms",
        "ovl%",
        "msgs",
        "unbundled",
        "ratio",
        "bytes",
        "skew_us",
    ]
    rows = []
    for p in report.phases:
        rows.append(
            [
                str(p.phase),
                p.kind,
                _fmt_ms(p.duration),
                str(p.vp_count),
                _fmt_ms(p.vp_work),
                _fmt_ms(p.comm),
                f"{100 * p.overlap_fraction:.0f}",
                str(p.messages),
                str(p.unbundled_messages),
                _fmt_ratio(p.bundling_ratio),
                f"{p.bytes_moved:.0f}",
                f"{p.barrier_skew * 1e6:.2f}",
            ]
        )
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["== ppm run report =="]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    lines.append("")
    lines.append(
        f"phases: {len(report.phases)}   "
        f"elapsed: {_fmt_ms(report.elapsed)} ms   "
        f"vp work: {_fmt_ms(report.total_vp_work)} ms"
    )
    lines.append(
        f"messages: {report.total_messages} bundled / "
        f"{report.unbundled_messages} unbundled "
        f"(ratio {_fmt_ratio(report.bundling_ratio)})   "
        f"bytes: {report.total_bytes:.0f}"
    )
    lines.append(
        f"overlap: {100 * report.overlap_fraction:.1f}% of comm hidden   "
        f"max barrier skew: {report.max_barrier_skew * 1e6:.2f} us"
    )
    rs = report.resilience
    if rs is not None:
        # Section appears only for runs with resilience events, so
        # fault-free report output is byte-identical to earlier versions.
        lines.append(
            f"checkpoints: {rs.checkpoints} "
            f"({rs.checkpoint_bytes} bytes, {_fmt_ms(rs.checkpoint_time)} ms)   "
            f"recoveries: {rs.recoveries} "
            f"(downtime {_fmt_ms(rs.recovery_time)} ms, "
            f"lost work {_fmt_ms(rs.lost_work)} ms)"
        )
        lines.append(
            f"resilience overhead: "
            f"{100 * rs.overhead(report.elapsed):.1f}% of elapsed"
        )
    zm = report.zero_merge
    if zm is not None:
        # Section appears only when rounds committed worker-side, so
        # inline and record-shipping output stays byte-identical.
        lines.append(
            f"zero-merge commits: {zm.commits} ({zm.ops} ops in place)   "
            f"plan cache: {zm.plan_hits} hits / {zm.plan_misses} misses "
            f"({100 * zm.plan_hit_rate:.0f}%)   "
            f"merge bytes avoided: {zm.bytes_avoided}"
        )
    sv = report.supervision
    if sv is not None:
        # Section appears only when the supervisor intervened, so
        # fault-free supervised output stays byte-identical too.
        lines.append(
            f"worker failures: {sv.failures} "
            f"({sv.crashes} crash, {sv.hangs} hang, {sv.corrupt} corrupt)   "
            f"respawns: {sv.respawns}"
        )
        lines.append(
            f"degradations: {sv.degradations}   "
            f"recovery time: {_fmt_ms(sv.recovery_host_s)} ms host"
        )
    if report.workers is not None:
        # Section appears only for process-backend runs, so inline
        # report output stays byte-identical to earlier versions.
        lines.append("")
        lines.append("-- worker utilization (host wall-clock) --")
        wh = ["worker", "rounds", "vps", "busy_ms", "util%"]
        wrows = [
            [
                str(w.worker),
                str(w.rounds),
                str(w.vps),
                _fmt_ms(w.busy_s),
                f"{100 * w.utilization:.0f}",
            ]
            for w in report.workers
        ]
        wwidths = [
            max(len(h), *(len(r[i]) for r in wrows)) if wrows else len(h)
            for i, h in enumerate(wh)
        ]
        lines.append("  ".join(h.rjust(w) for h, w in zip(wh, wwidths)))
        for r in wrows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, wwidths)))
    return "\n".join(lines)


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready dict of a report (per-phase rows plus totals)."""
    return {
        "phases": [
            {
                "phase": p.phase,
                "kind": p.kind,
                "duration_s": p.duration,
                "vp_count": p.vp_count,
                "vp_work_s": p.vp_work,
                "compute_s": p.compute,
                "commit_cpu_s": p.commit_cpu,
                "comm_s": p.comm,
                "overlapped_s": p.overlapped,
                "overlap_fraction": p.overlap_fraction,
                "access_ops": p.access_ops,
                "raw_elems": p.raw_elems,
                "unbundled_messages": p.unbundled_messages,
                "messages": p.messages,
                "bundling_ratio": p.bundling_ratio,
                "bytes_moved": p.bytes_moved,
                "barrier_skew_s": p.barrier_skew,
                "barrier_cost_s": p.barrier_cost,
                "collectives": p.collectives,
            }
            for p in report.phases
        ],
        "totals": {
            "elapsed_s": report.elapsed,
            "vp_work_s": report.total_vp_work,
            "messages": report.total_messages,
            "unbundled_messages": report.unbundled_messages,
            "bundling_ratio": report.bundling_ratio,
            "bytes": report.total_bytes,
            "overlap_fraction": report.overlap_fraction,
            "max_barrier_skew_s": report.max_barrier_skew,
        },
        # Key present only for runs with resilience events, keeping the
        # fault-free JSON schema unchanged.
        **(
            {
                "resilience": {
                    "checkpoints": report.resilience.checkpoints,
                    "checkpoint_bytes": report.resilience.checkpoint_bytes,
                    "checkpoint_time_s": report.resilience.checkpoint_time,
                    "recoveries": report.resilience.recoveries,
                    "recovery_time_s": report.resilience.recovery_time,
                    "lost_work_s": report.resilience.lost_work,
                    "overhead_fraction": report.resilience.overhead(
                        report.elapsed
                    ),
                }
            }
            if report.resilience is not None
            else {}
        ),
        # Same pattern for the zero-merge commit summary.
        **(
            {
                "zero_merge": {
                    "commits": report.zero_merge.commits,
                    "ops": report.zero_merge.ops,
                    "plan_hits": report.zero_merge.plan_hits,
                    "plan_misses": report.zero_merge.plan_misses,
                    "plan_hit_rate": report.zero_merge.plan_hit_rate,
                    "bytes_avoided": report.zero_merge.bytes_avoided,
                }
            }
            if report.zero_merge is not None
            else {}
        ),
        # Same pattern for the worker-supervision summary.
        **(
            {
                "supervision": {
                    "crashes": report.supervision.crashes,
                    "hangs": report.supervision.hangs,
                    "corrupt": report.supervision.corrupt,
                    "failures": report.supervision.failures,
                    "respawns": report.supervision.respawns,
                    "degradations": report.supervision.degradations,
                    "recovery_host_s": report.supervision.recovery_host_s,
                }
            }
            if report.supervision is not None
            else {}
        ),
        # Same pattern for the process-backend worker table.
        **(
            {
                "workers": [
                    {
                        "worker": w.worker,
                        "rounds": w.rounds,
                        "vps": w.vps,
                        "busy_s": w.busy_s,
                        "utilization": w.utilization,
                    }
                    for w in report.workers
                ]
            }
            if report.workers is not None
            else {}
        ),
    }
