"""Observability for PPM runs: phase-level tracing, runtime metrics
and report/timeline exporters.

Enable tracing per run and read the report back::

    ppm, result = run_ppm(main, cluster, trace=True)
    report = ppm.report()              # RunReport: per-phase metrics
    print(report.bundling_ratio)      # unbundled / bundled messages

Persist and render traces::

    from repro.obs import save_trace, save_chrome_trace, format_report
    save_trace(ppm.tracer, "run.trace.json")      # versioned JSON schema
    save_chrome_trace(ppm.tracer, "run.chrome.json")  # chrome://tracing
    print(format_report(report))                  # per-phase text table

Or from the command line (``python -m repro.obs --help``)::

    python -m repro.obs demo --out cg.trace.json   # record a CG trace
    python -m repro.obs report cg.trace.json       # per-phase table
    python -m repro.obs chrome cg.trace.json -o cg.chrome.json

Event taxonomy, metric formulas and the trace-file schema are
documented in docs/OBSERVABILITY.md; docs/ARCHITECTURE.md places this
subsystem in the repository map.
"""

from repro.obs.events import (
    EVENT_TYPES,
    BarrierWait,
    BundleFlushed,
    CheckpointTaken,
    Event,
    EventBus,
    FaultInjected,
    MessageRecv,
    MessageSend,
    NodeSlice,
    PhaseBegin,
    PhaseCommit,
    PhaseTrace,
    PoolDegraded,
    Recovery,
    RetryAttempt,
    VpScheduled,
    WorkerCrash,
    WorkerRespawn,
    WorkerSpan,
    ZeroMergeCommit,
    event_from_dict,
)
from repro.obs.export import (
    chrome_trace,
    format_report,
    load_trace,
    report_to_dict,
    save_chrome_trace,
    save_trace,
    trace_to_dict,
)
from repro.obs.metrics import (
    PhaseReport,
    ResilienceSummary,
    RunReport,
    SupervisionSummary,
    WorkerUtilization,
    ZeroMergeSummary,
)

__all__ = [
    "EVENT_TYPES",
    "BarrierWait",
    "BundleFlushed",
    "CheckpointTaken",
    "Event",
    "EventBus",
    "FaultInjected",
    "MessageRecv",
    "MessageSend",
    "NodeSlice",
    "PhaseBegin",
    "PhaseCommit",
    "PhaseReport",
    "PhaseTrace",
    "PoolDegraded",
    "Recovery",
    "ResilienceSummary",
    "RetryAttempt",
    "RunReport",
    "SupervisionSummary",
    "VpScheduled",
    "WorkerCrash",
    "WorkerRespawn",
    "WorkerSpan",
    "WorkerUtilization",
    "ZeroMergeCommit",
    "ZeroMergeSummary",
    "chrome_trace",
    "event_from_dict",
    "format_report",
    "load_trace",
    "report_to_dict",
    "save_chrome_trace",
    "save_trace",
    "trace_to_dict",
]
