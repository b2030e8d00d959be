"""Render observability reports from saved traces.

Usage::

    python -m repro.obs report RUN.trace.json [--json]
    python -m repro.obs chrome RUN.trace.json -o RUN.chrome.json
    python -m repro.obs demo [--nodes N] [--out RUN.trace.json]
                             [--chrome RUN.chrome.json]

``report`` prints the per-phase metrics table (or the report as JSON
with ``--json``); ``chrome`` converts a saved trace to the Chrome
``trace_event`` format for chrome://tracing / Perfetto; ``demo`` runs
the paper's CG application with tracing enabled and saves the trace —
the same recipe CI uses to publish a sample trace artifact.

Exit status: 0 on success, 2 on usage errors or unreadable traces.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.export import (
    format_report,
    load_trace,
    report_to_dict,
    save_chrome_trace,
    save_trace,
)
from repro.obs.metrics import RunReport


def _load(path: str):
    try:
        return load_trace(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def cmd_report(args: argparse.Namespace) -> int:
    report = RunReport.from_trace(_load(args.trace))
    if args.json:
        print(json.dumps(report_to_dict(report), indent=1))
    else:
        print(format_report(report))
    return 0


def cmd_chrome(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    save_chrome_trace(trace, args.out)
    print(f"wrote {args.out} ({len(trace)} events) — load at chrome://tracing")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    # Imported here, so report rendering stays apart from the apps.
    from repro.apps.cg import build_chimney_problem, ppm_cg_solve
    from repro.config import franklin
    from repro.machine import Cluster
    from repro.obs.events import PhaseTrace

    trace = PhaseTrace()
    problem = build_chimney_problem(args.nx)
    result, elapsed = ppm_cg_solve(
        problem,
        Cluster(franklin(n_nodes=args.nodes)),
        max_iters=args.iters,
        tol=0.0,
        trace=trace,
    )
    report = RunReport.from_trace(trace)
    print(
        f"CG on {args.nodes} nodes: {result.iterations} iterations, "
        f"{elapsed * 1e3:.3f} ms simulated, {len(trace)} events"
    )
    print(format_report(report))
    if args.out:
        save_trace(trace, args.out)
        print(f"trace written to {args.out}")
    if args.chrome:
        save_chrome_trace(trace, args.chrome)
        print(f"chrome timeline written to {args.chrome}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render PPM observability reports from saved traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="per-phase metrics table")
    p_report.add_argument("trace", help="trace file (ppm-trace JSON)")
    p_report.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_report.set_defaults(func=cmd_report)

    p_chrome = sub.add_parser(
        "chrome", help="convert a trace to Chrome trace_event JSON"
    )
    p_chrome.add_argument("trace", help="trace file (ppm-trace JSON)")
    p_chrome.add_argument(
        "-o", "--out", required=True, help="output chrome trace path"
    )
    p_chrome.set_defaults(func=cmd_chrome)

    p_demo = sub.add_parser(
        "demo", help="run the CG app with tracing and save the trace"
    )
    p_demo.add_argument("--nodes", type=int, default=4)
    p_demo.add_argument("--nx", type=int, default=8, help="grid edge (nx*nx*2nx rows)")
    p_demo.add_argument("--iters", type=int, default=10)
    p_demo.add_argument("--out", help="write the ppm-trace JSON here")
    p_demo.add_argument("--chrome", help="write the chrome trace_event JSON here")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse / _load exit 2 on bad input
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
