"""Chaos demos: run CG clean and under injected faults, compare.

Usage::

    python -m repro.resilience demo  [--small] [--check] [--seed S]
                                     [--nodes N] [--nx NX] [--iters K]
                                     [--checkpoint-every C]
                                     [--out RUN.trace.json]
    python -m repro.resilience chaos --executor process [--small]
                                     [--check] [--seed S] [--nodes N]
                                     [--nx NX] [--iters K] [--workers W]
                                     [--rounds I,J,...]
                                     [--signal kill|stop]

``demo`` exercises the *simulated* fault model: the paper's CG
application runs twice on the same simulated machine, once fault-free
and once under a deterministic chaos plan (message drops, corruption,
delays, duplicates, a straggler and a mid-run node crash) with
phase-boundary checkpointing.

``chaos`` exercises the *real-process* fault model: the CG application
runs fault-free on the inline engine, then on the process executor
with worker supervision while :class:`~repro.parallel.ProcessChaos`
SIGKILLs (or SIGSTOPs) live worker processes at the given round
dispatches.  Each failure restarts the run in a fresh pool; it must
come back at full size and finish with committed arrays and simulated
times bitwise-identical to inline.

Both subcommands print the two runs' simulated times, the relevant
counters and the run report, and verify the recovery-equivalence
property.  ``--small`` shrinks the problem for CI smoke use;
``--check`` exits non-zero unless the equivalence check passes (it is
also asserted by default — ``--check`` additionally demands that
faults actually fired, guarding against a silently inert plan).

Exit status: 0 on success, 1 on a failed check, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _chaos_plan(seed: int, nodes: int, crash_phase: int):
    from repro.resilience import FaultPlan

    return (
        FaultPlan(seed=seed)
        .drop_messages(0.10)
        .corrupt_messages(0.05)
        .delay_messages(0.10, 25e-6)
        .duplicate_messages(0.10)
        .straggle(node=0, factor=1.5)
        .crash(node=nodes - 1, phase=crash_phase)
    )


def cmd_demo(args: argparse.Namespace) -> int:
    # Imported lazily so --help stays scipy-free.
    from repro.apps.cg import build_chimney_problem, ppm_cg_solve
    from repro.config import franklin
    from repro.machine import Cluster
    from repro.obs import PhaseTrace, RunReport, format_report, save_trace

    if args.small:
        args.nodes = min(args.nodes, 2)
        args.nx = min(args.nx, 4)
        args.iters = min(args.iters, 6)

    problem = build_chimney_problem(args.nx)
    # CG issues 3 global phases per iteration plus a setup phase; crash
    # roughly two thirds of the way through the run.
    crash_phase = max(1, 2 * args.iters)
    plan = _chaos_plan(args.seed, args.nodes, crash_phase)

    clean, t_clean = ppm_cg_solve(
        problem,
        Cluster(franklin(n_nodes=args.nodes)),
        max_iters=args.iters,
        tol=0.0,
    )

    trace = PhaseTrace()
    chaotic, t_chaos = ppm_cg_solve(
        problem,
        Cluster(franklin(n_nodes=args.nodes)),
        max_iters=args.iters,
        tol=0.0,
        trace=trace,
        faults=plan,
        checkpoint_every=args.checkpoint_every,
    )

    identical = np.array_equal(clean.x, chaotic.x)
    report = RunReport.from_trace(trace)
    rs = report.resilience

    print(
        f"CG on {args.nodes} nodes, {args.iters} iterations "
        f"(chaos seed {args.seed}, crash at phase {crash_phase}, "
        f"checkpoint every {args.checkpoint_every} phases)"
    )
    print(f"  fault-free : {t_clean * 1e3:9.3f} ms simulated")
    print(
        f"  chaotic    : {t_chaos * 1e3:9.3f} ms simulated "
        f"({t_chaos / t_clean:.2f}x)"
    )
    print(f"  bitwise-identical solution: {identical}")
    print()
    print(format_report(report))
    if args.out:
        save_trace(trace, args.out)
        print(f"trace written to {args.out}")

    if not identical:
        print("FAIL: chaotic run diverged from the fault-free run", file=sys.stderr)
        return 1
    if args.check:
        fired = rs is not None and rs.faults > 0 and rs.recoveries > 0
        if not fired:
            print(
                "FAIL: --check expects injected faults and a recovery, "
                f"got {rs!r}",
                file=sys.stderr,
            )
            return 1
        print("check passed: faults fired, recovery ran, results identical")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    # Imported lazily so --help stays scipy-free.
    from repro.apps.cg import build_chimney_problem, ppm_cg_solve
    from repro.config import franklin
    from repro.machine import Cluster
    from repro.obs import PhaseTrace, RunReport, format_report
    from repro.parallel import ProcessChaos, SupervisionPolicy

    if args.executor != "process":
        print(
            f"chaos: unsupported --executor {args.executor!r} "
            "(only 'process' spawns real workers to kill)",
            file=sys.stderr,
        )
        return 2
    if args.small:
        args.nodes = min(args.nodes, 2)
        args.nx = min(args.nx, 4)
        args.iters = min(args.iters, 6)
        args.workers = min(args.workers, 2)

    problem = build_chimney_problem(args.nx)

    clean, t_clean = ppm_cg_solve(
        problem,
        Cluster(franklin(n_nodes=args.nodes)),
        max_iters=args.iters,
        tol=0.0,
    )

    chaos = ProcessChaos(seed=args.seed, rounds=args.rounds, signal=args.signal)
    trace = PhaseTrace()
    chaotic, t_chaos = ppm_cg_solve(
        problem,
        Cluster(franklin(n_nodes=args.nodes)),
        max_iters=args.iters,
        tol=0.0,
        trace=trace,
        executor="process",
        workers=args.workers,
        supervision=SupervisionPolicy(chaos=chaos),
    )
    identical = np.array_equal(clean.x, chaotic.x) and t_clean == t_chaos
    report = RunReport.from_trace(trace)

    print(
        f"CG on {args.nodes} nodes, {args.iters} iterations, "
        f"{args.workers} workers (chaos seed {args.seed}, "
        f"{args.signal} at round dispatches {list(args.rounds)})"
    )
    print(f"  inline fault-free : {t_clean * 1e3:9.3f} ms simulated")
    print(f"  process + chaos   : {t_chaos * 1e3:9.3f} ms simulated")
    print(f"  bitwise-identical solution and clock: {identical}")
    print()
    print(format_report(report))

    if not identical:
        print(
            "FAIL: supervised chaotic run diverged from the inline run",
            file=sys.stderr,
        )
        return 1
    if args.check:
        # Printed with the report above; None when no worker failed.
        sup = report.supervision
        if sup is None or sup.respawns == 0 or sup.degradations:
            print(
                "FAIL: --check expects worker kills, restarts and no "
                f"degradation, got {sup!r}",
                file=sys.stderr,
            )
            return 1
        print(
            "check passed: workers died, the run came back at full size, "
            "results identical"
        )
    return 0


def _dispatch_indices(text: str) -> tuple[int, ...]:
    return tuple(int(i) for i in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Fault-injection chaos demo on the CG application.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser(
        "demo", help="run CG fault-free vs chaotic and compare results"
    )
    p_demo.add_argument("--seed", type=int, default=7, help="fault-plan seed")
    p_demo.add_argument("--nodes", type=int, default=4)
    p_demo.add_argument("--nx", type=int, default=8, help="grid edge (nx*nx*2nx rows)")
    p_demo.add_argument("--iters", type=int, default=10)
    p_demo.add_argument(
        "--checkpoint-every", type=int, default=5, metavar="C",
        help="phases between checkpoints (default 5)",
    )
    p_demo.add_argument(
        "--small", action="store_true", help="shrink for CI smoke use"
    )
    p_demo.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless faults fired and recovery preserved results",
    )
    p_demo.add_argument("--out", help="write the ppm-trace JSON here")
    p_demo.set_defaults(func=cmd_demo)

    p_chaos = sub.add_parser(
        "chaos",
        help="SIGKILL real worker processes mid-run and verify recovery",
    )
    p_chaos.add_argument(
        "--executor", default="process",
        help="execution backend to attack (only 'process' is supported)",
    )
    p_chaos.add_argument("--seed", type=int, default=7, help="chaos seed")
    p_chaos.add_argument("--nodes", type=int, default=4)
    p_chaos.add_argument("--nx", type=int, default=8, help="grid edge (nx*nx*2nx rows)")
    p_chaos.add_argument("--iters", type=int, default=10)
    p_chaos.add_argument("--workers", type=int, default=2)
    p_chaos.add_argument(
        "--rounds", default=(2, 9), metavar="I,J,...",
        type=_dispatch_indices,
        help="0-based round dispatches (counted across restarts) at "
        "which a worker is killed (default 2,9)",
    )
    p_chaos.add_argument(
        "--signal", choices=["kill", "stop"], default="kill",
        help="kill=SIGKILL (crash), stop=SIGSTOP (hang)",
    )
    p_chaos.add_argument(
        "--small", action="store_true", help="shrink for CI smoke use"
    )
    p_chaos.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless workers died, the run came back at "
        "full size and results match",
    )
    p_chaos.set_defaults(func=cmd_chaos)
    return parser


def main(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits 2 on bad input
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
