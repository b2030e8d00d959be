"""Regenerate every experiment from the command line.

Usage::

    python -m repro.bench            # everything (figures, table, ablations)
    python -m repro.bench fig1 fig2  # a subset
    python -m repro.bench --list     # show available experiment names

Each experiment prints its table and writes it under ``bench_results/``
(same outputs as ``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import sys
from typing import Callable

from repro.bench.analyzer import analyzer_cost
from repro.bench.codesize import table1_codesize
from repro.bench.figures import (
    ablation_bundling,
    ablation_loadbalance,
    ext_bfs,
    ext_multigrid,
    ext_trsv,
    ablation_manycore,
    ablation_overlap,
    ablation_smartmap,
    fig1_cg,
    fig2_matgen,
    fig3_barneshut,
)
from repro.bench.obs_traffic import obs_cg_traffic
from repro.bench.report import render_chart, save_result
from repro.bench.resilience import bench_resilience

EXPERIMENTS: dict[str, Callable] = {
    "fig1": fig1_cg,
    "fig2": fig2_matgen,
    "fig3": fig3_barneshut,
    "table1": table1_codesize,
    "manycore": ablation_manycore,
    "bundling": ablation_bundling,
    "overlap": ablation_overlap,
    "smartmap": ablation_smartmap,
    "loadbalance": ablation_loadbalance,
    "ext_bfs": ext_bfs,
    "ext_trsv": ext_trsv,
    "ext_multigrid": ext_multigrid,
    "obs_cg": obs_cg_traffic,
    "resilience": bench_resilience,
    "analyzer": analyzer_cost,
}


#: Experiments with their own CLI (``main(argv)``): extra flags on the
#: ``python -m repro.bench`` command line are forwarded to them instead
#: of being silently dropped.
CLI_EXPERIMENTS: dict[str, Callable[[list], int]] = {}


def _analyzer_cli(argv: list) -> int:
    from repro.bench import analyzer as analyzer_module

    return analyzer_module.main(argv)


CLI_EXPERIMENTS["analyzer"] = _analyzer_cli


def main(argv: list[str]) -> int:
    if "--list" in argv:
        for name in EXPERIMENTS:
            print(name)
        return 0
    # An experiment with its own CLI consumes everything after its
    # name (e.g. ``analyzer --check``).
    if argv and argv[0] in CLI_EXPERIMENTS and len(argv) > 1:
        return CLI_EXPERIMENTS[argv[0]](argv[1:])
    flags = [a for a in argv if a.startswith("-")]
    if flags:
        flag_aware = ", ".join(CLI_EXPERIMENTS)
        print(
            f"flags {' '.join(flags)} are only understood when they "
            f"follow a flag-aware experiment name ({flag_aware}), e.g. "
            "`python -m repro.bench analyzer --check`",
            file=sys.stderr,
        )
        return 2
    names = argv or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in names:
        print(f"running {name} ...", flush=True)
        result = EXPERIMENTS[name]()
        print(save_result(result))
        chart = render_chart(result)
        if chart:
            print()
            print(chart)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
