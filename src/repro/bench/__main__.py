"""Regenerate every experiment from the command line.

Usage::

    python -m repro.bench            # everything (figures, table, ablations)
    python -m repro.bench fig1 fig2  # a subset
    python -m repro.bench --list     # show available experiment names

Each experiment prints its table, writes it under ``bench_results/``
and then prints its shape assertions — the paper's qualitative claims,
evaluated on the regenerated rows.  The exit status is 1 when any
claim fails, so CI runs this command and then
``git diff --exit-code bench_results/``: every table is a pure function
of the source.
"""

from __future__ import annotations

import sys
from typing import Callable

from repro.bench.analyzer import analyzer_verdicts
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
    "analyzer": analyzer_verdicts,
}


def main(argv: list[str]) -> int:
    if "--list" in argv:
        for name in EXPERIMENTS:
            print(name)
        return 0
    names = argv or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    failed = []
    for name in names:
        print(f"running {name} ...", flush=True)
        result = EXPERIMENTS[name]()
        print(save_result(result))
        chart = render_chart(result)
        if chart:
            print()
            print(chart)
        for text, holds in result.claims:
            print(f"claim {'holds' if holds else 'FAILED'}: {text}")
            if not holds:
                failed.append(f"{name}: {text}")
        print()
    for line in failed:
        print(f"FAILED claim - {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
