"""Experiment harness regenerating the paper's evaluation section.

One entry point per table/figure (see DESIGN.md's per-experiment
index):

* :func:`~repro.bench.figures.fig1_cg` — Figure 1, CG solver;
* :func:`~repro.bench.figures.fig2_matgen` — Figure 2, matrix
  generation;
* :func:`~repro.bench.figures.fig3_barneshut` — Figure 3, Barnes-Hut;
* :func:`~repro.bench.codesize.table1_codesize` — Table 1, code size;
* the ``ablation_*`` functions — the paper's design-choice claims.
"""

from repro.bench.codesize import count_loc, table1_codesize
from repro.bench.figures import (
    ablation_bundling,
    ablation_loadbalance,
    ablation_manycore,
    ablation_overlap,
    ablation_smartmap,
    ext_bfs,
    ext_multigrid,
    ext_trsv,
    fig1_cg,
    fig2_matgen,
    fig3_barneshut,
)
from repro.bench.harness import SweepResult, run_sweep
from repro.bench.report import format_table, save_result

__all__ = [
    "SweepResult",
    "ablation_bundling",
    "ablation_loadbalance",
    "ablation_manycore",
    "ablation_overlap",
    "ablation_smartmap",
    "count_loc",
    "ext_bfs",
    "ext_multigrid",
    "ext_trsv",
    "fig1_cg",
    "fig2_matgen",
    "fig3_barneshut",
    "format_table",
    "run_sweep",
    "save_result",
    "table1_codesize",
]
