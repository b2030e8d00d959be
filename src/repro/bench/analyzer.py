"""Verdicts of the static phase-dataflow verifier on the shipped apps.

Certificates drive in-place commits (``sanitize="auto"``, the process
backend's zero-merge path), so which kernels certify is part of the
reproduction's recorded state: this table runs
``repro.analysis.dataflow.verify_file`` on each of the six shipped
apps and records the phases summarised, dependence edges found,
findings emitted, and whether every phase holds a conflict-freedom
certificate.  What the analysis costs in host time is ``perfbench``'s
``analyze_apps`` row.
"""

from __future__ import annotations

import os

from repro.bench.harness import SweepResult

#: The six shipped PPM apps, as paths relative to the repo root.
APP_MODULES = (
    ("cg", "src/repro/apps/cg/ppm_cg.py"),
    ("matgen", "src/repro/apps/collocation/ppm_gen.py"),
    ("barneshut", "src/repro/apps/barneshut/ppm_bh.py"),
    ("multigrid", "src/repro/apps/multigrid/ppm_mg.py"),
    ("bfs", "src/repro/apps/graph/ppm_bfs.py"),
    ("sptrsv", "src/repro/apps/sptrsv/ppm_trsv.py"),
)

_REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..", "..")


def analyzer_verdicts() -> SweepResult:
    """Verify all six apps; returns the verdict table."""
    from repro.analysis.dataflow import verify_file

    result = SweepResult(
        name="analyzer_verdicts",
        columns=["app", "phases", "dep_edges", "findings", "certified"],
        notes=(
            "Static dataflow verifier (repro.analysis.dataflow) verdict "
            "per app; certified=True means every phase carries a "
            "conflict-freedom certificate."
        ),
    )
    for app, rel in APP_MODULES:
        diags, summaries = verify_file(os.path.join(_REPO_ROOT, rel))
        result.rows.append(
            {
                "app": app,
                "phases": sum(len(s.phases) for s in summaries),
                "dep_edges": sum(len(s.edges) for s in summaries),
                "findings": len(diags),
                "certified": all(s.certified for s in summaries)
                and bool(summaries),
            }
        )
    result.claim(
        "all six shipped apps certify conflict-free with zero findings",
        all(r["certified"] and r["findings"] == 0 for r in result.rows),
    )
    return result
