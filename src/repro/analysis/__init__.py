"""Diagnostics for PPM programs: dynamic sanitizer + static linter.

Two complementary layers over the same :class:`Diagnostic` type:

* :class:`~repro.analysis.sanitizer.PhaseSanitizer` — opt-in runtime
  instrumentation of the phase-commit path.  Enable with
  ``PpmRuntime(cluster, sanitize="warn")`` (collect diagnostics) or
  ``sanitize="strict"`` (raise
  :class:`~repro.core.errors.PhaseConflictError` on the first
  conflicting phase).  It observes the buffered write set of every
  phase and flags write-write overlaps between distinct VPs that the
  deterministic rank-order commit (R3) would silently resolve.

* :mod:`repro.analysis.lint` — a static AST pass over PPM program
  sources flagging model-rule violations before anything runs.  Run it
  programmatically via :func:`lint_paths` or from the command line::

      python -m repro.analysis examples/ src/repro/apps/

See :mod:`repro.analysis.diagnostics` for the rule table.
"""

from repro.analysis.bounds import check_bounds_and_shapes, extent_groups
from repro.analysis.diagnostics import SEVERITIES, Diagnostic
from repro.analysis.lint import (
    build_module_model,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.liveness import analyze_liveness
from repro.analysis.rules import ALL_RULES, RULES_BY_ID
from repro.analysis.sanitizer import PhaseSanitizer

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "PhaseSanitizer",
    "RULES_BY_ID",
    "SEVERITIES",
    "analyze_liveness",
    "build_module_model",
    "check_bounds_and_shapes",
    "extent_groups",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]
