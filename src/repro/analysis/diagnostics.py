"""Structured findings shared by both analysis layers.

The dynamic sanitizer and the static linter report through one
:class:`Diagnostic` type so drivers, tests and the CLI can treat
findings uniformly.  Every finding carries a stable rule id:

=========  ============================================================
Rule id    Meaning
=========  ============================================================
PPM101     shared-variable access in the VP-private prologue (lint)
PPM102     global-shared write inside a node phase (lint)
PPM103     plain-write read-modify-write that should be ``accumulate``
PPM104     read after write of the same shared variable in one phase
           (the read observes the phase-start snapshot, rule R1)
PPM105     ``ppm.do`` VP count is a hard-coded literal, not derived
           from problem size or cluster geometry (lint, warn-only)
PPM201     rank-order-dependent conflict: distinct VPs wrote different
           values (or mixed accumulate ops) to one element (sanitizer)
PPM202     mixed plain write + accumulate on one element from distinct
           VPs (sanitizer)
PPM203     benign overlap: distinct VPs plain-wrote identical values
           to one element (sanitizer, warning)
PPM302     invalid fault target node/phase (resilience config)
PPM303     invalid checkpoint/recovery policy (resilience config)
PPM401     provable write-write overlap between distinct VPs in one
           phase (dataflow verifier)
PPM402     same-VP read of rows written earlier in the phase; the read
           observes the phase-start snapshot (dataflow verifier)
PPM403     accumulate-operator mismatch on overlapping index sets
           (dataflow verifier)
PPM404     unanalyzable access — the index expression escapes the
           affine domain, so disjointness is unprovable (dataflow)
PPM406     provable out-of-bounds shared-array access, with a concrete
           witness rank (bounds verifier)
PPM407     shared-array access bound unprovable against the declared
           extent (bounds verifier, warning)
PPM408     phase writes a shape/dtype incompatible with a downstream
           reader on the cross-phase dependence graph
PPM409     dead write: value provably overwritten before any snapshot
           read (liveness, warning)
=========  ============================================================

Each rule id anchors a section of docs/DIAGNOSTICS.md (e.g.
docs/DIAGNOSTICS.md#ppm101) with a minimal triggering example and the
idiomatic fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Severity levels, most severe first.
SEVERITIES = ("error", "warning", "note")

#: Every stable rule id, with a one-line summary.  ``--explain`` and
#: the docs tests key off this registry: each code must anchor a
#: ``### PPMxxx`` section of docs/DIAGNOSTICS.md.
ALL_CODES: dict[str, str] = {
    "PPM100": "source file could not be parsed (lint fallback)",
    "PPM101": "shared-variable access in the VP-private prologue",
    "PPM102": "global-shared write inside a node phase",
    "PPM103": "plain-write read-modify-write that should be accumulate",
    "PPM104": "read after write of one shared variable in one phase",
    "PPM105": "hard-coded VP count in ppm.do",
    "PPM201": "rank-order-dependent write conflict (dynamic)",
    "PPM202": "mixed plain write + accumulate on one element (dynamic)",
    "PPM203": "benign identical-value overlap (dynamic, warning)",
    "PPM302": "invalid fault target",
    "PPM303": "invalid checkpoint/recovery policy",
    "PPM401": "provable cross-VP write-write overlap in one phase",
    "PPM402": "same-VP read after write; snapshot semantics apply",
    "PPM403": "accumulate-operator mismatch on overlapping rows",
    "PPM404": "index expression escapes the affine domain",
    "PPM405": "do() callee could not be resolved statically",
    "PPM406": "provable out-of-bounds access with a witness rank",
    "PPM407": "access bound unprovable against the declared extent",
    "PPM408": "shape/dtype incompatible with a downstream reader",
    "PPM409": "dead write: overwritten before any snapshot read",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the sanitizer or the linter."""

    tool: str
    """``"sanitizer"``, ``"lint"`` or ``"dataflow"``."""

    rule: str
    """Stable rule id (``PPM1xx`` lint, ``PPM2xx`` sanitizer,
    ``PPM4xx`` dataflow verifier)."""

    severity: str
    """``"error"``, ``"warning"`` or ``"note"``."""

    message: str
    """Human-readable description of the finding."""

    # -- static (lint) location ---------------------------------------
    path: str | None = None
    line: int | None = None

    # -- dynamic (sanitizer) context ----------------------------------
    phase_index: int | None = None
    phase_kind: str | None = None
    variable: str | None = None
    """Name of the shared variable involved."""
    rows: tuple[int, ...] = field(default_factory=tuple)
    """Sample of conflicting axis-0 rows (capped, sorted)."""
    ranks: tuple[int, ...] = field(default_factory=tuple)
    """Global VP ranks involved in the conflict (capped, sorted)."""

    # -- content-fingerprint context (baseline suppression v2) ---------
    expr: str | None = None
    """Source of the access/index expression the finding is about
    (whitespace-normalized); part of the v2 content fingerprint."""
    kernel: str | None = None
    """Name of the PPM function the finding was raised in."""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def format(self) -> str:
        """One-line rendering, ``path:line:`` prefixed for static
        (lint/dataflow) findings and phase/variable-prefixed for
        sanitizer ones."""
        if self.tool == "lint":
            loc = f"{self.path or '<source>'}:{self.line or 0}: "
            return f"{loc}{self.rule} [{self.severity}] {self.message}"
        if self.tool == "dataflow":
            loc = f"{self.path or '<source>'}:{self.line or 0}: "
            where = []
            if self.phase_index is not None:
                where.append(f"phase {self.phase_index} ({self.phase_kind})")
            if self.variable is not None:
                where.append(f"var {self.variable!r}")
            ctx = "; ".join(where)
            return f"{loc}{self.rule} [{self.severity}] {self.message}" + (
                f" ({ctx})" if ctx else ""
            )
        where = []
        if self.phase_index is not None:
            where.append(f"phase {self.phase_index} ({self.phase_kind})")
        if self.variable is not None:
            where.append(f"var {self.variable!r}")
        if self.rows:
            where.append(f"rows {list(self.rows)}")
        if self.ranks:
            where.append(f"VP ranks {list(self.ranks)}")
        ctx = "; ".join(where)
        return f"{self.rule} [{self.severity}] {self.message}" + (
            f" ({ctx})" if ctx else ""
        )

    def __str__(self) -> str:
        return self.format()

    def to_dict(self) -> dict:
        """JSON-ready representation (for the CLI's ``--json``)."""
        out = {
            "tool": self.tool,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.tool == "lint":
            out["path"] = self.path
            out["line"] = self.line
        elif self.tool == "dataflow":
            out.update(
                path=self.path,
                line=self.line,
                phase_index=self.phase_index,
                phase_kind=self.phase_kind,
                variable=self.variable,
            )
        else:
            out.update(
                phase_index=self.phase_index,
                phase_kind=self.phase_kind,
                variable=self.variable,
                rows=list(self.rows),
                ranks=list(self.ranks),
            )
        return out
