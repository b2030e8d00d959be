"""Dynamic phase-conflict sanitizer.

The model's R3 rule (docs/SEMANTICS.md) resolves overlapping plain
writes deterministically by global-VP-rank order — deterministic, but
*layout-sensitive*: renumber the VPs and the committed array changes.
That is precisely the latent bug class a PPM programmer cannot see,
because the program has no barriers or locks to inspect.  With the
sanitizer enabled (``run_ppm(..., sanitize="warn"|"strict")``), every
buffered write additionally records a
:class:`~repro.core.shared.WriteEvent`, and at each phase commit —
*before* any write applies — the footprints are checked for cross-VP
overlaps and classified:

* **PPM201, rank-order-dependent** (error): distinct VPs wrote
  *different* values to one element, or overlapping accumulates used
  different operators; permuting VP commit order would change the
  committed array.
* **PPM202, mixed write + accumulate** (error): one element receives
  both a plain write and an accumulate from distinct VPs in one phase
  — the R3/R4 interaction hazard.
* **PPM203, benign same-value overlap** (warning): distinct VPs
  plain-wrote identical values to one element; the commit is
  order-independent, but the redundancy usually signals a chunking
  bug.

Overlapping ``accumulate`` calls with one common commutative operator
are the model's blessed combining pattern (R4) and produce no
diagnostic.  Classification never touches the committed store: events
replay onto scratch copies of the phase-start snapshot.

Reference (triggering examples and fixes): docs/DIAGNOSTICS.md#ppm201,
#ppm202 and #ppm203.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.core.errors import PhaseConflictError
from repro.core.rowset import ranks_disjoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.phase import PhasePlan, PhaseRecorder
    from repro.core.shared import WriteEvent

#: Cap on rows / ranks carried by one diagnostic (the message reports
#: the true totals).
_SAMPLE = 8


def _elementwise_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Equality mask treating NaN == NaN (conflict-wise identical)."""
    eq = a == b
    if np.issubdtype(a.dtype, np.floating) or np.issubdtype(a.dtype, np.complexfloating):
        eq |= np.isnan(a) & np.isnan(b)
    return eq


class PhaseSanitizer:
    """Per-runtime conflict detector; one instance per ``PpmRuntime``.

    ``mode`` is ``"warn"`` (collect diagnostics) or ``"strict"``
    (additionally raise :class:`PhaseConflictError` on error-severity
    findings, aborting the phase before its commit).
    """

    def __init__(self, mode: str = "warn") -> None:
        if mode not in ("warn", "strict"):
            raise ValueError(f"sanitize mode must be 'warn' or 'strict', got {mode!r}")
        self.mode = mode
        self.diagnostics: list[Diagnostic] = []
        #: Phases checked / phases with at least one finding.
        self.phases_checked = 0
        self.phases_flagged = 0

    # ------------------------------------------------------------------
    def check_phase(
        self, recorder: "PhaseRecorder", plan: "PhasePlan", *, phase_index: int
    ) -> None:
        """Classify this phase's write footprints; called by the
        runtime at commit time, before any buffered write applies.

        Who writes which rows of which variable is part of the phase
        shape's signature, so once a check has found every target
        single-writer or row-disjoint (``plan.disjoint``) its repeats
        have nothing to classify.  A shape with any row overlap is
        classified every round: benign (PPM203) or rank-order-dependent
        (PPM201) depends on the values written."""
        self.phases_checked += 1
        events = recorder.write_ops
        if not events or plan.disjoint:
            return
        groups: dict[tuple[int, int | None], list["WriteEvent"]] = defaultdict(list)
        for ev in events:
            groups[(id(ev.shared), ev.instance)].append(ev)
        found: list[Diagnostic] = []
        plan.disjoint = True
        for evs in groups.values():
            diags = self._check_group(evs, phase_index, recorder.kind)
            if diags is not None:
                plan.disjoint = False
                found.extend(diags)
        if not found:
            return
        self.phases_flagged += 1
        self.diagnostics.extend(found)
        if self.mode == "strict" and any(d.severity == "error" for d in found):
            head = next(d for d in found if d.severity == "error")
            raise PhaseConflictError(
                f"phase conflict detected before commit: {head.format()}",
                found,
            )

    # ------------------------------------------------------------------
    def _check_group(
        self, evs: list["WriteEvent"], phase_index: int, phase_kind: str
    ) -> list[Diagnostic] | None:
        """Classify one (shared variable, instance) group of events;
        None when no two VPs touch a common row, whatever they write."""
        by_rank: dict[int, list["WriteEvent"]] = defaultdict(list)
        for ev in evs:
            by_rank[ev.rank].append(ev)
        if len(by_rank) < 2:
            return None  # single writer: R3 program order, deterministic

        shared = evs[0].shared
        instance = evs[0].instance
        # Cheap row-level filter: distinct writers with disjoint axis-0
        # footprints cannot conflict.
        if ranks_disjoint(
            [[e.rows for e in revs] for revs in by_rank.values()], shared.shape[0]
        ):
            return None

        data = shared._data if instance is None else shared._data[instance]
        shape = data.shape
        varname = shared.name if instance is None else f"{shared.name}@node{instance}"

        # Element-exact per-rank footprints, split by operation kind.
        wmask: dict[int, np.ndarray] = {}
        amask: dict[int, np.ndarray] = {}
        aop_masks: dict[str, np.ndarray] = {}
        for rank, revs in by_rank.items():
            for ev in revs:
                fp = ev.footprint(shape)
                if ev.kind == "write":
                    dst = wmask.setdefault(rank, np.zeros(shape, dtype=bool))
                else:
                    dst = amask.setdefault(rank, np.zeros(shape, dtype=bool))
                    om = aop_masks.setdefault(ev.op, np.zeros(shape, dtype=bool))
                    om |= fp
                dst |= fp

        n_w = np.zeros(shape, dtype=np.int32)
        n_a = np.zeros(shape, dtype=np.int32)
        n_touch = np.zeros(shape, dtype=np.int32)
        for rank in by_rank:
            w = wmask.get(rank)
            a = amask.get(rank)
            if w is not None:
                n_w += w
            if a is not None:
                n_a += a
            touch = (
                w | a if w is not None and a is not None else (w if w is not None else a)
            )
            n_touch += touch

        mixed = (n_w >= 1) & (n_a >= 1) & (n_touch >= 2)
        ww = (n_w >= 2) & ~mixed
        multi_op = np.zeros(shape, dtype=np.int32)
        for om in aop_masks.values():
            multi_op += om
        aa_mixed_ops = (n_a >= 2) & (multi_op >= 2) & ~mixed

        out: list[Diagnostic] = []
        if mixed.any():
            out.append(
                self._diag(
                    "PPM202",
                    "error",
                    "element(s) received both a plain write and an accumulate "
                    "from distinct VPs in one phase; the committed value "
                    "depends on VP rank order (R3/R4 hazard)",
                    mixed, wmask, amask, varname, phase_index, phase_kind,
                )
            )

        if ww.any():
            order_dep, benign = self._split_ww(ww, by_rank, wmask, data)
            if order_dep.any():
                out.append(
                    self._diag(
                        "PPM201",
                        "error",
                        "distinct VPs plain-wrote different values to the same "
                        "element(s); the committed value depends on VP rank "
                        "order and would change under a different node layout",
                        order_dep, wmask, amask, varname, phase_index, phase_kind,
                    )
                )
            if benign.any():
                out.append(
                    self._diag(
                        "PPM203",
                        "warning",
                        "distinct VPs plain-wrote identical values to the same "
                        "element(s); the commit is order-independent but the "
                        "redundant writes usually signal an overlap bug",
                        benign, wmask, amask, varname, phase_index, phase_kind,
                    )
                )

        if aa_mixed_ops.any():
            ops = sorted(aop_masks)
            out.append(
                self._diag(
                    "PPM201",
                    "error",
                    f"overlapping accumulates with different operators "
                    f"({', '.join(ops)}) on the same element(s); operator "
                    "application order follows VP rank, so the result is "
                    "rank-order-dependent",
                    aa_mixed_ops, wmask, amask, varname, phase_index, phase_kind,
                )
            )
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def _split_ww(
        ww: np.ndarray,
        by_rank: dict[int, list["WriteEvent"]],
        wmask: dict[int, np.ndarray],
        data: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split write-write overlap elements into rank-order-dependent
        (writers disagree on the value) and benign (all writers wrote
        the same value).

        Each writing rank's events replay in program order onto a
        scratch copy of the phase-start snapshot, giving that rank's
        final value per element — exact, unlike testing a single
        alternative commit permutation, which can miss three-writer
        disagreements that happen to agree at both extremes.
        """
        ref = np.empty_like(data)
        seen = np.zeros(data.shape, dtype=bool)
        same = np.ones(data.shape, dtype=bool)
        for rank in sorted(wmask):
            scratch = data.copy()
            for ev in by_rank[rank]:  # recording order = program order
                ev.replay(scratch)
            m = wmask[rank]
            new = m & ~seen
            ref[new] = scratch[new]
            overlap = m & seen
            if overlap.any():
                same &= ~overlap | _elementwise_equal(scratch, ref)
            seen |= m
        return ww & ~same, ww & same

    # ------------------------------------------------------------------
    @staticmethod
    def _diag(
        rule: str,
        severity: str,
        message: str,
        mask: np.ndarray,
        wmask: dict[int, np.ndarray],
        amask: dict[int, np.ndarray],
        varname: str,
        phase_index: int,
        phase_kind: str,
    ) -> Diagnostic:
        rows = np.unique(np.nonzero(mask)[0])
        ranks = sorted(
            rank
            for rank in set(wmask) | set(amask)
            if (rank in wmask and (wmask[rank] & mask).any())
            or (rank in amask and (amask[rank] & mask).any())
        )
        n_elem = int(mask.sum())
        detail = f" [{n_elem} element(s), {rows.size} row(s), {len(ranks)} VP(s)]"
        return Diagnostic(
            tool="sanitizer",
            rule=rule,
            severity=severity,
            message=message + detail,
            phase_index=phase_index,
            phase_kind=phase_kind,
            variable=varname,
            rows=tuple(int(r) for r in rows[:_SAMPLE]),
            ranks=tuple(int(r) for r in ranks[:_SAMPLE]),
        )
