"""Tests for the dynamic phase-conflict sanitizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.sanitizer as sanitizer_module
from repro.analysis import PhaseSanitizer
from repro.analysis.diagnostics import Diagnostic
from repro.config import testing as mkconfig
from repro.core import PhaseConflictError, ppm_function, run_ppm
from repro.machine import Cluster


def rules_of(diagnostics):
    return sorted({d.rule for d in diagnostics})


# ======================================================================
# Conflict classification
# ======================================================================
class TestConflictClassification:
    def test_seeded_write_write_conflict_is_detected(self, config2x2):
        """The acceptance regression: distinct VPs plain-write different
        values to one element -> PPM201 error with full context."""

        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            X[0] = float(ctx.global_rank)

        def main(ppm):
            X = ppm.global_shared("x", 4)
            ppm.do(2, kernel, X)
            return X.committed

        ppm, committed = run_ppm(main, Cluster(config2x2), sanitize="warn")
        errors = [d for d in ppm.diagnostics if d.severity == "error"]
        assert len(errors) == 1
        diag = errors[0]
        assert diag.rule == "PPM201"
        assert diag.tool == "sanitizer"
        assert diag.variable == "x"
        assert diag.rows == (0,)
        assert diag.ranks == (0, 1, 2, 3)
        assert diag.phase_kind == "global"
        # R3 still commits deterministically (highest rank wins).
        assert committed[0] == 3.0

    def test_benign_same_value_overlap_is_warning(self, config2x2):
        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            X[1] = 7.0

        def main(ppm):
            X = ppm.global_shared("x", 4)
            ppm.do(2, kernel, X)

        ppm, _ = run_ppm(main, Cluster(config2x2), sanitize="warn")
        assert rules_of(ppm.diagnostics) == ["PPM203"]
        assert all(d.severity == "warning" for d in ppm.diagnostics)

    def test_mixed_write_and_accumulate_is_ppm202(self, config2x2):
        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            if ctx.global_rank == 0:
                X[1] = 5.0
            else:
                X.accumulate(np.array([1]), np.array([2.0]))

        def main(ppm):
            X = ppm.global_shared("x", 4)
            ppm.do(1, kernel, X)

        ppm, _ = run_ppm(main, Cluster(config2x2), sanitize="warn")
        assert "PPM202" in rules_of(ppm.diagnostics)

    def test_mixed_accumulate_ops_are_rank_order_dependent(self, config2x2):
        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            op = "add" if ctx.global_rank % 2 == 0 else "multiply"
            X.accumulate(np.array([0]), np.array([3.0]), op=op)

        def main(ppm):
            X = ppm.global_shared("x", 2, fill=1.0)
            ppm.do(1, kernel, X)

        ppm, _ = run_ppm(main, Cluster(config2x2), sanitize="warn")
        assert "PPM201" in rules_of(ppm.diagnostics)

    def test_three_writers_agreeing_at_both_extremes_still_flagged(self, cluster1):
        """Writers a, b, a agree under forward AND reverse commit order
        but disagree under (0, 2, 1) — classification must be exact,
        not a two-permutation probe."""

        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            X[0] = 1.0 if ctx.global_rank in (0, 2) else 2.0

        def main(ppm):
            X = ppm.global_shared("x", 2)
            ppm.do(3, kernel, X)

        ppm, _ = run_ppm(main, cluster1, sanitize="warn")
        assert "PPM201" in rules_of(ppm.diagnostics)


# ======================================================================
# Blessed patterns stay clean
# ======================================================================
class TestCleanPatterns:
    def test_overlapping_same_op_accumulates_are_blessed(self, config2x2):
        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            X.accumulate(np.array([0, 1]), np.array([1.0, 1.0]))

        def main(ppm):
            X = ppm.global_shared("x", 4)
            ppm.do(2, kernel, X)
            return X.committed

        ppm, committed = run_ppm(main, Cluster(config2x2), sanitize="warn")
        assert ppm.diagnostics == []
        assert committed[0] == 4.0  # all four VPs combined (R4)

    def test_disjoint_chunks_are_clean(self, config2x2):
        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            X[ctx.global_rank] = float(ctx.global_rank)

        def main(ppm):
            X = ppm.global_shared("x", 8)
            ppm.do(2, kernel, X)

        ppm, _ = run_ppm(main, Cluster(config2x2), sanitize="warn")
        assert ppm.diagnostics == []

    def test_single_writer_is_clean(self, config2x2):
        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            if ctx.global_rank == 0:
                X[:] = np.ones(4)
                X[0] = 5.0  # same-VP overwrite is program order, not a race

        def main(ppm):
            X = ppm.global_shared("x", 4)
            ppm.do(2, kernel, X)

        ppm, _ = run_ppm(main, Cluster(config2x2), sanitize="warn")
        assert ppm.diagnostics == []


# ======================================================================
# Node-shared instances
# ======================================================================
class TestNodeShared:
    def test_node_shared_conflict_is_per_instance(self, config2x2):
        @ppm_function
        def kernel(ctx, Y):
            yield ctx.node_phase
            if ctx.node_id == 0:
                Y[0] = float(ctx.node_rank)  # both VPs of node 0 disagree

        def main(ppm):
            Y = ppm.node_shared("y", 4)
            ppm.do(2, kernel, Y)

        ppm, _ = run_ppm(main, Cluster(config2x2), sanitize="warn")
        errors = [d for d in ppm.diagnostics if d.severity == "error"]
        assert len(errors) == 1
        assert errors[0].rule == "PPM201"
        assert errors[0].variable == "y@node0"
        assert errors[0].phase_kind == "node"


# ======================================================================
# Modes and knobs
# ======================================================================
class TestModes:
    def test_strict_raises_before_commit(self, config2x2):
        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            X[0] = float(ctx.global_rank)

        def main(ppm):
            X = ppm.global_shared("x", 4, fill=-1.0)
            main.handle = X
            ppm.do(2, kernel, X)

        with pytest.raises(PhaseConflictError) as exc_info:
            run_ppm(main, Cluster(config2x2), sanitize="strict")
        err = exc_info.value
        assert err.diagnostics
        assert all(isinstance(d, Diagnostic) for d in err.diagnostics)
        assert err.diagnostics[0].rule == "PPM201"
        # Failure atomicity: the aborted phase must not have committed.
        assert main.handle.committed[0] == -1.0

    def test_strict_does_not_raise_on_warning_only(self, config2x2):
        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            X[0] = 7.0  # benign same-value overlap -> PPM203 warning

        def main(ppm):
            X = ppm.global_shared("x", 4)
            ppm.do(2, kernel, X)

        ppm, _ = run_ppm(main, Cluster(config2x2), sanitize="strict")
        assert rules_of(ppm.diagnostics) == ["PPM203"]

    def test_sanitize_true_means_warn(self, config2x2):
        ppm, _ = run_ppm(lambda p: None, Cluster(config2x2), sanitize=True)
        assert ppm.runtime.sanitizer is not None
        assert ppm.runtime.sanitizer.mode == "warn"

    def test_sanitizer_off_by_default(self, config2x2):
        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            X[0] = float(ctx.global_rank)

        def main(ppm):
            X = ppm.global_shared("x", 4)
            ppm.do(2, kernel, X)

        ppm, _ = run_ppm(main, Cluster(config2x2))
        assert ppm.runtime.sanitizer is None
        assert ppm.diagnostics == []

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PhaseSanitizer(mode="noisy")

    def test_sanitizer_does_not_change_results_or_timing(self, config2x2):
        @ppm_function
        def kernel(ctx, X):
            yield ctx.global_phase
            X.accumulate(np.array([ctx.global_rank % 4]), np.array([1.0]))
            yield ctx.global_phase
            X[4 + ctx.global_rank] = float(ctx.global_rank)
            ctx.work(100)

        def main(ppm):
            X = ppm.global_shared("x", 16)
            ppm.do(2, kernel, X)
            return X.committed

        ppm_off, base = run_ppm(main, Cluster(config2x2))
        ppm_on, sanitized = run_ppm(main, Cluster(config2x2), sanitize="warn")
        np.testing.assert_array_equal(base, sanitized)
        assert ppm_off.elapsed == ppm_on.elapsed
        assert ppm_on.diagnostics == []
        assert ppm_on.runtime.sanitizer.phases_checked == 2


# ======================================================================
# The row-level pre-filter only ever skips groups the element-exact
# classification would find clean
# ======================================================================
@ppm_function
def _table_kernel(ctx, X, table):
    """Each VP plays back its own list of ``(kind, index, value)`` ops;
    ``kind`` is "write" or an accumulate operator."""
    yield ctx.global_phase
    for kind, idx, value in table[ctx.global_rank]:
        if kind == "write":
            X[idx] = value
        else:
            X.accumulate(idx, value, op=kind)


def _diagnostics(table, shape, *, bypass: bool):
    """Findings of one phase over ``table`` (one op list per VP of a
    1-node cluster); ``bypass`` sends every group down the
    element-exact path by making the pre-filter see an overlap."""

    def main(ppm):
        X = ppm.global_shared("x", shape)
        ppm.do(len(table), _table_kernel, X, table)

    config = mkconfig(n_nodes=1, cores_per_node=len(table))
    saved = sanitizer_module.ranks_disjoint
    if bypass:
        sanitizer_module.ranks_disjoint = lambda rank_specs, extent: False
    try:
        ppm, _ = run_ppm(main, Cluster(config), sanitize="warn")
    finally:
        sanitizer_module.ranks_disjoint = saved
    return ppm.diagnostics


_ROWS = 8
_row = st.integers(0, _ROWS - 1)
_row_index = st.one_of(
    _row,
    st.builds(slice, _row, st.integers(0, _ROWS)),
    st.builds(slice, st.none(), st.none(), st.sampled_from([2, 3, -1, -2])),
    st.lists(_row, min_size=1, max_size=4).map(np.array),
)
_value = st.sampled_from([0.0, 1.0, 2.0])
_write = st.tuples(
    st.just("write"),
    # Partial-row tuple indices: rows overlap where elements may not.
    st.one_of(_row_index, st.tuples(_row_index, st.integers(0, 1))),
    _value,
)
_accumulate = st.tuples(st.sampled_from(["add", "maximum"]), _row_index, _value)
_tables = st.lists(
    st.lists(st.one_of(_write, _accumulate), max_size=3), min_size=2, max_size=4
)


class TestRowPrefilter:
    DEMOS = {
        # rule -> per-rank op tables (docs/DIAGNOSTICS.md's triggers)
        "PPM201": [[("write", 0, 1.0)], [("write", 0, 2.0)]],
        "PPM202": [[("write", 1, 5.0)], [("add", np.array([1]), 2.0)]],
        "PPM203": [[("write", slice(0, 3), 7.0)], [("write", 2, 7.0)]],
    }

    @pytest.mark.parametrize("rule", sorted(DEMOS))
    def test_demos_classify_identically(self, rule):
        found = _diagnostics(self.DEMOS[rule], (_ROWS, 2), bypass=False)
        assert rules_of(found) == [rule]
        assert found == _diagnostics(self.DEMOS[rule], (_ROWS, 2), bypass=True)

    def test_disjoint_writers_are_filtered_before_classification(self, monkeypatch):
        """Chunked slice writes and a strided/fancy pair with disjoint
        rows: no finding, and the element-exact path is never entered."""
        monkeypatch.setattr(
            sanitizer_module.PhaseSanitizer,
            "_split_ww",
            lambda *a: pytest.fail("classified a row-disjoint group"),
        )
        chunks = [[("write", slice(2 * r, 2 * r + 2), 1.0)] for r in range(4)]
        mixed = [[("write", slice(None, None, 2), 1.0)], [("add", np.array([1, 3, 3]), 1.0)]]
        for table in (chunks, mixed):
            assert _diagnostics(table, (_ROWS, 2), bypass=False) == []

    @given(_tables)
    @settings(deadline=None, max_examples=60)
    def test_random_mixes_classify_identically(self, table):
        fast = _diagnostics(table, (_ROWS, 2), bypass=False)
        exact = _diagnostics(table, (_ROWS, 2), bypass=True)
        assert [
            (d.rule, d.severity, d.rows, d.ranks, d.variable, d.message) for d in fast
        ] == [(d.rule, d.severity, d.rows, d.ranks, d.variable, d.message) for d in exact]


# ======================================================================
# The verdict of a repeated phase shape
# ======================================================================
#: Per round, the value each of two VPs writes to the one shared row:
#: the same shape three times, benign, then conflicting, then benign.
_ROUND_VALUES = [(7.0, 7.0), (1.0, 2.0), (7.0, 7.0)]


@ppm_function
def _overlap_kernel(ctx, X):
    for values in _ROUND_VALUES:
        yield ctx.global_phase
        X[0] = values[ctx.global_rank]


@ppm_function
def _chunk_kernel(ctx, X, Y, rounds):
    """Row-disjoint chunk writes, alternating between two variables:
    two phase shapes, each repeated ``rounds / 2`` times."""
    lo = 2 * ctx.global_rank
    for round_no in range(rounds):
        yield ctx.global_phase
        (X, Y)[round_no % 2][lo : lo + 2] = float(round_no)


class TestRepeatedShapes:
    @staticmethod
    def _overlap_main(ppm):
        X = ppm.global_shared("x", 4, fill=-1.0)
        TestRepeatedShapes.handle = X
        ppm.do(2, _overlap_kernel, X)

    def test_overlapping_shape_is_classified_every_round(self):
        """Whether an overlap is benign depends on the values, which
        the shape's signature does not hold: no verdict is reused."""
        cluster = Cluster(mkconfig(n_nodes=1, cores_per_node=2))
        ppm, _ = run_ppm(self._overlap_main, cluster, sanitize="warn")
        rt = ppm.runtime
        assert (rt.stats_phase_plan_hits, rt.stats_phase_plan_misses) == (2, 1)
        assert [(d.rule, d.phase_index) for d in ppm.diagnostics] == [
            ("PPM203", 0), ("PPM201", 1), ("PPM203", 2),
        ]
        assert rt.sanitizer.phases_checked == rt.sanitizer.phases_flagged == 3

    def test_strict_raises_at_the_conflicting_repeat_before_its_commit(self):
        cluster = Cluster(mkconfig(n_nodes=1, cores_per_node=2))
        with pytest.raises(PhaseConflictError) as exc_info:
            run_ppm(self._overlap_main, cluster, sanitize="strict")
        errors = [d for d in exc_info.value.diagnostics if d.severity == "error"]
        assert [(d.rule, d.phase_index) for d in errors] == [("PPM201", 1)]
        # Round 0 committed, round 1 did not.
        assert self.handle.committed[0] == 7.0

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_disjoint_shape_is_classified_once(self, monkeypatch, executor):
        """Who writes which rows is all of the signature, so a shape
        found row-disjoint stays so; every phase still counts as
        checked.  The process executor ships its records to the same
        check (a sanitized ``do`` never commits worker-side)."""
        groups = []
        real = PhaseSanitizer._check_group

        def spying(self, evs, phase_index, phase_kind):
            groups.append((phase_index, evs[0].shared.name))
            return real(self, evs, phase_index, phase_kind)

        monkeypatch.setattr(PhaseSanitizer, "_check_group", spying)

        def main(ppm):
            X = ppm.global_shared("x", 8)
            Y = ppm.global_shared("y", 8)
            ppm.do(2, _chunk_kernel, X, Y, 6)
            return X.committed.copy(), Y.committed.copy()

        opts = {"executor": "process", "workers": 2} if executor == "process" else {}
        ppm, (x, y) = run_ppm(
            main, Cluster(mkconfig(n_nodes=2, cores_per_node=2)), sanitize="warn", **opts
        )
        assert groups == [(0, "x"), (1, "y")]
        assert ppm.runtime.sanitizer.phases_checked == 6
        assert ppm.diagnostics == []
        assert x.tolist() == [4.0] * 8 and y.tolist() == [5.0] * 8


# ======================================================================
# The shipped apps stay clean under the sanitizer
# ======================================================================
class TestAppsClean:
    def test_ppm_cg_has_no_conflicts(self, franklin4):
        from repro.apps.cg import build_chimney_problem, ppm_cg_solve

        problem = build_chimney_problem(4)  # 4x4x8 = 128 rows
        import repro.apps.cg.ppm_cg as mod

        orig = mod.run_ppm
        seen = []

        def wrapped(main, cluster, *args, **kwargs):
            kwargs["sanitize"] = "warn"
            ppm, result = orig(main, cluster, *args, **kwargs)
            seen.extend(ppm.diagnostics)
            return ppm, result

        mod.run_ppm = wrapped
        try:
            result, _ = ppm_cg_solve(problem, franklin4, max_iters=30)
        finally:
            mod.run_ppm = orig
        assert result.converged
        assert [d for d in seen if d.severity == "error"] == []
