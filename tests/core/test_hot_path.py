"""The hot path is an optimisation, not a semantics change.

The runtime has one engine: zero-copy snapshot reads, memoised access
records and a batched, plan-cached commit.  What it must compute is
fixed by docs/SEMANTICS.md, and ``tests/reference.py`` is that rule
written one operation at a time on a plain numpy array.  The
hypothesis tests below throw randomly generated conflicting
write/accumulate streams at the engine and require the committed bytes
to equal the oracle's, and require a memoised access record (which
carries the simulated per-access cost) to equal a freshly computed
one.  The rest of the module pins down the zero-copy view semantics,
numpy-integer VP counts and ``close()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.core.program import PpmProgram
from repro.machine import Cluster
from tests.reference import commit_oracle

N = 24  # rows of the shared array the generated programs target
VPS = 4  # 2 nodes x 2 VPs


def _cluster(n_nodes=2, cores=2, **cfg):
    return Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=cores, **cfg))


# ----------------------------------------------------------------------
# Generated conflicting operation streams
# ----------------------------------------------------------------------

_rows_fancy = st.lists(
    st.integers(0, N - 1), min_size=1, max_size=8
).map(lambda xs: np.array(xs, dtype=np.int64))
_rows_slice = st.tuples(st.integers(0, N - 1), st.integers(1, 8)).map(
    lambda t: slice(t[0], min(N, t[0] + t[1]))
)
_values = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@st.composite
def _one_op(draw):
    kind = draw(st.sampled_from(["write", "write", "accumulate"]))
    if draw(st.booleans()):
        rows = draw(_rows_fancy)
        count = rows.size
    else:
        rows = draw(_rows_slice)
        count = rows.stop - rows.start
    scalar = draw(st.booleans())
    if scalar:
        vals = draw(_values)
    else:
        vals = np.array(draw(st.lists(_values, min_size=count, max_size=count)))
    op = draw(st.sampled_from(["add", "maximum", "minimum", "multiply"]))
    return (kind, rows, vals, op)


_programs = st.lists(
    st.lists(_one_op(), max_size=6), min_size=VPS, max_size=VPS
)


@ppm_function
def _apply_ops(ctx, xs, per_vp):
    yield ctx.global_phase
    for kind, rows, vals, op in per_vp[ctx.global_rank]:
        if kind == "write":
            xs[rows] = vals
        else:
            xs.accumulate(rows, vals, op=op)
    yield ctx.global_phase  # commit, then read everything back
    xs[:]


def _run(shared_kind: str, per_vp) -> np.ndarray:
    def main(ppm):
        if shared_kind == "global":
            xs = ppm.global_shared("x", N)
        else:
            xs = ppm.node_shared("x", N)
        ppm.do(2, _apply_ops, xs, per_vp)
        if shared_kind == "global":
            return xs.committed.copy()
        return np.concatenate([np.asarray(xs.instance(i)) for i in range(2)])

    return run_ppm(main, _cluster())[1]


class TestCommitMatchesOracle:
    @settings(max_examples=30, deadline=None)
    @given(per_vp=_programs)
    def test_global_shared_commit_bitwise_equal(self, per_vp):
        want = commit_oracle(np.zeros(N), per_vp)
        assert _run("global", per_vp).tobytes() == want.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(per_vp=_programs)
    def test_node_shared_commit_bitwise_equal(self, per_vp):
        # One instance per node, written by that node's two VPs only.
        want = np.concatenate(
            [commit_oracle(np.zeros(N), per_vp[2 * i : 2 * i + 2]) for i in range(2)]
        )
        assert _run("node", per_vp).tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Memoised access records
# ----------------------------------------------------------------------

COLS = 3  # trailing axis of the 2-D array the index strategies target

_steps = st.sampled_from([None, 1, 2, -1, -3])
_idx_slice = st.builds(
    slice,
    st.none() | st.integers(-N, N),
    st.none() | st.integers(-N, N),
    _steps,
)
_idx_int = st.integers(-N, N - 1)
_idx_fancy = st.lists(st.integers(-N, N - 1), max_size=8).map(
    lambda xs: np.array(xs, dtype=np.int64)
)
_idx_col = st.integers(0, COLS - 1) | st.just(slice(None)) | st.just(slice(1, COLS))
_idx_tuple = st.tuples(_idx_slice | _idx_int | _idx_fancy, _idx_col)
_indices = _idx_slice | _idx_int | _idx_fancy | _idx_tuple


def _record_key(rec):
    rows, n_elem, rows_exact, _view_kind, cost = rec
    return (rows.materialize().tolist(), n_elem, rows_exact, cost)


class TestAccessRecordMemo:
    """A warm ``_access_record`` must equal a cold one: the memo may
    save the normalisation work, never change the rows bundling sees or
    the simulated cost the VP is charged."""

    @pytest.mark.parametrize("kind", ["global", "node"])
    @settings(max_examples=60, deadline=None)
    @given(indices=st.lists(_indices, min_size=1, max_size=6))
    def test_warm_record_equals_cold_record(self, kind, indices):
        with PpmProgram(_cluster()) as ppm:
            if kind == "global":
                xs = ppm.global_shared("x", (N, COLS))
                data = xs._data
            else:
                xs = ppm.node_shared("x", (N, COLS))
                data = xs._data[0]
            first = [xs._access_record(idx, data) for idx in indices]
            warm = [xs._access_record(idx, data) for idx in indices]
            for idx, a, b in zip(indices, first, warm):
                if type(idx) is not tuple:  # slice / int / index array: memoised
                    assert a is b
            cold = []
            for idx in indices:
                xs._drop_caches()
                cold.append(xs._access_record(idx, data))
            assert [_record_key(r) for r in warm] == [_record_key(r) for r in cold]


# ----------------------------------------------------------------------
# Zero-copy view semantics
# ----------------------------------------------------------------------

class TestZeroCopyViews:
    def test_basic_index_reads_are_readonly_views(self):
        seen = {}

        @ppm_function
        def probe(ctx, xs):
            yield ctx.global_phase
            chunk = xs[0:4]
            seen["writeable"] = chunk.flags.writeable
            seen["owns"] = chunk.base is not None
            with pytest.raises(ValueError):
                chunk[0] = 99.0

        def main(ppm):
            xs = ppm.global_shared("x", 8)
            xs[:] = np.arange(8.0)
            ppm.do(1, probe, xs)

        run_ppm(main, _cluster(n_nodes=1, cores=1))
        assert seen["writeable"] is False
        assert seen["owns"] is True  # a view, not a fresh copy

    def test_view_across_barrier_keeps_phase_start_values(self):
        """Copy-on-commit: a view taken in phase k still shows phase
        k's snapshot after the barrier commits new values."""
        seen = {}

        @ppm_function
        def hold(ctx, xs):
            yield ctx.global_phase
            before = xs[0:4]
            xs[0:4] = np.full(4, 7.0)
            yield ctx.global_phase
            seen["held"] = np.asarray(before).copy()
            seen["fresh"] = np.asarray(xs[0:4]).copy()

        def main(ppm):
            xs = ppm.global_shared("x", 8)
            xs[:] = np.arange(8.0)
            ppm.do(1, hold, xs)

        run_ppm(main, _cluster(n_nodes=1, cores=1))
        np.testing.assert_array_equal(seen["held"], np.arange(4.0))
        np.testing.assert_array_equal(seen["fresh"], np.full(4, 7.0))


# ----------------------------------------------------------------------
# Regressions fixed alongside the overhaul
# ----------------------------------------------------------------------

class TestNumpyIntVpCounts:
    def test_do_accepts_numpy_integer_counts(self):
        """np.int64 VP counts used to fall into the per-node-sequence
        branch and die with a length error."""
        ran = []

        @ppm_function
        def touch(ctx):
            yield ctx.global_phase
            ran.append(ctx.global_rank)

        def main(ppm):
            ppm.do(np.int64(2), touch)

        run_ppm(main, _cluster())
        assert sorted(ran) == [0, 1, 2, 3]

    def test_negative_numpy_count_still_rejected(self):
        def main(ppm):
            ppm.do(np.int64(-1), lambda ctx: None)

        with pytest.raises(ValueError):
            run_ppm(main, _cluster())


@ppm_function
def _read_all(ctx, xs):
    yield ctx.global_phase
    xs[:]


class TestRuntimeClose:
    """``close()`` releases what the runtime holds.  Under the inline
    executor that is the shared variables' memoised access records
    (tests/parallel/test_teardown.py covers the process executor's
    pool and segments)."""

    def test_close_is_idempotent_and_do_after_close_works(self):
        ppm = PpmProgram(_cluster())
        xs = ppm.global_shared("x", 8)
        ppm.do(2, _read_all, xs)
        ppm.close()
        ppm.close()
        assert not xs._access_cache
        ppm.do(2, _read_all, xs)  # a closed runtime keeps working
        assert xs._access_cache
        ppm.close()

    def test_context_manager_closes(self):
        with PpmProgram(_cluster()) as ppm:
            xs = ppm.global_shared("x", 8)
            ppm.do(2, _read_all, xs)
            assert xs._access_cache
        assert not xs._access_cache

    def test_run_ppm_closes_on_keyboard_interrupt(self):
        held = {}

        @ppm_function
        def interrupted(ctx, xs):
            yield ctx.global_phase
            xs[:]
            raise KeyboardInterrupt

        def main(ppm):
            held["xs"] = xs = ppm.global_shared("x", 8)
            ppm.do(2, interrupted, xs)

        with pytest.raises(KeyboardInterrupt):
            run_ppm(main, _cluster())
        assert not held["xs"]._access_cache
