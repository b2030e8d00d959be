"""The hot path is an optimisation, not a semantics change.

The runtime has one engine: zero-copy snapshot reads, memoised access
records and a batched, plan-cached commit.  What it must compute is
fixed by docs/SEMANTICS.md, and ``tests/reference.py`` is that rule
written one operation at a time on a plain numpy array.  The
hypothesis tests below throw randomly generated conflicting
write/accumulate streams at the engine and require the committed bytes
to equal the oracle's, and require a memoised access record (which
carries the simulated per-access cost) to equal a freshly computed
one, and a read that goes into a row log (a view index array, a mask,
a tuple index) to read, cost and bundle like a memoised one.  The rest of the module pins down the zero-copy view semantics,
numpy-integer VP counts and ``close()``.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.core.bundling import aggregate_traffic
from repro.core.phase import CommitPlanCache
from repro.core.program import PpmProgram
from repro.core.shared import RowSpec, WriteEvent
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
_sightings = st.sampled_from([1, 2, 3])  # rounds repeating one stream


@ppm_function
def _apply_ops(ctx, xs, per_vp, repeat):
    for _ in range(repeat):  # one sighting of the same stream per round
        yield ctx.global_phase
        for kind, rows, vals, op in per_vp[ctx.global_rank]:
            if kind == "write":
                xs[rows] = vals
            else:
                xs.accumulate(rows, vals, op=op)
    yield ctx.global_phase  # commit, then read everything back
    xs[:]


def _run(shared_kind: str, per_vp, repeat: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Committed bytes and the commit-plan ``(hits, misses)``."""

    def main(ppm):
        if shared_kind == "global":
            xs = ppm.global_shared("x", N)
        else:
            xs = ppm.node_shared("x", N)
        ppm.do(2, _apply_ops, xs, per_vp, repeat)
        if shared_kind == "global":
            return xs.committed.copy()
        return np.concatenate([np.asarray(xs.instance(i)) for i in range(2)])

    ppm, out = run_ppm(main, _cluster())
    return out, ppm.runtime.commit_plans.stats()


def _oracle(per_vp, repeat: int) -> np.ndarray:
    arr = np.zeros(N)
    for _ in range(repeat):
        arr = commit_oracle(arr, per_vp)
    return arr


class TestCommitMatchesOracle:
    """A stream's first sighting replays op by op, its second compiles
    the batched runs and its third reuses them: every one must commit
    the oracle's bytes, and only the first counts as a plan miss."""

    @settings(max_examples=30, deadline=None)
    @given(per_vp=_programs, repeat=_sightings)
    def test_global_shared_commit_bitwise_equal(self, per_vp, repeat):
        got, stats = _run("global", per_vp, repeat)
        assert got.tobytes() == _oracle(per_vp, repeat).tobytes()
        targets = int(any(per_vp))
        assert stats == ((repeat - 1) * targets, targets)

    @settings(max_examples=15, deadline=None)
    @given(per_vp=_programs, repeat=_sightings)
    def test_node_shared_commit_bitwise_equal(self, per_vp, repeat):
        # One instance per node, written by that node's two VPs only.
        nodes = [per_vp[2 * i : 2 * i + 2] for i in range(2)]
        want = np.concatenate([_oracle(ops, repeat) for ops in nodes])
        got, stats = _run("node", per_vp, repeat)
        assert got.tobytes() == want.tobytes()
        targets = sum(any(ops) for ops in nodes)
        assert stats == ((repeat - 1) * targets, targets)


@ppm_function
def _scatter_rounds(ctx, targets, refs, rounds=1):
    """Per target, ``rounds`` accumulate rounds through one index array
    the VP computes there; ``refs`` collects weak references to the
    row arrays of the footprints the runtime recorded (a footprint owns
    its array, so a dead array means a dead footprint)."""
    for xs in targets:
        idx = (np.arange(8) * 3 + ctx.global_rank) % N
        for _ in range(rounds):
            yield ctx.global_phase
            xs.accumulate(idx, 1.0)
            refs.append(weakref.ref(xs.runtime.phase.writes[-1].array))
        del idx
    yield ctx.global_phase


class TestCommitPlanRetention:
    """The commit plan cache keeps serials, not footprints, and compiles
    nothing for a stream it has seen once."""

    def test_first_sighting_does_not_concatenate(self):
        class Var:
            name = "x"

        idxs = [np.random.default_rng(r).integers(0, 4096, 1024) for r in range(64)]
        evs = [
            WriteEvent(Var, None, "accumulate", "add", idx, np.ones(idx.size),
                       RowSpec.from_array(idx), rank, True)
            for rank, idx in enumerate(idxs)
        ]
        target, plans = np.zeros(4096), CommitPlanCache()
        tracemalloc.start()
        try:
            plans.apply(target, evs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(idx.nbytes for idx in idxs)
        assert plans.stats() == (0, 1)
        want = commit_oracle(
            np.zeros(4096), [[("accumulate", idx, np.ones(idx.size), "add")] for idx in idxs]
        )
        assert target.tobytes() == want.tobytes()

    def test_committed_specs_die_with_their_round(self):
        refs = []

        def main(ppm):
            targets = [ppm.global_shared("x", N), ppm.global_shared("y", N)]
            ppm.do(2, _scatter_rounds, targets, refs)
            gc.collect()  # before close(): only the plan cache could hold them
            return [array() is not None for array in refs]

        _, alive = run_ppm(main, _cluster())
        assert alive == [False] * 8


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


def _read_index(form: str, rows: list, two_d: bool):
    """``rows`` as an index of the given form: an owned array (kept by
    the memo), a view of one, a tuple index or a boolean mask (logged)."""
    owned = np.array(rows, dtype=np.int64)
    if two_d:
        owned = owned.reshape(2, -1)
    if form == "owned":
        return owned
    if form == "view":
        return owned[...]
    if form == "tuple":
        return (owned, slice(None))
    mask = np.zeros(N, dtype=bool)
    mask[owned] = True
    return mask


def _read_phase(kind: str, form: str, rows: list, two_d: bool) -> tuple:
    """One VP of a two-node cluster reads ``rows`` of an ``(N, COLS)``
    shared array through ``form`` in one phase: the value's bytes, the
    VP cost charged for the read, and the phase's traffic and flush
    rows."""
    seen = []

    @ppm_function
    def kernel(ctx, X):
        idx = _read_index(form, rows, two_d)
        yield ctx.global_phase
        before = ctx._cost
        value = X[idx]
        seen.append((value.tobytes(), ctx._cost - before, ctx.runtime.phase))

    def main(ppm):
        if kind == "global":
            X = ppm.global_shared("x", (N, COLS))
            X[:] = np.arange(N * COLS).reshape(N, COLS)
        else:
            X = ppm.node_shared("x", (N, COLS))
            X.instance(0)[:] = np.arange(N * COLS).reshape(N, COLS)
        ppm.do([1, 0], kernel, X)

    run_ppm(main, _cluster())
    ((value, cost, recorder),) = seen
    traffic = aggregate_traffic(recorder)
    nodes = {
        node: (nt.local_read_elems, [(p.owner, p.read_elems) for p in nt.peers])
        for node, nt in traffic.items()
    }
    return value, cost, nodes, traffic.flushes


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



    @pytest.mark.parametrize("kind", ["global", "node"])
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.integers(-N, N - 1), max_size=8), two_d=st.booleans())
    def test_view_index_read_equals_memoised_record(self, kind, rows, two_d):
        """A read the memo does not keep goes into its node's row log;
        the same rows read through a view, a boolean mask, a tuple index
        or an owned (memoised) array must give the same value, charge
        the VP the same cost and bundle into the same traffic and flush
        rows."""
        two_d = two_d and len(rows) % 2 == 0
        forms = ["view", "tuple"]
        wrapped = [r % N for r in rows]
        if not two_d and wrapped == sorted(set(wrapped)):
            forms.append("mask")  # a mask selects ascending unique rows
        want = _read_phase(kind, "owned", rows, two_d)
        for form in forms:
            assert _read_phase(kind, form, rows, two_d) == want, form


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

    def test_run_ppm_drops_the_last_rounds_footprints(self):
        refs = []

        def main(ppm):
            ppm.do(2, _scatter_rounds, [ppm.global_shared("x", N)], refs, 2)

        ppm, _ = run_ppm(main, _cluster())
        gc.collect()
        assert [array() is not None for array in refs[-4:]] == [False] * 4
        assert not ppm.runtime.commit_plans._plans
        assert ppm.runtime.commit_plans.stats() == (1, 1)  # counters survive close()
