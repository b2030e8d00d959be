"""Phase plans: a repeated phase shape replays its bundling, costs and
commit recipe — and nothing observable may tell a replay from a fresh
inspection.

The property test runs hypothesis-generated multi-phase kernels twice,
once normally and once with the plan lookup forced to miss every round,
and demands bitwise-equal committed arrays, simulated times, per-node
phase timings, cluster traffic totals and (traced) event streams; the
committed arrays must also equal ``tests/reference.py``.  The named
cases pin which near-identical phases must *not* share a plan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.cg import build_chimney_problem, ppm_cg_solve
from repro.apps.graph import hashed_graph, ppm_bfs, serial_bfs
from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.core import runtime as runtime_module
from repro.core.runtime import PpmRuntime
from repro.machine import Cluster
from repro.obs.events import PhaseTrace
from tests.reference import commit_oracle

ROWS, COLS = 12, 2
N_NODES, VPS_PER_NODE = 2, 2
N_VPS = N_NODES * VPS_PER_NODE
OPS = ["add", "subtract", "multiply", "minimum", "maximum"]


def always_miss(monkeypatch):
    monkeypatch.setattr(PpmRuntime, "_lookup_plan", lambda self, signature: None)


# ----------------------------------------------------------------------
# Generated programs
# ----------------------------------------------------------------------
# A program is a few phase *templates* (per VP, a list of accesses with
# their index objects created once, so an id-keyed index array repeats
# by identity) and a schedule replaying them with fresh values; VPs may
# stop early and the latency hint may change between repeats.

_rows = st.integers(-ROWS, ROWS - 1)
_bound = st.none() | st.integers(-ROWS, ROWS)
_cached = st.one_of(  # slice / int / index array: memoised access records
    st.builds(slice, _bound, _bound, st.sampled_from([None, 1, 2, -1])),
    _rows,
    st.lists(_rows, min_size=1, max_size=5).map(lambda r: np.array(r, dtype=np.int64)),
)
_uncached = st.one_of(  # tuple / boolean mask: a fresh record every access
    st.tuples(st.lists(_rows, min_size=1, max_size=4).map(np.array), st.integers(0, COLS - 1)),
    st.tuples(st.builds(slice, _bound, _bound), st.integers(0, COLS - 1)),
    st.lists(st.booleans(), min_size=ROWS, max_size=ROWS).map(np.array),
)


@st.composite
def _index(draw, cached_only: bool):
    if cached_only or draw(st.integers(0, 3)):
        return draw(_cached)
    return draw(_uncached)


@st.composite
def access(draw, kind: str, cached_only: bool):
    what = draw(st.sampled_from(["read", "write", "accumulate"]))
    if kind == "node":
        var = "g0" if what == "read" and draw(st.booleans()) else "n0"
    else:
        var = draw(st.sampled_from(["g0", "g1", "n0"]))
    return (what, var, draw(_index(cached_only)), draw(st.sampled_from(OPS)))


@st.composite
def program(draw):
    templates = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["global", "global", "node"]))
        # Half the templates can repeat (memoised records only).
        ops = st.lists(access(kind, draw(st.booleans())), max_size=3)
        per_vp = [draw(ops) for _ in range(N_VPS)]
        templates.append((kind, per_vp))
    schedule = draw(
        st.lists(
            st.tuples(st.integers(0, len(templates) - 1), st.sampled_from([1, 1, 1, 3])),
            min_size=2,
            max_size=7,
        )
    )
    stop = st.sampled_from([None] * 5 + list(range(1, len(schedule) + 1)))
    stops = [draw(stop) for _ in range(N_VPS)]
    return templates, schedule, stops, draw(st.booleans())


def _value(round_no: int, rank: int, k: int, shape) -> np.ndarray:
    base = float(1 + (7 * round_no + 3 * rank + k) % 5)
    return base + np.arange(int(np.prod(shape)), dtype=float).reshape(shape) / 8.0


def _interpret(ctx, prog, shared, reverse):
    templates, schedule, stops, _ = prog
    rank = ctx.global_rank
    for round_no, (t, latency) in enumerate(schedule):
        if stops[rank] is not None and round_no >= stops[rank]:
            return
        kind, per_vp = templates[t]
        yield ctx.phase(kind, latency_rounds=latency)
        ops = per_vp[rank][::-1] if reverse else per_vp[rank]
        for k, (what, var, idx, op) in enumerate(ops):
            X = shared[var]
            if what == "read":
                X[idx]
                continue
            shape = np.empty((ROWS, COLS))[idx].shape
            if what == "write":
                X[idx] = _value(round_no, rank, k, shape)
            else:
                X.accumulate(idx, _value(round_no, rank, k, shape), op)


@ppm_function
def forward_kernel(ctx, prog, shared):
    yield from _interpret(ctx, prog, shared, False)


@ppm_function
def reversed_kernel(ctx, prog, shared):
    yield from _interpret(ctx, prog, shared, True)


def _run(prog, *, traced: bool):
    def main(ppm):
        shared = {
            "g0": ppm.global_shared("g0", (ROWS, COLS)),
            "g1": ppm.global_shared("g1", (ROWS, COLS)),
            "n0": ppm.node_shared("n0", (ROWS, COLS)),
        }
        for X in (shared["g0"], shared["g1"]):
            X[:] = np.arange(ROWS * COLS, dtype=float).reshape(ROWS, COLS)
        funcs = [forward_kernel, reversed_kernel] if prog[3] else forward_kernel
        ppm.do(VPS_PER_NODE, funcs, prog, shared)
        arrays = [shared["g0"].committed, shared["g1"].committed]
        arrays += [shared["n0"].instance(n).copy() for n in range(N_NODES)]
        return arrays

    trace = PhaseTrace() if traced else None
    cluster = Cluster(mkconfig(n_nodes=N_NODES, cores_per_node=2))
    ppm, arrays = run_ppm(main, cluster, trace=trace)
    rt = ppm.runtime
    return {
        "arrays": [a.tobytes() for a in arrays],
        "elapsed": ppm.elapsed,
        "timings": [(p.kind, p.latency_rounds, p.t_end, p.node_timings) for p in ppm.profile],
        "traffic": (cluster.trace.total_messages(), cluster.trace.total_bytes()),
        "events": None if trace is None else list(trace.events),
        "plans": (rt.stats_phase_plan_hits, rt.stats_phase_plan_misses),
        "phases": len(ppm.profile),
    }, arrays


def _oracle(prog) -> list[np.ndarray]:
    """The committed arrays by the one-op-at-a-time reference: every
    phase commits each target's operations in (rank, program order)."""
    templates, schedule, stops, per_node = prog
    init = np.arange(ROWS * COLS, dtype=float).reshape(ROWS, COLS)
    state = {("g0", None): init.copy(), ("g1", None): init.copy()}
    for n in range(N_NODES):
        state[("n0", n)] = np.zeros((ROWS, COLS))
    for round_no, (t, _latency) in enumerate(schedule):
        per_target = {key: [[] for _ in range(N_VPS)] for key in state}
        for rank in range(N_VPS):
            if stops[rank] is not None and round_no >= stops[rank]:
                continue
            node = rank // VPS_PER_NODE
            ops = templates[t][1][rank]
            if per_node and node == 1:
                ops = ops[::-1]
            for k, (what, var, idx, op) in enumerate(ops):
                if what == "read":
                    continue
                value = _value(round_no, rank, k, init[idx].shape)
                key = (var, node if var == "n0" else None)
                per_target[key][rank].append((what, idx, value, op))
        for key, per_vp_ops in per_target.items():
            state[key] = commit_oracle(state[key], per_vp_ops)
    return [state[("g0", None)], state[("g1", None)]] + [
        state[("n0", n)] for n in range(N_NODES)
    ]


class TestReplayIsInvisible:
    @settings(max_examples=40, deadline=None)
    @given(prog=program())
    def test_plans_change_nothing_observable(self, prog):
        with pytest.MonkeyPatch.context() as mp:
            always_miss(mp)
            cold, _ = _run(prog, traced=False)
            cold_traced, _ = _run(prog, traced=True)
        warm, arrays = _run(prog, traced=False)
        warm_traced, _ = _run(prog, traced=True)
        assert cold["plans"][0] == 0 and cold["plans"][1] == cold["phases"]
        assert sum(warm["plans"]) == warm["phases"]
        for a, b in ((warm, cold), (warm_traced, cold_traced), (warm_traced, warm)):
            for key in ("arrays", "elapsed", "timings", "traffic"):
                assert a[key] == b[key], key
        assert warm_traced["events"] == cold_traced["events"]
        for got, want in zip(arrays, _oracle(prog)):
            assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Named near misses: phase pairs that look alike and must not share a
# plan (and one that must, while its values change shape).
# ----------------------------------------------------------------------
def _two_phases(first, second, *, vps=2, nodes=1):
    """Run ``first(ctx, X, Y)`` then ``second(ctx, X, Y)`` as two global
    phases; returns (hits, misses, X, Y committed)."""

    @ppm_function
    def kernel(ctx, X, Y):
        yield ctx.global_phase
        first(ctx, X, Y)
        if second is not None:
            yield ctx.global_phase
            second(ctx, X, Y)

    def main(ppm):
        X = ppm.global_shared("x", 8)
        Y = ppm.global_shared("y", 8)
        X[:] = np.arange(8.0)
        Y[:] = np.arange(8.0)
        ppm.do(vps, kernel, X, Y)
        return X.committed, Y.committed

    cluster = Cluster(mkconfig(n_nodes=nodes, cores_per_node=2))
    ppm, (x, y) = run_ppm(main, cluster)
    rt = ppm.runtime
    return rt.stats_phase_plan_hits, rt.stats_phase_plan_misses, x, y


ROWS_A = np.array([1, 3, 3])


class TestNearMisses:
    def test_identical_phases_share_a_plan(self):
        def body(ctx, X, Y):
            X[2 * ctx.global_rank : 2 * ctx.global_rank + 2] = 1.0 + Y[ROWS_A].sum()

        hits, misses, *_ = _two_phases(body, body)
        assert (hits, misses) == (1, 1)

    def test_different_accumulate_op_misses(self):
        hits, misses, x, _ = _two_phases(
            lambda ctx, X, Y: X.accumulate(ROWS_A, 2.0, "add"),
            lambda ctx, X, Y: X.accumulate(ROWS_A, 2.0, "maximum"),
        )
        assert (hits, misses) == (0, 2)
        assert x.tolist() == [0.0, 5.0, 2.0, 11.0, 4.0, 5.0, 6.0, 7.0]

    def test_write_accumulate_swap_misses(self):
        hits, misses, x, _ = _two_phases(
            lambda ctx, X, Y: X.accumulate(ROWS_A, 1.0, "add"),
            lambda ctx, X, Y: X.__setitem__(ROWS_A, 1.0),
            vps=1,
        )
        assert (hits, misses) == (0, 2)
        assert x[1] == 1.0 and x[3] == 1.0

    def test_same_slice_of_another_variable_misses(self):
        hits, misses, x, y = _two_phases(
            lambda ctx, X, Y: X.__setitem__(slice(0, 4), 9.0),
            lambda ctx, X, Y: Y.__setitem__(slice(0, 4), 9.0),
            vps=1,
        )
        assert (hits, misses) == (0, 2)
        assert x[:4].tolist() == y[:4].tolist() == [9.0] * 4

    def test_same_write_by_another_vp_misses(self):
        def by(rank):
            def body(ctx, X, Y):
                if ctx.global_rank == rank:
                    X[0:4] = float(rank + 1)
            return body

        hits, misses, x, _ = _two_phases(by(0), by(1))
        assert (hits, misses) == (0, 2)
        assert x[:4].tolist() == [2.0] * 4

    def test_same_read_from_another_node_misses(self):
        def by(rank):
            def body(ctx, X, Y):
                if ctx.global_rank == rank:
                    X[0:8]
            return body

        hits, misses, *_ = _two_phases(by(0), by(3), vps=2, nodes=2)
        assert (hits, misses) == (0, 2)

    def test_as_many_reads_of_other_rows_miss(self):
        hits, misses, *_ = _two_phases(
            lambda ctx, X, Y: X[0:2], lambda ctx, X, Y: X[6:8], vps=1, nodes=2
        )
        assert (hits, misses) == (0, 2)

    def test_same_sized_node_shared_scatter_to_other_rows_misses(self):
        """Node-shared writes reach the signature only through their
        operations; a stale batched plan here would scatter round two's
        values to round one's rows."""
        rows = [[np.array([0, 1]), np.array([1, 2])], [np.array([4, 5]), np.array([5, 6])]]

        @ppm_function
        def kernel(ctx, N):
            for round_no in range(2):
                yield ctx.node_phase
                N[rows[round_no][ctx.node_rank]] = 10.0 * (round_no + 1) + ctx.node_rank

        def main(ppm):
            N = ppm.node_shared("n", 8)
            ppm.do(2, kernel, N)
            return N.instance(0).copy()

        ppm, n = run_ppm(main, Cluster(mkconfig(n_nodes=1, cores_per_node=2)))
        rt = ppm.runtime
        assert (rt.stats_phase_plan_hits, rt.stats_phase_plan_misses) == (0, 2)
        assert n.tolist() == [10.0, 11.0, 11.0, 0.0, 20.0, 21.0, 21.0, 0.0]

    def test_one_vp_finished_misses(self):
        @ppm_function
        def kernel(ctx, X):
            for round_no in range(3):
                yield ctx.global_phase
                X[4 * ctx.global_rank : 4 * ctx.global_rank + 4] = float(round_no)
                if ctx.global_rank == 1 and round_no == 1:
                    return

        def main(ppm):
            X = ppm.global_shared("x", 8)
            ppm.do(2, kernel, X)
            return X.committed

        ppm, x = run_ppm(main, Cluster(mkconfig(n_nodes=1, cores_per_node=2)))
        rt = ppm.runtime
        # rounds 0 and 1 share a plan; round 2 runs without VP 1.
        assert (rt.stats_phase_plan_hits, rt.stats_phase_plan_misses) == (1, 2)
        assert x.tolist() == [2.0] * 4 + [1.0] * 4

    def test_value_that_stops_broadcasting_replays_per_op(self, monkeypatch):
        """The signature holds no values: the second round hits, its
        batched write run finds a value it cannot stack, and falls
        back to per-op replay — same bits as a fresh inspection."""
        rows = [np.array([0, 2, 4]), np.array([4, 6, 7])]

        def body(shape):
            def run(ctx, X, Y):
                r = ctx.global_rank
                X[rows[r]] = np.array([1.0, 2.0, 3.0]).reshape(shape) + r
            return run

        warm = _two_phases(body((3,)), body((1, 3)))
        always_miss(monkeypatch)
        cold = _two_phases(body((3,)), body((1, 3)))
        assert warm[:2] == (1, 1) and cold[:2] == (0, 2)
        assert warm[2].tobytes() == cold[2].tobytes()
        assert warm[2].tolist() == [1.0, 1.0, 2.0, 3.0, 2.0, 5.0, 3.0, 4.0]


# ----------------------------------------------------------------------
# Counts: one inspection per distinct phase shape
# ----------------------------------------------------------------------
class TestInspectionCounts:
    def test_cg_inspects_each_phase_shape_once(self, monkeypatch):
        calls = []
        real = runtime_module.aggregate_traffic

        def counting(recorder, **kwargs):
            rt = seen["rt"]  # the index of the phase being inspected
            calls.append(rt.stats_global_phases + rt.stats_node_phases)
            return real(recorder, **kwargs)

        monkeypatch.setattr(runtime_module, "aggregate_traffic", counting)
        problem = build_chimney_problem(6)
        seen = {}
        real_do = PpmRuntime.do

        def spying_do(self, *args, **kwargs):
            seen["rt"] = self
            return real_do(self, *args, **kwargs)

        monkeypatch.setattr(PpmRuntime, "do", spying_do)
        ppm_cg_solve(
            problem, Cluster(mkconfig(n_nodes=4, cores_per_node=2)), max_iters=10, tol=0.0
        )
        rt = seen["rt"]
        phases = rt.stats_global_phases + rt.stats_node_phases
        assert phases == 31
        # Five shapes: the initial residual, matvec, update, direction
        # (first seen in iteration 1) and the closing statistics phase.
        assert calls == [0, 1, 2, 3, 30]
        assert rt.stats_phase_plan_misses == len(calls)
        assert rt.stats_phase_plan_hits + rt.stats_phase_plan_misses == phases
        assert rt.commit_plans.stats() == (35, 5)

    def test_bfs_never_repeats_a_shape(self, monkeypatch):
        seen = {}
        real_do = PpmRuntime.do

        def spying_do(self, *args, **kwargs):
            seen["rt"] = self
            return real_do(self, *args, **kwargs)

        monkeypatch.setattr(PpmRuntime, "do", spying_do)
        graph = hashed_graph(1500, degree=6, seed=3)
        dist, _ = ppm_bfs(graph, 0, Cluster(mkconfig(n_nodes=4, cores_per_node=2)))
        rt = seen["rt"]
        assert np.array_equal(dist, serial_bfs(graph, 0))
        assert rt.stats_phase_plan_hits == 0
        assert rt.stats_phase_plan_misses == rt.stats_global_phases > 0
