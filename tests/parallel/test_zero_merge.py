"""The certified zero-merge commit path of the process backend.

When a ``do``'s kernel carries a conflict-freedom certificate, workers
commit their shard's buffered operations directly into the shared
segments and reply with a fixed-size digest — no write-operation
records ever cross the pipe.  These tests pin down the contract:

* **byte count** — a certified CG run ships *zero* record bytes: every
  round holds, every commit group resolves ``local``, no reply carries
  an ``"ops"`` payload, and each commit reply pickles to a few hundred
  bytes regardless of problem size;
* **equivalence** — the three engines (inline, process zero-merge,
  process with record-replay forced by ``ship_records``) produce
  bitwise-identical arrays, identical simulated times and identical
  traces (modulo ``worker_span``/``zero_merge_commit`` interleaving),
  property-swept over seeds and worker counts on the Figure-1
  workloads;
* **digest verification** — with ``PPM_ZERO_MERGE_VERIFY`` set the
  parent recomputes every committed-rows checksum, and a mismatch
  raises;
* **plan cache** — the worker-side commit-plan cache converges to a
  high hit rate on iterative solvers;
* **segment swaps** — copy-on-commit moves a store to a fresh segment
  only while a worker still references a view of the old one: the
  reference-count primitive that tells, and exact swap counts.
"""

from __future__ import annotations

import pickle
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.cg import build_chimney_problem, ppm_cg_solve
from repro.apps.cg.ppm_cg import _cg_kernel
from repro.apps.common import split_range
from repro.apps.graph import hashed_graph, ppm_bfs
from repro.apps.multigrid import build_mg_problem, ppm_mg_solve
from repro.config import manycore, testing as mkconfig
from repro.core import run_ppm
from repro.machine import Cluster
from repro.obs import PhaseTrace, RunReport
from repro.parallel import SupervisionPolicy
from repro.parallel.pool import WorkerPool

SWEEP = settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _cg_cluster():
    return Cluster(manycore(n_nodes=4, cores_per_node=2))


def _zero_merge(trace):
    """The run's zero-merge aggregates (None when no group committed
    worker-side)."""
    return RunReport.from_trace(trace).zero_merge


@pytest.fixture
def captured_roundtrips(monkeypatch):
    """Record every pool round-trip as ``(tag, payload, replies)``."""
    captured = []
    real = WorkerPool.roundtrip

    def wrapped(self, tag, payload, *, per_worker=None):
        replies = real(self, tag, payload, per_worker=per_worker)
        captured.append((tag, payload, replies))
        return replies

    monkeypatch.setattr(WorkerPool, "roundtrip", wrapped)
    return captured


# ----------------------------------------------------------------------
# Byte count: certified CG ships no write-operation records
# ----------------------------------------------------------------------

class TestZeroRecordBytes:
    def test_certified_cg_ships_no_ops(self, captured_roundtrips, monkeypatch):
        # The digest is fixed-size on the default protocol; verified
        # replies (CI's tests/parallel run) add the committed rows.
        monkeypatch.delenv("PPM_ZERO_MERGE_VERIFY", raising=False)
        prob = build_chimney_problem(6, 6, 4, seed=7)
        trace = PhaseTrace()
        ppm_cg_solve(
            prob, _cg_cluster(), max_iters=6, trace=trace,
            executor="process", workers=2,
        )
        rounds = [c for c in captured_roundtrips if c[0] == "round"]
        commits = [c for c in captured_roundtrips if c[0] == "commit"]
        assert rounds and commits

        # Every round of the certified solve holds its operations
        # worker-side, and every commit group resolves to a local
        # (in-place) commit.
        assert all(p["mode"] == "hold" for _t, p, _r in rounds)
        assert all(
            decision == "local"
            for _t, p, _r in commits
            for _key, decision in p["groups"]
        )

        # Zero record bytes on the pipe: no reply anywhere carries an
        # operation stream.
        for _tag, _payload, replies in rounds:
            for rep in replies:
                if rep is None:
                    continue
                assert "ops" not in rep.get("report", {})
                for _node_id, report, _flags in rep.get("nodes", ()):
                    assert "ops" not in report
        for _tag, _payload, replies in commits:
            for rep in replies:
                if rep is None:
                    continue
                for _key, digest in rep["groups"]:
                    assert "ops" not in digest

        # The reply is a fixed-size digest: a few hundred bytes however
        # large the vectors are (record-shipping replies grow with the
        # operation count).
        sizes = [
            len(pickle.dumps(rep))
            for _t, _p, replies in commits
            for rep in replies
            if rep is not None
        ]
        assert max(sizes) < 512, max(sizes)

        # And work actually happened through the zero-merge path.
        stats = _zero_merge(trace)
        assert stats.commits > 0
        assert stats.ops > 0
        assert stats.bytes_avoided > 0

    def test_zero_merge_off_ships_ops(self, captured_roundtrips, ship_records):
        # A do that may not hold takes the record-shipping protocol.
        prob = build_chimney_problem(6, 6, 4, seed=7)
        with ship_records():
            ppm_cg_solve(
                prob, _cg_cluster(), max_iters=3, executor="process", workers=2
            )
        rounds = [c for c in captured_roundtrips if c[0] == "round"]
        commits = [c for c in captured_roundtrips if c[0] == "commit"]
        assert rounds and not commits
        assert all(p["mode"] == "ship" for _t, p, _r in rounds)
        assert any(
            "ops" in rep.get("report", {})
            for _t, _p, replies in rounds
            for rep in replies
            if rep is not None
        )


# ----------------------------------------------------------------------
# Three-engine equivalence
# ----------------------------------------------------------------------

class TestThreeEngineEquivalence:
    """Inline, process zero-merge and process record-replay must agree
    bitwise on arrays and exactly on simulated time."""

    @SWEEP
    @given(seed=st.integers(1, 50), workers=st.integers(2, 4))
    def test_cg(self, ship_records, seed, workers):
        prob = build_chimney_problem(6, 6, 4, seed=seed)
        r1, t1 = ppm_cg_solve(prob, _cg_cluster(), max_iters=8)
        r2, t2 = ppm_cg_solve(
            prob, _cg_cluster(), max_iters=8,
            executor="process", workers=workers,
        )
        with ship_records():
            r3, t3 = ppm_cg_solve(
                prob, _cg_cluster(), max_iters=8,
                executor="process", workers=workers,
            )
        assert t1 == t2 == t3
        np.testing.assert_array_equal(r1.x, r2.x)
        np.testing.assert_array_equal(r1.x, r3.x)

    @SWEEP
    @given(seed=st.integers(1, 50), workers=st.integers(2, 4))
    def test_bfs(self, ship_records, seed, workers):
        g = hashed_graph(128, degree=5, seed=seed)
        d1, t1 = ppm_bfs(g, 0, _cg_cluster())
        d2, t2 = ppm_bfs(
            g, 0, _cg_cluster(), executor="process", workers=workers
        )
        with ship_records():
            d3, t3 = ppm_bfs(
                g, 0, _cg_cluster(), executor="process", workers=workers
            )
        assert t1 == t2 == t3
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(d1, d3)

    @SWEEP
    @given(seed=st.integers(1, 50), workers=st.integers(2, 4))
    def test_multigrid(self, ship_records, seed, workers):
        prob = build_mg_problem(levels=3, seed=seed)
        cl = lambda: Cluster(mkconfig(n_nodes=2, cores_per_node=2))  # noqa: E731
        u1, t1 = ppm_mg_solve(prob, cl(), cycles=2)
        u2, t2 = ppm_mg_solve(
            prob, cl(), cycles=2, executor="process", workers=workers
        )
        with ship_records():
            u3, t3 = ppm_mg_solve(
                prob, cl(), cycles=2, executor="process", workers=workers
            )
        assert t1 == t2 == t3
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(u1, u3)

    def test_traces_identical_modulo_process_events(self, ship_records):
        prob = build_chimney_problem(6, 6, 4, seed=3)
        traces = [PhaseTrace() for _ in range(3)]
        ppm_cg_solve(prob, _cg_cluster(), max_iters=4, trace=traces[0])
        ppm_cg_solve(
            prob, _cg_cluster(), max_iters=4, trace=traces[1],
            executor="process", workers=2,
        )
        with ship_records():
            ppm_cg_solve(
                prob, _cg_cluster(), max_iters=4, trace=traces[2],
                executor="process", workers=2,
            )
        skip = ("worker_span", "zero_merge_commit")
        streams = [
            [e.to_dict() for e in tr.events if e.kind not in skip]
            for tr in traces
        ]
        assert streams[0] == streams[1] == streams[2]


# ----------------------------------------------------------------------
# Digest verification
# ----------------------------------------------------------------------

class TestDigestVerify:
    def test_verified_run_passes(self, monkeypatch):
        monkeypatch.setenv("PPM_ZERO_MERGE_VERIFY", "1")
        prob = build_chimney_problem(6, 6, 4, seed=11)
        r1, t1 = ppm_cg_solve(prob, _cg_cluster(), max_iters=6)
        trace = PhaseTrace()
        r2, t2 = ppm_cg_solve(
            prob, _cg_cluster(), max_iters=6, trace=trace,
            executor="process", workers=2,
        )
        assert t1 == t2
        np.testing.assert_array_equal(r1.x, r2.x)
        assert _zero_merge(trace).commits > 0

    def test_mismatch_raises(self):
        from repro.parallel.backend import ProcessBackend

        class FakeShared:
            _data = np.arange(8.0)

        class FakeRT:
            shared_registry = {"A": FakeShared()}

        be = ProcessBackend.__new__(ProcessBackend)
        be.rt = FakeRT()
        be._arrays = [{}]
        rows = np.array([0, 3, 5])
        digest = {"checksums": [("A", None, 0xDEADBEEF, ("n", 1, rows))]}
        with pytest.raises(RuntimeError, match="digest mismatch"):
            be._verify_digest(0, digest)


# ----------------------------------------------------------------------
# Commit-plan cache
# ----------------------------------------------------------------------

class TestPlanCache:
    def test_iterative_solver_converges_to_hits(self):
        prob = build_chimney_problem(6, 6, 4, seed=7)
        trace = PhaseTrace()
        ppm_cg_solve(
            prob, _cg_cluster(), max_iters=12, trace=trace,
            executor="process", workers=2,
        )
        stats = _zero_merge(trace)
        hits, misses = stats.plan_hits, stats.plan_misses
        assert hits + misses > 0
        rate = hits / (hits + misses)
        # Each distinct access pattern compiles once per worker and
        # hits on every later round; 12 CG iterations make warm-up
        # noise small.
        assert rate >= 0.85, (hits, misses)


# ----------------------------------------------------------------------
# Segment swaps: only under a live view
# ----------------------------------------------------------------------

def _own_rows(ctx, A):
    return split_range(len(A), ctx.global_vp_count)[ctx.global_rank]


def drop_then_write_kernel(ctx, A, out):
    """Keeps a view across exactly one phase boundary, drops it, and
    first writes the variable two phases later."""
    lo, hi = _own_rows(ctx, A)
    yield ctx.global_phase
    v = A[lo:hi]
    yield ctx.global_phase
    out[lo:hi] = v
    del v
    yield ctx.global_phase
    out[lo:hi] = out[lo:hi] + 1.0
    yield ctx.global_phase
    A[lo:hi] = A[lo:hi] + 1.0


def hold_to_the_end_kernel(ctx, A, out):
    lo, hi = _own_rows(ctx, A)
    yield ctx.global_phase
    v = A[lo:hi]
    yield ctx.global_phase
    out[lo:hi] = v


def write_kernel(ctx, A, out):
    lo, hi = _own_rows(ctx, A)
    yield ctx.global_phase
    A[lo:hi] = out[lo:hi] + 1.0


class TestSegmentSwaps:
    def test_snapshot_array_counts_its_readers(self):
        """What a worker reads liveness from: a read-only array built
        straight over the segment buffer is the ``base`` of every view
        derived from it, at any depth, so its reference count returns
        to the floor exactly when the last of them dies."""
        segment = shared_memory.SharedMemory(create=True, size=8 * 8)
        try:
            ro = np.ndarray((8,), dtype=np.float64, buffer=segment.buf)
            ro.flags.writeable = False
            floor = sys.getrefcount(ro)
            readers = [ro[1:3], ro[1:3][::2], np.flip(ro[1:3])]
            assert all(r.base is ro for r in readers)
            assert sys.getrefcount(ro) == floor + len(readers)
            while readers:
                readers.pop()
                assert sys.getrefcount(ro) == floor + len(readers)
            del ro
        finally:
            segment.close()
            segment.unlink()

    @pytest.mark.parametrize(
        "supervision",
        [None, SupervisionPolicy()],
        ids=["unsupervised", "supervised"],
    )
    def test_cg_swaps_once_per_solve(self, supervision):
        """``_cg_kernel`` keeps ``r_chunk`` (a view of ``cg_r``) for the
        whole solve: the first commit of ``cg_r`` swaps, and nothing
        else ever does — every other read dies inside its phase.
        Supervision adds none: a fault-free supervised run executes
        the same commands."""
        prob = build_chimney_problem(6, 6, 4, seed=7)

        def main(ppm):
            n = prob.n
            xs, rs, ps, qs = (ppm.global_shared(f"cg_{v}", n) for v in "xrpq")
            stats = ppm.global_shared("cg_stats", 3)
            rs[:] = prob.b
            ps[:] = prob.b
            ppm.do(
                2 * ppm.cores_per_node, _cg_kernel,
                prob.A, xs, rs, ps, qs, stats, float(np.sqrt(prob.b @ prob.b)), 6, 0.0,
            )

        ppm, _ = run_ppm(
            main, _cg_cluster(), trace=True, executor="process", workers=2,
            supervision=supervision,
        )
        assert ppm.report().zero_merge.commits > 0
        assert ppm.runtime.shm.swaps == 1

    @pytest.mark.parametrize("second", [None, write_kernel])
    def test_dropped_view_costs_no_swap(self, second):
        """A buffer is guarded while a reader of it lives, not from the
        first view on: not after the kernel dropped the view, and not
        in a later ``do`` after the generators that held it are gone."""

        def main(ppm):
            A = ppm.global_shared("A", 16)
            out = ppm.global_shared("out", 16)
            A[:] = np.arange(16.0)
            if second is None:
                ppm.do(2, drop_then_write_kernel, A, out)
            else:
                ppm.do(2, hold_to_the_end_kernel, A, out)
                ppm.do(2, second, A, out)
            return A.committed, out.committed

        cl = lambda: Cluster(mkconfig(n_nodes=2, cores_per_node=2))  # noqa: E731
        _, inline = run_ppm(main, cl())
        ppm, proc = run_ppm(main, cl(), executor="process", workers=2)
        for a, b in zip(inline, proc):
            np.testing.assert_array_equal(a, b)
        assert ppm.runtime.shm.swaps == 0
