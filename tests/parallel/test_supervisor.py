"""Worker supervision: crash/hang detection, recovery by restart,
graceful degradation and the PPM6xx diagnostics.

Every recovered run must preserve the backend's headline contract —
committed arrays, simulated times and reports identical to the inline
engine — even while :class:`ProcessChaos` SIGKILLs (or SIGSTOPs) live
worker processes mid-run.  Kill plans are finite (``rounds=``: the
dispatch counter is never reset, so each index fires once across
restarts); ``every=`` recurs faster than a run and is what the
degradation tests use.  Kernels live at module level because the
backend ships them by pickling.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.cg import build_chimney_problem, ppm_cg_solve
from repro.apps.graph import hashed_graph, ppm_bfs
from repro.apps.multigrid import build_mg_problem, ppm_mg_solve
from repro.config import manycore, testing as mkconfig
from repro.core import run_ppm
from repro.core.errors import (
    ParallelConfigError,
    SupervisionExhaustedError,
    WorkerDeathError,
)
from repro.machine import Cluster
from repro.obs import PhaseTrace, PoolDegraded, RunReport, WorkerCrash, WorkerRespawn
from repro.parallel import ProcessChaos, SupervisionPolicy
from repro.parallel.shm import live_ppm_segments


def _cluster(n_nodes=2, cores=2, **cfg):
    return Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=cores, **cfg))


# Real process pools, real kills: a handful of examples with no
# deadline beats hypothesis defaults here (mirrors test_equivalence).
SWEEP = settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Module-level kernels
# ----------------------------------------------------------------------

def mixed_kernel(ctx, A, B):
    """Global + node phases, reduce, scan, accumulate, remote reads —
    every construct a recovered run must reproduce."""
    n = ctx.global_vp_count
    yield ctx.global_phase
    A[ctx.global_rank] = float(ctx.global_rank)
    h = ctx.reduce(ctx.global_rank + 1, "sum")
    yield ctx.global_phase
    peer = float(A[(ctx.global_rank + 1) % n])
    s = ctx.scan(int(peer) + 1, "sum")
    yield ctx.node_phase
    B[ctx.node_rank % len(B)] = h.value + ctx.node_rank
    yield ctx.global_phase
    A.accumulate(np.array([ctx.global_rank % 3]), np.array([s.value * 0.5]))
    yield ctx.global_phase


def main_mixed(ppm):
    A = ppm.global_shared("A", 16)
    B = ppm.node_shared("B", 8)
    ppm.do(8, mixed_kernel, A, B)
    return A.committed.copy(), B.instance(0).copy(), B.instance(1).copy()


def suicide_kernel(ctx, A):
    yield ctx.global_phase
    if ctx.global_rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    A[ctx.global_rank] = 1.0
    yield ctx.global_phase


def main_suicide(ppm):
    A = ppm.global_shared("A", 16)
    ppm.do(8, suicide_kernel, A)
    return A.committed.copy()


def kept_read_kernel(ctx, A, out):
    """R1 across a failure: a private copy of a phase-1 snapshot read,
    used after two commits of the variable it was read from."""
    n = len(A) // ctx.global_vp_count
    lo, hi = ctx.global_rank * n, (ctx.global_rank + 1) * n
    yield ctx.global_phase
    kept = A[lo:hi].copy()
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    A[lo:hi] = A[lo:hi] + 1
    yield ctx.global_phase
    out[lo:hi] = kept


def main_kept_read(ppm):
    A = ppm.global_shared("A", 16)
    out = ppm.global_shared("out", 16)
    A[:] = np.arange(16.0)
    ppm.do(2, kept_read_kernel, A, out)
    return A.committed.copy(), out.committed.copy()


def _chaotic(every=None, *, rounds=(), seed=11, sig="kill", window="round",
             worker=None, **pol):
    return SupervisionPolicy(
        chaos=ProcessChaos(
            seed=seed, every=every, rounds=rounds, worker=worker,
            signal=sig, window=window,
        ),
        **pol,
    )


def _cg(seed, **run_opts):
    prob = build_chimney_problem(6, 6, 4, seed=seed)
    cl = Cluster(manycore(n_nodes=4, cores_per_node=2))
    r, t = ppm_cg_solve(prob, cl, max_iters=6, **run_opts)
    return r.x, t


def _bfs(seed, **run_opts):
    g = hashed_graph(96, degree=4, seed=seed)
    cl = Cluster(manycore(n_nodes=4, cores_per_node=2))
    d, t = ppm_bfs(g, 0, cl, **run_opts)
    return d, t


def _mg(seed, **run_opts):
    prob = build_mg_problem(levels=3, seed=seed)
    cl = Cluster(mkconfig(n_nodes=2, cores_per_node=2))
    u, t = ppm_mg_solve(prob, cl, cycles=2, **run_opts)
    return u, t


APPS = {"cg": _cg, "bfs": _bfs, "mg": _mg}


# ----------------------------------------------------------------------
# Policy validation (PPM601/PPM602)
# ----------------------------------------------------------------------

class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_respawns=-1),
            dict(deadline_base=0.0),
            dict(deadline_per_vp=-0.1),
            dict(degrade="panic"),
        ],
    )
    def test_bad_policy_ppm601(self, kwargs):
        with pytest.raises(ParallelConfigError) as ei:
            SupervisionPolicy(**kwargs)
        assert ei.value.code == "PPM601"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(every=0),
            dict(every=2, signal="term"),
            dict(every=2, window="barrier"),
            dict(),  # no trigger at all
        ],
    )
    def test_bad_chaos_ppm601(self, kwargs):
        with pytest.raises(ParallelConfigError) as ei:
            ProcessChaos(seed=1, **kwargs)
        assert ei.value.code == "PPM601"

    def test_deadline_scales_with_shard(self):
        pol = SupervisionPolicy(deadline_base=2.0, deadline_per_vp=0.5)
        assert pol.round_deadline(0) == 2.0
        assert pol.round_deadline(10) == 7.0


# ----------------------------------------------------------------------
# Crash detection and recovery by restart
# ----------------------------------------------------------------------

class TestCrashRecovery:
    def test_sigkill_recovery_bitwise_identical(self):
        _, ref = run_ppm(main_mixed, _cluster())
        trace = PhaseTrace()
        ppm, got = run_ppm(
            main_mixed, _cluster(), executor="process", workers=2,
            supervision=_chaotic(rounds=(1, 4)), trace=trace,
        )
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)
        state = ppm.runtime.supervision_state
        assert state.crashes > 0
        assert state.respawns > 0
        kinds = {type(ev) for ev in trace.events}
        assert {WorkerCrash, WorkerRespawn} <= kinds
        assert live_ppm_segments() == []

    def test_sigstop_hang_detected_and_recovered(self):
        # SIGSTOP freezes the worker; a short deadline converts the
        # stall into a "hang", the pool hard-kills it and the run
        # restarts.
        _, ref = run_ppm(main_mixed, _cluster())
        ppm, got = run_ppm(
            main_mixed, _cluster(), executor="process", workers=2,
            supervision=_chaotic(rounds=(2,), sig="stop",
                                 deadline_base=1.0, deadline_per_vp=0.0),
        )
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)
        assert ppm.runtime.supervision_state.hangs > 0
        assert live_ppm_segments() == []

    def test_commit_window_kill_zero_merge(self):
        # Certified CG engages the zero-merge path; the kill lands
        # inside the hold/commit window, after in-place writes began.
        x1, t1 = _cg(3)
        trace = PhaseTrace()
        x2, t2 = _cg(
            3, executor="process", workers=2, trace=trace,
            supervision=_chaotic(rounds=(3,), window="commit"),
        )
        np.testing.assert_array_equal(x1, x2)
        assert t1 == t2
        assert RunReport.from_trace(trace).supervision.crashes > 0
        assert live_ppm_segments() == []

    def test_fault_free_supervision_is_free(self):
        # Supervision with no chaos must not perturb results, and the
        # run report must not grow a supervision section.
        _, ref = run_ppm(main_mixed, _cluster())
        trace = PhaseTrace()
        _, got = run_ppm(
            main_mixed, _cluster(), executor="process", workers=2,
            supervision=SupervisionPolicy(), trace=trace,
        )
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)
        assert RunReport.from_trace(trace).supervision is None

    def test_supervision_composes_with_simulated_faults(self):
        from repro.resilience import FaultPlan

        _, ref = run_ppm(
            main_mixed, _cluster(),
            faults=FaultPlan(seed=5).crash(node=1, phase=2),
            checkpoint_every=2,
        )
        _, got = run_ppm(
            main_mixed, _cluster(),
            faults=FaultPlan(seed=5).crash(node=1, phase=2),
            checkpoint_every=2,
            executor="process", workers=2, supervision=_chaotic(rounds=(3,)),
        )
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)
        assert live_ppm_segments() == []

    def test_pool_restart_builds_a_fresh_resilience_manager(self):
        # The kill (dispatch 5) lands after the first attempt crashed at
        # phase 2 and recovered.  The restarted attempt gets a fresh
        # manager: the planned crash fires again (once per attempt) and
        # the incarnation budget starts over — two incarnations per
        # attempt fit max_incarnations=2, four in total would not.
        from repro.resilience import FaultPlan, ResiliencePolicy

        _, ref = run_ppm(main_mixed, _cluster())
        trace = PhaseTrace()
        ppm, got = run_ppm(
            main_mixed, _cluster(),
            faults=FaultPlan(seed=5).crash(node=1, phase=2),
            checkpoint_every=2,
            resilience=ResiliencePolicy(max_incarnations=2),
            executor="process", workers=2, supervision=_chaotic(rounds=(5,)),
            trace=trace,
        )
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)
        kinds = [
            ev.kind for ev in trace.events
            if isinstance(ev, (WorkerCrash, WorkerRespawn)) or ev.kind == "recovery"
        ]
        assert kinds == ["recovery", "worker_crash", "worker_respawn", "recovery"]
        manager = ppm.runtime.resilience
        assert (manager.incarnations, manager.recoveries) == (2, 1)
        assert ppm.runtime.supervision_state.respawns == 1
        # The report starts over at the restart: one recovery, not two.
        assert RunReport.from_trace(trace).resilience.recoveries == 1
        assert live_ppm_segments() == []

    @pytest.mark.parametrize("window", ["round", "commit"])
    def test_kept_read_survives_recovery(self, window):
        # SEMANTICS R1: a VP-private value derived from a snapshot
        # read keeps its phase-start values whatever commits later.
        # Re-running earlier rounds against the current segments (any
        # form of replay into a fresh worker) rebuilds `kept` from
        # committed data and fails this with out[:8] != arange(8).
        _, ref = run_ppm(main_kept_read, _cluster())
        ppm, got = run_ppm(
            main_kept_read, _cluster(), executor="process", workers=2,
            supervision=_chaotic(rounds=(1,), worker=0, window=window),
        )
        np.testing.assert_array_equal(got[1], np.arange(16.0))
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)
        state = ppm.runtime.supervision_state
        assert state.crashes == 1
        assert state.respawns == 1
        assert state.degradations == 0
        assert live_ppm_segments() == []


# ----------------------------------------------------------------------
# Unsupervised death: PPM603
# ----------------------------------------------------------------------

class TestWorkerDeath:
    def test_unsupervised_death_ppm603(self):
        with pytest.raises(WorkerDeathError) as ei:
            run_ppm(
                main_suicide, _cluster(), executor="process", workers=2,
            )
        msg = str(ei.value)
        assert ei.value.code == "PPM603"
        # The message names the worker, the failed command and the
        # round so the failure is attributable without supervision.
        assert "worker" in msg and "died" in msg
        assert "'round'" in msg and "round " in msg
        assert "supervision" in msg
        assert live_ppm_segments() == []


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------

class TestDegradation:
    def test_shrink_restarts_with_fewer_workers(self):
        _, ref = run_ppm(main_mixed, _cluster())
        trace = PhaseTrace()
        ppm, got = run_ppm(
            main_mixed, _cluster(), executor="process", workers=3,
            supervision=_chaotic(every=1, max_respawns=0), trace=trace,
        )
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)
        assert ppm.runtime.supervision_state.degradations >= 1
        degr = [ev for ev in trace.events if isinstance(ev, PoolDegraded)]
        assert degr and degr[0].mode == "shrink"
        assert degr[0].workers_to < degr[0].workers_from
        assert live_ppm_segments() == []

    def test_inline_fallback(self):
        _, ref = run_ppm(main_mixed, _cluster())
        ppm, got = run_ppm(
            main_mixed, _cluster(), executor="process", workers=2,
            supervision=_chaotic(
                every=1, max_respawns=0, degrade="inline"
            ),
        )
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)
        # The state rides the run through the inline fallback.
        assert ppm.runtime.executor == "inline"
        assert ppm.runtime.supervision_state.degradations >= 1
        assert live_ppm_segments() == []

    def test_degrade_error_ppm604(self):
        with pytest.raises(SupervisionExhaustedError) as ei:
            run_ppm(
                main_mixed, _cluster(), executor="process", workers=2,
                supervision=_chaotic(
                    every=1, max_respawns=0, degrade="error"
                ),
            )
        assert ei.value.code == "PPM604"
        assert live_ppm_segments() == []

    def test_budget_counts_restarts_per_pool_size(self):
        # Three kills, a budget of two restarts at one size: the
        # third failure shrinks the pool, and the run then completes.
        _, ref = run_ppm(main_mixed, _cluster())
        trace = PhaseTrace()
        ppm, got = run_ppm(
            main_mixed, _cluster(), executor="process", workers=3,
            supervision=_chaotic(rounds=(1, 3, 5), max_respawns=2),
            trace=trace,
        )
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)
        assert ppm.runtime.supervision_state.respawns == 2
        assert ppm.runtime.supervision_state.degradations == 1
        respawns = [ev for ev in trace.events if isinstance(ev, WorkerRespawn)]
        assert [ev.attempt for ev in respawns] == [1, 2]
        degr = [ev for ev in trace.events if isinstance(ev, PoolDegraded)]
        assert [(ev.mode, ev.workers_from, ev.workers_to) for ev in degr] == [
            ("shrink", 3, 2)
        ]
        assert live_ppm_segments() == []


# ----------------------------------------------------------------------
# Property sweep: SIGKILL a worker at drawn round dispatches across
# the Figure-1 applications; the run must come back at full size and
# complete bitwise-identical to inline.
# ----------------------------------------------------------------------

class TestChaosSweep:
    @SWEEP
    @given(
        app=st.sampled_from(sorted(APPS)),
        seed=st.integers(1, 50),
        workers=st.integers(2, 3),
        rounds=st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
    )
    def test_kills_at_drawn_rounds_bitwise(self, app, seed, workers, rounds):
        ref, t_ref = APPS[app](seed)
        got, t_got = APPS[app](
            seed,
            executor="process",
            workers=workers,
            supervision=_chaotic(rounds=tuple(rounds), seed=seed),
        )
        assert t_ref == t_got
        np.testing.assert_array_equal(ref, got)
        assert live_ppm_segments() == []


# ----------------------------------------------------------------------
# Observability acceptance: RunReport.supervision
# ----------------------------------------------------------------------

class TestSupervisionReport:
    def test_report_counts_failures_and_replays(self):
        trace = PhaseTrace()
        run_ppm(
            main_mixed, _cluster(), executor="process", workers=2,
            supervision=_chaotic(rounds=(1, 4)), trace=trace,
        )
        sup = RunReport.from_trace(trace).supervision
        assert sup is not None
        assert sup.crashes >= 1 and sup.failures >= 1
        assert sup.respawns >= 1
        assert sup.degradations == 0
        assert sup.recovery_host_s > 0.0

    def test_report_round_trips_through_dict(self):
        from repro.obs import format_report, report_to_dict

        trace = PhaseTrace()
        run_ppm(
            main_mixed, _cluster(), executor="process", workers=2,
            supervision=_chaotic(rounds=(1, 4)), trace=trace,
        )
        report = RunReport.from_trace(trace)
        d = report_to_dict(report)
        assert d["supervision"]["crashes"] == report.supervision.crashes
        assert d["supervision"]["respawns"] == report.supervision.respawns
        assert "worker failures" in format_report(report)

    @pytest.mark.parametrize("max_respawns", [8, 0], ids=["respawn", "shrink"])
    def test_recovered_run_reports_like_a_fault_free_one(self, max_respawns):
        # A restart abandons the failed attempt: neither the machine
        # trace behind ppm.summary() nor the per-phase report may keep
        # counting its traffic.
        def run(**opts):
            trace = PhaseTrace()
            ppm, _ = run_ppm(
                main_mixed, _cluster(), executor="process", workers=3,
                trace=trace, **opts,
            )
            return ppm.summary(), RunReport.from_trace(trace)

        clean_summary, clean = run()
        summary, report = run(
            supervision=_chaotic(rounds=(2,), max_respawns=max_respawns)
        )
        assert report.supervision.crashes == 1
        assert report.supervision.respawns == (1 if max_respawns else 0)
        assert report.supervision.degradations == (0 if max_respawns else 1)
        assert summary == clean_summary
        assert [p.vp_count for p in report.phases] == [
            p.vp_count for p in clean.phases
        ]
        assert report.total_messages == clean.total_messages
        assert report.total_bytes == clean.total_bytes
