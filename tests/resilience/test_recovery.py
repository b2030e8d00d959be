"""Crash recovery: the headline property is that a run with injected
faults commits results bitwise-identical to a fault-free run, while
its simulated clock pays for the faults.

Faults only ever add simulated time (retransmits, backoff waits,
detection, restore, re-executed lost work) — never mutate payloads —
and a phase boundary is a consistent global cut, so recovery by
rollback + deterministic replay reproduces the exact committed state.
docs/RESILIENCE.md states the argument; these tests check it end to
end on the paper's applications.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import testing as mkconfig
from repro.core import run_ppm
from repro.core.errors import ResilienceError
from repro.machine import Cluster
from repro.obs import RunReport
from repro.obs.events import PhaseTrace
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.manager import ResilienceManager


def _cluster(n_nodes=2, **kw):
    return Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=2, **kw))


def _cg_main(nx=4, iters=5):
    from repro.apps.cg.ppm_cg import _cg_kernel
    from repro.apps.cg.problem import build_chimney_problem

    prob = build_chimney_problem(nx)

    def main(ppm):
        n = prob.n
        xs = ppm.global_shared("cg_x", n)
        rs = ppm.global_shared("cg_r", n)
        ps = ppm.global_shared("cg_p", n)
        qs = ppm.global_shared("cg_q", n)
        stats = ppm.global_shared("cg_stats", 3)
        rs[:] = prob.b
        ps[:] = prob.b
        ppm.reset_clocks()
        ppm.do(4, _cg_kernel, prob.A, xs, rs, ps, qs, stats, 1.0, iters, 0.0)
        return xs.committed

    return main


class TestDefaultPathUntouched:
    def test_no_resilience_manager_by_default(self):
        ppm, _ = run_ppm(_cg_main(), _cluster())
        assert ppm.runtime.resilience is None

    def test_rejects_non_policy_resilience(self):
        with pytest.raises(ValueError, match="ResiliencePolicy"):
            run_ppm(_cg_main(), _cluster(), resilience="aggressive")

    def test_plain_run_imports_no_recovery_machinery(self):
        # A plain run_ppm goes round the re-execution loop once without
        # a manager or a supervision state, so neither package loads.
        script = (
            "import sys\n"
            "from repro import Cluster, run_ppm\n"
            "from repro.config import testing\n"
            "def kernel(ctx, A):\n"
            "    yield ctx.global_phase\n"
            "    A[ctx.global_rank] = 1.0\n"
            "def main(ppm):\n"
            "    A = ppm.global_shared('A', 4)\n"
            "    ppm.do(2, kernel, A)\n"
            "    return A.committed\n"
            "_, a = run_ppm(main, Cluster(testing(n_nodes=2, cores_per_node=2)))\n"
            "assert a.sum() == 4.0\n"
            "for mod in ('repro.resilience', 'repro.parallel.supervisor'):\n"
            "    assert mod not in sys.modules, mod\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestCrashRecovery:
    def test_crash_with_checkpoint_bitwise_identical(self):
        main = _cg_main()
        _, x_clean = run_ppm(main, _cluster())
        plan = FaultPlan(seed=5).crash(node=1, phase=7)
        trace = PhaseTrace()
        ppm, x = run_ppm(
            main, _cluster(), faults=plan, checkpoint_every=3, trace=trace
        )
        assert np.array_equal(x, x_clean)
        mgr = ppm.runtime.resilience
        assert mgr.recoveries == 1
        assert mgr.incarnations == 2
        recs = [e for e in trace.events if e.kind == "recovery"]
        assert len(recs) == 1
        rec = recs[0]
        assert rec.phase == 7 and rec.node == 1
        assert rec.checkpoint_phase == 5  # last multiple-of-3 boundary
        assert rec.t_resume > rec.t_crash
        # Rolled back to a checkpoint, so only the work since that cut
        # was lost — strictly less than restarting the whole run.
        assert 0 <= rec.lost_work < rec.t_crash

    def test_recovered_phases_report_the_fault_free_wire_events(self):
        """Fast-forward inspects the phase shapes with the tracer
        detached; the live phases after the resume reuse those plans
        and must still report every bundle and transfer, at their own
        phase index."""
        main = _cg_main()
        clean = PhaseTrace()
        run_ppm(main, _cluster(), trace=clean)
        trace = PhaseTrace()
        plan = FaultPlan(seed=5).crash(node=1, phase=7)
        ppm, _ = run_ppm(
            main, _cluster(), faults=plan, checkpoint_every=3, trace=trace
        )
        wire_kinds = ("bundle_flushed", "message_send", "message_recv")

        def wire_by_phase(events):
            by_phase = {}
            for e in events:
                if e.kind in wire_kinds:
                    by_phase.setdefault(e.phase, []).append(e)
            return by_phase

        resumed_at = next(
            i for i, e in enumerate(trace.events) if e.kind == "recovery"
        )
        recovered = wire_by_phase(trace.events[resumed_at + 1 :])
        reference = wire_by_phase(clean.events)
        # Restored the phase-5 cut: phases 6.. run live, most of them
        # on plans that phases 0..5 built untraced.
        assert recovered and min(recovered) == 6
        assert recovered == {p: evs for p, evs in reference.items() if p >= 6}
        assert ppm.runtime.stats_phase_plan_hits > ppm.runtime.stats_phase_plan_misses

    def test_recovered_run_counts_what_it_committed(self):
        """Crash-recovery twin of test_supervisor's
        test_recovered_run_reports_like_a_fault_free_one: the
        fast-forward leaves no record in the machine trace (lost work
        stays counted, the simulator's replay does not), and a report
        row describes the execution that committed."""
        main = _cg_main(iters=6)
        clean_trace = PhaseTrace()
        run_ppm(main, _cluster(), trace=clean_trace)
        clean = RunReport.from_trace(clean_trace)

        def run(every):
            trace = PhaseTrace()
            ppm, _ = run_ppm(
                main, _cluster(), trace=trace, checkpoint_every=every,
                faults=FaultPlan(seed=1).crash(node=1, phase=12),
            )
            commits = [e for e in trace.events if e.kind == "phase_commit"]
            summary = ppm.summary()
            assert summary.messages == sum(c.messages for c in commits)
            assert summary.nbytes == sum(c.nbytes for c in commits)
            records = sum(
                1 for e in ppm.trace.events if e.kind == "ppm_global_phase"
            )
            assert records == len(commits)
            report = RunReport.from_trace(trace)
            for row, ref in zip(report.phases, clean.phases, strict=True):
                assert (row.vp_count, row.vp_work, row.messages) == (
                    ref.vp_count, ref.vp_work, ref.messages
                )
            return records, summary.messages, summary.nbytes

        # 19 phases; the phase-9 cut re-runs phases 10-11, no cut all 12.
        rolled_back = run(5)
        restarted = run(None)
        assert rolled_back == (21, 29, 7200)
        assert restarted == (31, 41, 10272)

    def test_crash_without_checkpoint_restarts_from_scratch(self):
        main = _cg_main()
        _, x_clean = run_ppm(main, _cluster())
        plan = FaultPlan(seed=5).crash(node=0, phase=4)
        trace = PhaseTrace()
        ppm, x = run_ppm(main, _cluster(), faults=plan, trace=trace)
        assert np.array_equal(x, x_clean)
        rec = next(e for e in trace.events if e.kind == "recovery")
        assert rec.checkpoint_phase == -1
        assert rec.lost_work == pytest.approx(rec.t_crash)

    def test_crash_costs_simulated_time(self):
        main = _cg_main()
        ppm_clean, _ = run_ppm(main, _cluster())
        plan = FaultPlan(seed=5).crash(node=1, phase=7)
        ppm, _ = run_ppm(main, _cluster(), faults=plan, checkpoint_every=3)
        pol = ppm.runtime.resilience.policy
        assert ppm.elapsed > ppm_clean.elapsed + pol.detection_timeout

    def test_two_crashes_two_recoveries(self):
        main = _cg_main()
        _, x_clean = run_ppm(main, _cluster())
        plan = (
            FaultPlan(seed=5).crash(node=0, phase=3).crash(node=1, phase=9)
        )
        ppm, x = run_ppm(main, _cluster(), faults=plan, checkpoint_every=2)
        assert np.array_equal(x, x_clean)
        assert ppm.runtime.resilience.recoveries == 2

    def test_max_incarnations_aborts_eventually(self):
        main = _cg_main()
        plan = FaultPlan(seed=5)
        for ph in range(4):
            plan = plan.crash(node=0, phase=ph)
        with pytest.raises(ResilienceError, match="incarnations"):
            run_ppm(
                main,
                _cluster(),
                faults=plan,
                resilience=ResiliencePolicy(max_incarnations=2),
            )


class TestMessageFaults:
    def test_drops_charge_retries_but_preserve_results(self):
        main = _cg_main()
        ppm_clean, x_clean = run_ppm(main, _cluster())
        plan = (
            FaultPlan(seed=3)
            .drop_messages(0.5)
            .duplicate_messages(0.3)
            .delay_messages(0.2, 20e-6)
        )
        trace = PhaseTrace()
        ppm, x = run_ppm(main, _cluster(), faults=plan, trace=trace)
        assert np.array_equal(x, x_clean)
        mgr = ppm.runtime.resilience
        assert mgr.retries > 0
        assert ppm.elapsed > ppm_clean.elapsed
        assert any(e.kind == "retry_attempt" for e in trace.events)
        report = RunReport.from_trace(trace)
        assert report.resilience is not None
        assert report.resilience.retries == mgr.retries

    def test_straggler_inflates_elapsed_only(self):
        main = _cg_main()
        ppm_clean, x_clean = run_ppm(main, _cluster())
        plan = FaultPlan(seed=1).straggle(node=0, factor=3.0)
        ppm, x = run_ppm(main, _cluster(), faults=plan)
        assert np.array_equal(x, x_clean)
        assert ppm.elapsed > ppm_clean.elapsed

    def test_fault_free_report_has_no_resilience_section(self):
        trace = PhaseTrace()
        run_ppm(_cg_main(), _cluster(), trace=trace)
        report = RunReport.from_trace(trace)
        assert report.resilience is None


class TestRecoveryEquivalenceProperty:
    """Hypothesis: for any seed, crash site and checkpoint interval,
    recovery reproduces the fault-free committed state exactly."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        crash_phase=st.integers(1, 14),
        every=st.one_of(st.none(), st.integers(1, 6)),
    )
    def test_cg_recovery_equivalence(self, seed, crash_phase, every):
        main = _cg_main()
        _, x_clean = run_ppm(main, _cluster())
        plan = (
            FaultPlan(seed=seed)
            .drop_messages(0.2)
            .crash(node=seed % 2, phase=crash_phase)
        )
        _, x = run_ppm(main, _cluster(), faults=plan, checkpoint_every=every)
        assert np.array_equal(x, x_clean)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), crash_phase=st.integers(1, 5))
    def test_bfs_recovery_equivalence(self, seed, crash_phase):
        from repro.apps.graph import hashed_graph, ppm_bfs

        graph = hashed_graph(300, degree=4, seed=7)
        clean, _ = ppm_bfs(graph, 0, _cluster())
        plan = (
            FaultPlan(seed=seed)
            .drop_messages(0.2)
            .crash(node=0, phase=crash_phase)
        )
        dist, _ = ppm_bfs(
            graph, 0, _cluster(), faults=plan, checkpoint_every=2
        )
        assert np.array_equal(dist, clean)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), crash_phase=st.integers(1, 8))
    def test_multigrid_recovery_equivalence(self, seed, crash_phase):
        from repro.apps.multigrid import build_mg_problem, ppm_mg_solve

        problem = build_mg_problem(levels=4)
        clean, _ = ppm_mg_solve(problem, _cluster(), cycles=2)
        plan = FaultPlan(seed=seed).crash(node=1, phase=crash_phase)
        u, _ = ppm_mg_solve(
            problem, _cluster(), cycles=2, faults=plan, checkpoint_every=3
        )
        assert np.array_equal(u, clean)


def _shared_state(runtime):
    return {
        name: [np.array(inst) for inst in handle._data]
        if isinstance(handle._data, list)
        else np.array(handle._data)
        for name, handle in runtime.shared_registry.items()
    }


def _solve_cg(**opts):
    from repro.apps.cg import build_chimney_problem, ppm_cg_solve

    result, _ = ppm_cg_solve(
        build_chimney_problem(4), _cluster(), max_iters=5, tol=0.0, **opts
    )
    return result.x


def _solve_bfs(**opts):
    from repro.apps.graph import hashed_graph, ppm_bfs

    return ppm_bfs(hashed_graph(300, degree=4, seed=7), 0, _cluster(), **opts)[0]


def _solve_mg(**opts):
    from repro.apps.multigrid import build_mg_problem, ppm_mg_solve

    return ppm_mg_solve(build_mg_problem(levels=4), _cluster(), cycles=2, **opts)[0]


class TestRecomputedCutIsTheCheckpointedCut:
    """A checkpoint keeps no copy of the arrays because recovery never
    reads one: the fast-forward recomputes them.  The equality the old
    restore silently enforced, checked from outside — at every resume,
    each shared instance is bitwise what it was when the checkpoint
    the run rolls back to was taken."""

    @pytest.mark.parametrize("executor", ["inline", "process"])
    @pytest.mark.parametrize(
        "solve, crash_phase, every",
        [(_solve_cg, 7, 3), (_solve_bfs, 3, 2), (_solve_mg, 5, 3)],
        ids=["cg", "bfs", "mg"],
    )
    def test_resume_sees_the_checkpointed_bytes(
        self, monkeypatch, solve, crash_phase, every, executor
    ):
        taken = {}
        resumed = []
        take, resume = CheckpointManager.take, ResilienceManager._resume

        def recording_take(self, phase_index, runtime):
            ckpt = take(self, phase_index, runtime)
            taken[ckpt] = _shared_state(runtime)
            return ckpt

        def checking_resume(self, runtime):
            expected = taken[self.checkpoints.latest]
            got = _shared_state(runtime)
            assert got.keys() == expected.keys()
            for name, want in expected.items():
                np.testing.assert_array_equal(got[name], want, err_msg=name)
            resumed.append(self.checkpoints.latest.phase)
            resume(self, runtime)

        monkeypatch.setattr(CheckpointManager, "take", recording_take)
        monkeypatch.setattr(ResilienceManager, "_resume", checking_resume)
        clean = solve()
        opts = dict(executor="process", workers=2) if executor == "process" else {}
        got = solve(
            faults=FaultPlan(seed=3).crash(node=1, phase=crash_phase),
            checkpoint_every=every,
            **opts,
        )
        assert np.array_equal(got, clean)
        assert resumed == [crash_phase // every * every - 1]
