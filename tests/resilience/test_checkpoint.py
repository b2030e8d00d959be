"""Checkpoint schedule and cost charging."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.core.errors import ResilienceConfigError
from repro.machine import Cluster
from repro.obs.events import PhaseTrace
from repro.resilience import ResiliencePolicy
from repro.resilience.checkpoint import CheckpointManager


def _cluster(**kw):
    return Cluster(mkconfig(n_nodes=2, cores_per_node=2, **kw))


@ppm_function
def _bump(ctx, A, B, rounds):
    for _ in range(rounds):
        yield ctx.global_phase
        A[ctx.global_rank] = A[ctx.global_rank] + 1.0
        B[ctx.node_rank] = B[ctx.node_rank] + 10.0
        ctx.work(100)


class TestValidation:
    @pytest.mark.parametrize("every", [0, -1, 1.5, True, "2"])
    def test_rejects_bad_interval(self, every):
        with pytest.raises(ResilienceConfigError, match="PPM303"):
            ResiliencePolicy(checkpoint_every=every)

    def test_rejects_bad_cost_knobs(self):
        with pytest.raises(ResilienceConfigError, match="PPM303"):
            ResiliencePolicy(checkpoint_every=1, checkpoint_bandwidth=0.0)
        with pytest.raises(ResilienceConfigError, match="PPM303"):
            ResiliencePolicy(checkpoint_every=1, checkpoint_alpha=-1.0)


class TestSchedule:
    def test_due_every_phase(self):
        ck = CheckpointManager(1)
        assert all(ck.due(i) for i in range(5))

    def test_due_every_third_phase(self):
        ck = CheckpointManager(3)
        assert [ck.due(i) for i in range(7)] == [
            False, False, True, False, False, True, False,
        ]


class TestTakeAndRestore:
    def test_checkpoint_captures_committed_state(self):
        def main(ppm):
            A = ppm.global_shared("A", 4)
            B = ppm.node_shared("B", 2)
            ppm.do(2, _bump, A, B, 4)
            return A.committed.copy(), B.instance(0).copy()

        trace = PhaseTrace()
        ppm, (a, b0) = run_ppm(
            main, _cluster(), resilience=ResiliencePolicy(checkpoint_every=2), trace=trace
        )
        ck = ppm.runtime.resilience.checkpoints
        assert ck.count == 2
        assert ck.latest.phase == 3
        # After 4 bump phases every element was incremented 4 times.
        assert np.array_equal(a, np.full(4, 4.0))
        # A cut is (phase, t, nbytes) and nothing else: one global
        # array of 4 float64 plus a 2-element instance on each node.
        assert dataclasses.asdict(ck.latest) == {
            "phase": 3, "t": ck.latest.t, "nbytes": (4 + 2 * 2) * 8,
        }
        assert 0.0 < ck.latest.t <= ppm.elapsed
        kinds = [e.kind for e in trace.events if e.kind == "checkpoint_taken"]
        assert len(kinds) == 2

    def test_checkpoint_charges_simulated_time(self):
        def main(ppm):
            A = ppm.global_shared("A", 4)
            B = ppm.node_shared("B", 2)
            ppm.do(2, _bump, A, B, 3)
            return None

        ppm_plain, _ = run_ppm(main, _cluster())
        ppm_ck, _ = run_ppm(main, _cluster(), resilience=ResiliencePolicy(checkpoint_every=1))
        ck = ppm_ck.runtime.resilience.checkpoints
        assert ck.count == 3
        assert ppm_ck.elapsed == pytest.approx(
            ppm_plain.elapsed + ck.total_time
        ), "checkpoint write-out must be charged to the simulated clock"

    def test_only_latest_checkpoint_retained(self):
        def main(ppm):
            A = ppm.global_shared("A", 4)
            B = ppm.node_shared("B", 2)
            ppm.do(2, _bump, A, B, 5)
            return None

        ppm, _ = run_ppm(main, _cluster(), resilience=ResiliencePolicy(checkpoint_every=1))
        ck = ppm.runtime.resilience.checkpoints
        assert ck.count == 5
        assert ck.latest.phase == 4
