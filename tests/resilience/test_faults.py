"""Fault-plan validation and the crash schedule."""

from __future__ import annotations

import pytest

from repro.core.errors import ResilienceConfigError
from repro.resilience import FaultInjector, FaultPlan


class TestPlanValidation:
    @pytest.mark.parametrize("node", [-1, 1.5, True, "0"])
    def test_rejects_bad_crash_node(self, node):
        with pytest.raises(ResilienceConfigError, match="PPM302"):
            FaultPlan().crash(node=node, phase=0)

    def test_rejects_negative_crash_phase(self):
        with pytest.raises(ResilienceConfigError, match="PPM302"):
            FaultPlan().crash(node=0, phase=-1)

    def test_chaining_returns_self(self):
        plan = FaultPlan(seed=1).crash(node=0, phase=3).kill_worker(rounds=(1,))
        assert isinstance(plan, FaultPlan)
        assert len(plan.crashes) == 1
        assert len(plan.kills) == 1


class TestInjectorBinding:
    def test_crash_node_range_checked_against_cluster(self):
        plan = FaultPlan().crash(node=4, phase=0)
        with pytest.raises(ResilienceConfigError, match="PPM302"):
            FaultInjector(plan, 4)


class TestCrashSchedule:
    def test_crash_fires_once(self):
        inj = FaultInjector(FaultPlan().crash(node=1, phase=5), 2)
        crash = inj.crash_at(5)
        assert crash is not None and crash.node == 1
        inj.consume(crash)
        assert inj.crash_at(5) is None, "consumed crash must not re-fire"

    def test_no_crash_on_other_phases(self):
        inj = FaultInjector(FaultPlan().crash(node=0, phase=5), 2)
        assert inj.crash_at(4) is None
