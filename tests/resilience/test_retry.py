"""Retry policy, per-flight delivery accounting, sequence numbers."""

from __future__ import annotations

import pytest

from repro.core.errors import ResilienceConfigError
from repro.resilience import RetryPolicy
from repro.resilience.faults import FaultVerdict
from repro.resilience.retry import deliver_flight


class TestPolicyValidation:
    @pytest.mark.parametrize("timeout", [0.0, -1e-6, float("nan"), float("inf")])
    def test_rejects_bad_timeout(self, timeout):
        with pytest.raises(ResilienceConfigError, match="PPM304"):
            RetryPolicy(timeout=timeout)

    def test_rejects_backoff_factor_below_one(self):
        with pytest.raises(ResilienceConfigError, match="PPM304"):
            RetryPolicy(backoff_factor=0.5)

    def test_rejects_max_backoff_below_timeout(self):
        with pytest.raises(ResilienceConfigError, match="PPM304"):
            RetryPolicy(timeout=1e-3, max_backoff=1e-4)

    def test_rejects_zero_max_retries(self):
        with pytest.raises(ResilienceConfigError, match="PPM304"):
            RetryPolicy(max_retries=0)


class TestBackoffSchedule:
    def test_exponential_growth(self):
        pol = RetryPolicy(timeout=10e-6, backoff_factor=2.0, max_backoff=1.0)
        assert pol.backoff(1) == pytest.approx(10e-6)
        assert pol.backoff(2) == pytest.approx(20e-6)
        assert pol.backoff(3) == pytest.approx(40e-6)

    def test_capped_at_max_backoff(self):
        pol = RetryPolicy(timeout=10e-6, backoff_factor=10.0, max_backoff=50e-6)
        assert pol.backoff(5) == pytest.approx(50e-6)

    def test_monotone_nondecreasing(self):
        pol = RetryPolicy()
        waits = [pol.backoff(k) for k in range(1, 20)]
        assert waits == sorted(waits)


class TestDeliverFlight:
    def test_clean_flight_costs_nothing(self):
        out = deliver_flight(
            RetryPolicy(),
            FaultVerdict([], 0.0, False),
            resend_wire_time=1e-6,
            duplicate_cpu_time=1e-6,
        )
        assert out.attempts == 1
        assert out.extra_time == 0.0
        assert out.retries == []

    def test_each_failure_charges_backoff_plus_resend(self):
        pol = RetryPolicy(timeout=10e-6, backoff_factor=2.0, max_backoff=1.0)
        out = deliver_flight(
            pol,
            FaultVerdict(["drop", "corrupt"], 0.0, False),
            resend_wire_time=5e-6,
            duplicate_cpu_time=0.0,
        )
        assert out.attempts == 3
        assert out.extra_time == pytest.approx((10e-6 + 5e-6) + (20e-6 + 5e-6))
        assert [(a, r) for a, r, _ in out.retries] == [(1, "drop"), (2, "corrupt")]

    def test_delay_and_duplicate_charges(self):
        out = deliver_flight(
            RetryPolicy(),
            FaultVerdict([], 30e-6, True),
            resend_wire_time=0.0,
            duplicate_cpu_time=2e-6,
        )
        assert out.extra_time == pytest.approx(30e-6 + 2e-6)
        assert out.duplicates == 1

    def test_max_retries_stops_charging(self):
        pol = RetryPolicy(timeout=10e-6, max_retries=2, max_backoff=1.0)
        out = deliver_flight(
            pol,
            FaultVerdict(["drop"] * 10, 0.0, False),
            resend_wire_time=0.0,
            duplicate_cpu_time=0.0,
        )
        assert len(out.retries) == 2, "escalation caps the charged re-sends"

    def test_pure_in_inputs(self):
        pol = RetryPolicy()
        v = FaultVerdict(["drop"], 1e-6, True)
        a = deliver_flight(pol, v, resend_wire_time=1e-6, duplicate_cpu_time=1e-6)
        b = deliver_flight(pol, v, resend_wire_time=1e-6, duplicate_cpu_time=1e-6)
        assert a.extra_time == b.extra_time and a.retries == b.retries
