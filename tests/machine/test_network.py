"""Tests for the network cost model: alpha/beta messaging, bundling,
NIC contention and collective formulas."""

from __future__ import annotations

import math

import pytest

from repro.config import MachineConfig
from repro.machine.network import ZERO_COST, BundleCost, NetworkModel


@pytest.fixture
def net() -> NetworkModel:
    return NetworkModel(MachineConfig(n_nodes=4, cores_per_node=4))


class TestMessageTime:
    def test_inter_node_alpha_beta(self, net):
        cfg = net.config
        assert net.message_time(1000, intra_node=False) == pytest.approx(
            cfg.net_alpha + 1000 * cfg.net_beta
        )

    def test_intra_node_alpha_beta(self, net):
        cfg = net.config
        assert net.message_time(1000, intra_node=True) == pytest.approx(
            cfg.intra_alpha + 1000 * cfg.intra_beta
        )

    def test_intra_cheaper_than_inter(self, net):
        assert net.message_time(4096, True) < net.message_time(4096, False)

    def test_zero_bytes_still_pays_latency(self, net):
        assert net.message_time(0, False) == net.config.net_alpha

    def test_rejects_negative_bytes(self, net):
        with pytest.raises(ValueError):
            net.message_time(-1, False)

    def test_monotone_in_bytes(self, net):
        assert net.message_time(2000, False) > net.message_time(1000, False)


class TestBundleCost:
    def test_addition(self):
        a = BundleCost(1, 10, 0.5, 0.1)
        b = BundleCost(2, 20, 0.25, 0.2)
        c = a + b
        assert c.messages == 3
        assert c.payload_bytes == 30
        assert c.wire_time == pytest.approx(0.75)
        assert c.cpu_time == pytest.approx(0.3)

    def test_total_time(self):
        assert BundleCost(1, 10, 0.5, 0.1).total_time == pytest.approx(0.6)

    def test_zero_cost_identity(self):
        a = BundleCost(3, 30, 1.0, 0.5)
        s = a + ZERO_COST
        assert (s.messages, s.payload_bytes, s.wire_time, s.cpu_time) == (
            a.messages,
            a.payload_bytes,
            a.wire_time,
            a.cpu_time,
        )


class TestBundling:
    def test_zero_elements_is_free(self, net):
        assert net.bundle(0, False) == ZERO_COST

    def test_small_transfer_is_one_message(self, net):
        cost = net.bundle(10, False)
        assert cost.messages == 1

    def test_message_count_scales_with_payload(self, net):
        cfg = net.config
        per_elem = cfg.element_bytes + cfg.index_bytes
        n = (cfg.bundle_max_bytes // per_elem) * 3 + 1
        cost = net.bundle(n, False)
        assert cost.messages == math.ceil(n * per_elem / cfg.bundle_max_bytes)

    def test_with_index_ships_more_bytes(self, net):
        n = 100
        dense = net.bundle(n, False, with_index=False)
        scattered = net.bundle(n, False, with_index=True)
        assert scattered.payload_bytes == dense.payload_bytes + n * net.config.index_bytes

    def test_unbundled_ablation_one_message_per_element(self):
        cfg = MachineConfig(bundling=False)
        net = NetworkModel(cfg)
        cost = net.bundle(50, False)
        assert cost.messages == 50

    def test_bundling_beats_unbundled(self):
        on = NetworkModel(MachineConfig(bundling=True))
        off = NetworkModel(MachineConfig(bundling=False))
        n = 10_000
        assert on.bundle(n, False).total_time < off.bundle(n, False).total_time / 10

    def test_rejects_negative_elements(self, net):
        with pytest.raises(ValueError):
            net.bundle(-1, False)

    def test_custom_element_bytes(self, net):
        small = net.bundle(100, False, element_bytes=4, with_index=False)
        large = net.bundle(100, False, element_bytes=16, with_index=False)
        assert small.payload_bytes == 400
        assert large.payload_bytes == 1600


class TestGatherRoundTrip:
    def test_request_plus_reply_messages(self, net):
        cost = net.gather_round_trip(10, False)
        assert cost.messages == 2  # one request bundle + one reply

    def test_zero_elements_free(self, net):
        assert net.gather_round_trip(0, False) == ZERO_COST

    def test_rounds_preserve_bandwidth(self, net):
        one = net.gather_round_trip(1000, False, rounds=1)
        many = net.gather_round_trip(1000, False, rounds=8)
        assert many.payload_bytes == one.payload_bytes

    def test_rounds_add_latency(self, net):
        one = net.gather_round_trip(1000, False, rounds=1)
        many = net.gather_round_trip(1000, False, rounds=8)
        assert many.wire_time > one.wire_time
        assert many.messages == 16

    def test_rounds_capped_by_elements(self, net):
        cost = net.gather_round_trip(3, False, rounds=10)
        assert cost.messages == 6  # 3 rounds of request+reply

    def test_rejects_bad_rounds(self, net):
        with pytest.raises(ValueError):
            net.gather_round_trip(10, False, rounds=0)


class TestContention:
    def test_single_stream_no_contention(self, net):
        assert net.contention_factor(1) == 1.0
        assert net.contention_factor(0) == 1.0

    def test_grows_linearly_with_streams(self, net):
        coeff = net.config.nic_contention_coeff
        assert net.contention_factor(4) == pytest.approx(1 + 3 * coeff)
        assert net.contention_factor(8) == pytest.approx(1 + 7 * coeff)

    def test_rejects_negative(self, net):
        with pytest.raises(ValueError):
            net.contention_factor(-1)


class TestCollectiveFormulas:
    def test_barrier_scales_logarithmically(self, net):
        assert net.barrier_time(1) == 0.0
        t2 = net.barrier_time(2)
        t16 = net.barrier_time(16)
        assert t16 == pytest.approx(4 * t2)

    def test_reduce_single_participant_free(self, net):
        assert net.reduce_time(1, 8) == 0.0

    def test_allreduce_is_twice_reduce(self, net):
        assert net.allreduce_time(8, 64) == pytest.approx(2 * net.reduce_time(8, 64))

    def test_rejects_zero_participants(self, net):
        with pytest.raises(ValueError):
            net.barrier_time(0)


class TestBundleEdgeCases:
    def test_zero_elements_is_zero_cost(self, net):
        assert net.bundle(0, False) is ZERO_COST
        assert net.gather_round_trip(0, False) is ZERO_COST

    def test_single_element_pays_one_message(self, net):
        cfg = net.config
        cost = net.bundle(1, False)
        assert cost.messages == 1
        assert cost.payload_bytes == cfg.element_bytes + cfg.index_bytes
        assert cost.wire_time == pytest.approx(
            cfg.net_alpha + cost.payload_bytes * cfg.net_beta
        )

    def test_payload_exactly_at_bundle_boundary(self, net):
        """A payload of exactly bundle_max_bytes is one message; one
        more element spills into a second."""
        cfg = net.config
        per_elem = cfg.element_bytes + cfg.index_bytes
        assert cfg.bundle_max_bytes % per_elem == 0, "fixture assumption"
        fit = cfg.bundle_max_bytes // per_elem
        assert net.bundle(fit, False).messages == 1
        assert net.bundle(fit + 1, False).messages == 2

    def test_dense_block_skips_index_bytes(self, net):
        cfg = net.config
        cost = net.bundle(10, False, with_index=False)
        assert cost.payload_bytes == 10 * cfg.element_bytes


class TestBundleMonotonicity:
    """bundle() must be monotone in n_elements: more data can never
    cost fewer messages, bytes or seconds."""

    from hypothesis import given as _given, settings as _settings
    from hypothesis import strategies as _st

    @_settings(max_examples=200, deadline=None)
    @_given(
        n=_st.integers(0, 5000),
        extra=_st.integers(1, 500),
        intra=_st.booleans(),
        with_index=_st.booleans(),
    )
    def test_monotone_in_elements(self, n, extra, intra, with_index):
        net = NetworkModel(MachineConfig(n_nodes=4, cores_per_node=4))
        a = net.bundle(n, intra, with_index=with_index)
        b = net.bundle(n + extra, intra, with_index=with_index)
        assert b.messages >= a.messages
        assert b.payload_bytes > a.payload_bytes or n + extra == 0
        assert b.wire_time >= a.wire_time
        assert b.cpu_time >= a.cpu_time
