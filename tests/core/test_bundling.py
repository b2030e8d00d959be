"""Tests for commit-time traffic aggregation (the bundling engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.core.bundling import aggregate_traffic
from repro.core.phase import PhaseRecorder
from repro.core.program import PpmProgram
from repro.core.shared import RowSpec
from repro.machine import Cluster


@pytest.fixture
def ppm4():
    return PpmProgram(Cluster(mkconfig(n_nodes=4, cores_per_node=2)))


class TestAggregation:
    def _recorder_with_read(self, shared, node_id, rows):
        rec = PhaseRecorder("global")
        rec.add_global_read(node_id, shared, rows, rows.count * shared._trailing)
        return rec

    def test_local_reads_not_remote(self, ppm4):
        A = ppm4.global_shared("A", 8)  # node i owns rows [2i, 2i+2)
        rec = self._recorder_with_read(A, 0, RowSpec.from_range(0, 2))
        traffic = aggregate_traffic(rec)
        nt = traffic[0]
        assert nt.local_read_elems == 2
        assert nt.remote_read_elems == 0
        assert nt.peers == []

    def test_remote_reads_split_by_owner(self, ppm4):
        A = ppm4.global_shared("A", 8)
        rec = self._recorder_with_read(A, 0, RowSpec.from_range(0, 8))
        traffic = aggregate_traffic(rec)
        nt = traffic[0]
        assert nt.local_read_elems == 2
        owners = sorted((p.owner, p.read_elems) for p in nt.peers)
        assert owners == [(1, 2), (2, 2), (3, 2)]

    def test_duplicate_reads_deduplicated(self, ppm4):
        """Many VPs of one node reading the same remote element produce
        one fetched element — the runtime's software cache."""
        A = ppm4.global_shared("A", 8)
        rec = PhaseRecorder("global")
        for _ in range(10):
            rec.add_global_read(0, A, RowSpec.from_array(np.array([7])), 1)
        traffic = aggregate_traffic(rec)
        assert traffic[0].remote_read_elems == 1

    def test_reads_and_writes_kept_separate(self, ppm4):
        A = ppm4.global_shared("A", 8)
        rec = PhaseRecorder("global")
        rec.add_global_read(0, A, RowSpec.from_range(6, 8), 2)
        rec.add_global_write(0, A, RowSpec.from_range(6, 7), 1, 0, None)
        traffic = aggregate_traffic(rec)
        nt = traffic[0]
        peer = nt.peers[0]
        assert peer.owner == 3
        assert peer.read_elems == 2
        assert peer.write_elems == 1

    def test_trailing_dimensions_multiply_elements(self, ppm4):
        A = ppm4.global_shared("A", (8, 5))
        rec = self._recorder_with_read(A, 0, RowSpec.from_range(2, 4))
        traffic = aggregate_traffic(rec)
        assert traffic[0].peers[0].read_elems == 10  # 2 rows x 5

    def test_multiple_shareds_tracked_independently(self, ppm4):
        A = ppm4.global_shared("A", 8)
        B = ppm4.global_shared("B", 8)
        rec = PhaseRecorder("global")
        rec.add_global_read(0, A, RowSpec.from_range(6, 8), 2)
        rec.add_global_read(0, B, RowSpec.from_range(6, 8), 2)
        traffic = aggregate_traffic(rec)
        assert len(traffic[0].peers) == 2
        assert {p.shared.name for p in traffic[0].peers} == {"A", "B"}

    def test_several_reader_nodes(self, ppm4):
        A = ppm4.global_shared("A", 8)
        rec = PhaseRecorder("global")
        rec.add_global_read(0, A, RowSpec.from_range(2, 4), 2)
        rec.add_global_read(1, A, RowSpec.from_range(0, 2), 2)
        traffic = aggregate_traffic(rec)
        assert traffic[0].peers[0].owner == 1
        assert traffic[1].peers[0].owner == 0
