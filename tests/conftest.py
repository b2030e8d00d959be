"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.config import MachineConfig, franklin, testing as mkconfig
from repro.machine import Cluster
from repro.parallel.shm import live_ppm_segments

#: Engines a failing VP is placed under, as ``(run_ppm options, rank)``:
#: ``ppm.do(3, ...)`` on two nodes under ``workers=3`` puts ranks 0-1 in
#: the parent's shard and rank 4 in a forked worker's.
_FAILING_SHARDS = {
    "inline": ({}, 1),
    "process-parent shard": ({"executor": "process", "workers": 3}, 1),
    "process-forked shard": ({"executor": "process", "workers": 3}, 4),
}


@pytest.fixture(params=list(_FAILING_SHARDS.values()), ids=list(_FAILING_SHARDS))
def failing_shard(request) -> tuple[dict, int]:
    """``(run_ppm options, failing global rank)`` for a 2-node run of
    ``ppm.do(3, ...)``: inline, then the process executor with the
    failing VP in the parent's shard and in a forked one."""
    return request.param


@pytest.fixture
def no_residue():
    """A check that a run left no live child process (reaped within
    ``deadline`` seconds) and no ppm shared-memory segment behind."""

    def check(deadline: float = 5.0) -> None:
        end = time.monotonic() + deadline
        while multiprocessing.active_children():  # also reaps zombies
            assert time.monotonic() < end, "a worker process outlived its run"
            time.sleep(0.05)
        assert live_ppm_segments() == []

    return check


@pytest.fixture
def config2x2() -> MachineConfig:
    """Two nodes, two cores each — the workhorse test topology."""
    return mkconfig(n_nodes=2, cores_per_node=2)


@pytest.fixture
def cluster2x2(config2x2) -> Cluster:
    return Cluster(config2x2)


@pytest.fixture
def cluster1() -> Cluster:
    """Single node, single core."""
    return Cluster(mkconfig(n_nodes=1, cores_per_node=1))


@pytest.fixture
def franklin4() -> Cluster:
    """Four Franklin-like nodes (4 cores each)."""
    return Cluster(franklin(n_nodes=4))
