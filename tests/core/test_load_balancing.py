"""Tests for the runtime's measured-cost load balancing.

The paper (section 3): processor virtualisation "provides
opportunities for the compiler and runtime system to do optimizations
such as load balancing."
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.machine import Cluster


@ppm_function
def _skewed(ctx, out):
    """Two heavy VPs per node, the rest light — the adversarial case
    for static contiguous chunking (both heavies share core 0)."""
    for _ in range(5):
        yield ctx.global_phase
        work = 1_000_000 if ctx.node_rank < 2 else 100_000
        ctx.work(work)
    yield ctx.global_phase
    out[ctx.global_rank] = float(ctx.global_rank)


def _main(ppm):
    out = ppm.global_shared("out", ppm.node_count * 8)
    ppm.do(8, _skewed, out)
    return out.committed


def _elapsed(**cfg):
    cluster = Cluster(mkconfig(n_nodes=1, cores_per_node=4, **cfg))
    ppm, _ = run_ppm(_main, cluster)
    return ppm.elapsed


class TestLoadBalancing:
    def test_speeds_up_skewed_workloads(self):
        t_static = _elapsed()
        t_lb = _elapsed(load_balancing=True)
        assert t_lb < 0.75 * t_static

    def test_first_phase_keeps_static_chunks(self):
        """Without cost history the balancer must not collapse every
        VP onto core 0 — a single-phase run is identical either way."""

        def once(ctx):
            ctx.work(500_000)

        def main(ppm):
            ppm.do(8, once)
            return ppm.elapsed

        _, t_static = run_ppm(main, Cluster(mkconfig(n_nodes=1, cores_per_node=4)))
        _, t_lb = run_ppm(
            main, Cluster(mkconfig(n_nodes=1, cores_per_node=4, load_balancing=True))
        )
        assert t_lb == t_static

    def test_values_unaffected(self):
        cluster_a = Cluster(mkconfig(n_nodes=2, cores_per_node=2))
        cluster_b = Cluster(
            mkconfig(n_nodes=2, cores_per_node=2, load_balancing=True)
        )
        _, a = run_ppm(_main, cluster_a)
        _, b = run_ppm(_main, cluster_b)
        assert (a == b).all()

    def test_never_hurts_uniform_workloads(self):
        @ppm_function
        def uniform(ctx):
            for _ in range(4):
                yield ctx.global_phase
                ctx.work(100_000)

        def main(ppm):
            ppm.do(8, uniform)
            return ppm.elapsed

        _, t_static = run_ppm(main, Cluster(mkconfig(n_nodes=1, cores_per_node=4)))
        _, t_lb = run_ppm(
            main, Cluster(mkconfig(n_nodes=1, cores_per_node=4, load_balancing=True))
        )
        assert t_lb <= t_static * 1.0001

    def test_deterministic(self):
        times = [
            _elapsed(load_balancing=True),
            _elapsed(load_balancing=True),
        ]
        assert times[0] == times[1]
