"""Tests for the driver-level program API: run_ppm, system variables,
summaries, clock reset, local_view casting rules."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.core.errors import SharedAccessError
from repro.core.program import PpmProgram, RunSummary
from repro.machine import Cluster
from repro.resilience import FaultPlan


def _cluster(n_nodes=2, cores=2, **cfg):
    return Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=cores, **cfg))


class TestDriverApi:
    def test_run_ppm_returns_program_and_result(self):
        def main(ppm, extra):
            return extra * 2

        ppm, result = run_ppm(main, _cluster(), 21)
        assert isinstance(ppm, PpmProgram)
        assert result == 42

    def test_system_variables(self):
        def main(ppm):
            return (ppm.node_count, ppm.cores_per_node)

        _, (nodes, cores) = run_ppm(main, _cluster(n_nodes=3, cores=2))
        assert (nodes, cores) == (3, 2)

    def test_reset_clocks_excludes_setup(self):
        def kernel(ctx):
            ctx.work(1000)

        def main(ppm):
            ppm.do(1, kernel)  # "setup" work
            before = ppm.elapsed
            ppm.reset_clocks()
            assert ppm.elapsed == 0.0
            ppm.do(1, kernel)
            return before, ppm.elapsed

        _, (before, after) = run_ppm(main, _cluster())
        assert before > 0 and after > 0

    def test_kwargs_forwarded_to_vps(self):
        def kernel(ctx, A, scale=1.0):
            A[ctx.global_rank] = scale

        def main(ppm):
            A = ppm.global_shared("A", 4)
            ppm.do(2, kernel, A, scale=7.0)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert (a == 7.0).all()


class TestKnobBudget:
    """Every ``run_ppm`` option multiplies the configurations that must
    stay bitwise-identical, so adding one takes a deliberate edit here."""

    def test_run_ppm_keyword_only_names_are_pinned(self):
        kw_only = [
            name
            for name, p in inspect.signature(run_ppm).parameters.items()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert kw_only == ["sanitize", "trace", "resilience", "executor", "workers"]

    @pytest.mark.parametrize(
        "removed",
        [
            {"hot_path": "legacy"},
            {"vp_executor": "threads"},
            {"snapshot": "pruned"},
            {"zero_merge": False},
            {"checkpoint_every": 2},
            {"faults": FaultPlan()},
            {"supervision": None},
        ],
    )
    def test_removed_knobs_are_not_silently_accepted(self, removed):
        def main(ppm):
            return None

        with pytest.raises(TypeError):
            run_ppm(main, _cluster(), **removed)


class TestSummary:
    def test_counts_phases_and_traffic(self):
        @ppm_function
        def kernel(ctx, A):
            yield ctx.node_phase
            yield ctx.global_phase
            _ = A[-1:]  # remote for node 0

        def main(ppm):
            A = ppm.global_shared("A", 8)
            ppm.do(1, kernel, A)
            return ppm.summary()

        _, s = run_ppm(main, _cluster())
        assert isinstance(s, RunSummary)
        assert s.global_phases == 1
        assert s.node_phases == 2
        assert s.messages > 0
        assert s.nbytes > 0
        assert s.elapsed > 0

    def test_str_is_informative(self):
        def main(ppm):
            ppm.do(1, lambda ctx: None)
            return str(ppm.summary())

        _, text = run_ppm(main, _cluster())
        assert "global" in text and "ms simulated" in text


class TestCasting:
    def test_local_view_usable_in_driver(self):
        def main(ppm):
            A = ppm.global_shared("A", 8)
            for node in range(ppm.node_count):
                A.local_view(node)[:] = float(node)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert a.tolist() == [0.0] * 4 + [1.0] * 4

    def test_local_view_forbidden_inside_phase(self):
        @ppm_function
        def kernel(ctx, A):
            yield ctx.global_phase
            A.local_view(0)

        def main(ppm):
            A = ppm.global_shared("A", 8)
            ppm.do(1, kernel, A)

        with pytest.raises(Exception, match="driver"):
            run_ppm(main, _cluster())

    def test_instance_forbidden_inside_phase(self):
        @ppm_function
        def kernel(ctx, B):
            yield ctx.node_phase
            B.instance(0)

        def main(ppm):
            B = ppm.node_shared("B", 4)
            ppm.do(1, kernel, B)

        with pytest.raises(Exception, match="driver"):
            run_ppm(main, _cluster())


class TestGeneratorWrapperTrap:
    def test_lambda_wrapping_generator_function_rejected(self):
        """A lambda around a multi-phase PPM function silently skips
        every phase unless the runtime catches it — it must raise."""

        @ppm_function
        def real(ctx):
            yield ctx.global_phase

        def main(ppm):
            ppm.do(1, lambda ctx: real(ctx))

        with pytest.raises(Exception, match="generator"):
            run_ppm(main, _cluster())

    def test_functools_partial_works(self):
        import functools

        @ppm_function
        def kernel(ctx, A, value):
            yield ctx.global_phase
            A[ctx.global_rank] = value

        def main(ppm):
            A = ppm.global_shared("A", 4)
            ppm.do(2, functools.partial(kernel, value=3.0), A)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert (a == 3.0).all()
