"""Tests for overlap certificates and ``sanitize="auto"``.

The contract under test: ``"auto"`` is strict dynamic checking whose
per-phase conflict check is skipped exactly where the static verifier
proved it redundant — with committed arrays and simulated times
bitwise-identical to ``"strict"`` — and certificates never make a run
*less* safe (uncertifiable kernels fall back to the full check).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.analysis.certify import certificate_for
from repro.apps.cg.problem import build_chimney_problem
from repro.apps.cg.ppm_cg import ppm_cg_solve
from repro.apps.common import split_range
from repro.config import MachineConfig
from repro.config import testing as mkconfig
from repro.core import PhaseConflictError, ppm_function, run_ppm
from repro.machine import Cluster


@ppm_function
def chunked_kernel(ctx, X):
    lo, hi = split_range(X.shape[0], ctx.global_vp_count)[ctx.global_rank]
    yield ctx.global_phase
    X[lo:hi] = float(ctx.global_rank)
    yield ctx.global_phase
    doubled = X[lo:hi] * 2.0
    X[lo:hi] = doubled


@ppm_function
def conflicting_kernel(ctx, X):
    yield ctx.global_phase
    X[0] = float(ctx.global_rank)


@ppm_function
def offset_kernel(X, ctx, offset):
    # Declared for partial use: the pre-bound shared handle comes
    # first, the runtime-supplied ctx after it.
    yield ctx.global_phase
    X[offset + ctx.global_rank] = 1.0


def chunked_main(ppm):
    X = ppm.global_shared("x", 16)
    ppm.do(2, chunked_kernel, X)
    return X.committed


def conflicting_main(ppm):
    X = ppm.global_shared("x", 4)
    ppm.do(2, conflicting_kernel, X)
    return X.committed


# ======================================================================
# certificate_for
# ======================================================================
class TestCertificateFor:
    def test_certifies_chunked_kernel(self, cluster2x2):
        ppm, _ = run_ppm(chunked_main, cluster2x2)
        # Rebuild the certificate the runtime would compute.
        [x] = [
            h for h in ppm.runtime.shared_registry.values()
        ]
        cert = certificate_for(chunked_kernel, (x,), {})
        assert cert is not None
        assert not cert.whole  # generator kernels certify per-line

    def test_conflicting_kernel_gets_no_certified_lines(self, cluster2x2):
        ppm, _ = run_ppm(
            conflicting_main, cluster2x2, sanitize="warn"
        )
        [x] = list(ppm.runtime.shared_registry.values())
        cert = certificate_for(conflicting_kernel, (x,), {})
        assert cert is None or not cert.certified

    def test_partial_wrapped_kernel_certifies(self, cluster2x2):
        """functools.partial pre-bound args resolve to leading params."""

        def main(ppm):
            X = ppm.global_shared("x", 32)
            ppm.do(2, functools.partial(offset_kernel, X), 4)
            return X.committed

        ppm, committed = run_ppm(main, cluster2x2, sanitize="auto")
        assert ppm.runtime.stats_certified_phases == 1
        assert ppm.runtime.sanitizer.phases_checked == 0
        assert committed[4] == 1.0 and committed[7] == 1.0
        # Re-derive directly: partial(kernel, X) leaves (ctx, offset).
        [x] = list(ppm.runtime.shared_registry.values())
        cert = certificate_for(
            functools.partial(offset_kernel, x), (4,), {}
        )
        assert cert is not None

    def test_cache_lives_on_the_function(self, cluster2x2):
        ppm, _ = run_ppm(chunked_main, cluster2x2)
        [x] = list(ppm.runtime.shared_registry.values())
        c1 = certificate_for(chunked_kernel, (x,), {})
        c2 = certificate_for(chunked_kernel, (x,), {})
        assert c1 is c2
        assert hasattr(chunked_kernel, "__ppm_certificates__")


# ======================================================================
# sanitize="auto" end to end
# ======================================================================
class TestSanitizeAuto:
    def test_auto_matches_strict_bitwise_and_skips_checks(self, config2x2):
        ppm_a, out_a = run_ppm(
            chunked_main, Cluster(config2x2), sanitize="auto"
        )
        ppm_s, out_s = run_ppm(
            chunked_main, Cluster(config2x2), sanitize="strict"
        )
        assert np.array_equal(out_a, out_s)
        assert ppm_a.elapsed == ppm_s.elapsed
        assert ppm_a.runtime.stats_certified_phases == 2
        assert ppm_a.runtime.sanitizer.phases_checked == 0
        assert ppm_s.runtime.sanitizer.phases_checked > 0

    def test_auto_still_catches_real_conflicts(self, config2x2):
        with pytest.raises(PhaseConflictError):
            run_ppm(conflicting_main, Cluster(config2x2), sanitize="auto")

    def test_cg_auto_is_bitwise_identical_to_strict(self):
        """The acceptance case: certified CG under "auto" skips all
        per-phase checks yet commits the same bits as "strict"."""
        problem = build_chimney_problem(8)

        def solve(mode):
            cluster = Cluster(mkconfig(n_nodes=2, cores_per_node=2))
            return ppm_cg_solve(
                problem, cluster, max_iters=8, sanitize=mode
            )

        res_a, t_a = solve("auto")
        res_s, t_s = solve("strict")
        assert np.array_equal(res_a.x, res_s.x)
        assert t_a == t_s


# ======================================================================
# Certificates never change simulated time
# ======================================================================
class TestCertificatesDoNotTime:
    def test_auto_times_identically_to_unsanitized(self, config2x2):
        ppm_plain, _ = run_ppm(chunked_main, Cluster(config2x2))
        ppm_auto, _ = run_ppm(
            chunked_main, Cluster(config2x2), sanitize="auto"
        )
        assert ppm_plain.elapsed == ppm_auto.elapsed

    def test_config_has_no_certified_overlap_knob(self):
        with pytest.raises(TypeError):
            MachineConfig(certified_overlap_fraction=1.0)
