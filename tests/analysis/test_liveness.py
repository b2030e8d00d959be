"""Unit tests for the liveness pass (PPM409).

Dead writes are flagged in straight-line kernels and left alone under
phase loops; the per-phase read sets the check leans on come from the
verifier's phase summaries.
"""

from __future__ import annotations

from repro.analysis.dataflow import verify_source


def rules(diags):
    return {d.rule for d in diags}


HEADER = '''
from repro.core import ppm_function
from repro.apps.common import split_range

def build(ppm, cluster):
    X = ppm.global_shared("X", 64)
    ppm.do(cluster.total_cores(), k, X)

@ppm_function
'''


DEAD = HEADER + '''
def k(ctx, X):
    yield ctx.global_phase
    lo, hi = split_range(64, ctx.global_vp_count)[ctx.global_rank]
    X[lo:hi] = 1.0
    yield ctx.global_phase
    X[lo:hi] = 2.0
'''


PHASE_LOOP = HEADER + '''
def k(ctx, X):
    lo, hi = split_range(64, ctx.global_vp_count)[ctx.global_rank]
    for _ in range(3):
        yield ctx.global_phase
        X[lo:hi] = 1.0
'''


def verify(src, name="probe.py"):
    diags, (summary,) = verify_source(src, name)
    return diags, summary


class TestDeadWrites:
    def test_overwritten_block_is_ppm409(self):
        diags, _ = verify(DEAD)
        d = next(d for d in diags if d.rule == "PPM409")
        assert d.kernel == "k"

    def test_read_set_certificate_per_phase(self):
        _, summary = verify(DEAD)
        # Two phase segments, neither reads X (writes only).
        assert len(summary.phases) == 2
        assert all(
            a.kind != "read" for phase in summary.phases for a in phase.accesses
        )

    def test_phase_loops_disable_deadness(self):
        # Segments repeat dynamically under a phase loop: the static
        # "later phase overwrites" order is unsound, so no PPM409.
        diags, _ = verify(PHASE_LOOP)
        assert "PPM409" not in rules(diags)
