"""The PhaseTrace log: a repeated shape's wire events and a round's VP
reports are one entry each, yet what a reader sees — the materialised
``events``, a subscriber's stream, the report — is the per-event
stream, element for element."""

from __future__ import annotations

import math
from functools import partial

import pytest

from repro.apps.cg import build_chimney_problem, ppm_cg_solve
from repro.config import testing as mkconfig
from repro.core import run_ppm
from repro.machine import Cluster
from repro.obs import RunReport
from repro.obs.events import (
    BundleFlushed,
    MessageRecv,
    MessageSend,
    NodeSlice,
    PhaseBegin,
    PhaseCommit,
    PhaseTrace,
    VpScheduled,
    WorkerSpan,
)
from repro.resilience import FaultPlan, ResiliencePolicy


def _cluster():
    return Cluster(mkconfig(n_nodes=2, cores_per_node=2))


def _cg(trace, **opts):
    ppm_cg_solve(
        build_chimney_problem(4), _cluster(), max_iters=5, tol=0.0, trace=trace, **opts
    )


def _node_phase(trace):
    """The kernel of test_events' test_node_phase_emits_node_scoped_events."""

    def main(ppm):
        S = ppm.node_shared("s", 4)

        def kernel(ctx, S):
            yield ctx.node_phase
            S[ctx.node_rank % 4] = 1.0
            ctx.work(10)

        ppm.do(4, kernel, S)

    run_ppm(main, _cluster(), trace=trace)


RUNS = {
    "inline-cg": _cg,
    "node-phase": _node_phase,
    "process-cg": partial(_cg, executor="process", workers=2),
    "crash-recover": lambda t: _cg(
        t,
        resilience=ResiliencePolicy(
            faults=FaultPlan(seed=5).crash(node=1, phase=7), checkpoint_every=3
        ),
    ),
}


def _host_free(events):
    """``events`` with the one host-time field zeroed (a WorkerSpan's
    ``host_s`` differs between two runs; its position does not)."""
    return [e._replace(host_s=0.0) if type(e) is WorkerSpan else e for e in events]


@pytest.mark.parametrize("name", RUNS)
class TestStreamEquivalence:
    def test_a_subscriber_sees_the_materialised_stream(self, name):
        logged = PhaseTrace()
        RUNS[name](logged)
        watched, seen = PhaseTrace(), []
        watched.subscribe(seen.append)
        RUNS[name](watched)
        events = logged.events
        assert len(logged._log) < len(events), "nothing was logged by reference"
        assert _host_free(seen) == _host_free(events)
        assert watched.events == seen
        kinds = {e.kind for e in events}
        assert ("worker_span" in kinds) == (name == "process-cg")
        assert ("recovery" in kinds) == (name == "crash-recover")

    def test_the_log_folds_to_the_per_event_report(self, name):
        trace = PhaseTrace()
        RUNS[name](trace)
        assert RunReport.from_trace(trace) == RunReport.from_events(list(trace.events))


def _commit(phase):
    ns = NodeSlice(node=0, t0=0.0, compute=0.0, commit_cpu=0.0, comm=0.0,
                   overlapped=0.0, arrival=0.0, wait=0.0)
    return PhaseCommit(phase=phase, phase_kind="global", latency_rounds=0, t=0.0,
                       t_end=1.0, messages=1, nbytes=8, collectives=0, nodes=(ns,))


TEMPLATES = [
    (BundleFlushed, (0, "A", "read", 2, 2, 2, 1, 1, 1)),
    (MessageSend, (0, 1, "A", "read_request", 1, 8)),
    (MessageRecv, (0, 1, "A", "read_request", 1, 8)),
]


class TestPhaseTraceLog:
    def test_len_counts_typed_events_not_entries(self):
        trace = PhaseTrace()
        trace.emit(PhaseBegin(0, "global", 0, 2, (0,), 0.0))
        trace.emit_run(0, [0, 0, 0, 1.0, 0, 1, 1, 2.0])
        trace.emit_wire(0, TEMPLATES)
        trace.emit_wire(0, [])  # an empty shape logs nothing
        trace.emit_run(0, [])
        assert len(trace._log) == 3
        assert len(trace) == 1 + 2 + len(TEMPLATES)
        assert list(trace)[1:3] == [VpScheduled(0, 0, 0, 0, 1.0), VpScheduled(0, 0, 1, 1, 2.0)]
        assert list(trace)[3] == BundleFlushed(0, 0, "A", "read", 2, 2, 2, 1, 1, 1)

    def test_an_emit_after_a_read_appears_in_the_next_read(self):
        trace = PhaseTrace()
        trace.emit_wire(3, TEMPLATES)
        first = list(trace.events)
        trace.emit_run(3, [1, 0, 7, 0.5])
        trace.emit(_commit(3))
        assert trace.events == [*first, VpScheduled(3, 1, 0, 7, 0.5), _commit(3)]
        assert [e.phase for e in trace.by_kind("message_send")] == [3]

    def test_clear_drops_the_materialised_events(self):
        trace = PhaseTrace()
        trace.emit_wire(0, TEMPLATES)
        assert len(trace) == len(TEMPLATES)
        trace.clear()
        assert len(trace) == 0 and trace.events == []
        trace.emit_run(1, [0, 0, 0, 1.0])
        assert trace.events == [VpScheduled(1, 0, 0, 0, 1.0)]

    def test_a_run_folds_its_costs_in_order(self):
        """The report adds a run's costs one at a time, as the per-event
        fold does.  ``sum()`` would not: Python 3.12 compensates."""
        costs = [1e16, 1.0, -1e16]
        work = 0.0
        for cost in costs:
            work += cost
        assert work != math.fsum(costs)  # the order shows in the result
        trace = PhaseTrace()
        trace.emit_run(0, [x for vp, cost in enumerate(costs) for x in (0, 0, vp, cost)])
        trace.emit_wire(0, TEMPLATES)
        trace.emit(_commit(0))
        report = RunReport.from_trace(trace)
        assert report.phases[0].vp_work == work
        assert report == RunReport.from_events(list(trace.events))
