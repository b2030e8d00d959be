"""Event-emission tests: every instrumented site fires exactly once
per occurrence, and untraced runs emit nothing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.core import run_ppm
from repro.core.errors import VpProgramError
from repro.machine import Cluster
from repro.obs.events import (
    EVENT_TYPES,
    BarrierWait,
    BundleFlushed,
    Event,
    EventBus,
    MessageRecv,
    MessageSend,
    NodeSlice,
    PhaseBegin,
    PhaseCommit,
    PhaseTrace,
    VpScheduled,
    event_from_dict,
)


def _two_phase_program(ppm):
    """Two global phases over 8 VPs on 2 nodes: a remote-read phase
    and a remote-write phase."""
    A = ppm.global_shared("A", 32)
    out = ppm.node_shared("out", 8)

    def kernel(ctx, A, out):
        yield ctx.global_phase
        vals = A[[(ctx.global_rank * 5) % 32, (ctx.global_rank * 11) % 32]]
        ctx.work(50)
        out[ctx.global_rank % 8] = float(np.sum(vals))
        yield ctx.global_phase
        A[[(ctx.global_rank * 3) % 32]] = [1.0]
        ctx.work(10)

    ppm.do(8, kernel, A, out)
    return out.instance(0).copy()


@pytest.fixture
def traced_run():
    trace = PhaseTrace()
    cluster = Cluster(mkconfig(n_nodes=2, cores_per_node=2))
    ppm, result = run_ppm(_two_phase_program, cluster, trace=trace)
    return ppm, result, trace


class TestEventBus:
    def test_emit_and_iterate(self):
        bus = EventBus()
        ev = VpScheduled(phase=0, node=0, core=0, vp=0, cost=1.0)
        bus.emit(ev)
        assert len(bus) == 1
        assert list(bus) == [ev]

    def test_subscribers_see_every_emit(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        ev = VpScheduled(phase=0, node=0, core=0, vp=0, cost=1.0)
        bus.emit(ev)
        assert seen == [ev]

    def test_clear_keeps_subscribers(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(VpScheduled(phase=0, node=0, core=0, vp=0, cost=1.0))
        bus.clear()
        assert len(bus) == 0
        bus.emit(VpScheduled(phase=1, node=0, core=0, vp=0, cost=1.0))
        assert len(seen) == 2

    def test_roundtrip_every_event_type(self):
        for kind, cls in EVENT_TYPES.items():
            assert cls.kind == kind
        ev = MessageSend(
            phase=3, src=0, dst=1, variable="A", purpose="read_request",
            messages=2, nbytes=128,
        )
        assert event_from_dict(ev.to_dict()) == ev
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"event": "nope"})


def _sample(cls):
    """An instance of ``cls`` with a distinct value in every field."""
    values = {name: i + 1 for i, name in enumerate(cls._fields)}
    if cls is PhaseCommit:
        values["nodes"] = (_sample(NodeSlice),)
    elif cls is PhaseBegin:
        values["nodes"] = (0, 1)
    return cls(**values)


VALUE_TYPES = [*EVENT_TYPES.values(), NodeSlice]


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
class TestValueTypes:
    """Every event class (and the slice nested in ``PhaseCommit``) is
    the same kind of immutable value."""

    def test_fields_cannot_be_assigned(self, cls):
        ev = _sample(cls)
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(ev, name, 0)
        assert ev == _sample(cls)

    def test_hashable_and_equal_by_value(self, cls):
        assert hash(_sample(cls)) == hash(_sample(cls))
        assert len({_sample(cls), _sample(cls)}) == 1
        first = cls._fields[0]
        changed = _sample(cls)._replace(**{first: -1})
        assert changed != _sample(cls) and not changed == _sample(cls)

    def test_positional_equals_keyword_construction(self, cls):
        ev = _sample(cls)
        assert cls(*ev) == ev
        assert cls(*ev[:2], **dict(zip(cls._fields[2:], ev[2:]))) == ev
        assert [getattr(ev, name) for name in cls._fields] == list(ev)
        with pytest.raises(TypeError):
            cls(*ev[:-1])
        with pytest.raises(TypeError):
            cls(*ev, 0)

    def test_never_equal_across_classes(self, cls):
        """E.g. a ``MessageSend`` and the ``MessageRecv`` with the same
        fields, which plain tuples would call equal."""
        ev = _sample(cls)
        assert ev != tuple(ev) and tuple(ev) != ev
        for other in VALUE_TYPES:
            if other is not cls and len(other._fields) == len(cls._fields):
                twin = other(*ev)
                assert tuple(twin) == tuple(ev)
                assert ev != twin and not ev == twin
                assert len({ev, twin}) == 2

    def test_to_dict_lists_the_fields_in_order(self, cls):
        d = _sample(cls).to_dict()
        if cls is NodeSlice:
            assert list(d) == list(cls._fields)
            return
        assert issubclass(cls, Event) and cls._fields[0] == "phase"
        assert list(d) == [*cls._fields, "event"]
        assert d["event"] == cls.kind and EVENT_TYPES[cls.kind] is cls

    def test_round_trips_through_its_dict(self, cls):
        if cls is NodeSlice:
            return  # travels inside PhaseCommit
        ev = _sample(cls)
        wire = json.loads(json.dumps(ev.to_dict()))
        assert event_from_dict(wire) == ev
        assert json.dumps(event_from_dict(wire).to_dict()) == json.dumps(ev.to_dict())


class TestDamagedTraceEvents:
    """A trace file is outside input: a damaged event is a ValueError
    naming the kind and the field, not a constructor's TypeError."""

    def test_missing_field(self):
        d = VpScheduled(phase=0, node=0, core=0, vp=1, cost=1.0).to_dict()
        del d["cost"]
        with pytest.raises(ValueError, match=r"vp_scheduled event: missing field\(s\) \['cost'\], unexpected field\(s\) \[\]"):
            event_from_dict(d)

    def test_unexpected_field(self):
        d = VpScheduled(phase=0, node=0, core=0, vp=1, cost=1.0).to_dict()
        d["colour"] = "red"
        with pytest.raises(ValueError, match=r"vp_scheduled event: missing field\(s\) \[\], unexpected field\(s\) \['colour'\]"):
            event_from_dict(d)

    def test_both_at_once_and_in_a_node_slice(self):
        d = _sample(PhaseCommit).to_dict()
        d["nodes"] = [dict(d["nodes"][0], t_0=0.0)]
        del d["nodes"][0]["t0"]
        with pytest.raises(
            ValueError,
            match=r"phase_commit event, node slice: missing field\(s\) \['t0'\], "
            r"unexpected field\(s\) \['t_0'\]",
        ):
            event_from_dict(d)


class TestEmissionCounts:
    def test_a_raising_body_keeps_its_predecessors_in_the_trace(self):
        """``VpScheduled`` is reported per VP as the stepping loop goes,
        so the trace of a failed round shows who ran before the
        failure."""

        def kernel(ctx, A):
            for round_no in range(3):
                yield ctx.global_phase
                if round_no == 2 and ctx.global_rank == 5:
                    raise RuntimeError("boom")
                A[ctx.global_rank] = float(round_no)

        def main(ppm):
            ppm.do(4, kernel, ppm.global_shared("A", 8))

        trace = PhaseTrace()
        with pytest.raises(VpProgramError, match="boom"):
            run_ppm(main, Cluster(mkconfig(n_nodes=2, cores_per_node=2)), trace=trace)
        resumed = {
            phase: [e.vp for e in trace.by_kind("vp_scheduled") if e.phase == phase]
            for phase in (0, 1, 2)
        }
        assert resumed == {0: list(range(8)), 1: list(range(8)), 2: [0, 1, 2, 3, 4]}
        assert [e.phase for e in trace.by_kind("phase_commit")] == [0, 1]

    def test_untraced_run_emits_nothing(self):
        cluster = Cluster(mkconfig(n_nodes=2, cores_per_node=2))
        ppm, _ = run_ppm(_two_phase_program, cluster)
        assert ppm.tracer is None
        assert cluster.network.tracer is None

    def test_phase_begin_and_commit_once_per_phase(self, traced_run):
        _, _, trace = traced_run
        begins = list(trace.by_kind("phase_begin"))
        commits = list(trace.by_kind("phase_commit"))
        assert len(begins) == 2
        assert len(commits) == 2
        assert [b.phase for b in begins] == [0, 1]
        assert [c.phase for c in commits] == [0, 1]
        for c in commits:
            assert isinstance(c, PhaseCommit)
            assert c.phase_kind == "global"
            assert len(c.nodes) == 2  # one slice per cluster node

    def test_vp_scheduled_once_per_vp_per_phase(self, traced_run):
        _, _, trace = traced_run
        for phase in (0, 1):
            scheduled = [
                e for e in trace.by_kind("vp_scheduled") if e.phase == phase
            ]
            # 8 VPs per node phase round (mkconfig counts VPs per node).
            keys = [(e.node, e.vp) for e in scheduled]
            assert len(keys) == len(set(keys)), "a VP was reported twice"
            assert all(isinstance(e, VpScheduled) for e in scheduled)
            begin = next(
                b for b in trace.by_kind("phase_begin") if b.phase == phase
            )
            assert len(scheduled) == begin.vps

    def test_bundle_flushed_once_per_node_variable_direction(self, traced_run):
        _, _, trace = traced_run
        flushes = list(trace.by_kind("bundle_flushed"))
        keys = [(e.phase, e.node, e.variable, e.direction) for e in flushes]
        assert len(keys) == len(set(keys))
        reads = [e for e in flushes if e.phase == 0 and e.direction == "read"]
        assert {e.node for e in reads} == {0, 1}
        for e in flushes:
            assert isinstance(e, BundleFlushed)
            assert e.unique_elems == e.local_elems + e.remote_elems
            assert e.raw_elems >= e.unique_elems

    def test_every_send_paired_with_recv(self, traced_run):
        _, _, trace = traced_run
        sends = list(trace.by_kind("message_send"))
        recvs = list(trace.by_kind("message_recv"))
        assert sends, "remote reads must produce wire traffic"
        assert len(sends) == len(recvs)
        pair = lambda e: (e.phase, e.src, e.dst, e.variable, e.purpose, e.messages, e.nbytes)
        assert sorted(map(pair, sends)) == sorted(map(pair, recvs))
        for e in sends:
            assert isinstance(e, MessageSend)
            assert e.src != e.dst, "local traffic must not hit the wire"
        assert all(isinstance(e, MessageRecv) for e in recvs)

    def test_barrier_wait_once_per_global_phase(self, traced_run):
        _, _, trace = traced_run
        waits = list(trace.by_kind("barrier_wait"))
        assert [w.phase for w in waits] == [0, 1]
        for w in waits:
            assert isinstance(w, BarrierWait)
            assert w.scope == "cluster"
            assert w.participants == 2

    def test_phase_begin_fields(self, traced_run):
        _, _, trace = traced_run
        begin = next(iter(trace.by_kind("phase_begin")))
        assert isinstance(begin, PhaseBegin)
        assert begin.phase_kind == "global"
        assert begin.nodes == (0, 1)

    def test_node_phase_emits_node_scoped_events(self):
        trace = PhaseTrace()
        cluster = Cluster(mkconfig(n_nodes=2, cores_per_node=2))

        def main(ppm):
            S = ppm.node_shared("s", 4)

            def kernel(ctx, S):
                yield ctx.node_phase
                S[ctx.node_rank % 4] = 1.0
                ctx.work(10)

            ppm.do(4, kernel, S)

        run_ppm(main, cluster, trace=trace)
        commits = list(trace.by_kind("phase_commit"))
        assert len(commits) == 2  # one node phase per node
        assert all(c.phase_kind == "node" for c in commits)
        waits = list(trace.by_kind("barrier_wait"))
        assert waits and all(w.scope == "node" for w in waits)
