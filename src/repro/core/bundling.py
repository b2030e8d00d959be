"""Commit-time traffic aggregation — the runtime's bundling engine.

The paper's central performance claim is that "the PPM runtime library
is capable of bundling up fine-grained remote shared data accesses into
coarse-grained packages in order to reduce overall communication
overhead" (section 3.3).  This module implements that aggregation: at a
phase commit, every node's recorded fine-grained reads and writes are
deduplicated (the runtime keeps one copy per node, like a software
cache) and split by owning node, producing per-(reader, owner) element
counts that the network model turns into bundled message costs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from repro.core.phase import PhaseRecorder
from repro.core.rowset import block_counts
from repro.core.shared import GlobalShared, RowSpec

_SPEC_COUNT = operator.attrgetter("count")


@dataclass
class PeerTraffic:
    """Unique elements one node exchanges with one owner for one
    shared variable during one phase."""

    shared: GlobalShared
    owner: int
    read_elems: int = 0
    write_elems: int = 0


@dataclass
class NodeTraffic:
    """One node's commit-time traffic summary."""

    node_id: int
    peers: list[PeerTraffic] = field(default_factory=list)
    local_read_elems: int = 0
    local_write_elems: int = 0

    @property
    def remote_read_elems(self) -> int:
        return sum(p.read_elems for p in self.peers)


class PhaseTraffic(dict):
    """``node id -> NodeTraffic`` for one phase, plus ``flushes``: one
    row per (node, variable, direction) aggregation, in first-access
    order — the fields of a :class:`~repro.obs.events.BundleFlushed`
    after ``phase``, names and counts only, from which a traced run
    reports the raw-vs-deduplicated numbers behind the bundling claim
    (:func:`repro.core.scheduler.wire_events`)."""

    __slots__ = ("flushes",)


def _owner_elem_pairs(
    shared: GlobalShared, specs: list[RowSpec], exact_elems: int
) -> list[tuple[int, int]]:
    """``(owner, elems)`` pairs for the union of ``specs``.

    ``elems`` is the owner's unique-row count
    (:func:`repro.core.rowset.block_counts` against the block-partition
    boundaries, exact on each of its three set forms) scaled by the
    access density — tuple indices may address only part of each row;
    the exact per-access element totals tell us by how much — and
    floored at one element per touched owner.
    """
    trailing = shared._trailing
    pairs = block_counts(specs, shared._starts)
    raw = sum(map(_SPEC_COUNT, specs)) * trailing
    if exact_elems < raw:
        scale = exact_elems / raw
        return [(o, max(1, int(round(n * trailing * scale)))) for o, n in pairs]
    return [(o, n * trailing) for o, n in pairs]


def _groups(footprints: list, ends) -> dict[tuple, list]:
    """``(node id, shared) -> [row specs, exact elements, accesses]``
    over a recorder's flat footprint list, ``ends`` closing each node's
    run — in first-access order, which is the order of the aggregation
    rows (and so of a trace's per-group events)."""
    groups: dict[tuple, list] = {}
    lo = 0
    for node_id, hi in ends:
        run: dict = {}  # this run's groups, by variable
        for spec in footprints[lo:hi]:
            group = run.get(spec.shared)
            if group is None:
                group = run[spec.shared] = groups.setdefault(
                    (node_id, spec.shared), [[], 0, 0]
                )
            group[0].append(spec)
            group[1] += spec.elems
            group[2] += spec.ops
        lo = hi
    return groups


def aggregate_traffic(recorder: PhaseRecorder) -> PhaseTraffic:
    """Aggregate a phase's recorded global-shared accesses.

    Returns a :class:`NodeTraffic` for every node that touched a
    global shared variable, with per-owner deduplicated element counts
    for reads and writes separately, and the aggregation rows
    (:attr:`PhaseTraffic.flushes`).  It emits nothing and is the same
    work traced or not.

    This is the inspector half of a phase plan: the runtime calls it
    for the first round of each phase shape and keeps the result for
    the repeats.
    """
    traffic = PhaseTraffic()
    flushes = traffic.flushes = []
    peer_map: dict[tuple[int, int, int], PeerTraffic] = {}
    marks = recorder.marks
    for direction, groups in (
        ("read", _groups(recorder.reads, [(n, r) for n, r, _w in marks])),
        ("write", _groups(recorder.writes, [(n, w) for n, _r, w in marks])),
    ):
        for (node_id, shared), (specs, exact_elems, ops) in groups.items():
            nt = traffic.get(node_id)
            if nt is None:
                nt = traffic[node_id] = NodeTraffic(node_id)
            local = remote = peers = 0
            for owner, elems in _owner_elem_pairs(shared, specs, exact_elems):
                if owner == node_id:
                    local += elems
                    continue
                key = (node_id, id(shared), owner)
                p = peer_map.get(key)
                if p is None:
                    p = peer_map[key] = PeerTraffic(shared=shared, owner=owner)
                    nt.peers.append(p)
                if direction == "read":
                    p.read_elems += elems
                else:
                    p.write_elems += elems
                remote += elems
                peers += 1
            if direction == "read":
                nt.local_read_elems += local
            else:
                nt.local_write_elems += local
            flushes.append(
                (node_id, shared.name, direction, ops, exact_elems,
                 local + remote, local, remote, peers)
            )
    return traffic
