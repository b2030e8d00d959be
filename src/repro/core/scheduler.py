"""Phase timing composition: cores, communication, overlap.

The runtime maps VPs onto cores as contiguous loop chunks
(:func:`repro.core.vp.core_of`); a phase's node-level compute time is
therefore the maximum per-core sum of VP costs.  Communication time
comes from the bundled traffic; the runtime hides a configurable
fraction of it under the computation (paper section 3.3: "scheduling
communication needs and computation tasks to enable (automatic)
overlap of computation and communication").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineConfig
from repro.core.bundling import NodeTraffic, PhaseTraffic
from repro.machine.network import ZERO_COST, BundleCost, NetworkModel
from repro.obs.events import BundleFlushed, MessageRecv, MessageSend


@dataclass(frozen=True)
class PhaseTiming:
    """Timing breakdown of one phase on one node."""

    compute: float
    commit_cpu: float
    comm: float
    overlapped: float

    @property
    def busy(self) -> float:
        """Seconds the node is busy with this phase (before barrier)."""
        return self.compute + self.commit_cpu + self.comm - self.overlapped


def lpt_core_map(
    vp_costs: list[tuple[int, float]], cores: int
) -> dict[int, int] | None:
    """Greedy longest-processing-time-first VP→core packing.

    ``vp_costs`` pairs each VP's node rank with its measured cost from
    the previous phase; the result maps node rank → core id.  Returns
    ``None`` when no VP has history yet (callers keep the static
    contiguous chunks).  Deterministic: ties break on VP rank, then
    core id — both the inline engine and the process backend derive a
    phase's core map through this one function, so load-balanced runs
    stay bitwise identical across executors.
    """
    if not any(cost for _, cost in vp_costs):
        return None
    order = sorted(vp_costs, key=lambda rc: (-rc[1], rc[0]))
    loads = [0.0] * cores
    assignment: dict[int, float] = {}
    for rank, cost in order:
        core = min(range(cores), key=lambda c: (loads[c], c))
        assignment[rank] = core
        loads[core] += cost
    return assignment


def node_compute_time(core_costs: dict[int, float]) -> float:
    """Node compute time: the slowest core's accumulated VP cost."""
    if not core_costs:
        return 0.0
    return max(core_costs.values())


def _transfers(network: NetworkModel, p):
    """One peer entry's bundled wire transfers, in issue order, as
    ``(purpose, BundleCost)``: a read is an index bundle to the owner
    (``read_request``) answered by a dense data bundle
    (``read_reply``), a write one indexed data bundle
    (``write_bundle``)."""
    if p.read_elems:
        yield "read_request", network.bundle(
            p.read_elems, False, element_bytes=0, with_index=True
        )
        yield "read_reply", network.bundle(
            p.read_elems, False, element_bytes=p.shared.itemsize, with_index=False
        )
    if p.write_elems:
        yield "write_bundle", network.bundle(
            p.write_elems, False, element_bytes=p.shared.itemsize, with_index=True
        )


def node_comm_cost(
    network: NetworkModel, traffic: NodeTraffic, *, latency_rounds: int = 1
) -> BundleCost:
    """Bundled communication cost of one node's phase traffic.

    The runtime issues the bundles for all peers concurrently, so
    network *latency* is paid once per serialised fetch round (a
    request/reply pair, times ``latency_rounds`` for data-driven
    chains), while *bandwidth* is serialised through the node's NIC
    (total bytes times beta) and per-message CPU overhead accumulates
    over every bundle.

    Pricing never sees the tracer: the result depends on the node's
    peer footprint alone, so the runtime prices each distinct
    footprint of a phase shape once, traced or not, and a trace gets
    its per-transfer events from :func:`wire_events`.
    """
    cfg = network.config
    msgs = 0
    nbytes = 0
    has_reads = False
    has_writes = False
    for p in traffic.peers:
        for _purpose, cost in _transfers(network, p):
            msgs += cost.messages
            nbytes += cost.payload_bytes
        has_reads = has_reads or p.read_elems > 0
        has_writes = has_writes or p.write_elems > 0
    if msgs == 0:
        return ZERO_COST
    latency_hops = 0
    if has_reads:
        latency_hops += 2 * latency_rounds  # request + reply per round
    if has_writes:
        latency_hops += 1
    wire = nbytes * cfg.net_beta + latency_hops * cfg.net_alpha
    cpu = msgs * cfg.mpi_msg_overhead
    return BundleCost(messages=msgs, payload_bytes=nbytes, wire_time=wire, cpu_time=cpu)


def peer_owner_messages(network: NetworkModel, p) -> int:
    """Message count of one peer entry's traffic, as the owner sees it
    (latency rounds never change message counts).  The runtime charges
    the owner ``messages * mpi_msg_overhead`` per peer, once per phase
    shape (the result lives in the phase plan)."""
    return sum(cost.messages for _purpose, cost in _transfers(network, p))


def wire_events(network: NetworkModel, traffic: PhaseTraffic) -> list[tuple]:
    """What a trace reports about a phase shape's traffic, as
    ``(event class, fields after phase)`` templates in emission order:
    one :class:`~repro.obs.events.BundleFlushed` per aggregation row,
    then per node and peer a ``MessageSend``/``MessageRecv`` pair for
    every wire transfer (read requests and write bundles travel
    node→owner, read replies owner→node).  Names and integers only.
    The runtime derives them from a phase plan's stored traffic the
    first time a traced round needs them and stamps each traced
    round's phase index on them, so every transfer of every round is
    reported exactly once."""
    events = [(BundleFlushed, row) for row in traffic.flushes]
    for node_id, nt in traffic.items():
        for p in nt.peers:
            for purpose, cost in _transfers(network, p):
                ends = (p.owner, node_id) if purpose == "read_reply" else (node_id, p.owner)
                fields = (*ends, p.shared.name, purpose, cost.messages, cost.payload_bytes)
                events += ((MessageSend, fields), (MessageRecv, fields))
    return events


def compose_phase_timing(
    config: MachineConfig,
    network: NetworkModel,
    *,
    compute: float,
    commit_cpu: float,
    comm_cost: BundleCost,
    extra_comm_cpu: float = 0.0,
    certified: bool = False,
) -> PhaseTiming:
    """Combine compute, commit and communication into a node's phase
    timing, applying NIC scheduling/contention and overlap.

    ``certified`` marks a phase carrying a static conflict-freedom
    certificate (:mod:`repro.analysis.certify`): its remote traffic
    touches rows proven disjoint across VPs, so the scheduler may hide
    ``config.certified_overlap_fraction`` of it under compute instead
    of the default ``overlap_fraction``.  With the default
    ``certified_overlap_fraction=None`` the flag changes nothing, so
    certified and uncertified runs stay time-identical.
    """
    if config.nic_scheduling:
        factor = 1.0
    else:
        factor = network.contention_factor(config.cores_per_node)
    comm = comm_cost.wire_time * factor + comm_cost.cpu_time + extra_comm_cpu
    fraction = config.overlap_fraction
    if certified and config.certified_overlap_fraction is not None:
        fraction = config.certified_overlap_fraction
    if fraction > 0.0:
        overlapped = min(comm, fraction * compute)
    else:
        overlapped = 0.0
    return PhaseTiming(
        compute=compute, commit_cpu=commit_cpu, comm=comm, overlapped=overlapped
    )
