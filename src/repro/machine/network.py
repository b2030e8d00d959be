"""Network cost model for the simulated cluster.

All communication time in the repository flows through this module so
that the PPM runtime, the MPI library and the benchmarks charge costs
consistently.  The model is a classic alpha/beta (latency/bandwidth)
switch-level model with three paper-motivated refinements:

1. **Intra-node messages** have their own (cheaper) alpha/beta but
   still pay a per-message CPU overhead — the effect the paper's
   section 4.5 calls out for MPI ranks sharing a node.
2. **Bundling**: the PPM runtime coalesces fine-grained accesses into
   messages of at most ``bundle_max_bytes``; :meth:`NetworkModel.bundle`
   computes message counts, wire time and CPU time for a coalesced
   transfer, and :meth:`NetworkModel.unbundled` the one-message-per-
   element disaster used by the bundling ablation.
3. **NIC contention**: when several cores of one node inject traffic
   without coordination, the node's effective injection time inflates
   by ``1 + (R - 1) * nic_contention_coeff`` (paper section 3.3:
   "reduce contention of multiple cores competing for network
   resources").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import MachineConfig
from repro.obs.events import BarrierWait


@dataclass(frozen=True)
class BundleCost:
    """Cost breakdown of a (possibly multi-message) transfer.

    Attributes
    ----------
    messages:
        Number of wire messages.
    payload_bytes:
        Total payload bytes (elements plus addressing metadata).
    wire_time:
        Latency + bandwidth seconds on the network or memory bus.
    cpu_time:
        Per-message software seconds charged to the initiating side.
    """

    messages: int
    payload_bytes: int
    wire_time: float
    cpu_time: float

    @property
    def total_time(self) -> float:
        """Wire plus CPU seconds (no overlap)."""
        return self.wire_time + self.cpu_time

    def __add__(self, other: "BundleCost") -> "BundleCost":
        return BundleCost(
            messages=self.messages + other.messages,
            payload_bytes=self.payload_bytes + other.payload_bytes,
            wire_time=self.wire_time + other.wire_time,
            cpu_time=self.cpu_time + other.cpu_time,
        )


ZERO_COST = BundleCost(messages=0, payload_bytes=0, wire_time=0.0, cpu_time=0.0)


class NetworkModel:
    """Message cost formulas parameterised by a :class:`MachineConfig`.

    ``tracer`` is the observability hook: a traced PPM runtime
    attaches its :class:`~repro.obs.events.PhaseTrace` here so the
    phase-closing synchronisation formulas report
    :class:`~repro.obs.events.BarrierWait` events.  ``None`` (the
    default) keeps every formula pure.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.tracer = None

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def message_time(self, nbytes: int, intra_node: bool) -> float:
        """Wire time of one message of ``nbytes`` payload bytes."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        cfg = self.config
        if intra_node:
            return cfg.intra_alpha + nbytes * cfg.intra_beta
        return cfg.net_alpha + nbytes * cfg.net_beta

    def message_cpu_overhead(self, intra_node: bool) -> float:
        """Per-message CPU overhead on one endpoint."""
        return self.config.effective_msg_overhead(intra_node)

    # ------------------------------------------------------------------
    # Bundled fine-grained transfers (the PPM runtime's key trick)
    # ------------------------------------------------------------------
    def bundle(
        self,
        n_elements: int,
        intra_node: bool,
        *,
        element_bytes: int | None = None,
        with_index: bool = True,
    ) -> BundleCost:
        """Cost of shipping ``n_elements`` fine-grained items coalesced
        into bundles of at most ``bundle_max_bytes``.

        When ``with_index`` is true every element carries addressing
        metadata (``index_bytes``), as in a scattered read-request or a
        scattered write bundle; dense block transfers pass
        ``with_index=False``.
        """
        if n_elements < 0:
            raise ValueError(f"n_elements must be non-negative, got {n_elements}")
        if n_elements == 0:
            return ZERO_COST
        cfg = self.config
        per_elem = element_bytes if element_bytes is not None else cfg.element_bytes
        if with_index:
            per_elem += cfg.index_bytes
        payload = n_elements * per_elem
        if cfg.bundling:
            messages = max(1, math.ceil(payload / cfg.bundle_max_bytes))
        else:
            messages = n_elements  # one message per element (ablation)
        if intra_node:
            wire = messages * cfg.intra_alpha + payload * cfg.intra_beta
        else:
            wire = messages * cfg.net_alpha + payload * cfg.net_beta
        cpu = messages * self.message_cpu_overhead(intra_node)
        return BundleCost(
            messages=messages, payload_bytes=payload, wire_time=wire, cpu_time=cpu
        )

    def gather_round_trip(
        self,
        n_elements: int,
        intra_node: bool,
        *,
        element_bytes: int | None = None,
        rounds: int = 1,
    ) -> BundleCost:
        """Cost of a remote-read round trip for ``n_elements`` items:
        an index-carrying request bundle plus a dense reply bundle.

        ``rounds > 1`` models data-driven access chains (e.g. a tree
        traversal, where each fetch depends on the previous one): the
        elements are split into ``rounds`` serialised sub-fetches, so
        latency is paid per round while total bandwidth is unchanged.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if n_elements == 0:
            return ZERO_COST
        rounds = min(rounds, n_elements)
        total = ZERO_COST
        base = n_elements // rounds
        extra = n_elements % rounds
        for r in range(rounds):
            chunk = base + (1 if r < extra else 0)
            if chunk == 0:
                continue
            request = self.bundle(chunk, intra_node, element_bytes=0, with_index=True)
            reply = self.bundle(
                chunk, intra_node, element_bytes=element_bytes, with_index=False
            )
            total = total + request + reply
        return total

    # ------------------------------------------------------------------
    # NIC contention
    # ------------------------------------------------------------------
    def contention_factor(self, concurrent_streams: int) -> float:
        """Inflation of a node's injection time when ``concurrent_streams``
        cores inject uncoordinated traffic simultaneously.

        Returns 1.0 when the PPM runtime's NIC scheduling is active
        (traffic is serialised into one coordinated stream) or when at
        most one stream exists.
        """
        if concurrent_streams < 0:
            raise ValueError("concurrent_streams must be non-negative")
        if concurrent_streams <= 1:
            return 1.0
        cfg = self.config
        return 1.0 + (concurrent_streams - 1) * cfg.nic_contention_coeff

    # ------------------------------------------------------------------
    # Collectives (log-tree formulas over P participants)
    # ------------------------------------------------------------------
    @staticmethod
    def _tree_depth(participants: int) -> int:
        if participants < 1:
            raise ValueError("participants must be >= 1")
        return max(1, math.ceil(math.log2(participants))) if participants > 1 else 0

    def barrier_time(self, participants: int, *, intra_node: bool = False) -> float:
        """Time of a barrier across ``participants`` entities.

        ``intra_node`` only labels the scope of the emitted
        :class:`BarrierWait` event when a tracer is attached (a node
        phase synchronises one node's cores, a global phase the
        cluster's nodes); the cost formula is scope-independent.
        """
        t = self._tree_depth(participants) * self.config.barrier_alpha
        tr = self.tracer
        if tr is not None:
            tr.emit(
                BarrierWait(
                    phase=tr.phase,
                    scope="node" if intra_node else "cluster",
                    participants=participants,
                    duration=t,
                    fused=False,
                )
            )
        return t

    def reduce_time(self, participants: int, nbytes: int, intra_node: bool = False) -> float:
        """Time of a binomial-tree reduction of ``nbytes`` payloads."""
        depth = self._tree_depth(participants)
        return depth * self.message_time(nbytes, intra_node)

    def allreduce_time(self, participants: int, nbytes: int, intra_node: bool = False) -> float:
        """Reduce followed by broadcast (2x tree).

        A phase with collectives fuses its reduction into the closing
        barrier tree, so with a tracer attached this reports the
        phase's :class:`BarrierWait` with ``fused=True``.
        """
        t = 2.0 * self.reduce_time(participants, nbytes, intra_node)
        tr = self.tracer
        if tr is not None:
            tr.emit(
                BarrierWait(
                    phase=tr.phase,
                    scope="node" if intra_node else "cluster",
                    participants=participants,
                    duration=t,
                    fused=True,
                )
            )
        return t
