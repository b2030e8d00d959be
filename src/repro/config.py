"""Machine and cost-model configuration for the simulated cluster.

The paper evaluates PPM on *Franklin*, a Cray XT4 with 9660 four-core
nodes (paper section 4.1).  We do not have that machine, so every
experiment in this repository runs on a deterministic cost simulator
whose behaviour is fully described by a :class:`MachineConfig`.  All of
the effects the paper's discussion hinges on are explicit knobs here:

* per-message CPU overhead of MPI, including *intra-node* messages
  (paper section 4.5: "the MPI processes running on the cores of the
  same node still try to communicate by message-passing ... it can
  still incur much overhead");
* the software overhead of PPM shared-variable accesses (paper: "unlike
  accesses to variables in standard C language, accesses to the PPM
  shared variables go through the PPM runtime library, which will bring
  in some overhead");
* the runtime's ability to bundle fine-grained remote accesses, to
  overlap communication with computation, and to schedule the NIC so
  that many cores do not contend (paper section 3.3, "Automatic
  scheduling of computation and communication needs").

Times are in seconds of *simulated* time; sizes in bytes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of a simulated cluster and its cost model.

    Instances are immutable; use :meth:`replace` to derive variants
    (ablations flip single fields this way).
    """

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    n_nodes: int = 1
    """Number of nodes in the cluster."""

    cores_per_node: int = 4
    """Physical cores per node (Franklin: 4; the paper's outlook is
    "far beyond the current 4 cores per node")."""

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    flop_time: float = 1.0e-9
    """Seconds per floating-point operation on one core (sustained,
    not peak; ~1 GFlop/s per Opteron core on real kernels)."""

    mem_access_time: float = 4.0e-9
    """Seconds per irregular (cache-unfriendly) memory access on a core.
    Charged for explicitly-declared random local accesses."""

    # ------------------------------------------------------------------
    # Inter-node network (switch-level alpha/beta model)
    # ------------------------------------------------------------------
    net_alpha: float = 6.0e-6
    """Inter-node message latency in seconds (XT4 SeaStar-class)."""

    net_beta: float = 0.625e-9
    """Inter-node seconds per byte (~1.6 GB/s per link)."""

    # ------------------------------------------------------------------
    # Intra-node messaging (MPI between ranks on one node)
    # ------------------------------------------------------------------
    intra_alpha: float = 1.0e-6
    """Latency of an MPI message between two ranks of the same node.
    Cheaper than the network but, as the paper stresses, not free."""

    intra_beta: float = 0.33e-9
    """Seconds per byte for intra-node MPI copies (~3 GB/s)."""

    # ------------------------------------------------------------------
    # Software (CPU) overheads
    # ------------------------------------------------------------------
    mpi_msg_overhead: float = 1.0e-6
    """CPU seconds charged to a rank for posting or completing one MPI
    message (matching, envelope handling).  Paid per message on both
    the sender and the receiver, for intra-node messages too — unless
    ``smartmap`` is enabled."""

    smartmap: bool = False
    """Model the SmartMap enhancement (paper footnote 1): intra-node
    messages become direct shared-memory copies with negligible
    per-message CPU overhead."""

    smartmap_msg_overhead: float = 0.1e-6
    """Per-message CPU overhead for intra-node messages when
    ``smartmap`` is on."""

    # ------------------------------------------------------------------
    # PPM runtime overheads
    # ------------------------------------------------------------------
    ppm_access_call_overhead: float = 2.0e-7
    """CPU seconds per shared-variable *access operation* (one indexing
    call, however many elements it touches): the runtime-library entry,
    ownership lookup and bounds checks."""

    ppm_access_per_element: float = 2.0e-8
    """CPU seconds per *element* moved through a shared-variable access
    (address translation, recording for the commit protocol).  This is
    the overhead the paper blames for PPM losing to MPI on one node."""

    ppm_node_access_per_element: float = 0.5e-8
    """Per-element overhead for node-shared accesses (cheaper: no
    ownership directory, physical shared memory)."""

    ppm_commit_per_element: float = 1.0e-8
    """CPU seconds per element processed at phase commit (applying
    buffered writes, conflict resolution)."""

    # ------------------------------------------------------------------
    # PPM runtime optimisations (the paper's section 3.3 features)
    # ------------------------------------------------------------------
    bundling: bool = True
    """Bundle fine-grained remote accesses into coarse messages.
    Disabling this (ablation) sends one message per remote element."""

    bundle_max_bytes: int = 64 * 1024
    """Maximum payload of one bundled message."""

    overlap_fraction: float = 0.6
    """Fraction of phase communication the runtime hides under the
    phase's computation (0 disables the overlap optimisation)."""

    nic_scheduling: bool = True
    """PPM runtime serialises each node's traffic into one coordinated
    stream, avoiding the NIC contention that uncoordinated per-core MPI
    traffic suffers."""

    nic_contention_coeff: float = 0.25
    """Uncoordinated traffic from R cores of one node inflates its
    communication time by ``1 + (R - 1) * nic_contention_coeff``."""

    load_balancing: bool = False
    """Let the runtime reassign VPs to cores between phases based on
    each VP's measured cost in the previous phase (greedy
    longest-processing-time).  This is the paper's section-3 point that
    processor virtualisation "provides opportunities for the compiler
    and runtime system to do optimizations such as load balancing";
    off by default to match the static loop-conversion baseline."""

    # ------------------------------------------------------------------
    # Miscellaneous
    # ------------------------------------------------------------------
    barrier_alpha: float = 2.0e-6
    """Per-tree-level cost of a global barrier/collective step."""

    element_bytes: int = 8
    """Default payload bytes per shared-array element (float64)."""

    index_bytes: int = 8
    """Bytes of addressing metadata shipped per element in a read
    request or a scattered write bundle."""

    def __post_init__(self) -> None:
        # ConfigError lives in repro.core.errors; importing it at module
        # scope would cycle (repro.core.program imports this module), so
        # it is resolved on first validation instead.
        from repro.core.errors import ConfigError

        if self.n_nodes < 1:
            raise ConfigError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.cores_per_node < 1:
            raise ConfigError(
                f"cores_per_node must be >= 1, got {self.cores_per_node}"
            )
        # Byte sizes must be positive: a zero element/index size makes
        # every per-element cost silently vanish and a zero (or
        # negative) bundle capacity divides by zero in bundling.
        for name in ("element_bytes", "index_bytes", "bundle_max_bytes"):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.bundle_max_bytes < self.element_bytes + self.index_bytes:
            raise ConfigError("bundle_max_bytes too small to hold one element")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ConfigError("overlap_fraction must be in [0, 1]")
        # Rates, latencies and overheads must be finite and
        # non-negative.  Zero is legal — degenerate zero-cost machines
        # are a supported test configuration — but a negative or
        # NaN/inf knob would propagate into negative or NaN simulated
        # times far from the mistake.
        for name in (
            "flop_time",
            "mem_access_time",
            "net_alpha",
            "net_beta",
            "intra_alpha",
            "intra_beta",
            "mpi_msg_overhead",
            "smartmap_msg_overhead",
            "ppm_access_call_overhead",
            "ppm_access_per_element",
            "ppm_node_access_per_element",
            "ppm_commit_per_element",
            "barrier_alpha",
            "nic_contention_coeff",
            "overlap_fraction",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")

    # ------------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        """Total core count of the cluster."""
        return self.n_nodes * self.cores_per_node

    def replace(self, **changes: object) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def effective_msg_overhead(self, intra_node: bool) -> float:
        """Per-message CPU overhead for a message, honouring SmartMap."""
        if intra_node and self.smartmap:
            return self.smartmap_msg_overhead
        return self.mpi_msg_overhead


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

def franklin(n_nodes: int = 1, **overrides: object) -> MachineConfig:
    """Franklin-like configuration: the paper's Cray XT4 test platform
    (4 cores per node, SeaStar-class network)."""
    cfg = MachineConfig(n_nodes=n_nodes, cores_per_node=4)
    return cfg.replace(**overrides) if overrides else cfg


def manycore(
    n_nodes: int = 1, cores_per_node: int = 64, **overrides: object
) -> MachineConfig:
    """The paper's outlook machine: nodes with many (hundreds of)
    cores.  NIC contention grows with the core count, which is exactly
    the regime where the paper predicts PPM's scheduling wins."""
    cfg = MachineConfig(n_nodes=n_nodes, cores_per_node=cores_per_node)
    return cfg.replace(**overrides) if overrides else cfg


def testing(n_nodes: int = 2, cores_per_node: int = 2, **overrides: object) -> MachineConfig:
    """Small, round-number configuration used throughout the unit
    tests.  Cost constants are inherited from the defaults."""
    cfg = MachineConfig(n_nodes=n_nodes, cores_per_node=cores_per_node)
    return cfg.replace(**overrides) if overrides else cfg
