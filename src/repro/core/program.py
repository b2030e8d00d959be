"""Driver-level PPM API: the program object and ``run_ppm``.

A PPM application is a *driver* function receiving a
:class:`PpmProgram`::

    def main(ppm):
        A = ppm.global_shared("A", 1000)
        out = ppm.node_shared("out", 10, dtype=np.int64)
        ppm.do(10, kernel, A, out)        # PPM_do(10) kernel(A, out)
        return out.instance(0).copy()

    ppm, result = run_ppm(main, Cluster(franklin(n_nodes=4)))

Driver code runs once (conceptually the replicated SPMD setup that
every node executes identically); it may access shared variables
directly — such accesses apply immediately and are not timed, mirroring
untimed setup in the paper's experiments.  All timed parallel execution
happens inside ``ppm.do``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.errors import NodeCrashFault, PpmError, _PoolRestart
from repro.core.runtime import DoStats, PpmRuntime
from repro.core.shared import GlobalShared, NodeShared
from repro.machine.cluster import Cluster
from repro.machine.trace import Trace
from repro.obs.events import PhaseTrace


@dataclass(frozen=True)
class RunSummary:
    """Execution statistics of a PPM run: phase counts, bundled
    communication volume and simulated makespan."""

    global_phases: int
    node_phases: int
    messages: int
    nbytes: int
    elapsed: float

    def __str__(self) -> str:
        return (
            f"{self.global_phases} global / {self.node_phases} node phases, "
            f"{self.messages} bundled messages, {self.nbytes} bytes, "
            f"{self.elapsed * 1e3:.3f} ms simulated"
        )


class PpmProgram:
    """Facade over the runtime, exposing the paper's programming
    environment: shared-variable declaration, ``PPM_do``, and the
    system variables."""

    def __init__(self, cluster: Cluster, **engine_opts: object) -> None:
        # The engine options (sanitize, trace, resilience, executor,
        # workers, supervision, supervision_state) are named, documented
        # and validated by PpmRuntime; ``trace`` is a PhaseTrace or None
        # here (``run_ppm`` resolves ``True``/``"on"``).
        self.runtime = PpmRuntime(cluster, **engine_opts)
        self.cluster = cluster

    def close(self) -> None:
        """Release runtime resources (the process executor's worker
        pool and shared-memory segments, if any)."""
        self.runtime.close()

    def __enter__(self) -> "PpmProgram":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- system variables ----------------------------------------------
    @property
    def node_count(self) -> int:
        """``PPM_node_count``."""
        return self.cluster.n_nodes

    @property
    def cores_per_node(self) -> int:
        """``PPM_cores_per_node``."""
        return self.cluster.cores_per_node

    @property
    def config(self):
        return self.cluster.config

    # -- shared-variable declaration -------------------------------------
    def global_shared(
        self, name: str, shape, dtype=np.float64, fill: float | int | None = 0
    ) -> GlobalShared:
        """Declare a ``PPM_global_shared`` array (also the dynamic
        allocation utility of paper section 3.1, item 6)."""
        handle = GlobalShared(self.runtime, name, shape, dtype, fill)
        self.runtime.shared_registry[name] = handle
        return handle

    def node_shared(
        self, name: str, shape, dtype=np.float64, fill: float | int | None = 0
    ) -> NodeShared:
        """Declare a ``PPM_node_shared`` array (one instance per node)."""
        handle = NodeShared(self.runtime, name, shape, dtype, fill)
        self.runtime.shared_registry[name] = handle
        return handle

    # -- execution --------------------------------------------------------
    def do(
        self,
        vp_counts: int | list[int],
        func: Callable | list[Callable],
        *args: object,
        phase: str = "global",
        latency_rounds: int = 1,
        **kwargs: object,
    ) -> DoStats:
        """``PPM_do(K) func(args)`` — see
        :meth:`repro.core.runtime.PpmRuntime.do`."""
        return self.runtime.do(
            vp_counts,
            func,
            *args,
            phase=phase,
            latency_rounds=latency_rounds,
            **kwargs,
        )

    # -- timing -------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Simulated seconds elapsed (maximum node clock)."""
        return self.cluster.elapsed

    @property
    def trace(self) -> Trace:
        """The cluster's event trace."""
        return self.cluster.trace

    @property
    def tracer(self):
        """The structured :class:`~repro.obs.events.PhaseTrace` attached
        via ``trace=...`` (``None`` when tracing is off)."""
        return self.runtime.tracer

    def report(self):
        """Aggregate the attached tracer's events into a
        :class:`~repro.obs.metrics.RunReport` (per-phase work, traffic,
        overlap and barrier-skew metrics)."""
        if self.runtime.tracer is None:
            raise PpmError(
                "no phase trace attached; run with trace=True "
                "(or pass a PhaseTrace) to collect a report"
            )
        from repro.obs.metrics import RunReport

        return RunReport.from_trace(self.runtime.tracer)

    @property
    def profile(self) -> list:
        """Per-phase timing breakdowns
        (:class:`~repro.core.runtime.PhaseProfile` entries)."""
        return self.runtime.profile

    @property
    def diagnostics(self) -> list:
        """Phase-conflict sanitizer findings
        (:class:`~repro.analysis.diagnostics.Diagnostic` entries;
        empty unless the program was built with ``sanitize=...``)."""
        return self.runtime.diagnostics

    def reset_clocks(self) -> None:
        """Zero all clocks (to exclude setup from a measurement)."""
        self.cluster.reset_clocks()

    def summary(self) -> "RunSummary":
        """Aggregate execution statistics of everything run so far."""
        return RunSummary(
            global_phases=self.runtime.stats_global_phases,
            node_phases=self.runtime.stats_node_phases,
            messages=self.trace.total_messages("ppm_global_phase")
            + self.trace.total_messages("ppm_node_phase"),
            nbytes=self.trace.total_bytes("ppm_global_phase")
            + self.trace.total_bytes("ppm_node_phase"),
            elapsed=self.elapsed,
        )


def run_ppm(
    main: Callable,
    cluster: Cluster,
    *args: object,
    sanitize: str | bool | None = None,
    trace: "PhaseTrace | bool | None" = None,
    faults=None,
    checkpoint_every: int | None = None,
    resilience=None,
    executor: str = "inline",
    workers: int | None = None,
    supervision=None,
    **kwargs: object,
):
    """Run a PPM application.

    Parameters
    ----------
    main:
        Driver function, called as ``main(ppm, *args, **kwargs)``.
    cluster:
        The simulated machine.
    sanitize:
        ``None`` (default, off), ``"warn"``/``True`` (record
        phase-conflict diagnostics on ``ppm.diagnostics``),
        ``"strict"`` (raise
        :class:`~repro.core.errors.PhaseConflictError` before the
        offending phase commits) or ``"auto"`` — strict, but phases
        carrying a static conflict-freedom certificate from the
        :mod:`repro.analysis.dataflow` verifier skip the dynamic
        per-phase check entirely (committed arrays stay bitwise
        identical to ``"strict"``; see docs/ANALYSIS.md).
    trace:
        ``None`` (default, off), ``True``/``"on"`` (attach a fresh
        :class:`~repro.obs.events.PhaseTrace`) or an existing
        ``PhaseTrace`` instance.  With tracing on, structured phase
        events accumulate on ``ppm.tracer`` and ``ppm.report()``
        aggregates them into a
        :class:`~repro.obs.metrics.RunReport`.  Tracing never changes
        simulated results or times.
    faults:
        ``None`` (default) or a
        :class:`~repro.resilience.faults.FaultPlan` — a deterministic,
        seeded schedule of message drops/corruption/delays/duplicates,
        node crashes and stragglers.  Injected faults cost simulated
        time; committed results stay bitwise-identical to a fault-free
        run (docs/RESILIENCE.md).
    checkpoint_every:
        ``None`` (default, off) or an ``int >= 1`` — every that many
        phases, charge the simulated clock a coordinated write-out of
        all shared instances and record the cut; an injected crash
        rolls back to the last cut (by re-execution: no array is
        copied) instead of restarting from scratch.
    resilience:
        Optional
        :class:`~repro.resilience.manager.ResiliencePolicy` with the
        retry/timeout/backoff schedule and checkpoint/recovery cost
        knobs (defaults apply when ``faults``/``checkpoint_every`` are
        given without it).

    executor:
        ``"inline"`` (default) — phase bodies run in this process,
        bitwise-identical to every release before the process backend
        existed; or ``"process"`` — phase bodies run on real cores in
        a pool of worker processes mapping the shared arrays through
        :mod:`multiprocessing.shared_memory` (committed arrays and
        simulated times stay bitwise-identical; see docs/PARALLEL.md).
        Requires a picklable kernel and arguments
        (:class:`~repro.core.errors.ParallelConfigError` ``PPM501``).
    workers:
        Worker process count for ``executor="process"`` (default:
        :func:`repro.parallel.default_workers`, the cores this
        process may run on clamped to [2, 8]).  Ignored under the
        inline executor.
    supervision:
        ``None`` (default) or a
        :class:`~repro.parallel.supervisor.SupervisionPolicy` —
        fault-tolerant worker pool under ``executor="process"``: a
        crashed, hung or corrupted worker is detected at the phase-
        round boundary and the driver re-executes in a fresh pool
        (after a back-off), so committed arrays, simulated times and
        reports equal a fault-free run's.  When the respawn budget
        for a pool size runs out the run *degrades* (restarts with
        fewer workers or falls back to ``executor="inline"``) instead
        of crashing (docs/PARALLEL.md).  Requires
        ``executor="process"``
        (:class:`~repro.core.errors.ParallelConfigError` ``PPM602``);
        without it a worker death raises
        :class:`~repro.core.errors.WorkerDeathError` (``PPM603``).

    With ``faults``, ``checkpoint_every`` and ``resilience`` all
    ``None`` (the default), this takes exactly the pre-resilience
    fast path — no per-phase hooks, no overhead.

    Returns
    -------
    (PpmProgram, object)
        The program object (for ``elapsed``, ``trace``, shared
        registry) and ``main``'s return value.
    """
    if trace in (None, False):
        trace = None
    elif trace is True or trace == "on":
        trace = PhaseTrace()
    elif not isinstance(trace, PhaseTrace):
        raise ValueError(
            f"trace must be None, True, 'on' or a PhaseTrace, got {trace!r}"
        )
    # One PhaseTrace for the whole run: every turn of the loop below
    # appends to it (what a crashed or abandoned turn recorded is part
    # of the run).  ``opts`` is what each turn's PpmRuntime is built
    # from; a degradation weakens it.
    opts = dict(
        sanitize=sanitize, trace=trace, executor=executor, workers=workers,
        supervision=supervision,
    )

    def new_manager():
        if faults is None and checkpoint_every is None and resilience is None:
            return None
        # Deferred import: repro.core must stay importable without the
        # resilience package being touched on the default path.
        from repro.resilience.manager import ResilienceManager

        return ResilienceManager(
            cluster,
            plan=faults,
            checkpoint_every=checkpoint_every,
            policy=resilience,
            tracer=trace,
        )

    manager = new_manager()
    state = None
    if supervision is not None:
        from repro.parallel.supervisor import SupervisionState

        state = opts["supervision_state"] = SupervisionState()
    entry = cluster.trace.mark()
    # The one loop that re-executes a driver (a plain call goes round
    # once).  A phase boundary is a coordinated cut and driver + kernels
    # are deterministic, so both recoveries are a re-run up to a cut: an
    # injected node crash fast-forwards to the last checkpoint (the
    # manager plans it and bounds the incarnations), a failed worker
    # restarts from scratch — fresh pool after a back-off or, the
    # respawn budget spent, a weaker configuration — with clocks and
    # machine trace rewound to the run's entry and a fresh manager, so
    # times and statistics match an untroubled run of the final setup.
    while True:
        t0 = time.perf_counter()
        try:
            with PpmProgram(cluster, resilience=manager, **opts) as ppm:
                if manager is not None:
                    manager.begin_incarnation(ppm.runtime)
                return ppm, main(ppm, *args, **kwargs)
        except NodeCrashFault as crash:
            manager.handle_crash(crash)
        except _PoolRestart as sig:
            event = state.restart(sig, supervision, opts, t0)
            if trace is not None:
                trace.emit(event)
            cluster.reset_clocks()
            cluster.trace.rewind(entry)
            manager = new_manager()
        # Either way the next turn re-declares its shared variables.
        for node in cluster:
            node.memory.clear()
