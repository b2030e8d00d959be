"""Exception hierarchy for the PPM runtime."""

from __future__ import annotations


class PpmError(Exception):
    """Base class for all PPM runtime errors."""


class SharedAccessError(PpmError):
    """A shared variable was accessed where the model forbids it —
    outside any phase from VP code, or written (global-shared) inside a
    node phase."""


class PhaseUsageError(PpmError):
    """Ill-formed phase structure: VPs of one node declared different
    phase kinds for the same round, or a phase declaration is invalid."""


class VpProgramError(PpmError):
    """An exception escaped application VP code; carries the node, VP
    rank and phase index for diagnosis."""

    def __init__(self, message: str, *, node: int, vp_rank: int, phase_index: int) -> None:
        super().__init__(
            f"{message} (node {node}, VP node-rank {vp_rank}, phase {phase_index})"
        )
        self.node = node
        self.vp_rank = vp_rank
        self.phase_index = phase_index

    def __reduce__(self):
        return (
            _revive_vp_error,
            (self.args[0], self.node, self.vp_rank, self.phase_index),
        )


class CollectiveUsageError(PpmError):
    """A phase collective handle was read before its phase committed."""


class ConfigError(PpmError, ValueError):
    """A :class:`~repro.config.MachineConfig` field is invalid —
    negative rates, non-finite values, non-positive byte sizes or an
    inconsistent topology.  Subclasses :class:`ValueError` so callers
    that predate the dedicated type keep working."""


class ResilienceError(PpmError):
    """Base class of errors raised by :mod:`repro.resilience`."""


class ResilienceConfigError(ResilienceError, ValueError):
    """A fault plan, retry policy or checkpoint policy is invalid.

    ``code`` carries the diagnostic rule id (``PPM301``..``PPM305``,
    see docs/DIAGNOSTICS.md) so messages can be traced back to the
    reference the same way lint/sanitizer findings are."""

    def __init__(self, message: str, *, code: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class NodeCrashFault(ResilienceError):
    """An injected node crash fired at a phase boundary.

    Raised by the runtime *before* the phase's writes apply, so the
    committed state observed by recovery is exactly the last
    phase-boundary cut.  ``run_ppm`` catches this and re-executes the
    driver up to the last checkpoint (docs/RESILIENCE.md)."""

    def __init__(self, *, node: int, phase_index: int) -> None:
        super().__init__(
            f"injected crash of node {node} at phase {phase_index}"
        )
        self.node = node
        self.phase_index = phase_index


class ParallelError(PpmError):
    """Base class of errors raised by :mod:`repro.parallel` (the
    multi-process execution backend)."""


class ParallelConfigError(ParallelError, ValueError):
    """The process execution backend was configured in a way it cannot
    honour — an unpicklable kernel, an invalid executor or worker
    count, supervision without worker processes, or a worker reply
    that cannot cross the process boundary.

    ``code`` carries the diagnostic rule id (``PPM501``, ``PPM502``,
    ``PPM504``, ``PPM601``/``PPM602``; see docs/DIAGNOSTICS.md), mirroring how resilience configuration
    errors carry ``PPM3xx`` codes."""

    def __init__(self, message: str, *, code: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class ParallelExecutionError(ParallelError):
    """A worker process of the ``"process"`` executor failed in a way
    that cannot be mapped back onto a PPM application error — it died
    unexpectedly, or its reply could not be deserialised.  The remote
    traceback (when one was captured) is part of the message."""


class WorkerDeathError(ParallelExecutionError):
    """A worker process of the ``"process"`` executor died (crashed,
    was killed, or hung past its deadline) and no supervisor was
    configured to recover it.

    The message names the worker id(s), the failure kind, the round
    and the last command on the pipe, so a raw ``EOFError`` /
    ``BrokenPipeError`` from a dead child never surfaces as a bare
    traceback.  ``code`` is ``PPM603`` (docs/DIAGNOSTICS.md); pass
    ``run_ppm(..., supervision=SupervisionPolicy())`` to recover
    instead of raising."""

    def __init__(self, message: str, *, code: str = "PPM603") -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class SupervisionExhaustedError(ParallelExecutionError):
    """The worker supervisor exhausted its respawn budget and its
    policy says ``degrade="error"``.

    ``code`` is ``PPM604`` (docs/DIAGNOSTICS.md).  The other degrade
    modes (``"shrink"``, ``"inline"``) restart the run deterministically
    instead of raising."""

    def __init__(self, message: str, *, code: str = "PPM604") -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class _PoolRestart(ParallelError):
    """Internal control-flow signal: a worker failed and the attempt is
    abandoned.  ``mode`` says how the run comes back — ``"respawn"``
    (a fresh pool of the same size) or, once the budget at this size
    is spent, the policy's ``"shrink"`` / ``"inline"``.  Raised by the
    worker supervisor, caught by ``run_ppm``'s re-execution loop;
    never user-visible."""

    def __init__(self, mode: str, workers_from: int, worker: int) -> None:
        super().__init__(
            f"worker pool restarting ({mode}) from {workers_from} workers"
        )
        self.mode = mode
        self.workers_from = workers_from
        self.worker = worker


def _revive_vp_error(message, node, vp_rank, phase_index):
    """Rebuild a :class:`VpProgramError` from its shipped fields.

    ``VpProgramError.__init__`` re-formats its message with a location
    suffix, so the default exception pickling (``cls(*args)``) would
    double the suffix; workers of the process backend ship the fields
    instead and this helper reassembles the exception exactly."""
    err = VpProgramError.__new__(VpProgramError)
    Exception.__init__(err, message)
    err.node = node
    err.vp_rank = vp_rank
    err.phase_index = phase_index
    return err


class PpmDiagnosticError(PpmError):
    """Base class of errors raised by the diagnostics tooling
    (:mod:`repro.analysis`); carries the structured findings."""

    def __init__(self, message: str, diagnostics: tuple = ()) -> None:
        super().__init__(message)
        #: The :class:`~repro.analysis.diagnostics.Diagnostic` findings
        #: behind this error, in detection order.
        self.diagnostics = tuple(diagnostics)


class PhaseConflictError(PpmDiagnosticError):
    """The phase-conflict sanitizer (strict mode) found a hazardous
    write-write or write-accumulate overlap between distinct VPs; the
    phase aborts before its commit, so no write of it is visible."""


class LintError(PpmDiagnosticError):
    """The static PPM linter was asked to treat its findings as fatal
    and at least one error-severity diagnostic was reported."""
