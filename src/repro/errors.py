"""Exception hierarchy for the TitanCFI reproduction.

Every error raised by the package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class IsaError(ReproError):
    """Base class for ISA-level problems (encode/decode/assemble)."""


class DecodeError(IsaError):
    """An instruction word could not be decoded.

    Attributes:
        word: the raw instruction bits that failed to decode.
        pc: optional program counter for diagnostics.
    """

    def __init__(self, message: str, word: int = 0, pc: "int | None" = None):
        super().__init__(message)
        self.word = word
        self.pc = pc


class EncodeError(IsaError):
    """Operands were out of range or otherwise unencodable."""


class AssemblerError(IsaError):
    """A source-level assembly error (bad mnemonic, unknown label...).

    Attributes:
        line: 1-based source line where the error occurred, if known.
    """

    def __init__(self, message: str, line: "int | None" = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MemoryError_(ReproError):
    """Base class for memory-system errors (named to avoid shadowing the
    builtin :class:`MemoryError`)."""


class AccessFault(MemoryError_):
    """A load/store/fetch targeted an unmapped or protected address.

    Attributes:
        address: the faulting address.
        access: one of ``"read"``, ``"write"``, ``"fetch"``.
    """

    def __init__(self, address: int, access: str = "read", message: str = ""):
        detail = message or f"{access} access fault at {address:#x}"
        super().__init__(detail)
        self.address = address
        self.access = access


class SimulationError(ReproError):
    """The co-simulation reached an inconsistent or unsupported state."""


class TrapError(SimulationError):
    """A hart raised a trap the simulation chose not to handle.

    Attributes:
        cause: RISC-V mcause code.
        pc: faulting program counter.
        tval: the trap value the hart writes to ``mtval`` (e.g. the
            target of a misaligned jump); 0 where the cause has none.
    """

    def __init__(self, cause: int, pc: int, message: str = "", tval: int = 0):
        detail = message or f"unhandled trap cause={cause} at pc={pc:#x}"
        super().__init__(detail)
        self.cause = cause
        self.pc = pc
        self.tval = tval


class CfiViolation(ReproError):
    """The CFI policy detected a control-flow violation.

    Attributes:
        kind: violation category (e.g. ``"return-mismatch"``).
        expected: expected target (policy-dependent), or ``None``.
        actual: observed target, or ``None``.
        pc: pc of the offending control-flow instruction, or ``None``.
    """

    def __init__(
        self,
        kind: str,
        expected: "int | None" = None,
        actual: "int | None" = None,
        pc: "int | None" = None,
    ):
        parts = [f"CFI violation: {kind}"]
        if pc is not None:
            parts.append(f"at pc={pc:#x}")
        if expected is not None:
            parts.append(f"expected={expected:#x}")
        if actual is not None:
            parts.append(f"actual={actual:#x}")
        super().__init__(" ".join(parts))
        self.kind = kind
        self.expected = expected
        self.actual = actual
        self.pc = pc


class ProtocolError(ReproError):
    """A bus/mailbox protocol rule was violated (e.g. writing a busy
    mailbox or popping an empty FIFO)."""


class ConfigError(ReproError):
    """An invalid configuration was supplied to a component."""


def check_int(name: str, value: object, minimum: int) -> None:
    """The one rule for an integer configuration field: an ``int``, not
    a ``bool``, at least ``minimum``; anything else raises
    :class:`ConfigError`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name} must be an int >= {minimum}, got {value!r}")


class AxisConflict(ConfigError):
    """Two configuration fields, each valid on its own, cannot be
    combined (e.g. a fault plan on the reference backend, or
    ``hart_victims`` on a single-hart cell).

    A grid sweep drops such combinations, while a bad single value
    still raises (see :func:`repro.campaign.spec.expand_grid`).
    """


class CampaignError(ReproError):
    """Base class for campaign-runner execution failures."""


class ScenarioTimeout(CampaignError):
    """A scenario exceeded its per-scenario wall-clock budget.

    Attributes:
        scenario_name: name of the scenario that timed out.
        seconds: the budget that was exceeded.
    """

    def __init__(self, scenario_name: str, seconds: float):
        super().__init__(
            f"scenario {scenario_name!r} exceeded {seconds:.1f}s wall-clock budget"
        )
        self.scenario_name = scenario_name
        self.seconds = seconds


class WorkerCrash(CampaignError):
    """A campaign worker process died while executing a scenario.

    Attributes:
        scenario_name: name of the scenario the worker was running.
        exitcode: the worker's process exit code, or ``None``.
    """

    def __init__(self, scenario_name: str, exitcode: "int | None" = None):
        detail = f"worker crashed while running scenario {scenario_name!r}"
        if exitcode is not None:
            detail += f" (exit code {exitcode})"
        super().__init__(detail)
        self.scenario_name = scenario_name
        self.exitcode = exitcode


class TopologyError(ConfigError):
    """An invalid multi-hart topology was requested."""


class HartCountError(TopologyError):
    """The requested application-hart count is outside the supported range.

    Attributes:
        n_harts: the rejected hart count.
        max_harts: the largest supported count.
    """

    def __init__(self, n_harts: int, max_harts: int):
        super().__init__(
            f"unsupported hart count {n_harts}: topology supports "
            f"1..{max_harts} application harts"
        )
        self.n_harts = n_harts
        self.max_harts = max_harts


class MemoryOverlapError(TopologyError):
    """Two per-hart memory placements overlap, or a placement escapes
    the host DRAM window into device space.

    Attributes:
        detail: human-readable description of the colliding regions.
    """

    def __init__(self, detail: str):
        super().__init__(f"memory placement conflict: {detail}")
        self.detail = detail


class UnknownHartError(TopologyError, AxisConflict):
    """A scenario or component referenced a hart id the topology does
    not instantiate (an axis conflict: a hart id is out of range only
    relative to the hart count).

    Attributes:
        hart_id: the out-of-range hart id.
        n_harts: the number of harts the topology actually has.
    """

    def __init__(self, hart_id: int, n_harts: int):
        super().__init__(
            f"unknown hart id {hart_id}: topology has {n_harts} "
            f"application hart{'s' if n_harts != 1 else ''} (ids 0..{n_harts - 1})"
        )
        self.hart_id = hart_id
        self.n_harts = n_harts


class FaultPlanError(ConfigError):
    """A fault-injection plan is malformed or incompatible with the
    scenario it was attached to (e.g. monitor faults without a policy
    host to inject them into)."""


class ServiceError(ReproError):
    """Base class for sweep-service failures (job queue, result store)."""


class JobStateError(ServiceError):
    """A job was asked to make an illegal state transition (e.g.
    cancelling a job that already finished), or the journal references
    a job it never recorded a submission for.

    Attributes:
        job_id: the job the transition was attempted on.
        state: the job's current state, or ``None`` for unknown jobs.
        requested: the state the transition asked for, if any.
    """

    def __init__(self, job_id: str, state: "str | None" = None,
                 requested: "str | None" = None, message: str = ""):
        if not message:
            if state is None:
                message = f"unknown job {job_id!r}"
            else:
                message = (f"job {job_id!r} is {state!r} and cannot "
                           f"transition to {requested!r}")
        super().__init__(message)
        self.job_id = job_id
        self.state = state
        self.requested = requested


class StoreCorruptError(ServiceError):
    """A durable file failed to parse: a store object, a corpus file,
    a manifest, or a line of a JSONL log before its torn tail.

    Every durable write goes through :mod:`repro.durable`, so a corrupt
    file means external tampering or disk damage — never a crash of
    ours — and must fail loudly instead of being silently re-executed
    over.

    Attributes:
        path: the corrupt file.
    """

    def __init__(self, path: str, detail: str = ""):
        message = f"{path}: corrupt file"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.path = path


class SynthError(ReproError):
    """A synthesized victim model is malformed, or its emitted image
    disagrees with its statically planned control-flow event stream."""
