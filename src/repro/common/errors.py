"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class APIError(ReproError):
    """Invalid use of the OP2/OPS public API (bad arguments, wrong sets...)."""


#: the executors of both ``par_loop``s: ``seq`` (the interpreted reference)
#: and ``vec`` (vectorised; compiled whenever a loop plan admits the site)
BACKENDS = frozenset({"seq", "vec"})


def unknown_backend(name: object) -> APIError:
    """The error both ``par_loop``s raise for a name outside :data:`BACKENDS`."""
    return APIError(f"unknown backend {name!r}; available: seq, vec")


class AccessDeclarationError(APIError):
    """An access mode is invalid for the argument it was declared on.

    Raised at declaration time (building the descriptor) or, for
    descriptors constructed outside the public helpers, when the loop
    validates its arguments; carries the structured context so tools can
    report it without parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        dat: str | None = None,
        access: str | None = None,
        loop: str | None = None,
        arg_index: int | None = None,
    ):
        super().__init__(message)
        self.dat = dat
        self.access = access
        self.loop = loop
        self.arg_index = arg_index


class PlanError(ReproError):
    """Failure while constructing or validating a colouring execution plan."""


class StencilMismatchError(ReproError):
    """A kernel accessed a point outside its declared stencil (OPS runtime check)."""


class DescriptorViolation(StencilMismatchError):
    """A kernel broke its declared access descriptor (the sanitizer's verdict).

    Structured so tooling can point at the exact site: ``loop`` is the loop
    name, ``arg_index`` the position of the offending argument (None when the
    violation is attributed to a dat rather than a single arg), ``kind`` one
    of the check identifiers (``read-arg-written``, ``write-outside-footprint``,
    ``inc-not-increment``, ``write-reads-old-value``, ``stencil``), and
    ``indices`` the first few offending element/grid indices.
    """

    def __init__(
        self,
        message: str,
        *,
        loop: str = "?",
        arg_index: int | None = None,
        kind: str = "descriptor",
        indices: tuple = (),
    ):
        super().__init__(message)
        self.loop = loop
        self.arg_index = arg_index
        self.kind = kind
        self.indices = tuple(indices)


class RaceViolation(ReproError):
    """A colouring plan admits two concurrent updates of one location."""


class PartitionError(ReproError):
    """Failure while partitioning a mesh across MPI ranks."""


class CheckpointError(ReproError):
    """Failure while planning, writing or restoring a checkpoint."""


class ResilienceError(ReproError):
    """Base class for simulated-failure conditions (injection and detection)."""


class RankKilledError(ResilienceError):
    """Raised inside a rank that a :class:`FaultPlan` scheduled to die."""


class RankFailedError(ResilienceError):
    """A communication partner has failed; raised promptly instead of a
    deadlock timeout so peers of a dead rank fail fast."""


class MessageLostError(ResilienceError):
    """A transient message fault persisted through every configured retry."""


class WorkerDiedError(ResilienceError):
    """A real worker process exited without reporting a result (SIGKILL, OOM,
    segfault...).  Carries the rank and the raw exit code so the resilient
    driver can classify the death as recoverable."""

    def __init__(self, message: str, *, rank: int, exitcode: int | None = None):
        super().__init__(message)
        self.rank = rank
        self.exitcode = exitcode


class TranslatorError(ReproError):
    """Failure while parsing an application or generating backend code."""


class TelemetryError(ReproError):
    """Invalid use of the tracing API (mismatched span exit, bad trace file)."""
