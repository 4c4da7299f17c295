"""Exception hierarchy for the Transitive Joins reproduction.

The paper's verifier (Algorithm 1) *faults* on a join that the policy does
not permit.  When the verifier is combined with the Armus cycle-detection
fallback (Section 6), a fault is first filtered for precision: joins that
are merely policy false positives proceed, while joins that would truly
deadlock raise :class:`DeadlockAvoidedError` in the offending task, giving
the program a chance to recover (the central selling point of *avoidance*
over *detection*, Section 7.1).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TraceError",
    "InvalidActionError",
    "PolicyViolationError",
    "PolicyQuarantinedError",
    "PolicyQuarantineWarning",
    "DeadlockError",
    "DeadlockAvoidedError",
    "DeadlockDetectedError",
    "JoinTimeoutError",
    "JournalError",
    "JournalCorruptError",
    "ServiceError",
    "ServiceProtocolError",
    "ServiceUnavailableError",
    "ServiceBackpressureError",
    "ServiceDegradedWarning",
    "TaskCancelledError",
    "RuntimeStateError",
    "TaskFailedError",
    "InjectedFaultError",
    "UnjoinedTaskWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class TraceError(ReproError):
    """A trace violates the structural valid-* rules of Definition 3.2."""


class InvalidActionError(TraceError):
    """An action references tasks in a way the valid-* rules forbid.

    Examples: a ``fork`` whose child already exists, an action before
    ``init``, or a second ``init``.
    """


class PolicyViolationError(ReproError):
    """A join was attempted that the active policy does not permit.

    Corresponds to the ``fault`` in Algorithm 1.  Carries the pair of tasks
    so callers (and the Armus fallback) can reason about the candidate edge.
    """

    def __init__(self, policy: str, joiner: object, joinee: object, message: str | None = None):
        self.policy = policy
        self.joiner = joiner
        self.joinee = joinee
        super().__init__(
            message
            or f"{policy}: task {joiner!r} is not permitted to join on task {joinee!r}"
        )

    def __reduce__(self):
        # joiner/joinee may be live task handles or policy vertices;
        # cross the process boundary by name (and keep the message,
        # which the default reduce would misparse as ``policy``).
        return (
            type(self),
            (self.policy, _picklable_ref(self.joiner), _picklable_ref(self.joinee), str(self)),
        )


class PolicyQuarantinedError(ReproError):
    """A policy raised an *internal* error and was taken out of service.

    Distinct from :class:`PolicyViolationError` (a verdict): this means
    the policy implementation itself misbehaved — a bug, not a fault.
    Under ``fail_mode="open"`` the verifier degrades to Armus-only cycle
    detection and this error is only *recorded* (plus a
    :class:`PolicyQuarantineWarning`); under ``fail_mode="closed"`` it
    is raised on the failing call and deterministically on every policy
    call thereafter.  ``original`` carries the formatted traceback of
    the triggering exception, so a post-mortem (or a journal replay in
    another process) still sees where the policy broke.
    """

    def __init__(
        self,
        policy: str,
        site: str,
        original: str | None = None,
        message: str | None = None,
    ):
        self.policy = policy
        self.site = site
        self.original = original
        super().__init__(
            message
            or f"policy {policy!r} quarantined after an internal error in {site}()"
        )

    def __reduce__(self):
        # The default reduce would re-call __init__ with args=(message,),
        # scrambling the fields; rebuild from the real constructor
        # arguments instead (the traceback travels as a plain string).
        return (type(self), (self.policy, self.site, self.original, str(self)))


class PolicyQuarantineWarning(RuntimeWarning):
    """A policy was quarantined; the run degraded to Armus-only checking."""


def _picklable_ref(obj: object) -> object:
    """A task handle / vertex reduced to something that pickles.

    Primitives pass through; anything live (a TaskHandle, a policy
    vertex object) crosses the boundary by name or repr — the receiving
    process could not resolve the live object anyway.
    """
    if isinstance(obj, (str, int, float, bool, type(None))):
        return obj
    return getattr(obj, "name", None) or repr(obj)


def _picklable_cycle(cycle: tuple | None) -> tuple | None:
    """Cycle members reduced to their names (task handles don't pickle)."""
    if cycle is None:
        return None
    return tuple(_picklable_ref(m) for m in cycle)


class DeadlockError(ReproError):
    """Base class for both flavours of deadlock diagnosis."""

    def __init__(self, cycle: tuple | None = None, message: str | None = None):
        self.cycle = tuple(cycle) if cycle is not None else None
        if message is None:
            if self.cycle:
                message = "deadlock cycle: " + " -> ".join(repr(t) for t in self.cycle)
            else:
                message = "deadlock"
        super().__init__(message)

    def __reduce__(self):
        # Cycle members are live TaskHandles (unpicklable, and pinned to
        # one process anyway); cross the boundary by name.  Without this
        # the default reduce would also misparse args=(message,) as the
        # ``cycle`` argument.
        return (type(self), (_picklable_cycle(self.cycle), str(self)))


class DeadlockAvoidedError(DeadlockError):
    """Raised *before* blocking: the attempted join would close a cycle.

    This is the recoverable exception delivered to the program by the
    avoidance machinery (policy verifier + Armus filter).
    """


class DeadlockDetectedError(DeadlockError):
    """Raised when the runtime *detects* an already-formed deadlock.

    Two sources deliver it: the cooperative scheduler, when no task can
    make progress, and the :class:`~repro.runtime.supervisor.StallWatchdog`
    on the blocking runtimes, which diagnoses a cycle of blocked joins and
    raises this in every blocked task instead of letting them hang.  This
    is *detection* (the deadlock already happened), as opposed to the
    avoidance exceptions above — but it is still recoverable: the blocked
    tasks receive it as an ordinary exception, with the cycle attached.
    """


class JoinTimeoutError(ReproError, TimeoutError):
    """A supervised join gave up waiting before the joinee terminated.

    Carries the blocked edge (``joiner``/``joinee`` tasks, plus the
    timeout that expired) so callers can diagnose or retry.  The wait-for
    edge is unregistered before this propagates: the Armus graph and the
    supervision registry hold no trace of the abandoned join, and the
    same future may be joined again later.
    """

    def __init__(
        self,
        joiner: object,
        joinee: object,
        timeout: float | None,
        message: str | None = None,
    ):
        self.joiner = joiner
        self.joinee = joinee
        self.timeout = timeout
        super().__init__(
            message
            or f"join of {joinee!r} by {joiner!r} timed out after {timeout}s"
        )

    def __reduce__(self):
        # The blocked edge is a pair of live TaskHandles; a worker's
        # result queue must still be able to carry the timeout across.
        return (
            type(self),
            (_picklable_ref(self.joiner), _picklable_ref(self.joinee), self.timeout, str(self)),
        )


class JournalError(ReproError):
    """Base class for trace-journal failures (I/O misuse, bad records)."""


class JournalCorruptError(JournalError):
    """A journal is damaged beyond the torn-tail tolerance.

    A truncated *final* record is expected after a crash and silently
    dropped by the reader; garbage or a sequence-number gap anywhere
    before the tail means the file was corrupted (or interleaved by two
    writers) and raises this instead of guessing.
    """


class ServiceError(ReproError):
    """Base class for verification-sidecar failures (client and server)."""


class ServiceProtocolError(ServiceError):
    """A wire frame violated the length-prefixed protocol.

    Oversized frames, non-JSON payloads, unknown record kinds, or a
    record missing required fields.  Never raised for ordinary network
    failures — those are :class:`ServiceUnavailableError` territory.
    """


class ServiceUnavailableError(ServiceError):
    """The sidecar could not be reached (connect/send/receive failure).

    The :class:`~repro.service.client.RemoteVerifier` retries these with
    its :class:`~repro.runtime.retry.RetryPolicy`; once the retry budget
    is exhausted it degrades to local Armus-only checking instead of
    letting this propagate into the program.
    """


class ServiceBackpressureError(ServiceError):
    """The sidecar refused events because the session's inbox is full.

    The server bounds per-session buffering: a client producing events
    faster than its session worker can verify them gets this explicit
    error instead of growing server memory without bound.  Carries the
    session id and the inbox limit that was hit.
    """

    def __init__(self, session: str, limit: int, message: str | None = None):
        self.session = session
        self.limit = limit
        super().__init__(
            message
            or f"session {session!r}: server inbox full (limit {limit}); slow down"
        )

    def __reduce__(self):
        return (type(self), (self.session, self.limit, str(self)))


class ServiceDegradedWarning(RuntimeWarning):
    """The sidecar became unreachable; verification fell back to local.

    Emitted once per degradation episode by the
    :class:`~repro.service.client.RemoteVerifier`.  While degraded the
    client blanket-permits joins and the runtime's Armus wait-for graph
    force-checks every blocking join, so true deadlocks are still
    avoided — the same fail-open-but-sound posture as policy quarantine.
    """


class TaskCancelledError(ReproError):
    """A task observed its cooperative cancellation request.

    Raised at cancellation points (fork, join entry, blocked waits, and
    explicit ``CancelToken.raise_if_cancelled`` calls) inside the
    cancelled task, and used as the terminal exception of tasks that were
    cancelled before they started running.
    """

    def __init__(self, task: object = None, message: str | None = None):
        self.task = task
        super().__init__(
            message
            or (f"task {task!r} was cancelled" if task is not None else "task was cancelled")
        )

    def __reduce__(self):
        return (type(self), (_picklable_ref(self.task), str(self)))


class RuntimeStateError(ReproError):
    """Misuse of the task runtime (e.g. joining outside any task context)."""


class TaskFailedError(ReproError):
    """A joined task terminated with an exception; wraps the original.

    When raised out of ``join_batch``, :attr:`batch_index` holds the
    position of the failed future within the batch (None elsewhere).

    A failure re-raised through nested joins wraps a wrapper at every
    level, and ``__cause__`` keeps that chain; the message names only
    :attr:`root_cause` and the nesting depth, so its size does not grow
    with the depth (a ``repr`` of each level would double its escaping).
    """

    #: index of the failed future within a ``join_batch`` call, or None
    batch_index: int | None = None

    def __init__(self, task: object, cause: BaseException):
        self.task = task
        self.__cause__ = cause
        if isinstance(cause, TaskFailedError):
            #: the exception at the bottom of the ``__cause__`` chain
            self.root_cause: BaseException = cause.root_cause
            #: joins the failure crossed to reach this wrapper (1: direct)
            self.depth: int = cause.depth + 1
        else:
            self.root_cause, self.depth = cause, 1
        via = f" (via {self.depth - 1} nested joins)" if self.depth > 1 else ""
        super().__init__(f"task {task!r} failed: {self.root_cause!r}{via}")

    def __reduce__(self):
        # The default reduce would re-call __init__ with args=(message,)
        # — the wrong arity — and drop both batch_index and the chained
        # cause.  The cause itself is user code's exception and may not
        # pickle; probe it and substitute a stringified stand-in so the
        # wrapper always crosses a result queue intact.  A wrapped
        # wrapper probes its own cause when it is pickled in turn, so
        # only the bottom of a nested chain is probed, once.
        import pickle

        cause = self.__cause__
        if not isinstance(cause, TaskFailedError):
            try:
                pickle.loads(pickle.dumps(cause))
            except Exception:  # noqa: BLE001 - any pickling defect at all
                cause = ReproError(f"unpicklable cause: {cause!r}")
        return (
            _rebuild_task_failed,
            (_picklable_ref(self.task), cause, self.batch_index, str(self)),
        )


def _rebuild_task_failed(task, cause, batch_index, message):
    """Unpickle hook restoring a :class:`TaskFailedError` field for field."""
    exc = TaskFailedError(task, cause)
    exc.batch_index = batch_index
    exc.args = (message,)
    return exc


class InjectedFaultError(ReproError):
    """An artificial failure raised by the fault-injection harness.

    Distinct from every organic error class so chaos tests can tell the
    storms they seeded apart from genuine runtime misbehaviour.
    """

    def __init__(self, site: object = None, message: str | None = None):
        self.site = site
        super().__init__(message or f"injected fault at {site!r}")

    def __reduce__(self):
        return (type(self), (_picklable_ref(self.site), str(self)))


class UnjoinedTaskWarning(RuntimeWarning):
    """A task failed but its future was never joined (reported at shutdown)."""
