"""Deterministic-simulation runtime: seeded schedules + a virtual clock.

:class:`SimRuntime` extends the cooperative runtime into a full
deterministic-simulation harness (the style of the
``RustBackedSimulatorTestCase`` exemplar): every scheduling decision is
driven either by a seeded ``random.Random`` or by a replayed
:class:`~repro.runtime.explore.Schedule`, and every decision taken is
recorded — so any run, including a failing one, is replayable
byte-for-byte from ``(seed, program)`` or from a witness schedule the
predictor (:mod:`repro.predict`) emitted.

Time is **virtual**: the runtime owns a :class:`VirtualClock` that only
advances when no task is runnable, jumping straight to the earliest
pending timer.  ``yield rt.sleep(dt)`` parks a task for *dt* virtual
seconds without any wall-clock sleep, and ``default_join_timeout`` gives
every blocking join a virtual deadline that fires deterministically —
the discrete-event-simulation discipline: execution is instantaneous,
waiting is what takes time.

Determinism contract: identical ``(seed, program)`` produce the identical
event sequence, policy verdicts, recorded schedule, and results across
repeated runs and across processes (the seed is string-mixed through
``random.Random`` exactly like :mod:`repro.testing.faults`, so it is
immune to hash randomisation).  A recorded schedule replayed through a
fresh ``SimRuntime`` retraces the run decision-for-decision; with
``strict=True`` the replay also validates the recorded queue widths, so
divergence (a different program, a nondeterministic task body) is an
error instead of a silently different run.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Optional, Union

from .cooperative import CooperativeRuntime, _Resume
from .explore import Schedule
from .future import Future
from .task import TaskHandle, TaskState
from ..core.policy import JoinPolicy
from ..errors import JoinTimeoutError, RuntimeStateError

__all__ = ["SimRuntime", "VirtualClock"]


class VirtualClock:
    """A monotonic clock that advances only when told to.

    Duck-type-compatible with the supervision layer's wall clock
    (:data:`repro.runtime.supervisor.WALL_CLOCK`): ``monotonic`` reads
    the current virtual time, ``sleep`` advances it instantly, and
    ``wait`` treats an event timeout as a pure time advance — so a
    supervised join deadline under a virtual clock expires
    deterministically without the thread ever sleeping.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def monotonic(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance a monotonic clock backwards")
        self._now += seconds

    def advance_to(self, deadline: float) -> None:
        if deadline > self._now:
            self._now = deadline

    def wait(self, event, timeout: Optional[float] = None) -> bool:
        """Event-wait protocol: consume *timeout* as virtual time.

        With no timeout a virtual wait cannot legally block (nothing
        else advances the clock), so an unset event is an error rather
        than a hang.
        """
        if event.is_set():
            return True
        if timeout is None:
            raise RuntimeStateError(
                "untimed event wait under a virtual clock would hang; "
                "give the wait a deadline"
            )
        self.advance(timeout)
        return event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualClock t={self._now:.6f}>"


class _Sleep:
    """Marker a task yields to park on the virtual clock."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("sleep duration must be non-negative")
        self.seconds = float(seconds)


class SimRuntime(CooperativeRuntime):
    """Single-threaded deterministic scheduler with recorded decisions.

    Parameters
    ----------
    policy, fallback:
        As for :class:`~repro.runtime.cooperative.CooperativeRuntime`.
    seed:
        Seeds the scheduling RNG.  ``None`` (default) schedules FIFO —
        index 0 at every decision — which makes an unseeded SimRuntime
        behave exactly like the plain cooperative runtime plus
        recording (the overhead benchmark compares these two).
    schedule:
        A :class:`~repro.runtime.explore.Schedule` to replay.  Its
        choices drive the first ``len(schedule)`` decisions; later
        decisions fall back to the seed / FIFO default (a witness
        schedule is usually complete, so the fallback never engages on
        an exact replay; :func:`~repro.runtime.explore.explore` replays
        prefixes and lets FIFO finish the run).
    default_join_timeout:
        When set, every blocking join gets a *virtual* deadline this
        many seconds out; expiry resumes the joiner with
        :class:`~repro.errors.JoinTimeoutError` at the blocked yield.
    strict:
        Replay validation: when True (default) a replayed choice that is
        out of range for the actual queue width — or, if the schedule
        carries widths, a width mismatch — raises ``RuntimeStateError``
        instead of silently diverging.
    max_steps:
        Safety budget on scheduler steps (spin-waiting reconstructed
        programs cannot loop forever under an adversarial RNG).
    """

    def __init__(
        self,
        policy: Union[None, str, JoinPolicy] = "TJ-SP",
        *,
        fallback: bool = True,
        seed: Optional[int] = None,
        schedule: Optional[Schedule] = None,
        default_join_timeout: Optional[float] = None,
        strict: bool = True,
        max_steps: int = 1_000_000,
    ) -> None:
        super().__init__(policy, fallback=fallback)
        self._rng = random.Random(f"sim|{seed}") if seed is not None else None
        self._seed = seed
        self._replay = schedule.choices if schedule is not None else ()
        self._replay_widths = schedule.widths if schedule is not None else ()
        self._strict = strict
        self._max_steps = max_steps
        self._decision = 0
        self._choices: list[int] = []
        self._widths: list[int] = []
        self.clock = VirtualClock()
        self.default_join_timeout = default_join_timeout
        #: (deadline, tie-break, task, future-or-None) min-heap; a None
        #: future is a sleep timer, otherwise a join deadline
        self._timers: list[tuple[float, int, TaskHandle, Optional[Future]]] = []
        self._timer_seq = 0
        self.timeouts_fired = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.clock.monotonic()

    @property
    def recorded_schedule(self) -> Schedule:
        """Every decision taken so far, as a replayable Schedule."""
        return Schedule(
            choices=tuple(self._choices),
            widths=tuple(self._widths),
            seed=self._seed,
        )

    def sleep(self, seconds: float) -> _Sleep:
        """A marker to yield: park the task for *seconds* virtual time."""
        return _Sleep(seconds)

    # ------------------------------------------------------------------
    # the deterministic scheduling decision
    # ------------------------------------------------------------------
    def _select_task(self) -> TaskHandle:
        if self._steps >= self._max_steps:
            raise RuntimeStateError(
                f"simulation exceeded {self._max_steps} scheduler steps"
            )
        width = len(self._ready)
        if width == 1:
            # Not a decision: a Schedule records width>1 steps only.
            return self._ready.popleft()
        at = self._decide(width)
        self._decision += 1
        self._choices.append(at)
        self._widths.append(width)
        self._ready.rotate(-at)
        task = self._ready.popleft()
        self._ready.rotate(at)
        return task

    def _decide(self, width: int) -> int:
        k = self._decision
        if k < len(self._replay):
            at = self._replay[k]
            if self._strict:
                if self._replay_widths and self._replay_widths[k] != width:
                    raise RuntimeStateError(
                        f"schedule replay diverged at decision {k}: recorded "
                        f"width {self._replay_widths[k]}, actual {width}"
                    )
                if not 0 <= at < width:
                    raise RuntimeStateError(
                        f"schedule replay diverged at decision {k}: choice "
                        f"{at} out of range for width {width}"
                    )
            return at if 0 <= at < width else 0
        if self._rng is not None:
            return self._rng.randrange(width)
        return 0  # FIFO

    # ------------------------------------------------------------------
    # virtual-clock integration
    # ------------------------------------------------------------------
    def _handle_other_yield(self, task: TaskHandle, yielded: Any) -> bool:
        if isinstance(yielded, _Sleep):
            task.state = TaskState.BLOCKED
            self._push_timer(self.now + yielded.seconds, task, None)
            return True
        return False

    def _parked(self, task: TaskHandle, future: Future) -> None:
        if self.default_join_timeout is not None:
            self._push_timer(self.now + self.default_join_timeout, task, future)

    def _push_timer(
        self, deadline: float, task: TaskHandle, future: Optional[Future]
    ) -> None:
        self._timer_seq += 1
        heapq.heappush(self._timers, (deadline, self._timer_seq, task, future))

    def _on_idle(self) -> bool:
        while self._timers:
            deadline, _, task, future = heapq.heappop(self._timers)
            if future is None:
                # Sleep timer: always live (a sleeping task holds no
                # other parking spot).
                self.clock.advance_to(deadline)
                task.state = TaskState.RUNNING
                self._ready.append(task)
                return True
            # Join deadline: only live while the task still blocks on
            # that same future (lazy cancellation); releasing its edge
            # from the store is the test.
            if future.done() or self._store.remove(task, future.task) is None:
                continue
            self.clock.advance_to(deadline)
            waiters = self._waiters.get(future)
            if waiters is not None:
                waiters.remove(task)
                if not waiters:
                    del self._waiters[future]
            self.timeouts_fired += 1
            task.state = TaskState.RUNNING
            self._resume[task] = _Resume(
                exc=JoinTimeoutError(task, future.task, self.default_join_timeout)
            )
            self._ready.append(task)
            return True
        return super()._on_idle()
