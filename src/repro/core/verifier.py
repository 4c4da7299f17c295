"""The verifier interface of Algorithm 1.

``Verifier`` wraps any :class:`~repro.core.policy.JoinPolicy` and exposes
the fork/join protocol the runtimes drive:

* :meth:`on_fork` — install a vertex for a new task (``AddChild``);
* :meth:`check_join` / :meth:`require_join` — the ``Less`` gate of
  ``Join``; ``require_join`` faults with :class:`PolicyViolationError`
  exactly where Algorithm 1 says ``fault``;
* :meth:`check_joins` / :meth:`require_joins` — batch forms that verify
  one joiner against many joinees in a single call, amortising the
  per-event overhead (used by ``finish`` drains and the runtimes'
  ``join_batch``);
* :meth:`on_join_completed` — post-wait state update (KJ-learn; no-op for
  TJ policies).

It also counts events, which the evaluation harness and the precision
ablation read off.  The counters are *sharded per thread*: each thread
owns a private cell it increments without any lock (the cell is
single-writer, so the counts stay exact), and the public :attr:`stats`
property aggregates all cells lazily into a :class:`VerifierStats`
snapshot on read.  The seed implementation took a global
``threading.Lock`` around every event — measurable overhead on the hot
path that bought nothing, since reads are rare and writes never contend
within a cell.  The sharding itself now lives in
:class:`repro.obs.metrics.CounterGroup` (dead-thread cells fold into a
retired accumulator there, exactly as before), so the verifier, the
runtimes, and the telemetry registry share one stats mechanism; when a
:class:`repro.obs.Telemetry` session is active at construction time the
verifier additionally registers its counters as a registry source and
records per-policy join-check latency histograms.

Policy quarantine (graceful degradation)
----------------------------------------
A policy verdict and a policy *bug* are different failures.
:class:`PolicyViolationError` is the former — Algorithm 1's ``fault``,
raised by the verifier itself from a False verdict.  Any other exception
escaping a policy call is the latter: the policy implementation broke.
Every policy call here sits behind a fault boundary whose behaviour is
chosen by ``fail_mode``:

* ``"raise"`` (default) — propagate the policy's exception unchanged,
  exactly like the seed.  Fault-injection harnesses rely on this.
* ``"open"`` — *quarantine* the policy: record a
  :class:`PolicyQuarantinedError` (with the original traceback), emit a
  :class:`PolicyQuarantineWarning`, and degrade: every later policy call
  is answered without consulting the policy (joins permitted, forks get
  placeholder vertices).  Soundness then rests on the Armus fallback —
  :class:`~repro.armus.hybrid.HybridVerifier` notices ``quarantined``
  and force-checks *every* blocking join against the wait-for graph, so
  true deadlocks are still caught (detection precision, avoidance lost).
* ``"closed"`` — quarantine, then raise the stored
  :class:`PolicyQuarantinedError` on the faulting call and
  deterministically on every policy-facing call thereafter.

Quarantine trips on the first internal error and is permanent for the
verifier's lifetime; ``stats.policy_faults`` counts the internal errors
observed (>1 only when threads fault concurrently).
"""

from __future__ import annotations

import threading
import traceback
import warnings
from dataclasses import asdict, dataclass
from time import perf_counter_ns
from typing import Optional, Sequence

from .policy import JoinPolicy
from ..errors import PolicyQuarantinedError, PolicyQuarantineWarning, PolicyViolationError
from ..obs import active as _active_telemetry
from ..obs.metrics import CounterGroup

__all__ = ["Verifier", "VerifierStats", "FAIL_MODES"]

#: accepted values for ``Verifier(fail_mode=...)``
FAIL_MODES = ("raise", "open", "closed")


@dataclass
class VerifierStats:
    """A point-in-time snapshot of the event counters of a :class:`Verifier`."""

    forks: int = 0
    joins_checked: int = 0
    joins_rejected: int = 0
    policy_faults: int = 0

    @property
    def joins_permitted(self) -> int:
        return self.joins_checked - self.joins_rejected

    @property
    def rejection_rate(self) -> float:
        return self.joins_rejected / self.joins_checked if self.joins_checked else 0.0

    def snapshot(self) -> dict:
        """The uniform stats-source protocol: a flat field dict."""
        return asdict(self)


#: the counter fields every verifier shards per thread
_EVENT_FIELDS = ("forks", "joins_checked", "joins_rejected", "policy_faults")


class _FallbackVertex:
    """Placeholder vertex handed out while the policy is quarantined.

    Carries no policy state — under degradation the policy never sees it.
    It only needs identity (the journal and runtimes key vertices by
    ``id``) and a parent link for debugging.
    """

    __slots__ = ("parent",)

    def __init__(self, parent: object = None) -> None:
        self.parent = parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<fallback-vertex at {id(self):#x}>"


class Verifier:
    """Online policy verifier (Algorithm 1) around a pluggable policy.

    Parameters
    ----------
    policy:
        The join policy to consult.
    fail_mode:
        What to do when the policy raises an *internal* error (anything
        but :class:`PolicyViolationError`): ``"raise"`` propagates it
        (seed behaviour), ``"open"`` quarantines and degrades to
        permit-everything (Armus takes over soundness), ``"closed"``
        quarantines and fails every subsequent call deterministically.
    journal:
        Optional :class:`~repro.tools.journal.TraceJournal`; when set,
        init/fork/verdict/quarantine events are written through as they
        happen.
    """

    def __init__(
        self,
        policy: JoinPolicy,
        *,
        fail_mode: str = "raise",
        journal: "object | None" = None,
    ) -> None:
        if fail_mode not in FAIL_MODES:
            raise ValueError(f"fail_mode must be one of {FAIL_MODES}, got {fail_mode!r}")
        self.policy = policy
        self.fail_mode = fail_mode
        self.journal = journal
        self._quarantine: Optional[PolicyQuarantinedError] = None
        self._quarantine_lock = threading.Lock()
        # Sharded statistics: one cell per thread, registered once under
        # a lock, then incremented lock-free (single-writer per cell).
        # Cells of dead threads are folded into a retired accumulator (a
        # thread's writes all happen-before its death, so the fold is
        # exact) — without the fold, thread-per-task runtimes would leak
        # one cell per task forever.  The mechanism is the registry's
        # CounterGroup, so telemetry and `stats` read the same counters.
        self._events = CounterGroup(_EVENT_FIELDS)
        self._shard = self._events.cell  # bound method: the hot-path handle
        obs = _active_telemetry()
        self._obs = obs
        if obs is not None:
            obs.registry.add_source("verifier", self._events.totals)
            self._check_hist = obs.registry.histogram(
                "repro_verifier_join_check_ns",
                labels={
                    "policy": policy.name,
                    # compiled vs pure-Python kernel (flat TJ-SP resolves
                    # this at construction; everything else is "py"), so
                    # `top` and Prometheus export never conflate the two
                    "backend": getattr(policy, "backend", "py"),
                },
            )
        else:
            self._check_hist = None

    @property
    def name(self) -> str:
        return self.policy.name

    # ------------------------------------------------------------------
    # sharded statistics
    # ------------------------------------------------------------------
    @property
    def _shards(self) -> list:
        """The live per-thread counter cells (bounded by live threads)."""
        return self._events._cells

    @property
    def stats(self) -> VerifierStats:
        """Aggregate retired counts and every live cell into one exact
        snapshot.

        Threads die, their counts do not: a dead thread's cell is folded
        into the retired accumulator (on snapshot and at cell
        registration), so the sum is exactly the number of events ever
        recorded while the cell list stays bounded by live threads.
        """
        return VerifierStats(**self._events.totals())

    # ------------------------------------------------------------------
    # the quarantine fault boundary
    # ------------------------------------------------------------------
    @property
    def quarantined(self) -> bool:
        """True once the policy has been taken out of service."""
        return self._quarantine is not None

    @property
    def quarantine_error(self) -> Optional[PolicyQuarantinedError]:
        """The stored quarantine diagnosis, or None while healthy."""
        return self._quarantine

    @property
    def unsound(self) -> bool:
        """True while the policy's soundness theorem cannot be relied on.

        For a local verifier this is exactly :attr:`quarantined`;
        subclasses with other ways of losing the policy (the
        :class:`~repro.service.client.RemoteVerifier` while degraded)
        widen it.  :class:`~repro.armus.hybrid.HybridVerifier` and the
        supervision layer consult this — not ``quarantined`` — to decide
        when every blocking join must face the precise cycle check.
        """
        return self._quarantine is not None

    def _degraded(self) -> bool:
        """Entry guard for every policy-facing call.

        Returns True when the caller must use degraded (policy-free)
        behaviour; raises under ``fail_mode="closed"``.
        """
        q = self._quarantine
        if q is None:
            return False
        if self.fail_mode == "closed":
            raise q
        return True

    def _policy_fault(self, site: str, exc: BaseException) -> "PolicyQuarantinedError | None":
        """Handle an internal policy error according to ``fail_mode``.

        Returns None when the caller should re-raise the original
        exception (``fail_mode="raise"``); otherwise quarantines (first
        fault wins, later faults reuse the stored diagnosis) and returns
        the error — the caller raises it under ``"closed"`` and swallows
        it under ``"open"``.
        """
        if self.fail_mode == "raise":
            return None
        self._shard().policy_faults += 1
        obs = self._obs
        if obs is not None and obs.tracer is not None:
            obs.tracer.instant(
                "quarantine",
                cat="verifier",
                args={"policy": self.policy.name, "site": site},
            )
        with self._quarantine_lock:
            q = self._quarantine
            if q is None:
                q = PolicyQuarantinedError(
                    self.policy.name, site, original=traceback.format_exc()
                )
                q.__cause__ = exc
                self._quarantine = q
                if self.journal is not None:
                    self.journal.log_quarantine(self.policy.name, site, repr(exc))
        if q.__cause__ is exc:  # warn only for the fault that tripped it
            warnings.warn(
                f"policy {self.policy.name!r} quarantined after {site}() raised "
                f"{exc!r}; degrading to {'closed failure' if self.fail_mode == 'closed' else 'Armus-only checking'}",
                PolicyQuarantineWarning,
                stacklevel=3,
            )
        if self.fail_mode == "closed":
            raise q
        return q

    # ------------------------------------------------------------------
    def on_init(self) -> object:
        """Create the root vertex (``Fork(null, f)`` in Algorithm 1)."""
        self._shard().forks += 1
        if self._degraded():
            vertex = _FallbackVertex()
        else:
            try:
                vertex = self.policy.add_child(None)
            except Exception as exc:
                if self._policy_fault("add_child", exc) is None:
                    raise
                vertex = _FallbackVertex()
        if self.journal is not None:
            self.journal.log_init(vertex)
        return vertex

    def on_fork(self, parent: object) -> object:
        """Create a vertex for a task forked by the task at *parent*."""
        self._shard().forks += 1
        if self._degraded():
            vertex = _FallbackVertex(parent)
        else:
            try:
                vertex = self.policy.add_child(parent)
            except Exception as exc:
                if self._policy_fault("add_child", exc) is None:
                    raise
                vertex = _FallbackVertex(parent)
        if self.journal is not None:
            self.journal.log_fork(parent, vertex)
        return vertex

    # ------------------------------------------------------------------
    def check_join(self, joiner: object, joinee: object) -> bool:
        """Is the join permitted?  Records the verdict in the stats."""
        hist = self._check_hist
        if hist is not None:
            t0 = perf_counter_ns()
        if self._degraded():
            ok = True
        else:
            try:
                ok = self.policy.permits(joiner, joinee)
            except PolicyViolationError:
                raise
            except Exception as exc:
                if self._policy_fault("permits", exc) is None:
                    raise
                ok = True
        shard = self._shard()
        shard.joins_checked += 1
        if not ok:
            shard.joins_rejected += 1
        if hist is not None:
            hist.observe(perf_counter_ns() - t0)
        if self.journal is not None:
            self.journal.log_verdict(joiner, joinee, ok)
        return ok

    def check_joins(self, joiner: object, joinees: Sequence[object]) -> list[bool]:
        """Batch ``check_join``: one joiner against many joinees.

        One shard update covers the whole batch, and the policy's
        ``permits_many`` gets the chance to amortise its own per-call
        overhead.  Verdicts are returned in joinee order.
        """
        joinees = list(joinees)
        hist = self._check_hist
        if hist is not None:
            t0 = perf_counter_ns()
        if self._degraded():
            verdicts = [True] * len(joinees)
        else:
            try:
                verdicts = self.policy.permits_many(joiner, joinees)
            except PolicyViolationError:
                raise
            except Exception as exc:
                if self._policy_fault("permits", exc) is None:
                    raise
                verdicts = [True] * len(joinees)
        shard = self._shard()
        shard.joins_checked += len(verdicts)
        shard.joins_rejected += verdicts.count(False)
        if hist is not None:
            hist.observe(perf_counter_ns() - t0)
        if self.journal is not None:
            for joinee, ok in zip(joinees, verdicts):
                self.journal.log_verdict(joiner, joinee, ok)
        return verdicts

    def require_join(self, joiner: object, joinee: object) -> None:
        """Fault (raise) unless the join is permitted — Algorithm 1 line 13."""
        if not self.check_join(joiner, joinee):
            raise PolicyViolationError(self.policy.name, joiner, joinee)

    def require_joins(self, joiner: object, joinees: Sequence[object]) -> None:
        """Batch ``require_join``; faults on the first rejected joinee."""
        joinees = list(joinees)
        for joinee, ok in zip(joinees, self.check_joins(joiner, joinees)):
            if not ok:
                raise PolicyViolationError(self.policy.name, joiner, joinee)

    def on_join_completed(self, joiner: object, joinee: object) -> None:
        """Propagate post-join knowledge (KJ-learn); no-op under TJ."""
        if self._degraded():
            return
        try:
            self.policy.on_join(joiner, joinee)
        except Exception as exc:
            if self._policy_fault("on_join", exc) is None:
                raise
