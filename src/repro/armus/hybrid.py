"""The sound-and-precise combination of a conservative policy with Armus.

Section 6: "if the given policy flags a join as invalid, general cycle
detection is invoked to determine if the join would truly create a
deadlock or if it is just a false positive."  :class:`HybridVerifier`
packages that composition for the runtimes:

1. fast path — the policy permits the join: register the blocking edge
   and proceed (the cycle check is skipped only while no forced edge is
   live; see :class:`~repro.armus.detector.ArmusDetector`);
2. slow path — the policy flags the join: run precise cycle detection;
   a real cycle raises :class:`DeadlockAvoidedError`, otherwise the join
   proceeds as a counted false positive.

The same object can also replay *traces* (no runtime, no threads), which
is how the precision ablation measures false-positive rates per policy.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from .detector import ArmusDetector
from .graph import Entry
from ..core.policy import JoinPolicy
from ..core.verifier import Verifier
from ..errors import DeadlockAvoidedError
from ..formal.actions import Action, Fork, Init, Join

__all__ = ["HybridVerifier", "replay_trace"]


class HybridVerifier:
    """A :class:`Verifier` plus an :class:`ArmusDetector` fallback."""

    def __init__(
        self,
        policy: JoinPolicy,
        detector: Optional[ArmusDetector] = None,
        *,
        fail_mode: str = "raise",
        journal: "object | None" = None,
        verifier: "Verifier | None" = None,
    ) -> None:
        # An injected verifier (a procs worker's ShardVerifier) replaces
        # the locally-constructed one wholesale; the policy/fail_mode/
        # journal arguments then belong to the caller's construction of
        # it, not ours.
        self.verifier = (
            verifier
            if verifier is not None
            else Verifier(policy, fail_mode=fail_mode, journal=journal)
        )
        self.detector = detector if detector is not None else ArmusDetector()

    @property
    def journal(self) -> "object | None":
        return self.verifier.journal

    @property
    def name(self) -> str:
        return self.verifier.name

    @property
    def policy(self) -> JoinPolicy:
        return self.verifier.policy

    # ------------------------------------------------------------------
    # runtime-facing protocol
    # ------------------------------------------------------------------
    def on_init(self) -> object:
        return self.verifier.on_init()

    def on_fork(self, parent: object) -> object:
        return self.verifier.on_fork(parent)

    def begin_join(
        self,
        joiner_task: Hashable,
        joinee_task: Hashable,
        joiner_vertex: object,
        joinee_vertex: object,
        *,
        joinee_done: bool,
        flagged: Optional[bool] = None,
        entry: Optional[Entry] = None,
    ) -> bool:
        """Gate a join about to block.

        Returns True if a blocking edge was registered (the caller must
        call :meth:`end_join` after the wait); False when no edge was
        needed because the joinee had already terminated.  Raises
        :class:`DeadlockAvoidedError` for a join that would truly deadlock.
        ``entry`` is the caller's record of the wait, registered as the
        edge's entry in the same critical section as the cycle check.

        ``flagged`` lets a caller that already verified the join in a
        batch (``Verifier.check_joins``) pass the precomputed verdict in,
        so the policy check — and its statistics — are not repeated.
        Only sound for ``stable_permits`` policies, where the verdict
        cannot have changed since the batch check.
        """
        if flagged is None:
            flagged = not self.verifier.check_join(joiner_vertex, joinee_vertex)
        if joinee_done:
            # Terminated joinee: no blocking, no cycle possible.  A flagged
            # join still counts as a (vacuous) false positive — the paper's
            # verifiers pay the check here too.
            if flagged:
                self.detector.count_false_positive()
            return False
        # While the policy is quarantined its soundness theorem is void:
        # every blocking edge must face the precise cycle check
        # (Armus-only mode).
        self.detector.block(
            joiner_task,
            joinee_task,
            flagged=flagged,
            force_check=self.verifier.quarantined,
            entry=entry,
        )
        return True

    def end_join(self, joiner_task: Hashable, joinee_task: Hashable) -> None:
        """Release the blocking edge once the join has completed."""
        self.detector.unblock(joiner_task, joinee_task)

    def on_join_completed(self, joiner_vertex: object, joinee_vertex: object) -> None:
        self.verifier.on_join_completed(joiner_vertex, joinee_vertex)


def replay_trace(trace: Iterable[Action], policy: JoinPolicy) -> HybridVerifier:
    """Replay a trace through a hybrid verifier, join by join.

    Joins in a linear trace never block (the joinee's actions, if any,
    already happened), so every flagged join is a false positive; the
    returned verifier's stats summarise the policy's precision on this
    trace.  Used by the precision ablation and by tests.
    """
    hybrid = HybridVerifier(policy)
    vertices: dict[Hashable, object] = {}
    for action in trace:
        if isinstance(action, Init):
            vertices[action.task] = hybrid.on_init()
        elif isinstance(action, Fork):
            vertices[action.child] = hybrid.on_fork(vertices[action.parent])
        elif isinstance(action, Join):
            a, b = action.waiter, action.joinee
            blocked = hybrid.begin_join(a, b, vertices[a], vertices[b], joinee_done=True)
            assert not blocked
            hybrid.on_join_completed(vertices[a], vertices[b])
    return hybrid
