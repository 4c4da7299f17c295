"""Armus-style deadlock avoidance by cycle detection (Cogumbreiro et al.,
PPoPP 2015), used as the precision fallback of Section 6.

Protocol per blocking join ``a -> b`` (all atomic under the graph lock):
if a path ``b ⇝ a`` exists through currently blocked joins, the join would
close a cycle — raise :class:`DeadlockAvoidedError` *without blocking*;
otherwise record the edge and let the caller block.  The caller must
release the edge once the join completes.

The atomic check-then-block is essential: two tasks concurrently starting
joins that each individually pass a check could otherwise both proceed and
close a cycle (a classic TOCTOU race).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from time import perf_counter_ns
from typing import Callable, Hashable, Optional, Sequence

from .graph import Entry, WaitsForGraph
from ..errors import DeadlockAvoidedError
from ..obs import active as _active_telemetry

__all__ = ["ArmusDetector", "ArmusStats"]


@dataclass
class ArmusStats:
    """Counters for the fallback's activity (read by the evaluation)."""

    #: joins a policy flagged, referred here, and admitted (false positives)
    false_positives: int = 0
    #: joins refused because they would have closed a real cycle
    deadlocks_avoided: int = 0
    #: full cycle checks executed (the expensive operation Table 2 pays for)
    cycle_checks: int = 0

    def snapshot(self) -> dict:
        """The uniform stats-source protocol: a flat field dict."""
        return asdict(self)


class ArmusDetector:
    """Waits-for-graph cycle detection with atomic blocking registration.

    While no *forced* entry is live (the graph's ``_live_forced`` count
    is zero), every blocked edge is policy-consistent and the policy's
    soundness theorem guarantees acyclicity, so checks on *permitted*
    joins can be skipped.  The moment one forced edge is live, permitted
    joins must be checked too: a permitted edge can close a cycle through
    forced edges (see
    tests/armus/test_detector.py::TestPermittedJoinChecking::test_permitted_join_closing_cycle_through_forced_edge_is_refused
    for a 3-task example).
    """

    def __init__(self) -> None:
        self.graph = WaitsForGraph()
        self.stats = ArmusStats()
        obs = _active_telemetry()
        self._obs = obs
        if obs is not None:
            obs.registry.add_source("armus", self.stats.snapshot)
        self._lock = self.graph.lock

    # ------------------------------------------------------------------
    def _closes_cycle(self, joiner: Hashable, joinee: Hashable) -> Optional[list]:
        """One counted cycle check (caller holds the lock): the path
        ``joinee ⇝ joiner`` the edge would close, or None."""
        obs = self._obs
        if obs is not None:
            t0 = perf_counter_ns()
        self.stats.cycle_checks += 1
        path = self.graph._find_path(joinee, joiner)
        if obs is not None:
            obs.cycle_check_ns.observe(perf_counter_ns() - t0)
        return path

    def block(
        self,
        waiter: Hashable,
        joinee: Hashable,
        *,
        flagged: bool,
        force_check: bool = False,
        entry: Optional[Entry] = None,
    ) -> None:
        """Atomically verify and register the blocking edge ``waiter->joinee``.

        ``flagged`` says the conservative policy rejected this join and the
        caller is falling back to precise detection.  ``force_check`` runs
        the cycle check regardless of the verdict — used when the policy
        is quarantined and its soundness theorem no longer applies, so
        *every* blocking edge must be checked (Armus-only degradation).
        A forced check does not count as a policy false positive.  Raises
        :class:`DeadlockAvoidedError` (and registers nothing) if the edge
        would close a cycle.  ``entry`` is the caller's record of the
        wait (its edge must be ``waiter->joinee``); a plain
        :class:`Entry` is made when none is given.
        """
        with self._lock:
            if flagged or force_check or self.graph._live_forced:
                path = self._closes_cycle(waiter, joinee)
                if path is not None:
                    self.stats.deadlocks_avoided += 1
                    raise DeadlockAvoidedError(cycle=tuple(path) + (joinee,))
            if entry is None:
                entry = Entry(waiter, joinee)
            if flagged:
                self.stats.false_positives += 1
                entry.forced = True
            self.graph._add(entry)

    def block_all(self, entries: Sequence[Entry], *, force_check: bool) -> bool:
        """Register a batch of permitted joins of one joiner, or none of them.

        Every edge faces the check a permitted join faces.  If one would
        close a cycle nothing is registered and False is returned: that
        refusal avoids no join by itself — the caller then joins one by
        one, and the sequential join meets the same cycle at its own
        position and is refused (and counted) there.
        """
        with self._lock:
            if force_check or self.graph._live_forced:
                for entry in entries:
                    if self._closes_cycle(entry.joiner, entry.joinee) is not None:
                        return False
            for entry in entries:
                self.graph._add(entry)
            return True

    def force(self, stale: Callable[[Entry], bool]) -> None:
        """Upgrade every registered entry *stale* selects to forced.

        Used when blocked edges' policy verdicts go stale — a task retry
        gives the joinee a fresh vertex, and a join verified against the
        old vertex may no longer be permitted against the new one.
        Forcing them makes every later permitted join pay the cycle check
        while they live, restoring the avoidance guarantee.  One pass
        over the graph under its lock; *stale* is asked about already
        forced entries too, so it sees every entry exactly once.
        """
        with self._lock:
            for entry in self.graph._entries():
                if stale(entry) and not entry.forced:
                    entry.forced = True
                    self.graph._live_forced += 1

    def count_false_positive(self) -> None:
        """Record a policy false positive diagnosed without blocking.

        Used when a flagged join targets an already-terminated task: no
        edge is registered and no cycle is possible, but the (vacuous)
        false positive still counts toward the precision statistics.
        Public so callers never have to reach into the detector's lock.
        """
        with self._lock:
            self.stats.false_positives += 1

    def unblock(self, waiter: Hashable, joinee: Hashable) -> None:
        """Remove the edge once the join has completed (or was abandoned)."""
        self.graph.remove(waiter, joinee)

    @property
    def live_forced_edges(self) -> int:
        with self._lock:
            return self.graph._live_forced
