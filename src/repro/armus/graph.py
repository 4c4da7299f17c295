"""The waits-for graph: the one store of a runtime's blocked joins.

Vertices are task identities (any hashable — the runtimes use task
objects); an edge ``a -> b`` means task *a* is currently blocked joining
on task *b*, and holds one :class:`Entry` per wait blocked on it (a
batch ``join_batch([f, g, f])`` holds one edge twice).  A runtime owns
exactly one graph — its Armus detector's when the fallback is on, a bare
one otherwise — and Armus's check-then-register, the stall watchdog, the
cooperative stuck report, ``blocked_joins()`` and the fleet view all
read it, so no blocked edge can exist outside the set Armus searches.

All mutation and path queries happen under one lock: the graph only ever
contains *currently blocked* tasks, so it is small (bounded by the number
of live tasks, not by n), and the simplicity buys the atomic
check-then-block needed for race-free avoidance.
"""

from __future__ import annotations

import threading
from typing import Hashable, Iterator, Optional

__all__ = ["Entry", "WaitsForGraph"]


class Entry:
    """One blocked wait on the edge ``joiner -> joinee``.

    Runtimes subclass it to carry their own wait state (the supervisor's
    :class:`~repro.runtime.supervisor.BlockedJoin` adds the wait's wake
    and delivery slots), which the graph never reads.  ``forced`` marks
    an edge whose policy verdict does not vouch for it (a flagged join
    Armus admitted, or a verdict a task retry made stale); while one is
    live, Armus checks permitted joins too.
    """

    __slots__ = ("joiner", "joinee", "forced")

    def __init__(self, joiner: Hashable, joinee: Hashable) -> None:
        self.joiner = joiner
        self.joinee = joinee
        self.forced = False


class WaitsForGraph:
    """Directed graph of blocked join operations, one entry per wait."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: joiner -> its entries (one per wait; a batch parks on several)
        self._succ: dict[Hashable, list[Entry]] = {}
        #: live entries with ``forced`` set (Armus's fast-path test)
        self._live_forced = 0

    # The lock is exposed so a caller can perform check+add atomically.
    @property
    def lock(self) -> threading.Lock:
        return self._lock

    # ------------------------------------------------------------------
    # unlocked primitives (caller must hold .lock)
    # ------------------------------------------------------------------
    def _add(self, entry: Entry) -> None:
        entries = self._succ.get(entry.joiner)
        if entries is None:
            self._succ[entry.joiner] = [entry]
        else:
            entries.append(entry)
        if entry.forced:
            self._live_forced += 1

    def _remove(self, joiner: Hashable, joinee: Hashable) -> Optional[Entry]:
        """Drop the newest entry of the edge; None when it holds none."""
        entries = self._succ.get(joiner, ())
        for i in range(len(entries) - 1, -1, -1):
            entry = entries[i]
            if entry.joinee == joinee:
                del entries[i]
                if not entries:
                    del self._succ[joiner]
                if entry.forced:
                    self._live_forced -= 1
                return entry
        return None

    def _entries(self) -> Iterator[Entry]:
        for entries in self._succ.values():
            yield from entries

    def _find_path(self, src: Hashable, dst: Hashable) -> Optional[list[Hashable]]:
        """A path src ⇝ dst through blocked edges, or None.  Iterative DFS."""
        if src == dst:
            return [src]
        if src not in self._succ:
            return None
        parent: dict[Hashable, Hashable] = {}
        stack = [src]
        seen = {src}
        while stack:
            node = stack.pop()
            for entry in self._succ.get(node, ()):
                succ = entry.joinee
                if succ in seen:
                    continue
                parent[succ] = node
                if succ == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                seen.add(succ)
                stack.append(succ)
        return None

    # ------------------------------------------------------------------
    # locked API
    # ------------------------------------------------------------------
    def add(self, *entries: Entry) -> None:
        """Register *entries* in one critical section (no cycle check)."""
        with self._lock:
            for entry in entries:
                self._add(entry)

    def remove(self, joiner: Hashable, joinee: Hashable) -> Optional[Entry]:
        """Release one wait on ``joiner -> joinee`` (no-op when none)."""
        with self._lock:
            return self._remove(joiner, joinee)

    def has_path(self, src: Hashable, dst: Hashable) -> bool:
        with self._lock:
            return self._find_path(src, dst) is not None

    def entries(self) -> list[Entry]:
        """An atomic copy of the live entries."""
        with self._lock:
            return list(self._entries())

    def adjacency(self) -> dict[Hashable, dict[Hashable, list[Entry]]]:
        """An atomic copy of the graph for whole-graph searches.

        Maps joiner -> joinee -> that edge's entries, with every vertex
        a key (a vertex nothing waits on maps to ``{}``), which is the
        shape :func:`~repro.formal.deadlock.find_cycle` walks.
        """
        graph: dict[Hashable, dict[Hashable, list[Entry]]] = {}
        for entry in self.entries():
            graph.setdefault(entry.joiner, {}).setdefault(entry.joinee, []).append(entry)
        for succs in list(graph.values()):
            for joinee in succs:
                graph.setdefault(joinee, {})
        return graph

    def edges(self) -> list[tuple[Hashable, Hashable]]:
        return [(e.joiner, e.joinee) for e in self.entries()]

    def __len__(self) -> int:
        with self._lock:
            return sum(map(len, self._succ.values()))
