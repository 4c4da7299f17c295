"""TJ-SP: the task-local spawn-path algorithm (Algorithm 3), as evaluated.

The seed implementation stores each task's *spawn path* — the array of
child indices from the root down to itself — as an immutable Python
tuple: a fork copies the parent's path (O(h) allocation) and ``Less``
scans for the longest common prefix.  That is the variant the paper
evaluates, and it is kept verbatim below as :class:`TJSpawnPathsLegacy`
(registered as ``"TJ-SP-legacy"``): Table 1 reports its bounds and the
hot-path speedup gate measures the production policy against it.  The
production ``"TJ-SP"`` name resolves to the parent-column policy of
:mod:`repro.core.tj_sp_flat`.
"""

from __future__ import annotations

from typing import Optional

from .policy import JoinPolicy

__all__ = ["TJSpawnPathsLegacy", "LegacySPNode"]


class LegacySPNode:
    """A task record holding its spawn path and a fork counter (seed)."""

    __slots__ = ("path", "children")

    def __init__(self, path: tuple[int, ...]) -> None:
        self.path = path
        self.children = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LegacySPNode(path={self.path})"


class TJSpawnPathsLegacy(JoinPolicy):
    """The seed tuple-per-task TJ-SP, kept as a benchmark baseline.

    Task-local arrays trade O(n·h) total space for zero sharing: a fork
    copies the parent's tuple and appends the child index; ``Less`` is
    the Algorithm 3 LCP scan.  The ``hotpath`` suite of
    ``repro bench-record`` measures the flat ``TJ-SP`` against this
    implementation.
    """

    name = "TJ-SP-legacy"
    stable_permits = True

    def __init__(self) -> None:
        self._n_nodes = 0
        self._path_slots = 0

    def add_child(self, parent: Optional[LegacySPNode]) -> LegacySPNode:
        self._n_nodes += 1
        if parent is None:
            return LegacySPNode(())
        path = parent.path + (parent.children,)
        parent.children += 1
        self._path_slots += len(path)
        return LegacySPNode(path)

    def permits(self, joiner: LegacySPNode, joinee: LegacySPNode) -> bool:
        return self._less(joiner.path, joinee.path)

    @staticmethod
    def _less(p1: tuple[int, ...], p2: tuple[int, ...]) -> bool:
        """Algorithm 3 ``Less``: longest-common-prefix scan."""
        for i in range(min(len(p1), len(p2))):
            if p1[i] != p2[i]:
                return p1[i] > p2[i]  # sib case: later sibling is smaller
        # One path is a prefix of the other (or they are equal): the
        # shorter path is the ancestor, and only a proper ancestor is less.
        return len(p1) < len(p2)

    def space_units(self) -> int:
        return self._n_nodes + self._path_slots
