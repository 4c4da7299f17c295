"""KJ-CC: compact clocks — an extension beyond the paper.

KJ knowledge is *downward closed in sibling index*: knowledge moves only
by whole-set inheritance (at forks) and whole-set learning (at joins),
and when the k-th child of ``p`` enters any set, children ``0..k-1`` of
``p`` are already there.  A knowledge set is therefore exactly
represented by the much smaller map

    ``clock : task ↦ number of leading children of that task known``

with ``a ≺ b  iff  clock_a[parent(b)] > index(b)``.

The clock has one entry per *distinct parent* known, not per task —
turning KJ-VC's O(n) fork copies into O(P) where P is the number of
distinct fork sites, which is tiny for the flat fork patterns (Crypt,
Series) that ruin KJ-VC in Table 2.  The ablation benchmark
``bench_ablation_lca.py`` quantifies the win; the property tests prove
exact equivalence with the reference KJ semantics.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..core.policy import JoinPolicy

__all__ = ["CCNode", "KJCompactClock"]


class CCNode:
    """A task record carrying a compact knowledge clock."""

    __slots__ = ("uid", "parent_uid", "ix", "clock", "children")

    def __init__(self, uid: int, parent_uid: Optional[int], ix: Optional[int]) -> None:
        self.uid = uid
        self.parent_uid = parent_uid
        self.ix = ix
        #: parent-task uid -> number of its leading children known
        self.clock: dict[int, int] = {}
        self.children = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CCNode(uid={self.uid}, ix={self.ix})"


class KJCompactClock(JoinPolicy):
    """Known Joins verified with downward-closed child-count clocks."""

    name = "KJ-CC"

    def __init__(self) -> None:
        self._uid = itertools.count()
        self._n_nodes = 0
        self._slots = 0

    def add_child(self, parent: Optional[CCNode]) -> CCNode:
        self._n_nodes += 1
        if parent is None:
            return CCNode(next(self._uid), None, None)
        v = CCNode(next(self._uid), parent.uid, parent.children)
        # KJ-inherit: snapshot before KJ-child so the child does not know
        # itself.
        v.clock = dict(parent.clock)
        self._slots += len(v.clock)
        # KJ-child: one more leading child of the parent is known to it.
        parent.children += 1
        if parent.clock.get(parent.uid, 0) == 0:
            self._slots += 1
        parent.clock[parent.uid] = parent.children
        return v

    def permits(self, joiner: CCNode, joinee: CCNode) -> bool:
        if joinee.parent_uid is None:
            return False  # nothing ever knows the root
        assert joinee.ix is not None
        return joiner.clock.get(joinee.parent_uid, 0) > joinee.ix

    def on_join(self, joiner: CCNode, joinee: CCNode) -> None:
        """KJ-learn: pointwise max of the two clocks into the joiner."""
        clock = joiner.clock
        for uid, count in joinee.clock.items():
            prev = clock.get(uid, 0)
            if count > prev:
                if prev == 0:
                    self._slots += 1
                clock[uid] = count

    def space_units(self) -> int:
        return 4 * self._n_nodes + 2 * self._slots
