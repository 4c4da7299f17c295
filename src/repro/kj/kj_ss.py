"""KJ-SS: Known Joins with snapshot sets (Cogumbreiro et al., OOPSLA 2017).

Instead of materialising knowledge sets, each task stores O(1) state per
event and queries walk the resulting DAG:

* at fork, the child records an *inherit snapshot* — a pointer to the
  parent plus the parent's (children, learned) counters at that instant;
* at join, the waiter appends a *learn entry* — a pointer to the joinee
  with the joinee's final counters (the joinee has terminated, so its
  state is frozen).

``a ≺ b`` holds iff the expression tree rooted at ``a``'s current state
contains ``b`` as "child j of p with j < snapshotted child count".  A
memoised DFS answers that in O(n) worst case with O(1) work per visited
snapshot — fork O(1), join O(n), space O(n), matching Table 1.
"""

from __future__ import annotations

from typing import Optional

from ..core.policy import JoinPolicy

__all__ = ["SSNode", "KJSnapshotSets"]


class SSNode:
    """A task record holding snapshot-set state."""

    __slots__ = ("parent", "ix", "inherit_children", "inherit_learned", "children", "learned")

    def __init__(
        self,
        parent: Optional["SSNode"],
        ix: Optional[int],
        inherit_children: int,
        inherit_learned: int,
    ) -> None:
        self.parent = parent
        self.ix = ix
        #: parent's counters at our fork: we know its first
        #: ``inherit_children`` children and whatever its first
        #: ``inherit_learned`` learn entries provided.
        self.inherit_children = inherit_children
        self.inherit_learned = inherit_learned
        self.children = 0
        #: learn entries: (joinee, joinee_children, joinee_learned)
        self.learned: list[tuple["SSNode", int, int]] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SSNode(ix={self.ix})"


class KJSnapshotSets(JoinPolicy):
    """Known Joins verified with snapshot sets."""

    name = "KJ-SS"

    def __init__(self) -> None:
        self._n_nodes = 0
        self._learn_entries = 0

    def add_child(self, parent: Optional[SSNode]) -> SSNode:
        self._n_nodes += 1
        if parent is None:
            return SSNode(None, None, 0, 0)
        v = SSNode(parent, parent.children, parent.children, len(parent.learned))
        parent.children += 1
        return v

    def permits(self, joiner: SSNode, joinee: SSNode) -> bool:
        memo: set[tuple[int, int, int]] = set()
        return self._knows(joiner, joiner.children, len(joiner.learned), joinee, memo)

    def _knows(
        self,
        v: SSNode,
        n_children: int,
        n_learned: int,
        target: SSNode,
        memo: set[tuple[int, int, int]],
    ) -> bool:
        """Does the knowledge of *v*, restricted to its first *n_children*
        forks and first *n_learned* learn entries, contain *target*?

        The memo key includes the restriction counters: the same node can
        appear in the DAG under different snapshots, and a later snapshot
        sees strictly more.  Visiting the largest-counter occurrence first
        would suffice, but keying on the triple is simpler and still O(n)
        amortised because counters per node take O(events) distinct values
        along one query's DFS.
        """
        while True:
            key = (id(v), n_children, n_learned)
            if key in memo:
                return False
            memo.add(key)
            # Direct knowledge: target is one of v's first n_children forks.
            if target.parent is v and target.ix is not None and target.ix < n_children:
                return True
            # Learned knowledge.  Note KJ-learn contributes K(joinee) only,
            # not {joinee}: a task may join a stranger under a fallback, and
            # that must not by itself make the stranger "known".
            for joinee, jc, jl in v.learned[:n_learned]:
                if self._knows(joinee, jc, jl, target, memo):
                    return True
            # Inherited knowledge: continue the walk in the parent without
            # recursing (keeps the hot path iterative for deep trees).
            if v.parent is None:
                return False
            v, n_children, n_learned = v.parent, v.inherit_children, v.inherit_learned

    def on_join(self, joiner: SSNode, joinee: SSNode) -> None:
        """Record a learn entry with the joinee's (final) counters."""
        joiner.learned.append((joinee, joinee.children, len(joinee.learned)))
        self._learn_entries += 1

    def space_units(self) -> int:
        return 6 * self._n_nodes + 3 * self._learn_entries
