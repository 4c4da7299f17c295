"""KJ-VC: Known Joins with vector clocks (Cogumbreiro et al., OOPSLA 2017).

The knowledge set of each task is materialised as a characteristic
vector over task ids — conceptually a vector clock with one slot per
task.  Every fork copies the parent's whole vector (KJ-inherit) and every
join unions the joinee's vector into the waiter's (KJ-learn), giving the
Table 1 bounds this baseline is known for: O(n) fork, O(n) join, O(n²)
space.  Those costs are the point — Table 2's Crypt row (9.15x) is this
verifier paying an O(n) copy for each of 8192 forked siblings.

(A compacted representation exploiting the downward closure of KJ
knowledge lives in :mod:`repro.kj.kj_cc` as an extension.)
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..core.policy import JoinPolicy

__all__ = ["VCNode", "KJVectorClock"]


class VCNode:
    """A task record carrying its materialised knowledge vector."""

    __slots__ = ("uid", "known")

    def __init__(self, uid: int) -> None:
        self.uid = uid
        #: uids of every task this task knows (its knowledge set)
        self.known: set[int] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VCNode(uid={self.uid}, |K|={len(self.known)})"


class KJVectorClock(JoinPolicy):
    """Known Joins verified with per-task knowledge vectors."""

    name = "KJ-VC"

    def __init__(self) -> None:
        self._uid = itertools.count()
        self._n_nodes = 0
        self._slots = 0  # total live knowledge entries across tasks

    def add_child(self, parent: Optional[VCNode]) -> VCNode:
        self._n_nodes += 1
        v = VCNode(next(self._uid))
        if parent is None:
            return v
        # KJ-inherit: copy the parent's whole vector (the O(n) step),
        # before KJ-child bumps it — the child must not know itself.
        v.known = set(parent.known)
        self._slots += len(v.known)
        # KJ-child: the parent now knows the new task.
        parent.known.add(v.uid)
        self._slots += 1
        return v

    def permits(self, joiner: VCNode, joinee: VCNode) -> bool:
        return joinee.uid in joiner.known

    def on_join(self, joiner: VCNode, joinee: VCNode) -> None:
        """KJ-learn: union the joinee's vector into the joiner's."""
        before = len(joiner.known)
        joiner.known |= joinee.known
        self._slots += len(joiner.known) - before

    def space_units(self) -> int:
        return self._n_nodes + self._slots
