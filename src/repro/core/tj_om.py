"""TJ-OM: order-maintenance labels (an extension beyond the paper).

Section 3.3 shows the TJ permission relation is a total order in which a
new task sits immediately after its parent.  That makes TJ verification an
instance of the classic *order-maintenance* problem (Dietz & Sleator):
maintain a list under insert-after so that order queries are O(1).

We implement the simple amortised scheme: 63-bit integer labels with
geometric gaps, relabelling the whole list when an insertion finds no gap.
Relabelling is O(n) but is triggered at most O(log gap) times per region,
so forks are amortised near-O(1) and ``Less`` is a single integer compare
— beating every Table 1 row asymptotically.

The price, and the reason this is an *extension* rather than a faithful
reimplementation, is synchronisation: unlike TJ-GT/JP/SP, insertions
mutate shared neighbours, so a lock serialises forks (queries stay
lock-free: labels are written before the node is published, and a
relabel holds the lock while readers only ever see a consistent snapshot
via the sequence counter check).
"""

from __future__ import annotations

import threading
from typing import Optional

from .policy import JoinPolicy

__all__ = ["OMNode", "TJOrderMaintenance"]

#: label space; gaps start at _GAP and shrink towards 1 before a relabel
_MAX_LABEL = 1 << 62
_GAP = 1 << 20


class OMNode:
    """A list cell with an order label."""

    __slots__ = ("label", "next", "prev")

    def __init__(self, label: int) -> None:
        self.label = label
        self.next: Optional["OMNode"] = None
        self.prev: Optional["OMNode"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OMNode(label={self.label})"


class TJOrderMaintenance(JoinPolicy):
    """Transitive Joins via an order-maintenance labelled list."""

    name = "TJ-OM"
    stable_permits = True  # <_T is fixed at fork time

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._head: Optional[OMNode] = None
        self._n_nodes = 0
        self._relabels = 0
        #: incremented (to odd, then back to even) around relabels so that
        #: unlocked readers can detect a concurrent relabel and retry
        self._seq = 0

    # ------------------------------------------------------------------
    def add_child(self, parent: Optional[OMNode]) -> OMNode:
        with self._lock:
            self._n_nodes += 1
            if parent is None:
                node = OMNode(_MAX_LABEL // 2)
                self._head = node
                return node
            succ = parent.next
            if succ is None:
                label = parent.label + _GAP
                if label >= _MAX_LABEL:
                    self._relabel()
                    label = parent.label + _GAP
            else:
                label = (parent.label + succ.label) // 2
                if label == parent.label:
                    self._relabel()
                    succ = parent.next
                    label = (
                        (parent.label + succ.label) // 2
                        if succ is not None
                        else parent.label + _GAP
                    )
            node = OMNode(label)
            node.prev = parent
            node.next = succ
            if succ is not None:
                succ.prev = node
            parent.next = node
            return node

    def _relabel(self) -> None:
        """Re-space all labels evenly; caller holds the lock."""
        self._seq += 1  # odd: relabel in progress
        try:
            n = self._n_nodes
            gap = max(1, min(_GAP, (_MAX_LABEL - 2) // max(1, n + 1)))
            label = gap
            node = self._head
            while node is not None:
                node.label = label
                label += gap
                node = node.next
            self._relabels += 1
        finally:
            self._seq += 1  # even: done

    # ------------------------------------------------------------------
    def permits(self, joiner: OMNode, joinee: OMNode) -> bool:
        while True:
            seq = self._seq
            if seq & 1:
                with self._lock:  # wait out the relabel
                    pass
                continue
            result = joiner.label < joinee.label
            if self._seq == seq:
                return result

    def space_units(self) -> int:
        return 3 * self._n_nodes

    @property
    def relabel_count(self) -> int:
        """How many full relabels have occurred (exposed for tests/benches)."""
        return self._relabels
