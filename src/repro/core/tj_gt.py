"""TJ-GT: the shared-global-tree algorithm (Algorithm 2).

Each vertex stores a parent pointer, its child index (``ix``), its depth
and a count of children forked so far.  ``Less`` walks the two root paths
to their meeting point, tracking the child indices it arrives by, and
compares them — O(h) per join, O(1) per fork, O(n) space.

No synchronisation is used: the only mutable shared field is the parent's
``children`` counter, which is written solely by the owning task (the
Section 5.1 contract) and never read by ``Less``.
"""

from __future__ import annotations

from typing import Optional

from .policy import JoinPolicy

__all__ = ["GTNode", "TJGlobalTree"]


class GTNode:
    """A vertex of the shared fork tree."""

    __slots__ = ("parent", "ix", "depth", "children")

    def __init__(self, parent: Optional["GTNode"]) -> None:
        self.parent = parent
        self.ix: Optional[int] = None
        self.depth = 0
        self.children = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GTNode(depth={self.depth}, ix={self.ix})"


class TJGlobalTree(JoinPolicy):
    """Transitive Joins verified over a global tree of parent pointers."""

    name = "TJ-GT"
    stable_permits = True  # <_T is fixed at fork time

    def __init__(self) -> None:
        self._n_nodes = 0

    def add_child(self, parent: Optional[GTNode]) -> GTNode:
        v = GTNode(parent)
        self._n_nodes += 1
        if parent is None:
            return v
        v.depth = parent.depth + 1
        v.ix = parent.children
        parent.children += 1
        return v

    def permits(self, joiner: GTNode, joinee: GTNode) -> bool:
        return self._less(joiner, joinee)

    def _less(self, v1: GTNode, v2: GTNode) -> bool:
        """Algorithm 2's ``Less``: decide ``v1 <_T v2``.

        Note: as printed, the paper's lines 12/15 compare depths in a way
        whose lifting loop cannot run; the prose (lift the deeper vertex to
        the shallower one's depth, then climb in lockstep) pins down the
        intended algorithm, implemented here.
        """
        if v1 is v2:
            return False
        if v1.depth > v2.depth:
            # v1 <T v2  <=>  v1 != v2 and not (v2 <T v1) — trichotomy.
            return not self._less(v2, v1)
        # depth(v1) <= depth(v2): lift v2, then climb in lockstep.
        i1: Optional[int] = None  # child indices we arrive by
        i2: Optional[int] = None
        while v2.depth > v1.depth:
            i2 = v2.ix
            assert v2.parent is not None
            v2 = v2.parent
        while v1 is not v2:
            i1 = v1.ix
            i2 = v2.ix
            assert v1.parent is not None and v2.parent is not None
            v1 = v1.parent
            v2 = v2.parent
        if i1 is None:
            # v1 never moved: it is a proper ancestor of the original v2
            # (anc+ case); i2 is never None here since the originals differ.
            return True
        assert i2 is not None and i1 != i2  # siblings diverge
        return i1 > i2

    def space_units(self) -> int:
        return 4 * self._n_nodes  # parent, ix, depth, children per vertex
