"""TJ-JP: jump pointers / binary lifting (Section 5.2.2).

Each vertex stores pointers to its 2^i-th ancestors.  A fork at depth
``d`` sets up O(log d) pointers; ``Less`` lifts the deeper vertex to equal
depth and then binary-searches for the meeting point, giving O(log h) per
join.  Space is O(n log h) — the trade the paper declines to evaluate
because its benchmark fork trees are shallow (≤ 8); our ablation benchmark
(``benchmarks/bench_ablation_lca.py``) exercises the deep-tree regime
where TJ-JP pays off.
"""

from __future__ import annotations

from typing import Optional

from .policy import JoinPolicy

__all__ = ["JPNode", "TJJumpPointers"]


class JPNode:
    """A vertex carrying binary-lifting jump pointers.

    ``up[k]`` is the 2^k-th ancestor; ``up`` is empty for the root.  ``ix``
    is the child index among siblings, used for the sibling comparison at
    the divergence point.
    """

    __slots__ = ("up", "ix", "depth", "children")

    def __init__(self) -> None:
        self.up: list["JPNode"] = []
        self.ix: Optional[int] = None
        self.depth = 0
        self.children = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JPNode(depth={self.depth}, ix={self.ix})"


class TJJumpPointers(JoinPolicy):
    """Transitive Joins verified with a binary-lifting ancestor index."""

    name = "TJ-JP"
    stable_permits = True  # <_T is fixed at fork time

    def __init__(self) -> None:
        self._n_nodes = 0
        self._jump_slots = 0

    def add_child(self, parent: Optional[JPNode]) -> JPNode:
        v = JPNode()
        self._n_nodes += 1
        if parent is None:
            return v
        v.depth = parent.depth + 1
        v.ix = parent.children
        parent.children += 1
        # up[0] = parent; up[k] = up[k-1].up[k-1] while it exists.
        v.up.append(parent)
        k = 0
        while len(v.up[k].up) > k:
            v.up.append(v.up[k].up[k])
            k += 1
        self._jump_slots += len(v.up)
        return v

    @staticmethod
    def _lift(v: JPNode, steps: int) -> JPNode:
        """The ancestor of *v* exactly *steps* levels up."""
        k = 0
        while steps:
            if steps & 1:
                v = v.up[k]
            steps >>= 1
            k += 1
        return v

    def permits(self, joiner: JPNode, joinee: JPNode) -> bool:
        return self._less(joiner, joinee)

    def _less(self, v1: JPNode, v2: JPNode) -> bool:
        """Decide ``v1 <_T v2`` in O(log h)."""
        if v1 is v2:
            return False
        if v1.depth < v2.depth:
            w = self._lift(v2, v2.depth - v1.depth)
            if w is v1:
                return True  # anc+ case
            v2 = w
        elif v1.depth > v2.depth:
            w = self._lift(v1, v1.depth - v2.depth)
            if w is v2:
                return False  # dec* case
            v1 = w
        # Equal depth, different vertices: binary-lift both just below the
        # LCA, then compare sibling indices.
        for k in range(len(v1.up) - 1, -1, -1):
            if k < len(v1.up) and v1.up[k] is not v2.up[k]:
                v1 = v1.up[k]
                v2 = v2.up[k]
        assert v1.ix is not None and v2.ix is not None
        return v1.ix > v2.ix

    def space_units(self) -> int:
        return 3 * self._n_nodes + self._jump_slots
