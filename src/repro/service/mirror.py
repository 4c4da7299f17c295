"""An authoritative spawn-path mirror for tenant verification.

A tenant's sessions stream fork events from *many* worker processes
concurrently, and the sidecar applies them in arrival order — which is
not fork order.  If the tenant's policy assigned sibling edge indices
itself (as every registered policy does), two workers racing their
announcements could mirror ``fork(p, a); fork(p, b)`` as ``b`` before
``a`` and silently flip the sibling verdict ``a < b``.  The multi-
process runtime already owns the true tree (the shared-memory forest),
so its fork records carry the **authoritative placement** — ``edge`` and
``depth`` straight from the shared rows — and this policy applies them
verbatim instead of re-deriving anything.  Arrival order then cannot
matter: a row is identical no matter which session lands first.

Vertices are the client rids themselves (plain ints).  The placement
travels through :meth:`stage`: the session stages ``(rid, parent, edge,
depth)`` under the tenant lock, then drives the ordinary
:class:`~repro.core.verifier.Verifier` protocol, whose ``add_child``
call consumes the staged row — so stats, quarantine, journaling and
fail modes all work unchanged on top.

The verdict rule is TJ-SP's Algorithm 3 ``Less``; a tenant therefore
only accepts TJ-SP-family policies (the server enforces this), which is
no restriction in practice — the procs runtime that uses tenants is
TJ-SP by construction.
"""

from __future__ import annotations

from typing import Optional

from ..core.policy import JoinPolicy

__all__ = ["MirroredSpawnPaths"]


class MirroredSpawnPaths(JoinPolicy):
    """TJ-SP over client-authoritative ``(parent, edge, depth)`` rows."""

    backend = "mirror"
    stable_permits = True

    def __init__(self, name: str = "TJ-SP") -> None:
        #: reported policy name (what the tenant's clients asked for)
        self.name = name
        #: rid -> (parent rid | -1, edge, depth)
        self.rows: dict[int, tuple[int, int, int]] = {}
        self._staged: "tuple[int, int, int, int] | None" = None
        self._last_ok: dict[int, int] = {}

    # ------------------------------------------------------------------
    def stage(self, rid: int, parent: int, edge: int, depth: int) -> None:
        """Declare the next vertex's authoritative placement.

        Called by the session (tenant lock held) immediately before the
        verifier's ``on_init``/``on_fork`` drives :meth:`add_child`.
        """
        self._staged = (rid, parent, edge, depth)

    def add_child(self, parent: Optional[int]) -> int:
        staged = self._staged
        if staged is None:
            raise ValueError(
                "mirrored policy needs a staged placement; tenant fork records "
                "must carry edge/depth"
            )
        self._staged = None
        rid, parent_rid, edge, depth = staged
        self.rows[rid] = (parent_rid, edge, depth)
        return rid

    def placement(self, vid: int) -> tuple[int, int, int]:
        """``(parent, edge, depth)`` — what a sidecar announcement needs."""
        return self.rows[vid]

    # ------------------------------------------------------------------
    def _less(self, a: int, b: int) -> bool:
        """Algorithm 3 ``Less`` over the mirrored rows."""
        if a == b:
            return False
        rows = self.rows
        pa, ea_, da = rows[a]
        pb, eb_, db = rows[b]
        e1 = e2 = -1
        while db > da:
            e2 = eb_
            b = pb
            pb, eb_, db = rows[b]
        while da > db:
            e1 = ea_
            a = pa
            pa, ea_, da = rows[a]
        while a != b:
            e1 = ea_
            e2 = eb_
            a, b = pa, pb
            pa, ea_, da = rows[a]
            pb, eb_, db = rows[b]
        if e1 < 0:
            return e2 >= 0  # anc+: a proper ancestor is permitted
        if e2 < 0:
            return False  # dec*: a descendant never is
        return e1 > e2  # sib: the later sibling is smaller

    def permits(self, joiner: int, joinee: int) -> bool:
        if self._last_ok.get(joiner) == joinee:
            return True
        if self._less(joiner, joinee):
            self._last_ok[joiner] = joinee
            return True
        return False

    def space_units(self) -> int:
        return 4 * len(self.rows) + len(self._last_ok)
