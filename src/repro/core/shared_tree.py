"""TJ-SP spawn paths in shared memory: the cross-process flat core.

The flat TJ-SP representation of :mod:`repro.core.tj_sp_flat` is one
parent pointer, one edge index, one depth and one fork counter per task
— a struct-of-arrays that serialises trivially, which is exactly what a
*multi-process* runtime needs: put the arrays in
:mod:`multiprocessing.shared_memory` and every process reads the same
spawn-path forest through plain int64 loads, so a worker's local
verifier shard answers joins without any round trip.

Layout
------
One *control* segment (``{base}-ctl``) holds the immutable geometry —
stripe width, first-segment capacity, process count — plus an advisory
high-water segment index.  Vertex rows live in *data* segments
``{base}-s0, {base}-s1, ...`` whose capacities double (``seg0``,
``2*seg0``, ``4*seg0``...), each laid out as four consecutive int64
arrays ``parent | edge | depth | children``.  Segment ``k`` covers ids
``[(2^k - 1) * seg0, (2^(k+1) - 1) * seg0)``, so a row never moves:
growth creates a *new* segment instead of copying, which is what makes
the whole structure lock-free — there is no reallocation for a
concurrent writer to race.

The generation handshake
------------------------
Readers attach data segments lazily: touching an id beyond the locally
attached generation attaches the next segment(s) by name.  Segment
creation itself is idempotent — whichever process first needs a
generation creates it with ``O_CREAT|O_EXCL`` semantics and everyone
else attaches; an attacher that races the creator's ``ftruncate``
simply retries.  An id is only ever published (handed to another task
or process) *after* its row is fully written, and ids are allocated
below the capacity their generation provides, so a reader that can see
an id can always reach — and trust — its row.

Id allocation (SIGKILL-safe)
----------------------------
Ids are striped per process: process ``p`` of ``nprocs`` owns the
stripes ``[(i*nprocs + p) * stripe, ...)`` for ``i = 0, 1, ...`` and
bump-allocates inside them with no synchronisation at all.  There is
deliberately **no interprocess allocation lock**: a worker SIGKILLed
mid-fork (the chaos suite does exactly this) can therefore never strand
a lock and hang the survivors — it just leaves a partially used stripe
behind, bounded waste of at most ``nprocs * stripe`` rows.

Fork counters follow the policy concurrency contract
(:class:`~repro.core.policy.JoinPolicy`): all forks of one task happen
in the one process executing that task, so ``children[parent]`` is a
single-writer counter and needs no atomicity.

Resource-tracker hygiene: on this Python, *attaching* registers the
segment with the process's resource tracker, so an attached-then-killed
worker would take the whole forest down with it.  Non-owner processes
therefore suppress tracker registration entirely (see
:func:`_no_tracking`); the owner (the parent runtime) keeps its
registrations and unlinks everything in :meth:`close` — and its tracker
still reclaims the segments if the parent itself dies uncleanly.
"""

from __future__ import annotations

import secrets
import threading
import time
from contextlib import contextmanager
from contextlib import nullcontext as _nullcontext
from multiprocessing import resource_tracker, shared_memory
from typing import NamedTuple, Optional

from .policy import JoinPolicy

__all__ = ["SharedTreeHandle", "SharedFlatTree", "SharedTJPolicy"]

_I64 = 8
#: data segments hold 4 int64 arrays per row: parent | edge | depth | children
_FIELDS = 4
#: control words: [stripe, seg0, nprocs, segment high-water hint]
_CTL_WORDS = 4


class SharedTreeHandle(NamedTuple):
    """The picklable coordinates a worker needs to attach the forest."""

    base: str
    stripe: int
    seg0: int
    nprocs: int


_track_lock = threading.Lock()


@contextmanager
def _no_tracking():
    """Open/create shared memory without resource-tracker registration.

    On this Python, *attaching* a segment registers it with the resource
    tracker, so a worker that merely mapped the forest would destroy it
    when the worker exits — cleanly or by SIGKILL (the chaos suite does
    exactly that).  Register-then-unregister is no fix either: worker
    processes share the parent's tracker, whose name cache is a set, so
    overlapping register/unregister pairs from several processes strand
    or double-remove entries.  Non-owner processes therefore suppress
    registration outright; the owning runtime keeps its registrations
    (crash insurance) and unlinks everything in :meth:`close`.
    """
    with _track_lock:
        real = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            yield
        finally:
            resource_tracker.register = real


class _Segment:
    """One attached data segment: its shm plus the four array views."""

    __slots__ = ("shm", "parent", "edge", "depth", "children", "start", "cap")

    def __init__(self, shm, start: int, cap: int) -> None:
        self.shm = shm
        self.start = start
        self.cap = cap
        mv = memoryview(shm.buf)
        self.parent = mv[0 : cap * _I64].cast("q")
        self.edge = mv[cap * _I64 : 2 * cap * _I64].cast("q")
        self.depth = mv[2 * cap * _I64 : 3 * cap * _I64].cast("q")
        self.children = mv[3 * cap * _I64 : 4 * cap * _I64].cast("q")

    def release(self) -> None:
        for name in ("parent", "edge", "depth", "children"):
            view = getattr(self, name, None)
            if view is not None:
                view.release()
                setattr(self, name, None)
        self.shm.close()


class SharedFlatTree:
    """The spawn-path forest over shared-memory int64 segments.

    Construct with :meth:`create` in the owning (parent) process and
    :meth:`attach` everywhere else; each process passes its own
    ``region`` index (0..nprocs-1) and allocates ids only from its own
    stripes, so ``add_child`` is lock-free end to end.
    """

    def __init__(
        self,
        handle: SharedTreeHandle,
        region: int,
        *,
        owner: bool,
        ctl_shm,
    ) -> None:
        if not 0 <= region < handle.nprocs:
            raise ValueError(f"region {region} out of range for {handle.nprocs} processes")
        self.handle_tuple = handle
        self.region = region
        self.owner = owner
        self._ctl_shm = ctl_shm
        self._ctl = memoryview(ctl_shm.buf).cast("q")
        self._segs: list[Optional[_Segment]] = []
        # per-process bump allocator over this region's stripes
        self._stripe_no = 0  # stripes this region has finished or opened
        self._next = -1
        self._limit = -1
        self._allocated = 0
        self._closed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        *,
        nprocs: int,
        base: Optional[str] = None,
        stripe: int = 1024,
        seg0: int = 1 << 14,
    ) -> "SharedFlatTree":
        if nprocs < 1:
            raise ValueError("nprocs must be at least 1")
        if stripe < 1 or seg0 < stripe:
            raise ValueError("need stripe >= 1 and seg0 >= stripe")
        if base is None:
            base = f"repro-tj-{secrets.token_hex(6)}"
        handle = SharedTreeHandle(base, stripe, seg0, nprocs)
        ctl = shared_memory.SharedMemory(
            name=f"{base}-ctl", create=True, size=_CTL_WORDS * _I64
        )
        words = memoryview(ctl.buf).cast("q")
        words[0], words[1], words[2], words[3] = stripe, seg0, nprocs, 0
        words.release()
        tree = cls(handle, 0, owner=True, ctl_shm=ctl)
        tree._segment(0)  # eagerly create generation 0
        return tree

    @classmethod
    def attach(cls, handle: SharedTreeHandle, region: int) -> "SharedFlatTree":
        handle = SharedTreeHandle(*handle)
        with _no_tracking():
            ctl = shared_memory.SharedMemory(name=f"{handle.base}-ctl")
        return cls(handle, region, owner=False, ctl_shm=ctl)

    def handle(self) -> SharedTreeHandle:
        return self.handle_tuple

    # ------------------------------------------------------------------
    # segments (the generation handshake)
    # ------------------------------------------------------------------
    def _segment(self, k: int) -> _Segment:
        segs = self._segs
        if k < len(segs):
            seg = segs[k]
            if seg is not None:
                return seg
        else:
            segs.extend([None] * (k + 1 - len(segs)))
        h = self.handle_tuple
        cap = h.seg0 << k
        start = ((1 << k) - 1) * h.seg0
        name = f"{h.base}-s{k}"
        size = _FIELDS * cap * _I64
        shm = None
        created = False
        with _no_tracking() if not self.owner else _nullcontext():
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=size)
                created = True
            except FileExistsError:
                # Someone else is the creator; attach, retrying across
                # the tiny window between its O_CREAT and ftruncate.
                for _ in range(2000):
                    try:
                        shm = shared_memory.SharedMemory(name=name)
                        if shm.size >= size:
                            break
                        shm.close()
                        shm = None
                    except (FileNotFoundError, ValueError):
                        pass
                    time.sleep(0.001)
                if shm is None:  # pragma: no cover - 2s of failed attaches
                    raise RuntimeError(f"could not attach shared segment {name}")
        if created and self._ctl[3] < k:  # advisory high-water for unlink sweeps
            self._ctl[3] = k
        seg = _Segment(shm, start, cap)
        segs[k] = seg
        return seg

    def _locate(self, vid: int):
        """(segment, offset) for *vid*, attaching its generation if new."""
        seg0 = self.handle_tuple.seg0
        k = (vid // seg0 + 1).bit_length() - 1
        seg = self._segment(k)
        return seg, vid - seg.start

    # ------------------------------------------------------------------
    # id allocation: striped, per-process, lock-free
    # ------------------------------------------------------------------
    def _refill(self) -> None:
        h = self.handle_tuple
        start = (self._stripe_no * h.nprocs + self.region) * h.stripe
        self._stripe_no += 1
        self._next = start
        self._limit = start + h.stripe
        # Make sure the whole stripe's generation(s) exist before any id
        # from it escapes: ids are published only below known capacity.
        self._locate(self._limit - 1)

    def add_child(self, parent: int) -> int:
        """Append a vertex under *parent* (< 0 creates a root); returns its id.

        Lock-free: the id comes from this process's own stripe, and the
        fork counter bump relies on the policy contract that all forks
        of one task run in one process.
        """
        vid = self._next
        if vid >= self._limit:
            self._refill()
            vid = self._next
        self._next = vid + 1
        self._allocated += 1
        seg, off = self._locate(vid)
        if parent < 0:
            p, e, d = -1, 0, 0
        else:
            pseg, poff = self._locate(parent)
            e = pseg.children[poff]
            pseg.children[poff] = e + 1
            d = pseg.depth[poff] + 1
            p = parent
        seg.edge[off] = e
        seg.depth[off] = d
        seg.children[off] = 0
        # parent is written last: a row whose parent slot is set is fully
        # initialised (roots use -1, so 0 never doubles as a sentinel).
        seg.parent[off] = p
        return vid

    def owns(self, vid: int) -> bool:
        """Whether *vid* lies in this process's stripes (it forked *vid*)."""
        h = self.handle_tuple
        return (vid // h.stripe) % h.nprocs == self.region

    # ------------------------------------------------------------------
    # Algorithm 3 ``Less`` over the shared rows
    # ------------------------------------------------------------------
    def less(self, a: int, b: int) -> bool:
        if a == b:
            return False
        locate = self._locate
        sa, oa = locate(a)
        sb, ob = locate(b)
        d1 = sa.depth[oa]
        d2 = sb.depth[ob]
        e1 = e2 = -1
        while d2 > d1:
            e2 = sb.edge[ob]
            b = sb.parent[ob]
            sb, ob = locate(b)
            d2 -= 1
        while d1 > d2:
            e1 = sa.edge[oa]
            a = sa.parent[oa]
            sa, oa = locate(a)
            d1 -= 1
        while a != b:
            e1 = sa.edge[oa]
            e2 = sb.edge[ob]
            a = sa.parent[oa]
            b = sb.parent[ob]
            sa, oa = locate(a)
            sb, ob = locate(b)
        if e1 < 0:
            return e2 >= 0  # anc+: a proper ancestor is permitted
        if e2 < 0:
            return False  # dec*: a descendant never is
        return e1 > e2  # sib: the later sibling is smaller

    # ------------------------------------------------------------------
    def depth_of(self, vid: int) -> int:
        seg, off = self._locate(vid)
        return seg.depth[off]

    def row_of(self, vid: int) -> tuple[int, int, int]:
        """``(parent, edge, depth)`` of *vid* — the placement the sidecar
        announcements carry (roots report parent -1)."""
        seg, off = self._locate(vid)
        return seg.parent[off], seg.edge[off], seg.depth[off]

    def path_of(self, vid: int) -> tuple[int, ...]:
        """The spawn-path tuple (DePa-style edge list; debugging)."""
        rev = []
        seg, off = self._locate(vid)
        while seg.parent[off] >= 0:
            rev.append(seg.edge[off])
            vid = seg.parent[off]
            seg, off = self._locate(vid)
        return tuple(reversed(rev))

    @property
    def allocated(self) -> int:
        """Vertices this process has created (per-process, exact)."""
        return self._allocated

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach; the owner additionally unlinks every segment."""
        if self._closed:
            return
        self._closed = True
        attached = max(len(self._segs), int(self._ctl[3]) + 1 if self.owner else 0)
        for seg in self._segs:
            if seg is not None:
                seg.release()
        self._segs.clear()
        self._ctl.release()
        base = self.handle_tuple.base
        if self.owner:
            # Sweep a little past the high-water hint: the hint is
            # advisory (racy max), so a worker-created generation could
            # sit one past it.
            for k in range(attached + 4):
                try:
                    shm = shared_memory.SharedMemory(name=f"{base}-s{k}")
                    shm.close()
                    shm.unlink()
                except FileNotFoundError:
                    continue
                except Exception:  # noqa: BLE001 - cleanup is best effort
                    continue
            self._ctl_shm.close()
            try:
                self._ctl_shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        else:
            self._ctl_shm.close()

    def __enter__(self) -> "SharedFlatTree":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SharedTJPolicy(JoinPolicy):
    """Transitive Joins over a :class:`SharedFlatTree` (``TJ-SP-shm``).

    The same Algorithm 3 verdicts as the flat TJ-SP policy, but every
    process in the runtime sees one forest: a vertex handle is a
    globally unique int id, valid (and identically interpreted) in the
    parent, every worker, and on the sidecar wire.  The monotone
    ``last_ok`` permission cache stays *process-local* — shared caches
    would need cross-process atomicity the verdicts themselves never
    need, since TJ verdicts are fixed at fork time.

    Not in the policy registry: an instance is bound to a live shared
    forest, so the :class:`~repro.runtime.procs.ProcessRuntime`
    constructs it directly.
    """

    name = "TJ-SP-shm"
    backend = "shm"
    stable_permits = True

    def __init__(self, tree: SharedFlatTree) -> None:
        self.tree = tree
        self._last_ok: dict[int, int] = {}

    def add_child(self, parent: Optional[int]) -> int:
        return self.tree.add_child(-1 if parent is None else parent)

    def permits(self, joiner: int, joinee: int) -> bool:
        if self._last_ok.get(joiner) == joinee:
            return True
        if self.tree.less(joiner, joinee):
            self._last_ok[joiner] = joinee
            return True
        return False

    def space_units(self) -> int:
        """4 slots per vertex *this process* created, plus the cache.

        Global accounting would need a cross-process reduction; the
        per-process view is what the parent's metrics merge sums.
        """
        return 4 * self.tree.allocated + len(self._last_ok)

    def path_of(self, vid: int) -> tuple[int, ...]:
        return self.tree.path_of(vid)

    def placement(self, vid: int) -> tuple[int, int, int]:
        """``(parent, edge, depth)`` — what a sidecar announcement needs."""
        return self.tree.row_of(vid)
