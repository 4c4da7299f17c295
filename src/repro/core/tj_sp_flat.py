"""TJ-SP over a struct-of-arrays core: the flat-array policy (``TJ-SP``).

A hash-consed prefix tree of node objects gets the asymptotics right
(O(1) forks, O(n) space) but keeps one Python object per task, so every
``Less`` step pays attribute loads and every batch check a Python loop.
This module removes the objects entirely, in the style of DePa's
machine-word path encodings: the whole spawn-path forest lives in
parallel integer buffers —

* ``parent[id]`` — parent vertex id (-1 for a root),
* ``edge[id]``   — sibling index (the spawn-path entry),
* ``depth[id]``  — precomputed depth,
* ``children[id]`` — fork counter,
* ``last_ok[id]``  — the monotone per-task permission cache,

grown by doubling and indexed by a dense stable id.  **A vertex handle
is just that id** (a plain ``int``), so the runtimes never materialise a
node object on the hot path: ``task.vertex`` is an int, batch drains
pass lists of ints, and ``Less`` is index chasing over flat buffers.

Two interchangeable kernels serve the representation:

* :class:`FlatTreePy` — the portable pure-Python core.  Scalar ``Less``
  chases Python lists (faster than NumPy scalar indexing); batch
  verification uses a vectorized NumPy pass when the batch is wide
  enough (:data:`VECTOR_MIN`): climb all joinees to the joiner's depth
  with gathers, resolve the LCA for the whole batch in lockstep against
  the joiner's ancestor chain, and answer n joins in O(max depth) vector
  operations instead of n pointer walks.  NumPy mirrors of the buffers
  are synced lazily, at batch time — forks touch only Python lists.
  In front of both batch paths sits a bounded **batch cache**
  ``(joiner, joinee-tuple) -> verdicts``, sound because TJ verdicts are
  fixed at fork time, which turns the barrier/finish pattern of
  re-verifying the same join set every phase into one dict hit per
  drain.  It evicts in chunks (the oldest eighth, via
  :func:`repro.core.policy.evict_chunk`) rather than one entry per
  insert, and counts evictions (``cache_stats()``).
* the compiled kernel of ``_tj_sp_c.c`` (built on demand by
  :mod:`repro.core._cbuild`) — the same arrays in C as int32 columns
  (20 bytes per vertex, at most 2**31 - 1 vertices), with ``Less`` and
  ``permits_many`` as C loops.  It keeps no batch cache: a C loop over
  the batch costs no more than the lookup would, so its
  ``cache_stats()`` reports a cache of capacity zero (no entries, every
  batch call evicted).

:class:`TJSpawnPathsFlat` (registered as ``"TJ-SP"``) wraps either
kernel, binding the kernel's ``permits`` and ``permits_many`` straight
onto the instance, so a check is one call into the core with no
policy-level dispatch.

The seed tuples survive as ``"TJ-SP-legacy"``;
``tests/core/test_spawn_path_oracle.py`` checks every spawn-path store
(legacy, flat-pure, flat-compiled, the multi-process runtime's
shared-memory forest and the sidecar's tenant mirror) against the formal
TJ order.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from ._cbuild import backend_choice, compiled_module
from .policy import JoinPolicy, evict_chunk as _evict_chunk, register_policy

try:  # numpy is a declared dependency, but the flat core runs without it
    import numpy as _np
except Exception:  # pragma: no cover - exercised only on stripped installs
    _np = None

__all__ = ["FlatTreePy", "TJSpawnPathsFlat", "VECTOR_MIN"]

#: smallest batch the pure-Python kernel vectorizes with NumPy; below
#: this a plain loop over the list buffers is faster (NumPy scalar
#: indexing costs several times a list index from Python).
VECTOR_MIN = 48


class _ThreadBlock:
    """One thread's reserved id range inside a :class:`FlatTreePy`."""

    __slots__ = ("next", "limit", "size", "registered")

    def __init__(self) -> None:
        self.next = 0
        self.limit = 0
        self.size = 1  # doubles per reservation up to BLOCK_CAP
        self.registered = False


class FlatTreePy:
    """The pure-Python struct-of-arrays kernel.

    Python lists carry the scalar hot path; NumPy mirrors of
    ``parent``/``edge``/``depth`` carry the vectorized batch path.  The
    mirrors are synced *lazily*: ``add_child`` appends to the lists only
    (so forks never pay NumPy scalar-write costs), and a batch query
    copies the not-yet-mirrored suffix in one vectorized slice
    assignment, growing the mirror capacity by doubling.

    Forks are **thread-affine**: instead of taking the lock and paying
    five list appends per fork, each forking thread reserves a block of
    ids (geometrically growing, capped at :data:`BLOCK_CAP`) by
    extending the buffers with placeholder rows under the lock once per
    block, then fills rows from its own block with plain lock-free slot
    stores.  A reserved-but-unfilled row carries the parent sentinel
    ``-2`` and its id has never been handed out; ids are returned only
    after the row is fully written (parent stored last), so scalar
    readers stay lock-free exactly as before.  The per-parent fork
    counter is updated without the lock, which leans on the runtime
    contract that only the thread executing a task forks from it.

    Mirror syncs still take the lock; rows that were placeholders at
    sync time are remembered and re-copied once filled, so the batch
    kernel never reads a stale hole.
    """

    __slots__ = (
        "parent",
        "edge",
        "depth",
        "children",
        "last_ok",
        "n",
        "_lock",
        "_local",
        "_blocks",
        "_np_parent",
        "_np_edge",
        "_np_depth",
        "_np_cap",
        "_np_synced",
        "_np_holes",
        "_batch_verdicts",
        "cache_evictions",
    )

    #: initial mirror capacity (small, so tests cross growth boundaries)
    INITIAL_CAPACITY = 8
    #: batch-verdict cache capacity
    BATCH_CACHE_CAPACITY = 1 << 12
    #: largest per-thread id block (bounds placeholder waste per thread)
    BLOCK_CAP = 64
    #: parent sentinel of a reserved-but-unfilled row
    HOLE = -2

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.edge: list[int] = []
        self.depth: list[int] = []
        self.children: list[int] = []
        self.last_ok: list[int] = []
        #: reserved high-water mark (the id-allocation fence); the
        #: *filled* count is ``len(self)``
        self.n = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        #: every thread's block state, for exact filled accounting
        self._blocks: list[_ThreadBlock] = []
        self._np_cap = 0
        self._np_synced = 0
        self._np_parent = self._np_edge = self._np_depth = None
        #: mirror positions synced while still holes, to re-copy later
        self._np_holes: list[int] = []
        self._batch_verdicts: dict[tuple, tuple[bool, ...]] = {}
        #: total batch-cache entries evicted over this kernel's lifetime
        self.cache_evictions = 0

    # ------------------------------------------------------------------
    def _reserve(self) -> "_ThreadBlock":
        """Give the calling thread a fresh block of placeholder rows."""
        local = self._local
        blk = getattr(local, "blk", None)
        if blk is None:
            blk = _ThreadBlock()
            local.blk = blk
        size = blk.size
        blk.size = min(size * 2, self.BLOCK_CAP)
        hole = self.HOLE
        with self._lock:
            if not blk.registered:
                blk.registered = True
                self._blocks.append(blk)
            start = self.n
            self.n = start + size
            self.parent.extend([hole] * size)
            self.edge.extend([0] * size)
            self.depth.extend([0] * size)
            self.children.extend([0] * size)
            self.last_ok.extend([-1] * size)
        blk.next = start
        blk.limit = start + size
        return blk

    def add_child(self, parent: int) -> int:
        """Append a vertex under *parent* (< 0 creates a root); returns its id."""
        blk = getattr(self._local, "blk", None)
        if blk is None or blk.next >= blk.limit:
            blk = self._reserve()
        vid = blk.next
        if parent < 0:
            p, e, d = -1, 0, 0
        else:
            if parent >= self.n or self.parent[parent] == self.HOLE:
                raise ValueError(f"unknown parent id {parent}")
            p = parent
            # Lock-free single-writer bump: only the thread running a
            # task forks from it (the runtimes' execution contract).
            e = self.children[parent]
            self.children[parent] = e + 1
            d = self.depth[parent] + 1
        self.edge[vid] = e
        self.depth[vid] = d
        # children[vid] and last_ok[vid] already hold 0 / -1 from the
        # reservation; parent is stored last so a row with a real parent
        # value is fully initialised.
        self.parent[vid] = p
        blk.next = vid + 1
        return vid

    def _sync_mirrors_locked(self, n: int):
        """Bring the NumPy mirrors up to *n* entries; returns them.

        Caller must hold the lock.  Growth allocates fresh doubled
        arrays and copies the synced prefix, then publishes by swap —
        a concurrent batch still reading the old arrays sees its full
        captured prefix untouched.
        """
        cap = self._np_cap
        if n > cap:
            cap = cap or self.INITIAL_CAPACITY
            while cap < n:
                cap *= 2
            m = self._np_synced
            for name in ("_np_parent", "_np_edge", "_np_depth"):
                old = getattr(self, name)
                buf = _np.empty(cap, dtype=_np.int64)
                if m:
                    buf[:m] = old[:m]
                setattr(self, name, buf)
            self._np_cap = cap
        # Holes synced earlier may have been filled since (thread-affine
        # blocks fill out of lockstep with the reservation order);
        # re-copy the ones that resolved, keep the rest pending.
        if self._np_holes:
            still = []
            hole = self.HOLE
            parents = self.parent
            for i in self._np_holes:
                p = parents[i]
                if p == hole:
                    still.append(i)
                else:
                    self._np_parent[i] = p
                    self._np_edge[i] = self.edge[i]
                    self._np_depth[i] = self.depth[i]
            self._np_holes = still
        m = self._np_synced
        if n > m:
            self._np_parent[m:n] = self.parent[m:n]
            self._np_edge[m:n] = self.edge[m:n]
            self._np_depth[m:n] = self.depth[m:n]
            holes = _np.flatnonzero(self._np_parent[m:n] == self.HOLE)
            if holes.size:
                self._np_holes.extend((holes + m).tolist())
            self._np_synced = n
        return self._np_parent, self._np_edge, self._np_depth

    # ------------------------------------------------------------------
    def less(self, a: int, b: int) -> bool:
        """Algorithm 3 ``Less`` as index chasing over the flat buffers."""
        if a == b:
            return False
        parent = self.parent
        edge = self.edge
        depth = self.depth
        e1 = e2 = -1
        d1 = depth[a]
        d2 = depth[b]
        while d2 > d1:
            e2 = edge[b]
            b = parent[b]
            d2 -= 1
        while d1 > d2:
            e1 = edge[a]
            a = parent[a]
            d1 -= 1
        while a != b:
            e1 = edge[a]
            e2 = edge[b]
            a = parent[a]
            b = parent[b]
        if e1 < 0:
            return e2 >= 0  # anc+: a proper ancestor is permitted
        if e2 < 0:
            return False  # dec*: a descendant never is
        return e1 > e2  # sib: the later sibling is smaller

    def permits(self, a: int, b: int) -> bool:
        last_ok = self.last_ok
        if last_ok[a] == b:
            return True
        if self.less(a, b):
            last_ok[a] = b
            return True
        return False

    def permits_many(self, joiner: int, joinees: Sequence[int]) -> list[bool]:
        ids = tuple(joinees)
        if not ids:
            return []
        cache = self._batch_verdicts
        key = (joiner, ids)
        hit = cache.get(key)
        if hit is None:
            if _np is not None and len(ids) >= VECTOR_MIN:
                hit = tuple(self._permits_batch_np(joiner, ids))
            else:
                permits = self.permits
                hit = tuple([permits(joiner, joinee) for joinee in ids])
            if len(cache) >= self.BATCH_CACHE_CAPACITY:
                self.cache_evictions += _evict_chunk(cache, self.BATCH_CACHE_CAPACITY)
            cache[key] = hit
        return list(hit)

    def cache_stats(self) -> dict[str, int]:
        """Size and total evictions of the batch-verdict cache."""
        return {
            "batch_entries": len(self._batch_verdicts),
            "evictions": self.cache_evictions,
        }

    # ------------------------------------------------------------------
    def _permits_batch_np(self, joiner: int, joinees: Sequence[int]) -> list[bool]:
        """One vectorized ``Less`` pass: n joins against one joiner.

        All joinees are lifted to the joiner's depth with masked parent
        gathers (each iteration retires one level across the whole
        batch), then the batch climbs in lockstep against the joiner's
        precomputed ancestor chain until every element has met its LCA.
        The dangling-edge comparison is then a single vector expression.
        """
        np = _np
        n_pub = self.n
        with self._lock:
            parent, edge, depth = self._sync_mirrors_locked(n_pub)
        ids = np.asarray(joinees, dtype=np.int64)
        if ids.size and (
            ids.min() < 0
            or ids.max() >= n_pub
            or (parent[ids] == self.HOLE).any()  # reserved, never handed out
        ):
            raise ValueError("unknown joinee id in batch")
        # The joiner's ancestor chain, indexable by depth (chain[k] is
        # the ancestor at depth k).  O(depth) once per batch.
        plist = self.parent
        dj = self.depth[joiner]
        chain = [0] * (dj + 1)
        node = joiner
        for k in range(dj, -1, -1):
            chain[k] = node
            node = plist[node]
        chain_arr = np.asarray(chain, dtype=np.int64)
        cur = ids.copy()
        d = depth[cur]
        e1 = np.full(ids.shape, -1, dtype=np.int64)
        e2 = np.full(ids.shape, -1, dtype=np.int64)
        # Lift joinees deeper than the joiner (only the last edge taken
        # matters, so each masked step may overwrite e2).
        mask = d > dj
        while mask.any():
            c = cur[mask]
            e2[mask] = edge[c]
            cur[mask] = parent[c]
            d[mask] -= 1
            mask = d > dj
        # Joiner-side lift for shallower joinees is a chain lookup: the
        # surviving e1 is the edge of the ancestor one below depth d.
        k = d
        lift = k < dj
        if lift.any():
            e1[lift] = edge[chain_arr[k[lift] + 1]]
        # Lockstep climb to the LCA against the ancestor chain.
        while True:
            anc = chain_arr[k]
            neq = cur != anc
            if not neq.any():
                break
            c = cur[neq]
            e1[neq] = edge[anc[neq]]
            e2[neq] = edge[c]
            cur[neq] = parent[c]
            k[neq] -= 1
        verdict = np.where(e1 < 0, e2 >= 0, (e2 >= 0) & (e1 > e2))
        return verdict.tolist()

    # ------------------------------------------------------------------
    def depth_of(self, vid: int) -> int:
        return self.depth[vid]

    def path_of(self, vid: int) -> tuple[int, ...]:
        """The legacy spawn-path tuple (debugging/differential tests)."""
        rev = []
        parent = self.parent
        edge = self.edge
        while parent[vid] >= 0:
            rev.append(edge[vid])
            vid = parent[vid]
        return tuple(reversed(rev))

    def __len__(self) -> int:
        """Filled vertices (reserved placeholder rows are not tasks)."""
        with self._lock:
            unused = sum(b.limit - b.next for b in self._blocks)
            return self.n - unused


class TJSpawnPathsFlat(JoinPolicy):
    """Transitive Joins over the flat struct-of-arrays core.

    Vertex handles are dense ``int`` ids.  The kernel — compiled C or
    pure Python — is chosen per instance: explicitly via ``backend=``
    (``"c"``, ``"py"`` or ``"auto"``), else from the ``REPRO_TJ_BACKEND``
    environment variable (see :mod:`repro.core._cbuild`).  The resolved
    choice is exposed as :attr:`backend` (``"c"`` or ``"py"``), which
    the verifier stamps onto its latency histograms and the hot-path
    benchmark records next to every measurement.

    ``permits`` and ``permits_many`` are rebound on the instance to the
    kernel's own methods: a check costs no policy-level Python frame at
    all.  The kernel's per-task ``last_ok`` slot (sound — TJ verdicts
    are fixed at fork time) is the only scalar cache; the only batch
    cache is the pure-Python kernel's (see :class:`FlatTreePy`).
    """

    name = "TJ-SP"
    stable_permits = True

    def __init__(self, backend: Optional[str] = None) -> None:
        choice = backend_choice() if backend is None else backend.strip().lower()
        kernel = None
        if choice in ("auto", "c"):
            module = compiled_module() if backend is None else _resolve_explicit(choice)
            if module is not None:
                kernel = module.FlatTree()
        elif choice != "py":
            raise ValueError(f"backend must be 'auto', 'c' or 'py', got {backend!r}")
        if kernel is not None:
            self._core = kernel
            self.backend = "c"
        else:
            self._core = FlatTreePy()
            self.backend = "py"
        # Hot-path rebinds: instance attributes shadow the class methods,
        # so callers dispatch straight into the kernel.
        self.permits = self._core.permits
        self.permits_many = self._core.permits_many

    # ------------------------------------------------------------------
    def add_child(self, parent: Optional[int]) -> int:
        return self._core.add_child(-1 if parent is None else parent)

    def permits(self, joiner: int, joinee: int) -> bool:  # pragma: no cover
        # Shadowed by the instance binding in __init__; kept so the ABC
        # contract is visibly satisfied at class level.
        return self._core.permits(joiner, joinee)

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        """The kernel's batch-verdict cache: its size and total
        evictions (the compiled kernel reports a capacity-zero cache)."""
        return self._core.cache_stats()

    def space_units(self) -> int:
        """Live storage in atomic slots: 4 per vertex (parent, edge,
        depth, last-ok), whatever the kernel's slot width; the pure-Python
        kernel's bounded batch cache is O(1) by construction and not
        counted (the compiled kernel keeps none)."""
        return 4 * len(self._core)

    # Debug/differential helpers (never on the hot path) -----------------
    def path_of(self, vid: int) -> tuple[int, ...]:
        return tuple(self._core.path_of(vid))


def _resolve_explicit(choice: str):
    """Resolve an *explicit* ``backend=`` argument against the loader."""
    import os

    from . import _cbuild

    if choice == "c":
        module = _cbuild.compiled_module()
        if module is None:
            # compiled_module only raises when the env demands "c"; an
            # explicit backend="c" argument must be just as strict.
            raise RuntimeError(
                f"backend='c' requested but the compiled TJ-SP kernel is "
                f"unavailable: {_cbuild.build_error()}"
            )
        return module
    if os.environ.get(_cbuild.BACKEND_ENV, "").strip().lower() == "py":
        # backend="auto" given explicitly still honours a hard py pin.
        return None
    return _cbuild.compiled_module()


register_policy(TJSpawnPathsFlat.name, TJSpawnPathsFlat)
