"""TJ-SP over a flat parent column: the flat-array policy (``TJ-SP``).

A hash-consed prefix tree of node objects gets the asymptotics right
(O(1) forks, O(n) space) but keeps one Python object per task, so every
``Less`` step pays attribute loads.  This module removes the objects
entirely, in the style of DePa's machine-word path encodings: the whole
spawn-path forest is one integer column, ``parent[id]`` (-1 for a
root), grown geometrically and indexed by a dense id.  **A vertex handle
is just that id** (a plain ``int``), so the runtimes never materialise a
node object on the hot path: ``task.vertex`` is an int, batch drains
pass lists of ints, and ``Less`` is index chasing over one buffer.

The id is the vertex's creation rank, and that is what lets one column
stand for Algorithm 3's spawn paths.  A child is created after its
parent, so an ancestor's id is below every descendant's; siblings are
created in fork order, so the earlier sibling has the smaller id, which
is exactly the order of Algorithm 3's ``AddChild`` labels.  ``Less(a,
b)`` therefore climbs whichever of the two ids is larger (the larger is
never an ancestor of the smaller, so the LCA stays in reach) until they
meet, remembering the last vertex it left on each side — the two
children of the LCA, Algorithm 3's dangling edges:

* the joiner is the meeting point: permitted (the joinee is a proper
  descendant);
* the joinee is the meeting point: refused (it is an ancestor);
* otherwise the side whose child of the LCA has the larger id, the
  later sibling, is the smaller in the TJ order: permitted exactly when
  that is the joiner's side;
* a climb past a root means two different trees: refused.

Two interchangeable kernels serve the representation:

* :class:`FlatTreePy` — the portable pure-Python core over a Python
  list.  It hands out ids under a lock, so they are creation-ordered
  whichever threads fork.  In front of its batch path sits a bounded
  **batch cache** ``(joiner, joinee-tuple) -> verdicts``, sound because
  TJ verdicts are fixed at fork time, which turns the barrier/finish
  pattern of re-verifying the same join set every phase into one dict
  hit per drain.  It evicts in chunks (the oldest eighth, via
  :func:`repro.core.policy.evict_chunk`) rather than one entry per
  insert, and counts evictions (``cache_stats()``).
* the compiled kernel of ``_tj_sp_c.c`` (built on demand by
  :mod:`repro.core._cbuild`) — the same column in C as int32 (4 bytes
  per vertex, at most 2**31 - 1 vertices), with ``Less`` and
  ``permits_many`` as C loops; the GIL orders its ids.  It keeps no
  batch cache: a C loop over the batch costs no more than the lookup
  would, so its ``cache_stats()`` reports a cache of capacity zero (no
  entries, every batch call evicted).

Both check every joiner and joinee id against ``[0, n)`` and raise
``ValueError`` for any other.

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
from .policy import JoinPolicy, evict_chunk as _evict_chunk

__all__ = ["FlatTreePy", "TJSpawnPathsFlat"]


class FlatTreePy:
    """The pure-Python kernel: one ``parent`` list indexed by creation rank.

    ``add_child`` appends under a lock, so the id it returns is the
    vertex's rank among every fork of every thread; ``permits`` reads
    the list without it (an id is handed out only after its row is
    appended).
    """

    __slots__ = ("parent", "_lock", "_batch_verdicts", "cache_evictions")

    #: batch-verdict cache capacity
    BATCH_CACHE_CAPACITY = 1 << 12

    def __init__(self) -> None:
        self.parent: list[int] = []
        self._lock = threading.Lock()
        self._batch_verdicts: dict[tuple, tuple[bool, ...]] = {}
        #: total batch-cache entries evicted over this kernel's lifetime
        self.cache_evictions = 0

    def add_child(self, parent: int) -> int:
        """Append a vertex under *parent* (-1 creates a root); returns its id."""
        parents = self.parent
        with self._lock:
            vid = len(parents)
            if not -1 <= parent < vid:
                raise ValueError(f"unknown parent id {parent}")
            parents.append(parent)
        return vid

    def permits(self, a: int, b: int) -> bool:
        """Algorithm 3 ``Less`` as a climb of the larger id (module doc)."""
        parent = self.parent
        n = len(parent)
        if not 0 <= a < n:
            raise ValueError(f"unknown joiner id {a}")
        if not 0 <= b < n:
            raise ValueError(f"unknown joinee id {b}")
        if a == b:
            return False
        la = lb = -1
        while a != b:
            if a > b:
                la = a
                a = parent[a]
            else:
                lb = b
                b = parent[b]
        if a < 0:
            return False  # past both roots: different trees
        if la < 0:
            return True  # anc+: the joinee is a proper descendant
        if lb < 0:
            return False  # dec*: the joinee is an ancestor
        return la > lb  # sib: the later sibling is smaller

    def permits_many(self, joiner: int, joinees: Sequence[int]) -> list[bool]:
        if not 0 <= joiner < len(self.parent):
            raise ValueError(f"unknown joiner id {joiner}")
        ids = tuple(joinees)
        cache = self._batch_verdicts
        key = (joiner, ids)
        hit = cache.get(key)
        if hit is None:
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

    # Debug/differential helpers (never on the hot path) -----------------
    def depth_of(self, vid: int) -> int:
        parent = self.parent
        depth = 0
        while parent[vid] >= 0:
            vid = parent[vid]
            depth += 1
        return depth

    def path_of(self, vid: int) -> tuple[int, ...]:
        """The legacy spawn-path tuple: each edge label counts the
        siblings forked before, which sit between parent and child."""
        parent = self.parent
        rev = []
        while parent[vid] >= 0:
            p = parent[vid]
            rev.append(parent[p + 1 : vid].count(p))
            vid = p
        return tuple(reversed(rev))

    def __len__(self) -> int:
        return len(self.parent)


class TJSpawnPathsFlat(JoinPolicy):
    """Transitive Joins over the flat parent-column core.

    Vertex handles are dense ``int`` ids.  The kernel — compiled C or
    pure Python — is chosen per instance: explicitly via ``backend=``
    (``"c"``, ``"py"`` or ``"auto"``), else from the ``REPRO_TJ_BACKEND``
    environment variable (see :mod:`repro.core._cbuild`).  The resolved
    choice is exposed as :attr:`backend` (``"c"`` or ``"py"``), which
    the verifier stamps onto its latency histograms and the hot-path
    benchmark records next to every measurement.

    ``permits`` and ``permits_many`` are rebound on the instance to the
    kernel's own methods: a check costs no policy-level Python frame at
    all.  The only verdict cache is the pure-Python kernel's bounded
    batch cache (see :class:`FlatTreePy`).
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
        """Live storage in atomic slots: 1 per vertex (its parent),
        whatever the kernel's slot width; the pure-Python kernel's bounded
        batch cache is O(1) by construction and not counted (the compiled
        kernel keeps none)."""
        return len(self._core)

    # Debug/differential helpers (never on the hot path) -----------------
    def path_of(self, vid: int) -> tuple[int, ...]:
        return self._core.path_of(vid)


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
