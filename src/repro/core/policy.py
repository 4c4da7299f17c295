"""The verifier-facing policy interface (Section 5.1).

Algorithm 1 separates the fork/join bookkeeping from the underlying data
structure through two procedures, ``AddChild`` and ``Less``.  We generalise
``Less`` to ``permits`` so Known Joins implementations (whose permission
relation is knowledge, not an order) fit the same interface, and add an
``on_join`` hook for KJ-learn (a no-op for every TJ algorithm — the paper
highlights exactly this simplification in Section 7.2).

Concurrency contract (Section 5.1, requirements/guarantees 1–4):

* ``add_child`` returns a fresh handle on every call;
* ``add_child`` and ``permits`` may be called concurrently, *except* that
  no two ``add_child`` calls share a parent (a task forks sequentially);
* every handle passed to ``permits``/``on_join`` came from ``add_child``.

The TJ implementations honour the contract without locks, exactly as the
paper argues for Algorithm 2.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Callable, Optional

__all__ = [
    "JoinPolicy",
    "NullPolicy",
    "POLICY_REGISTRY",
    "register_policy",
    "make_policy",
    "evict_chunk",
]


def evict_chunk(cache: dict, capacity: int) -> int:
    """Drop the oldest eighth of a bounded verdict cache; returns the count.

    One-at-a-time FIFO eviction thrashes as soon as the working set
    exceeds capacity (every insert pays an eviction forever); evicting
    in chunks amortises that to one sweep per eighth.  Insertion order
    is the eviction order (Python dicts preserve it).  A racy resize is
    resolved by clearing — policy verdict caches only ever hold
    deterministic, immutable verdicts, so losing the contents is benign.
    """
    chunk = max(1, capacity >> 3)
    try:
        for key in list(itertools.islice(iter(cache), chunk)):
            del cache[key]
    except (KeyError, RuntimeError):  # lost an eviction race; start fresh
        chunk = len(cache)
        cache.clear()
    return chunk


class JoinPolicy(ABC):
    """A pluggable online deadlock-avoidance policy.

    Handles are opaque to callers; each implementation defines its own
    vertex record type.
    """

    #: short identifier used in reports ("TJ-SP", "KJ-VC", ...)
    name: str = "abstract"

    #: which kernel answers ``permits`` for this instance: ``"py"`` for
    #: pure Python (everything except the flat TJ-SP core, which may
    #: resolve to ``"c"`` — see :mod:`repro.core._cbuild`).  Stamped onto
    #: verifier latency histograms and benchmark measurements so
    #: compiled and fallback timings are never conflated.
    backend: str = "py"

    #: True when the permission relation is fixed at fork time (all TJ
    #: algorithms: ``<_T`` never changes once both vertices exist).  KJ
    #: policies learn at joins, so their ``permits`` can flip False→True
    #: over time and must stay False here.  Batch verification in the
    #: runtimes pre-checks whole groups of joins only for stable
    #: policies — for a learning policy an early check could flag a join
    #: that a later sequential check would have permitted.
    stable_permits: bool = False

    @abstractmethod
    def add_child(self, parent: Optional[object]) -> object:
        """Install and return a new vertex; ``parent=None`` creates the root."""

    @abstractmethod
    def permits(self, joiner: object, joinee: object) -> bool:
        """May the task at *joiner* block on the task at *joinee*?"""

    def permits_many(self, joiner: object, joinees: list) -> list[bool]:
        """Vectorised ``permits`` for one joiner against many joinees.

        The default just loops; implementations may override to amortise
        per-call overhead (see :class:`~repro.core.tj_sp_flat.TJSpawnPathsFlat`).
        """
        permits = self.permits
        return [permits(joiner, joinee) for joinee in joinees]

    def on_join(self, joiner: object, joinee: object) -> None:
        """State update after a join completes (KJ-learn); default no-op."""

    def space_units(self) -> int:
        """Approximate live storage in atomic slots (pointers/ints).

        Used by the Table 1 empirical-complexity experiment; implementations
        override with an exact count of what they retain per task.
        """
        return 0


class NullPolicy(JoinPolicy):
    """The unchecked baseline: every join is permitted, nothing is stored.

    This is the "no policy enabled" configuration of Section 6.2 against
    which overhead factors are computed.  ``add_child`` still hands out
    distinct handles so instrumented runtimes need no special casing.
    """

    name = "none"
    stable_permits = True

    def __init__(self) -> None:
        self._count = 0

    def add_child(self, parent: Optional[object]) -> object:
        self._count += 1
        return self._count

    def permits(self, joiner: object, joinee: object) -> bool:
        return True

    def space_units(self) -> int:
        return 0


POLICY_REGISTRY: dict[str, Callable[[], JoinPolicy]] = {}


def register_policy(
    name: str, factory: Callable[[], JoinPolicy], *, override: bool = False
) -> None:
    """Register a policy factory under *name* (e.g. for the CLI).

    Re-registering an existing name with a *different* factory raises
    :class:`ValueError` unless ``override=True`` — a silent clobber
    would make every later ``make_policy(name)`` hand out the wrong
    implementation.  Re-registering the identical factory object is an
    idempotent no-op (module re-imports stay safe).
    """
    existing = POLICY_REGISTRY.get(name)
    if existing is not None and existing is not factory and not override:
        raise ValueError(
            f"policy {name!r} is already registered to {existing!r}; "
            "pass override=True to replace it"
        )
    POLICY_REGISTRY[name] = factory


def make_policy(name: str) -> JoinPolicy:
    """Instantiate a registered policy by name.

    Known names after importing :mod:`repro`: ``none``, ``TJ-GT``,
    ``TJ-JP``, ``TJ-SP``, ``TJ-OM``, ``KJ-VC``, ``KJ-SS``.
    """
    try:
        factory = POLICY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None
    return factory()


register_policy(NullPolicy.name, NullPolicy)
