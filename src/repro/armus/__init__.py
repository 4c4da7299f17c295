"""Armus-style precise deadlock avoidance (the Section 6 fallback).

A waits-for graph over currently blocked joins, cycle detection on
candidate edges, and :class:`HybridVerifier` — the policy-plus-fallback
composition under which every verifier in the evaluation is sound *and*
precise.
"""

from .. import _lazy

_EXPORTS = {
    "ArmusDetector": ".detector",
    "ArmusStats": ".detector",
    "WaitsForGraph": ".graph",
    "HybridVerifier": ".hybrid",
    "replay_trace": ".hybrid",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, globals(), _EXPORTS)
