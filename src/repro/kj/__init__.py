"""Known Joins baselines (Cogumbreiro et al., OOPSLA 2017).

Two verifier implementations of the same KJ policy, differing in how the
knowledge sets are represented — exactly the two the paper evaluates
against (Table 1 / Table 2):

* :class:`KJVectorClock` (KJ-VC): O(n) fork, O(n) join, O(n²) space;
* :class:`KJSnapshotSets` (KJ-SS): O(1) fork, O(n) join, O(n) space.

plus :class:`KJCompactClock` (KJ-CC), an extension exploiting the
downward closure of KJ knowledge for O(P)-size clocks (P = distinct fork
sites known).  All are property-tested for exact agreement with the
formal knowledge semantics in :mod:`repro.formal.kj_relation`.
"""

from .. import _lazy

_EXPORTS = {
    "KJVectorClock": ".kj_vc",
    "KJSnapshotSets": ".kj_ss",
    "KJCompactClock": ".kj_cc",
    "VCNode": ".kj_vc",
    "SSNode": ".kj_ss",
    "CCNode": ".kj_cc",
    "KJ_POLICIES": ("KJVectorClock", "KJSnapshotSets", "KJCompactClock"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, globals(), _EXPORTS)
