"""The paper's primary contribution: online Transitive Joins verifiers.

Four interchangeable algorithms decide the TJ order ``<_T``:

=========  ==========  ==========  ============  ==============
algorithm  fork time   join time   space         paper section
=========  ==========  ==========  ============  ==============
TJ-GT      O(1)        O(h)        O(n)          5.2.1 (Alg. 2)
TJ-JP      O(log h)    O(log h)    O(n log h)    5.2.2
TJ-SP      O(1)        O(h)        O(n)          5.2.3 (Alg. 3), flat arrays
TJ-OM      O(1) amort  O(1)        O(n)          extension
=========  ==========  ==========  ============  ==============

plus the :class:`NullPolicy` baseline and the Algorithm 1 verifier shell.
``"TJ-SP"`` resolves to the struct-of-arrays :class:`TJSpawnPathsFlat`
(compiled kernel when available, pure Python otherwise — see
:mod:`repro.core._cbuild`); the paper's tuple-per-task Algorithm 3
survives as ``"TJ-SP-legacy"``.
"""

from .. import _lazy

_EXPORTS = {
    "JoinPolicy": ".policy",
    "NullPolicy": ".policy",
    "POLICY_REGISTRY": ".policy",
    "register_policy": ".policy",
    "make_policy": ".policy",
    "evict_chunk": ".policy",
    "TJGlobalTree": ".tj_gt",
    "TJJumpPointers": ".tj_jp",
    "TJSpawnPathsFlat": ".tj_sp_flat",
    "TJSpawnPathsLegacy": ".tj_sp",
    "TJOrderMaintenance": ".tj_om",
    "FlatTreePy": ".tj_sp_flat",
    "GTNode": ".tj_gt",
    "JPNode": ".tj_jp",
    "LegacySPNode": ".tj_sp",
    "OMNode": ".tj_om",
    "Verifier": ".verifier",
    "VerifierStats": ".verifier",
    "TJ_POLICIES": ("TJGlobalTree", "TJJumpPointers", "TJSpawnPathsFlat", "TJOrderMaintenance"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, globals(), _EXPORTS)
