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

from .policy import (
    JoinPolicy,
    NullPolicy,
    POLICY_REGISTRY,
    evict_chunk,
    make_policy,
    register_policy,
)
from .tj_gt import GTNode, TJGlobalTree
from .tj_jp import JPNode, TJJumpPointers
from .tj_om import OMNode, TJOrderMaintenance
from .tj_sp import LegacySPNode, TJSpawnPathsLegacy
from .tj_sp_flat import FlatTreePy, TJSpawnPathsFlat
from .verifier import Verifier, VerifierStats

TJ_POLICIES = (TJGlobalTree, TJJumpPointers, TJSpawnPathsFlat, TJOrderMaintenance)

__all__ = [
    "JoinPolicy",
    "NullPolicy",
    "POLICY_REGISTRY",
    "register_policy",
    "make_policy",
    "evict_chunk",
    "TJGlobalTree",
    "TJJumpPointers",
    "TJSpawnPathsFlat",
    "TJSpawnPathsLegacy",
    "TJOrderMaintenance",
    "FlatTreePy",
    "GTNode",
    "JPNode",
    "LegacySPNode",
    "OMNode",
    "Verifier",
    "VerifierStats",
    "TJ_POLICIES",
]
