"""Executable formalism of Sections 3–4: traces, the TJ and KJ relations,
the fork tree with the ``lca+`` decision procedure, and the Definition 3.9
deadlock checker.

This subpackage is the semantic ground truth of the repository.  Every
production verifier algorithm in :mod:`repro.core` and :mod:`repro.kj` is
property-tested against these reference implementations.
"""

from .. import _lazy

_EXPORTS = {
    "Action": ".actions",
    "Init": ".actions",
    "Fork": ".actions",
    "Join": ".actions",
    "Task": ".actions",
    "parse_trace": ".actions",
    "format_trace": ".actions",
    "ForkTree": ".fork_tree",
    "AncPlus": ".fork_tree",
    "DecStar": ".fork_tree",
    "Sib": ".fork_tree",
    "lca_plus": ".fork_tree",
    "TJOrderOracle": ".tj_relation",
    "derive_tj_pairs": ".tj_relation",
    "tj_less": ".tj_relation",
    "KJKnowledge": ".kj_relation",
    "derive_kj_pairs": ".kj_relation",
    "kj_knows": ".kj_relation",
    "TJFamily": ".trace",
    "KJFamily": ".trace",
    "FreeFamily": ".trace",
    "Verdict": ".trace",
    "ValidationResult": ".trace",
    "validate_trace": ".trace",
    "is_tj_valid": ".trace",
    "is_kj_valid": ".trace",
    "is_structurally_valid": ".trace",
    "contains_deadlock": ".deadlock",
    "find_join_cycle": ".deadlock",
    "join_graph": ".deadlock",
    "derive": ".derivations",
    "check_derivation": ".derivations",
    "compose": ".transitivity",
    "derive_kj": ".kj_derivations",
    "check_kj_derivation": ".kj_derivations",
    "translate_kj_to_tj": ".kj_derivations",
    "enumerate_traces": ".exhaustive",
    "check_soundness": ".exhaustive",
    "check_subsumption": ".exhaustive",
    "check_total_order": ".exhaustive",
    "check_decision_procedure": ".exhaustive",
    "check_maximality": ".exhaustive",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, globals(), _EXPORTS)
