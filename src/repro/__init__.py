"""Transitive Joins (TJ): a sound and efficient online deadlock-avoidance
policy — a full reproduction of Voss, Cogumbreiro & Sarkar, PPoPP 2019.

Layers (bottom-up):

* :mod:`repro.formal` — executable trace semantics of Sections 3–4 (the
  TJ order, KJ knowledge, fork trees, lca+, deadlock cycles);
* :mod:`repro.core` — the online TJ verifier algorithms TJ-GT / TJ-JP /
  TJ-SP (Section 5) plus the TJ-OM extension;
* :mod:`repro.kj` — the Known Joins baselines KJ-VC / KJ-SS;
* :mod:`repro.armus` — precise cycle-detection fallback and the hybrid
  sound+precise composition of Section 6;
* :mod:`repro.runtime` — task-parallel futures runtimes (blocking and
  cooperative) with pluggable policy instrumentation;
* :mod:`repro.benchsuite` — the six evaluation programs and the
  steady-state measurement harness;
* :mod:`repro.analysis` — Table 1 / Table 2 / Figure 2 regeneration.

Quickstart::

    from repro import TaskRuntime

    rt = TaskRuntime(policy="TJ-SP")

    def child():
        return 21

    def main():
        fut = rt.fork(child)
        return 2 * fut.join()

    assert rt.run(main) == 42
"""

from . import _lazy

__version__ = "1.0.0"

_EXPORTS = {
    "JoinPolicy": ".core.policy",
    "NullPolicy": ".core.policy",
    "TJGlobalTree": ".core.tj_gt",
    "TJJumpPointers": ".core.tj_jp",
    "TJSpawnPathsFlat": ".core.tj_sp_flat",
    "TJOrderMaintenance": ".core.tj_om",
    "KJVectorClock": ".kj.kj_vc",
    "KJSnapshotSets": ".kj.kj_ss",
    "KJCompactClock": ".kj.kj_cc",
    "Verifier": ".core.verifier",
    "HybridVerifier": ".armus.hybrid",
    "ArmusDetector": ".armus.detector",
    "make_policy": ".core.policy",
    "TaskRuntime": ".runtime.threaded",
    "CooperativeRuntime": ".runtime.cooperative",
    "WorkSharingRuntime": ".runtime.pool",
    "Future": ".runtime.future",
    "current_task": ".runtime.context",
    "finish": ".constructs.finish",
    "ReproError": ".errors",
    "PolicyViolationError": ".errors",
    "PolicyQuarantinedError": ".errors",
    "PolicyQuarantineWarning": ".errors",
    "DeadlockError": ".errors",
    "DeadlockAvoidedError": ".errors",
    "DeadlockDetectedError": ".errors",
    "TaskFailedError": ".errors",
    "RetryPolicy": ".runtime.retry",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy.lazy_exports(__name__, globals(), _EXPORTS)
