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

from . import armus, constructs, core, formal, kj
from .core import (
    JoinPolicy,
    NullPolicy,
    TJGlobalTree,
    TJJumpPointers,
    TJOrderMaintenance,
    TJSpawnPathsFlat,
    Verifier,
    make_policy,
)
from .armus import ArmusDetector, HybridVerifier
from .errors import (
    DeadlockAvoidedError,
    DeadlockDetectedError,
    DeadlockError,
    PolicyQuarantinedError,
    PolicyQuarantineWarning,
    PolicyViolationError,
    ReproError,
    TaskFailedError,
)
from .constructs import CilkFrame, FinishAccumulator, finish
from .kj import KJCompactClock, KJSnapshotSets, KJVectorClock
from .runtime import (
    AsyncioRuntime,
    CooperativeRuntime,
    Future,
    RetryPolicy,
    TaskRuntime,
    VerifiedExecutor,
    WorkSharingRuntime,
    current_task,
)

__version__ = "1.0.0"

__all__ = [
    "JoinPolicy",
    "NullPolicy",
    "TJGlobalTree",
    "TJJumpPointers",
    "TJSpawnPathsFlat",
    "TJOrderMaintenance",
    "KJVectorClock",
    "KJSnapshotSets",
    "KJCompactClock",
    "Verifier",
    "HybridVerifier",
    "ArmusDetector",
    "make_policy",
    "TaskRuntime",
    "CooperativeRuntime",
    "WorkSharingRuntime",
    "AsyncioRuntime",
    "VerifiedExecutor",
    "Future",
    "current_task",
    "finish",
    "FinishAccumulator",
    "CilkFrame",
    "ReproError",
    "PolicyViolationError",
    "PolicyQuarantinedError",
    "PolicyQuarantineWarning",
    "DeadlockError",
    "DeadlockAvoidedError",
    "DeadlockDetectedError",
    "TaskFailedError",
    "RetryPolicy",
    "__version__",
]
