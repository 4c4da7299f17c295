"""Seeded, site-keyed fault injection.

Every injection decision is a pure function of ``(seed, site)``: the
plan seeds a private :class:`random.Random` with the string
``f"{seed}|{site!r}"`` (string seeding hashes through SHA-512, so the
stream is identical across processes and immune to ``PYTHONHASHSEED``).
Two runs of the same program with the same plan therefore delay and
fault at exactly the same sites — and a plan with delays stripped
(:meth:`FaultPlan.without_delays`) makes *identical* fault decisions,
which is what lets the chaos suite assert that verdict streams do not
depend on timing.  (Task crashes are part of the program, not the plan:
:func:`~repro.testing.chaos.generate_spec` draws them from the seed.)

Sites are arbitrary hashable-and-reprable keys chosen by the harness,
conventionally tuples like ``("task", 7)`` or ``("join", 3, 5)``.  Key
sites by *program structure*, never by wall-clock order, or determinism
is lost.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Optional

from ..core.policy import JoinPolicy
from ..errors import InjectedFaultError

__all__ = ["FaultPlan", "FaultyPolicy", "PolicyBugError"]


class PolicyBugError(RuntimeError):
    """An injected *internal* policy failure (a simulated implementation bug).

    Deliberately a plain :class:`RuntimeError`, **not** a
    :class:`~repro.errors.ReproError` and not an
    :class:`~repro.errors.InjectedFaultError`: it models a third-party
    policy blowing up with an arbitrary exception, which is exactly what
    the verifier's quarantine fault boundary must catch.  (The chaos
    suite's ``InjectedFaultError`` contract — faults propagate unchanged
    under the default ``fail_mode="raise"`` — is unaffected.)
    """

    def __init__(self, site: object = None):
        self.site = site
        super().__init__(f"injected policy bug at {site!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Rates are independent probabilities evaluated per *site*:

    * ``delay_rate`` / ``max_delay`` — probability and bound (seconds)
      of a :meth:`sleep` at a site;
    * ``verifier_fault_rate`` — probability a :class:`FaultyPolicy`
      ``permits`` call raises instead of answering;
    * ``policy_crash_rate`` — probability a :class:`FaultyPolicy`
      ``permits`` call raises :class:`PolicyBugError` (a simulated
      *internal* policy bug, the kind the verifier's quarantine fault
      boundary must absorb — as opposed to an ``InjectedFaultError``,
      which the chaos contract requires to propagate unchanged under
      ``fail_mode="raise"``).
    """

    seed: int = 0
    delay_rate: float = 0.0
    max_delay: float = 0.002
    verifier_fault_rate: float = 0.0
    policy_crash_rate: float = 0.0

    def _rng(self, site: object) -> random.Random:
        return random.Random(f"{self.seed}|{site!r}")

    # ------------------------------------------------------------------
    def decide(self, site: object, rate: float) -> bool:
        """The deterministic coin flip for *site* at probability *rate*."""
        if rate <= 0.0:
            return False
        return self._rng(("decide", site)).random() < rate

    def delay(self, site: object) -> float:
        """The planned delay (seconds) at *site*; 0.0 when none."""
        if not self.decide(("delay", site), self.delay_rate):
            return 0.0
        return self._rng(("delay-length", site)).uniform(0.0, self.max_delay)

    def sleep(self, site: object) -> float:
        """Sleep the planned delay at *site*; returns the slept duration."""
        pause = self.delay(site)
        if pause > 0.0:
            time.sleep(pause)
        return pause

    def verifier_fault(self, site: object) -> bool:
        return self.decide(("verifier", site), self.verifier_fault_rate)

    def policy_crash(self, site: object) -> bool:
        return self.decide(("policy-crash", site), self.policy_crash_rate)

    # ------------------------------------------------------------------
    def without_delays(self) -> "FaultPlan":
        """The same plan with delays stripped; fault decisions are keyed
        by site, not by history, so they are unchanged."""
        return replace(self, delay_rate=0.0)

    def without_faults(self) -> "FaultPlan":
        """The same plan with every injection disabled (delays included)."""
        return replace(
            self,
            delay_rate=0.0,
            verifier_fault_rate=0.0,
            policy_crash_rate=0.0,
        )


class FaultyPolicy(JoinPolicy):
    """Wrap a policy so that some ``permits`` calls raise instead of answer.

    The fault fires *before* the inner policy is consulted, which — by
    the ordering in :meth:`Verifier.check_join
    <repro.core.verifier.Verifier.check_join>` and
    :meth:`HybridVerifier.begin_join
    <repro.armus.hybrid.HybridVerifier.begin_join>` — means a faulted
    call updates **no** statistics and registers **no** waits-for edge.
    The chaos suite exploits exactly that: after retrying every faulted
    join, ``joins_checked`` must equal ``attempts - faults``.

    Calls are numbered under a lock and the fault decision is keyed by
    the call index, so a retry is a *new* site and eventually succeeds.
    """

    def __init__(self, inner: JoinPolicy, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.name = f"faulty({inner.name})"
        self.stable_permits = inner.stable_permits
        self._lock = threading.Lock()
        self._calls = 0
        #: permits calls that raised an injected fault
        self.faults_injected = 0
        #: permits calls that raised a simulated policy bug
        self.bugs_injected = 0

    def _next_call(self) -> int:
        with self._lock:
            self._calls += 1
            return self._calls

    def add_child(self, parent: Optional[object]) -> object:
        return self.inner.add_child(parent)

    def permits(self, joiner: object, joinee: object) -> bool:
        index = self._next_call()
        if self.plan.verifier_fault(("permits", index)):
            with self._lock:
                self.faults_injected += 1
            raise InjectedFaultError(site=("permits", index))
        if self.plan.policy_crash(("permits", index)):
            with self._lock:
                self.bugs_injected += 1
            raise PolicyBugError(site=("permits", index))
        return self.inner.permits(joiner, joinee)

    def permits_many(self, joiner: object, joinees: list) -> list[bool]:
        # Route through our own per-call permits so batch verification is
        # just as fault-prone as individual joins.
        return [self.permits(joiner, joinee) for joinee in joinees]

    def on_join(self, joiner: object, joinee: object) -> None:
        self.inner.on_join(joiner, joinee)

    def space_units(self) -> int:
        return self.inner.space_units()
