"""Predictive deadlock analysis over the trace journal.

The journal (:mod:`repro.tools.journal`) records *one* schedule of a
run.  This package answers the counterfactual question the single trace
leaves open — could some *other* schedule of the same program have
deadlocked? — in the style of partial-order deadlock prediction: the
recorded events are relaxed into a partial order (program order +
fork-tree causality + completion edges), and alternative linearizations
are searched for join cycles some reordering can realize.

The search is *reproduction-by-construction*: a candidate cycle
surviving the partial-order feasibility filter is confirmed by actually
driving the reconstructed program through the deterministic simulator
(:class:`~repro.runtime.sim.SimRuntime`) until the cycle closes, so
every :class:`PredictedDeadlock` carries a witness
:class:`~repro.runtime.explore.Schedule` that replays the deadlock
exactly — plus the verdicts the avoidance policies give along that very
schedule, closing the predict → simulate → avoid loop.
"""

from .order import TraceEvent, TraceOrder, build_order
from .program import SimOutcome, TraceProgram
from .predictor import (
    JoinIntent,
    PredictedDeadlock,
    PredictionReport,
    predict_deadlocks,
    read_witness,
)

__all__ = [
    "JoinIntent",
    "PredictedDeadlock",
    "PredictionReport",
    "SimOutcome",
    "TraceEvent",
    "TraceOrder",
    "TraceProgram",
    "build_order",
    "predict_deadlocks",
    "read_witness",
]
