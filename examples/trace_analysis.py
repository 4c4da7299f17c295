"""Record a live execution as a formal trace and analyse it offline.

The TraceRecordingPolicy wraps any verifier and logs the init/fork/join
event stream; the formal layer then answers questions the online
verifier never had to: would this exact run have satisfied KJ?  Where is
the first join KJ rejects?  Is the TJ permission order really total?

Run:  python examples/trace_analysis.py
"""

from repro import TaskRuntime
from repro.core import TJSpawnPathsLegacy
from repro.formal import (
    ForkTree,
    KJFamily,
    TJFamily,
    contains_deadlock,
    format_trace,
    validate_trace,
)
from repro.tools import TraceRecordingPolicy


def main() -> None:
    recorder = TraceRecordingPolicy(TJSpawnPathsLegacy())
    rt = TaskRuntime(policy=recorder)

    # The Figure 1 (right) program: e joins c directly, *without* anyone
    # first joining b (which would teach KJ about c via KJ-learn) — the
    # handoff of c's future happens through shared memory + an event.
    import threading

    def program():
        c_future = {}
        c_ready = threading.Event()

        def b():
            c_future["c"] = rt.fork(lambda: "c's result")
            c_ready.set()
            return "b's result"

        rt.fork(b)  # never joined before e runs

        def e():
            c_ready.wait()
            return c_future["c"].join()  # transitive join: KJ x, TJ ok

        def d():
            return rt.fork(e).join()

        return rt.fork(d).join()

    print("program result:", rt.run(program))

    trace = recorder.snapshot()
    print("\nrecorded trace:")
    print(format_trace(trace))

    for family in (TJFamily, KJFamily):
        result = validate_trace(trace, family)
        verdict = "accepts" if result.valid else "rejects"
        print(f"\n{result.policy} {verdict} this run")
        for v in result.rejected_joins:
            print(f"  first rejected join: #{v.index} {v.action} — {v.reason}")

    print("\ncontains deadlock per Definition 3.9:", contains_deadlock(trace))

    tree = ForkTree.from_trace(trace)
    print("TJ total order (ascending):", " < ".join(map(str, tree.preorder())))


if __name__ == "__main__":
    main()
