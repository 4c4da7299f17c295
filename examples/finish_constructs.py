"""The finish construct on the verified runtime.

The paper positions Futures as the general model subsuming Cilk and
async-finish (Section 1); this example runs async-finish: a finish
scope awaits every transitively spawned task, verified by TJ-SP and
deadlock-safe by construction.

Run:  python examples/finish_constructs.py
"""

from repro import TaskRuntime, finish


def demo_finish() -> None:
    rt = TaskRuntime(policy="TJ-SP")

    def main():
        with finish(rt) as scope:

            def explore(depth):
                if depth > 0:
                    scope.async_(explore, depth - 1)  # nested spawn
                    scope.async_(explore, depth - 1)
                return 1

            scope.async_(explore, 5)
        return len(scope.results)

    print(f"finish awaited {rt.run(main)} transitively spawned tasks "
          f"({rt.detector.stats.false_positives} fallback joins under TJ)")


if __name__ == "__main__":
    print(__doc__)
    demo_finish()
