"""``finish`` works on every blocking runtime."""

import pytest

from repro.constructs import finish
from repro.runtime import TaskRuntime, WorkSharingRuntime


def runtimes():
    return [
        ("threaded", lambda: TaskRuntime(policy="TJ-SP")),
        ("pool", lambda: WorkSharingRuntime(policy="TJ-SP", workers=2, max_workers=64)),
    ]


@pytest.mark.parametrize("kind,factory", runtimes(), ids=["threaded", "pool"])
class TestConstructsAcrossRuntimes:
    def test_finish(self, kind, factory):
        rt = factory()

        def main():
            with finish(rt) as scope:
                def tree(d):
                    if d:
                        scope.async_(tree, d - 1)
                        scope.async_(tree, d - 1)
                    return 1

                scope.async_(tree, 4)
            return len(scope.results)

        assert rt.run(main) == 31
        assert rt.detector.stats.false_positives == 0
