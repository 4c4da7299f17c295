"""Unit tests for the Algorithm 1 verifier shell."""

import pytest

from repro.core import TJSpawnPathsFlat, Verifier
from repro.errors import PolicyViolationError


@pytest.fixture
def verifier():
    return Verifier(TJSpawnPathsFlat())


class TestVerifier:
    def test_name(self, verifier):
        assert verifier.name == "TJ-SP"

    def test_fork_counting(self, verifier):
        root = verifier.on_init()
        verifier.on_fork(root)
        verifier.on_fork(root)
        assert verifier.stats.forks == 3  # init counts as the root fork

    def test_check_join_counts_verdicts(self, verifier):
        root = verifier.on_init()
        child = verifier.on_fork(root)
        assert verifier.check_join(root, child)
        assert not verifier.check_join(child, root)
        assert verifier.stats.joins_checked == 2
        assert verifier.stats.joins_rejected == 1
        assert verifier.stats.joins_permitted == 1
        assert verifier.stats.rejection_rate == 0.5

    def test_rejection_rate_empty(self, verifier):
        assert verifier.stats.rejection_rate == 0.0

    def test_require_join_faults(self, verifier):
        root = verifier.on_init()
        child = verifier.on_fork(root)
        verifier.require_join(root, child)  # fine
        with pytest.raises(PolicyViolationError) as exc_info:
            verifier.require_join(child, root)
        err = exc_info.value
        assert err.policy == "TJ-SP"
        assert err.joiner is child and err.joinee is root

    def test_on_join_completed_delegates(self):
        calls = []

        class Spy(TJSpawnPathsFlat):
            def on_join(self, joiner, joinee):
                calls.append((joiner, joinee))

        v = Verifier(Spy())
        root = v.on_init()
        child = v.on_fork(root)
        v.on_join_completed(root, child)
        assert calls == [(root, child)]
