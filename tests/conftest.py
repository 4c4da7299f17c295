"""Shared fixtures and hypothesis strategies.

Trace strategies build structured programs directly from drawn choices
(not from opaque RNG seeds) so hypothesis can shrink failures to minimal
counterexamples.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.formal.actions import Fork, Init, Join
from repro.formal.kj_relation import KJKnowledge
from repro.formal.tj_relation import TJOrderOracle


def _name(i: int) -> str:
    return f"t{i}"


@st.composite
def fork_traces(draw, min_tasks: int = 1, max_tasks: int = 30):
    """init + forks: each new task picks a uniformly drawn existing parent."""
    n = draw(st.integers(min_tasks, max_tasks))
    trace = [Init(_name(0))]
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        trace.append(Fork(_name(parent), _name(i)))
    return trace


@st.composite
def tj_valid_traces(draw, max_tasks: int = 25, max_joins: int = 25):
    """Interleaved forks and TJ-permitted joins (a TJ-valid trace)."""
    n_tasks = draw(st.integers(1, max_tasks))
    n_joins = draw(st.integers(0, max_joins))
    ops = draw(
        st.permutations(["fork"] * (n_tasks - 1) + ["join"] * n_joins)
    )
    oracle = TJOrderOracle()
    oracle.init(_name(0))
    trace = [Init(_name(0))]
    created = 1
    for op in ops:
        if op == "fork":
            parent = _name(draw(st.integers(0, created - 1)))
            child = _name(created)
            trace.append(Fork(parent, child))
            oracle.fork(parent, child)
            created += 1
        else:
            if created < 2:
                continue
            i = draw(st.integers(0, created - 1))
            j = draw(st.integers(0, created - 1))
            if i == j:
                continue
            a, b = _name(i), _name(j)
            if oracle.less(b, a):
                a, b = b, a
            trace.append(Join(a, b))
    return trace


@st.composite
def kj_valid_traces(draw, max_tasks: int = 20, max_joins: int = 20):
    """Interleaved forks and KJ-permitted joins (a KJ-valid trace)."""
    n_tasks = draw(st.integers(1, max_tasks))
    n_joins = draw(st.integers(0, max_joins))
    ops = draw(
        st.permutations(["fork"] * (n_tasks - 1) + ["join"] * n_joins)
    )
    knowledge = KJKnowledge()
    knowledge.init(_name(0))
    trace = [Init(_name(0))]
    created = 1
    for op in ops:
        if op == "fork":
            parent = _name(draw(st.integers(0, created - 1)))
            child = _name(created)
            trace.append(Fork(parent, child))
            knowledge.fork(parent, child)
            created += 1
        else:
            known = [
                (a, b)
                for i in range(created)
                for a in [_name(i)]
                for b in sorted(knowledge.knowledge_of(a), key=str)
            ]
            if not known:
                continue
            a, b = known[draw(st.integers(0, len(known) - 1))]
            trace.append(Join(a, b))
            knowledge.join(a, b)
    return trace


@st.composite
def traces_with_arbitrary_joins(draw, max_tasks: int = 20, max_joins: int = 15):
    """Structurally valid traces whose joins are unconstrained.

    These may or may not be policy-valid or deadlock-free — the raw
    material for soundness properties.
    """
    base = draw(fork_traces(min_tasks=2, max_tasks=max_tasks))
    n = sum(1 for a in base if isinstance(a, (Init, Fork)))
    n_joins = draw(st.integers(0, max_joins))
    trace = list(base)
    for _ in range(n_joins):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j:
            trace.append(Join(_name(i), _name(j)))
    return trace


def spinning_joiners_trace(waiters: int, depth: int) -> list:
    """A TJ-valid trace whose joiners spin long on a live runtime: ``r``
    forks ``s`` and *waiters* tasks ``w*``, which all join ``x``; ``s``
    forks ``x`` only after ``y``'s fork/join chain of *depth* tasks
    returns."""
    chain = ["y"] + [f"c{i}" for i in range(depth)]
    links = list(zip(chain, chain[1:]))
    return [
        Init("r"),
        Fork("r", "s"),
        *(Fork("r", f"w{i}") for i in range(waiters)),
        Fork("s", "y"),
        *(Fork(parent, child) for parent, child in links),
        *(Join(parent, child) for parent, child in reversed(links)),
        Join("s", "y"),
        Fork("s", "x"),
        *(Join(f"w{i}", "x") for i in range(waiters)),
    ]


@pytest.fixture(params=["TJ-GT", "TJ-JP", "TJ-SP", "TJ-OM"])
def tj_policy_name(request):
    """Parametrise a test over all four TJ verifier algorithms."""
    return request.param


@pytest.fixture(params=["KJ-VC", "KJ-SS", "KJ-CC"])
def kj_policy_name(request):
    """Parametrise a test over both KJ verifier implementations."""
    return request.param


@pytest.fixture(params=["TJ-GT", "TJ-JP", "TJ-SP", "TJ-OM", "KJ-VC", "KJ-SS"])
def any_policy_name(request):
    return request.param
