"""Every spawn-path store answers the formal TJ order (Thm 3.17).

TJ-SP's ancestry is kept by several stores: the flat arrays of the
``TJ-SP`` policy (pure-Python and compiled kernels), the seed tuples of
``TJ-SP-legacy``, the shared-memory forest the multi-process runtime
verifies against (:class:`~repro.core.shared_tree.SharedTJPolicy`), and
the sidecar's tenant mirror (:class:`~repro.service.mirror.MirroredSpawnPaths`),
which is fed the forest's own ``(parent, edge, depth)`` placements.

Each random fork tree is replayed through every store and through
:class:`repro.formal.TJOrderOracle`, the executable definition of the TJ
order; ``permits(a, b)`` must equal ``a < b`` on every ordered pair, for
the scalar check, for ``permits_many`` over every vertex, and for one
wider batch sampled with repeats.
"""

from __future__ import annotations

import random

import pytest

from repro.core._cbuild import compiled_module
from repro.core.shared_tree import SharedFlatTree, SharedTJPolicy
from repro.core.tj_sp import TJSpawnPathsLegacy
from repro.core.tj_sp_flat import TJSpawnPathsFlat
from repro.formal import TJOrderOracle
from repro.service.mirror import MirroredSpawnPaths

N_TREES = 400
SEED = 0x0AC1E

STORES = ["flat-py", "flat-c", "legacy", "shm", "mirror"]


def _random_parents(rng: random.Random, n: int) -> list:
    """A fork tree as a parent-index list; half the forks extend the
    newest task, so deep chains appear alongside bushy fans."""
    return [None] + [
        i - 1 if rng.random() < 0.5 else rng.randrange(i) for i in range(1, n)
    ]


def _oracle(parents: list) -> TJOrderOracle:
    oracle = TJOrderOracle()
    oracle.init(0)
    for child, parent in enumerate(parents[1:], start=1):
        oracle.fork(parent, child)
    return oracle


def _grow(policy, parents: list) -> list:
    vertices: list = []
    for parent in parents:
        vertices.append(policy.add_child(None if parent is None else vertices[parent]))
    return vertices


def _mirror(mirror: MirroredSpawnPaths, source: SharedTJPolicy, vids: list) -> list:
    """Install *vids* in *mirror* from the forest's authoritative rows,
    exactly as a tenant session applies announced forks."""
    for vid in vids:
        parent, edge, depth = source.placement(vid)
        mirror.stage(vid, parent, edge, depth)
        assert mirror.add_child(None if parent < 0 else parent) == vid
    return list(vids)


@pytest.fixture(scope="module")
def forest():
    # One small forest for the whole sweep: each tree is a new root, and
    # the tiny geometry crosses many segment generations.
    with SharedFlatTree.create(nprocs=1, stripe=8, seg0=64) as tree:
        yield tree


@pytest.mark.parametrize("store", STORES)
def test_every_store_agrees_with_the_formal_order(store, forest):
    if store == "flat-c" and compiled_module() is None:
        pytest.skip("compiled kernel unavailable")
    rng = random.Random(SEED)
    shm = SharedTJPolicy(forest)
    mirror = MirroredSpawnPaths()
    pairs = 0
    for tree in range(N_TREES):
        n = rng.randint(2, 40)
        parents = _random_parents(rng, n)
        oracle = _oracle(parents)
        if store == "flat-py":
            policy = TJSpawnPathsFlat(backend="py")
        elif store == "flat-c":
            policy = TJSpawnPathsFlat(backend="c")
        elif store == "legacy":
            policy = TJSpawnPathsLegacy()
        else:
            policy = shm
        vertices = _grow(policy, parents)
        if store == "mirror":
            policy, vertices = mirror, _mirror(mirror, shm, vertices)
        for a in range(n):
            want = [oracle.less(a, b) for b in range(n)]
            got = [policy.permits(vertices[a], vertices[b]) for b in range(n)]
            assert got == want, f"{store}: tree {tree} {parents}, joiner {a}"
            # the batch API over every vertex
            assert policy.permits_many(vertices[a], vertices) == want
            pairs += n
        # one wider batch, joinees sampled with repeats
        joiner = rng.randrange(n)
        sample = [rng.randrange(n) for _ in range(57)]
        got = policy.permits_many(vertices[joiner], [vertices[b] for b in sample])
        assert got == [oracle.less(joiner, b) for b in sample], (
            f"{store}: batch of tree {tree} {parents}, joiner {joiner}"
        )
    assert pairs > 100_000
