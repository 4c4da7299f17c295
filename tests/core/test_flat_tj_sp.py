"""The flat parent-column TJ-SP core: differential + backend tests.

The load-bearing property: on the same fork tree, the flat policy —
under the pure-Python kernel *and* the compiled kernel, scalar *and*
batch — returns verdicts identical to the seed tuple implementation
(``TJ-SP-legacy``), across 1000+ random trees and across the kernels'
growth/reallocation boundaries.  (The formal TJ order itself is the
oracle of ``test_spawn_path_oracle.py``.)  Plus the id range check both
kernels share, the backend-selection contract (``REPRO_TJ_BACKEND`` /
``backend=``), the compiled kernel's 4-byte rows and capacity-zero
cache stats, the pure-Python kernel's chunked verdict-cache eviction,
the generic ``permits_many``/scalar agreement for every other policy,
and the per-backend verifier histogram labels.
"""

import random
import tracemalloc

import pytest

from repro.core import POLICY_REGISTRY, Verifier, make_policy
from repro.core._cbuild import BACKEND_ENV, compiled_module
from repro.core.tj_sp import TJSpawnPathsLegacy
from repro.core.tj_sp_flat import FlatTreePy, TJSpawnPathsFlat

HAVE_C = compiled_module() is not None

BACKENDS = ["py"] + (["c"] if HAVE_C else [])

needs_c = pytest.mark.skipif(not HAVE_C, reason="compiled kernel unavailable")


def random_parents(rng, n):
    """A random fork tree as a parent-index list (parents[0] is the root)."""
    return [None] + [rng.randrange(i) for i in range(1, n)]


def grow_all(policies, parents):
    """Replay one fork tree through several policies; vertex lists align."""
    out = [[] for _ in policies]
    for p in parents:
        for verts, policy in zip(out, policies):
            verts.append(policy.add_child(None if p is None else verts[p]))
    return out


# ----------------------------------------------------------------------
# the 1000-tree differential property suite
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_1000_trees_scalar_verdicts_identical(self, backend):
        """legacy == flat on every queried pair, 1000 trees."""
        rng = random.Random(0xF1A7)
        for tree in range(1000):
            n = rng.randint(2, 14)
            parents = random_parents(rng, n)
            flat = TJSpawnPathsFlat(backend=backend)
            legacy = TJSpawnPathsLegacy()
            fv, lv = grow_all([flat, legacy], parents)
            for a in range(n):
                for b in range(n):
                    want = legacy.permits(lv[a], lv[b])
                    assert flat.permits(fv[a], fv[b]) == want, (
                        f"tree {tree} ({backend}): disagree on ({a}, {b})"
                    )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_equals_scalar_including_vectorized(self, backend):
        """check_joins == per-pair permits, at batch widths from 1 to 300."""
        rng = random.Random(0xBA7C4)
        for _ in range(60):
            n = rng.randint(2, 120)
            parents = random_parents(rng, n)
            flat = TJSpawnPathsFlat(backend=backend)
            ref = TJSpawnPathsLegacy()
            fv, rv = grow_all([flat, ref], parents)
            for size in (1, 3, 47, 48, 77, 300):
                joiner = rng.randrange(n)
                joinees = [rng.randrange(n) for _ in range(size)]
                want = [ref.permits(rv[joiner], rv[j]) for j in joinees]
                got = flat.permits_many(fv[joiner], [fv[j] for j in joinees])
                assert got == want
                # and again: a batch-cache hit on py, a recompute on C
                assert flat.permits_many(fv[joiner], [fv[j] for j in joinees]) == want
            assert flat.permits_many(fv[0], []) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_growth_boundaries(self, backend):
        """Verdicts survive every buffer reallocation.

        Both kernels start at capacity 8 and double; a 1000-node chain
        plus a wide star cross many grow events.  Queries are issued
        *while* growing so a stale buffer would be caught immediately.
        """
        flat = TJSpawnPathsFlat(backend=backend)
        ref = TJSpawnPathsLegacy()
        f_root = flat.add_child(None)
        r_root = ref.add_child(None)
        f_chain, r_chain = [f_root], [r_root]
        for i in range(1, 1000):
            f_chain.append(flat.add_child(f_chain[-1]))
            r_chain.append(ref.add_child(r_chain[-1]))
            if i in (7, 8, 15, 16, 31, 63, 127, 255, 511, 999):
                assert flat.permits(f_chain[0], f_chain[-1]) == ref.permits(
                    r_chain[0], r_chain[-1]
                )
                assert flat.permits(f_chain[-1], f_chain[0]) == ref.permits(
                    r_chain[-1], r_chain[0]
                )
        f_star = [flat.add_child(f_root) for _ in range(300)]
        r_star = [ref.add_child(r_root) for _ in range(300)]
        rng = random.Random(5)
        for _ in range(500):
            a, b = rng.randrange(300), rng.randrange(300)
            assert flat.permits(f_star[a], f_star[b]) == ref.permits(
                r_star[a], r_star[b]
            )
        # one batch over the whole grown structure
        everything = f_chain + f_star
        ref_everything = r_chain + r_star
        got = flat.permits_many(f_chain[3], everything)
        want = [ref.permits(r_chain[3], x) for x in ref_everything]
        assert got == want

    @needs_c
    def test_pure_and_compiled_agree_directly(self):
        """The two kernels agree pair-for-pair (no reference needed)."""
        rng = random.Random(0xCAFE)
        for _ in range(200):
            n = rng.randint(2, 40)
            parents = random_parents(rng, n)
            py = TJSpawnPathsFlat(backend="py")
            c = TJSpawnPathsFlat(backend="c")
            pv, cv = grow_all([py, c], parents)
            for _ in range(80):
                a, b = rng.randrange(n), rng.randrange(n)
                assert py.permits(pv[a], pv[b]) == c.permits(cv[a], cv[b])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_path_of_matches_legacy_tuples(self, backend):
        rng = random.Random(0x9A7)
        parents = random_parents(rng, 60)
        flat = TJSpawnPathsFlat(backend=backend)
        legacy = TJSpawnPathsLegacy()
        fv, lv = grow_all([flat, legacy], parents)
        for f, l in zip(fv, lv):
            assert flat.path_of(f) == l.path
            assert flat._core.depth_of(f) == len(l.path)


# ----------------------------------------------------------------------
# kernel mechanics
# ----------------------------------------------------------------------
class TestFlatKernel:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ids_are_dense_ints(self, backend):
        p = TJSpawnPathsFlat(backend=backend)
        ids = [p.add_child(None)]
        for _ in range(9):
            ids.append(p.add_child(ids[0]))
        assert ids == list(range(10))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_parent_rejected(self, backend):
        p = TJSpawnPathsFlat(backend=backend)
        p.add_child(None)
        with pytest.raises(ValueError):
            p.add_child(7)
        with pytest.raises(ValueError):  # range-checked before any narrowing
            p.add_child(1 << 32)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_space_units_track_tasks(self, backend):
        p = TJSpawnPathsFlat(backend=backend)
        root = p.add_child(None)
        s0 = p.space_units()
        for _ in range(10):
            p.add_child(root)
        assert p.space_units() == s0 + 10  # 1 slot (the parent) per vertex

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda p, ids: p.permits(ids[0], -1), id="negative-joinee"),
            pytest.param(lambda p, ids: p.permits(-1, ids[0]), id="negative-joiner"),
            pytest.param(lambda p, ids: p.permits(ids[0], len(ids)), id="past-end-joinee"),
            pytest.param(lambda p, ids: p.permits(len(ids), ids[0]), id="past-end-joiner"),
            pytest.param(
                lambda p, ids: p.permits_many(ids[0], ids[:2] + [len(ids)] + ids[2:]),
                id="batch-past-end",
            ),
            pytest.param(
                lambda p, ids: p.permits_many(ids[0], ids[:2] + [-1]), id="batch-negative"
            ),
            pytest.param(lambda p, ids: p.permits_many(-1, ids), id="batch-joiner"),
            pytest.param(lambda p, ids: p.permits_many(len(ids), []), id="empty-batch-joiner"),
        ],
    )
    def test_both_kernels_reject_ids_outside_the_forest(self, call):
        """Every joiner and joinee id is checked against [0, n) in
        ``permits`` and ``permits_many``, with the same ValueError from
        both kernels (a negative id must not read a row from the end)."""
        for backend in BACKENDS:
            p = TJSpawnPathsFlat(backend=backend)
            root = p.add_child(None)
            ids = [root] + [p.add_child(root) for _ in range(4)]
            with pytest.raises(ValueError, match="unknown"):
                call(p, ids)

    @needs_c
    def test_compiled_rows_are_4_bytes(self):
        """One int32 column: a full doubling step costs 4 B per vertex."""
        p = TJSpawnPathsFlat(backend="c")
        n = 1 << 15  # the capacity lands exactly on n
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            root = p.add_child(None)
            for _ in range(n - 1):
                p.add_child(root)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(p._core) == n
        # 1 B per vertex of slack absorbs stray allocations from other threads
        assert grown <= 5 * n

    @needs_c
    def test_compiled_kernel_reports_a_capacity_zero_cache(self):
        """No batch cache on C: nothing held, every batch call evicted."""
        p = TJSpawnPathsFlat(backend="c")
        root = p.add_child(None)
        kid = p.add_child(root)
        for _ in range(5):
            assert p.permits_many(root, [kid]) == [True]
        assert p.cache_stats() == {"batch_entries": 0, "evictions": 5}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_last_ok_monotone_fast_path(self, backend):
        p = TJSpawnPathsFlat(backend=backend)
        root = p.add_child(None)
        kid = p.add_child(root)
        assert p.permits(root, kid)
        assert p.permits(root, kid)  # a permitted pair stays permitted
        assert not p.permits(kid, root)


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_env_py_forces_pure(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "py")
        p = TJSpawnPathsFlat()
        assert p.backend == "py"
        assert isinstance(p._core, FlatTreePy)

    @needs_c
    def test_env_auto_prefers_compiled(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "auto")
        assert TJSpawnPathsFlat().backend == "c"

    @needs_c
    def test_explicit_arg_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "c")
        assert TJSpawnPathsFlat(backend="py").backend == "py"
        monkeypatch.setenv(BACKEND_ENV, "py")
        assert TJSpawnPathsFlat(backend="auto").backend == "py"  # py pin wins

    def test_invalid_choices_raise(self, monkeypatch):
        with pytest.raises(ValueError):
            TJSpawnPathsFlat(backend="fortran")
        monkeypatch.setenv(BACKEND_ENV, "rust")
        with pytest.raises(ValueError):
            TJSpawnPathsFlat()

    def test_registry_name_resolves_to_flat(self):
        p = make_policy("TJ-SP")
        assert isinstance(p, TJSpawnPathsFlat)
        assert p.backend in ("c", "py")
        assert make_policy("TJ-SP-legacy").name == "TJ-SP-legacy"
        # the flat core and the paper's Algorithm 3 are the only TJ-SP names
        spawn_paths = sorted(n for n in POLICY_REGISTRY if n.startswith("TJ-SP"))
        assert spawn_paths == ["TJ-SP", "TJ-SP-legacy"]


# ----------------------------------------------------------------------
# the pure-Python kernel's verdict-cache eviction (the chunked fix)
# ----------------------------------------------------------------------
class TestChunkedEviction:
    def test_flat_batch_cache_evicts_in_chunks(self, monkeypatch):
        monkeypatch.setattr(FlatTreePy, "BATCH_CACHE_CAPACITY", 16)
        t = FlatTreePy()
        root = t.add_child(-1)
        kids = [t.add_child(root) for _ in range(40)]
        for kid in kids[:16]:
            t.permits_many(root, [kid])
        assert t.cache_stats() == {"batch_entries": 16, "evictions": 0}
        t.permits_many(root, [kids[16]])
        stats = t.cache_stats()
        assert stats["evictions"] == 2  # 16 >> 3
        assert stats["batch_entries"] == 16 - 2 + 1
        t.permits_many(root, [kids[17]])  # fits in the freed slot
        assert t.cache_stats()["evictions"] == 2

    def test_evicted_entries_recompute_correctly(self, monkeypatch):
        monkeypatch.setattr(FlatTreePy, "BATCH_CACHE_CAPACITY", 8)
        t = FlatTreePy()
        root = t.add_child(-1)
        kids = [t.add_child(root) for _ in range(30)]
        want = {k: t.permits_many(root, [k])[0] for k in kids}
        for k in kids:  # thrash far past capacity, then re-ask everything
            assert t.permits_many(root, [k]) == [want[k]]


# ----------------------------------------------------------------------
# generic permits_many (the hoisted loop) stays scalar-equivalent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["TJ-GT", "TJ-JP", "TJ-OM", "KJ-VC", "KJ-SS"])
def test_generic_permits_many_equals_scalar(name):
    policy = make_policy(name)
    rng = random.Random(0xD00D)
    verts = [policy.add_child(None)]
    for i in range(1, 40):
        verts.append(policy.add_child(verts[rng.randrange(i)]))
    for _ in range(20):
        joiner = verts[rng.randrange(len(verts))]
        joinees = [verts[rng.randrange(len(verts))] for _ in range(12)]
        want = [policy.permits(joiner, j) for j in joinees]
        assert policy.permits_many(joiner, joinees) == want


# ----------------------------------------------------------------------
# the verifier stamps the backend onto its latency histograms
# ----------------------------------------------------------------------
class TestBackendObservability:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_histogram_carries_backend_label(self, backend):
        from repro import obs

        with obs.enabled():
            verifier = Verifier(TJSpawnPathsFlat(backend=backend))
            root = verifier.on_init()
            kid = verifier.on_fork(root)
            verifier.check_join(root, kid)
            labels = dict(verifier._check_hist.labels)
        assert labels == {"policy": "TJ-SP", "backend": backend}

    def test_non_flat_policies_report_py(self):
        from repro import obs

        with obs.enabled():
            verifier = Verifier(make_policy("KJ-VC"))
            labels = dict(verifier._check_hist.labels)
        assert labels == {"policy": "KJ-VC", "backend": "py"}
