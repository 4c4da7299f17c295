"""Algorithm-specific unit tests for the four TJ verifier back-ends."""

import threading

import pytest

from repro.core.policy import NullPolicy, make_policy
from repro.core.tj_gt import GTNode, TJGlobalTree
from repro.core.tj_jp import JPNode, TJJumpPointers
from repro.core.tj_om import TJOrderMaintenance
from repro.core.tj_sp import TJSpawnPathsLegacy


class TestTJGT:
    def test_node_fields(self):
        p = TJGlobalTree()
        root = p.add_child(None)
        assert root.depth == 0 and root.ix is None and root.children == 0
        c0 = p.add_child(root)
        c1 = p.add_child(root)
        assert (c0.depth, c0.ix) == (1, 0)
        assert (c1.depth, c1.ix) == (1, 1)
        assert root.children == 2

    def test_less_walks_are_bounded_by_height(self):
        p = TJGlobalTree()
        node = p.add_child(None)
        chain = [node]
        for _ in range(100):
            node = p.add_child(node)
            chain.append(node)
        assert p.permits(chain[0], chain[-1])
        assert not p.permits(chain[-1], chain[0])

    def test_space_accounting(self):
        p = TJGlobalTree()
        root = p.add_child(None)
        p.add_child(root)
        assert p.space_units() == 8  # 4 slots x 2 vertices


class TestTJJP:
    def test_jump_pointer_lengths(self):
        p = TJJumpPointers()
        node = p.add_child(None)
        nodes = [node]
        for _ in range(1, 17):
            node = p.add_child(node)
            nodes.append(node)
        # depth d has floor(log2(d)) + 1 pointers
        assert len(nodes[1].up) == 1
        assert len(nodes[2].up) == 2
        assert len(nodes[3].up) == 2
        assert len(nodes[4].up) == 3
        assert len(nodes[16].up) == 5

    def test_jump_pointers_point_correctly(self):
        p = TJJumpPointers()
        node = p.add_child(None)
        nodes = [node]
        for _ in range(1, 20):
            node = p.add_child(node)
            nodes.append(node)
        for d, v in enumerate(nodes):
            for k, anc in enumerate(v.up):
                assert anc is nodes[d - (1 << k)]

    def test_lift(self):
        p = TJJumpPointers()
        node = p.add_child(None)
        nodes = [node]
        for _ in range(1, 40):
            node = p.add_child(node)
            nodes.append(node)
        assert p._lift(nodes[37], 37) is nodes[0]
        assert p._lift(nodes[37], 5) is nodes[32]
        assert p._lift(nodes[10], 0) is nodes[10]


class TestTJSP:
    def test_paths(self):
        p = TJSpawnPathsLegacy()
        root = p.add_child(None)
        a = p.add_child(root)
        b = p.add_child(root)
        aa = p.add_child(a)
        assert root.path == ()
        assert a.path == (0,)
        assert b.path == (1,)
        assert aa.path == (0, 0)

    def test_prefix_means_ancestor(self):
        p = TJSpawnPathsLegacy()
        assert p._less((0,), (0, 3))  # ancestor
        assert not p._less((0, 3), (0,))  # descendant
        assert not p._less((0, 3), (0, 3))  # equal

    def test_divergence_compares_reversed(self):
        p = TJSpawnPathsLegacy()
        assert p._less((2, 5), (1,))  # younger branch < older branch
        assert not p._less((1,), (2, 5))


class TestTJOM:
    def test_relabelling_preserves_order(self):
        p = TJOrderMaintenance()
        root = p.add_child(None)
        # Hammer one insertion point: every new child lands right after
        # the root, exhausting the local gap and forcing relabels.
        kids = [p.add_child(root) for _ in range(3000)]
        assert p.relabel_count >= 1
        # Younger children are smaller; spot-check ordering invariants.
        assert p.permits(kids[-1], kids[0])
        assert p.permits(root, kids[0])
        for i in range(0, 2999, 97):
            assert p.permits(kids[i + 1], kids[i])
            assert not p.permits(kids[i], kids[i + 1])

    def test_concurrent_forks_remain_ordered(self):
        p = TJOrderMaintenance()
        root = p.add_child(None)
        tops = [p.add_child(root) for _ in range(8)]
        results: list[list] = [[] for _ in range(8)]

        def grow(i):
            node = tops[i]
            for _ in range(500):
                node = p.add_child(node)
                results[i].append(node)

        threads = [threading.Thread(target=grow, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every chain is descending in fork order (ancestors are less),
        # and chains respect sibling order at the top.
        for i in range(8):
            assert p.permits(tops[i], results[i][-1])
            assert not p.permits(results[i][-1], tops[i])
        for i in range(7):
            # tops[i+1] forked later => smaller, including whole subtree
            assert p.permits(results[i + 1][-1], results[i][-1])


class TestNullPolicy:
    def test_everything_permitted(self):
        p = NullPolicy()
        a = p.add_child(None)
        b = p.add_child(a)
        assert p.permits(a, b) and p.permits(b, a) and p.permits(a, a)
        assert p.space_units() == 0

    def test_handles_are_unique(self):
        p = NullPolicy()
        assert p.add_child(None) != p.add_child(None)


class TestRegistry:
    def test_all_policies_registered(self):
        for name in [
            "none",
            "TJ-GT",
            "TJ-JP",
            "TJ-SP",
            "TJ-SP-legacy",
            "TJ-OM",
            "KJ-VC",
            "KJ-SS",
            "KJ-CC",
        ]:
            assert make_policy(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown policy"):
            make_policy("TJ-XX")

    def test_duplicate_registration_rejected(self):
        from repro.core.policy import POLICY_REGISTRY, register_policy

        with pytest.raises(ValueError, match="already registered"):
            register_policy("TJ-SP", TJGlobalTree)
        # the registry is untouched by the failed attempt
        from repro.core.tj_sp_flat import TJSpawnPathsFlat

        assert POLICY_REGISTRY["TJ-SP"] is TJSpawnPathsFlat

    def test_duplicate_registration_with_override(self):
        from repro.core.policy import POLICY_REGISTRY, register_policy

        original = POLICY_REGISTRY["TJ-SP"]
        try:
            register_policy("TJ-SP", TJGlobalTree, override=True)
            assert POLICY_REGISTRY["TJ-SP"] is TJGlobalTree
        finally:
            register_policy("TJ-SP", original, override=True)

    def test_same_factory_reregistration_is_idempotent(self):
        from repro.core.policy import register_policy

        register_policy(TJSpawnPathsLegacy.name, TJSpawnPathsLegacy)  # no error
