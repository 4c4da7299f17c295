"""Unit tests for the waits-for graph."""

import threading

from repro.armus.graph import Entry, WaitsForGraph


class TestWaitsForGraph:
    def test_empty(self):
        g = WaitsForGraph()
        assert len(g) == 0
        assert not g.has_path("a", "b")

    def test_add_remove(self):
        g = WaitsForGraph()
        g.add(Entry("a", "b"))
        assert g.edges() == [("a", "b")]
        g.remove("a", "b")
        assert len(g) == 0

    def test_remove_missing_is_noop(self):
        g = WaitsForGraph()
        g.remove("a", "b")
        assert len(g) == 0

    def test_trivial_path(self):
        g = WaitsForGraph()
        assert g.has_path("x", "x")

    def test_transitive_path(self):
        g = WaitsForGraph()
        g.add(Entry("a", "b"))
        g.add(Entry("b", "c"))
        g.add(Entry("c", "d"))
        assert g.has_path("a", "d")
        assert not g.has_path("d", "a")

    def test_branching_paths(self):
        g = WaitsForGraph()
        g.add(Entry("a", "b"))
        g.add(Entry("a", "c"))
        g.add(Entry("c", "d"))
        assert g.has_path("a", "d")
        assert not g.has_path("b", "d")

    def test_path_disappears_after_removal(self):
        g = WaitsForGraph()
        g.add(Entry("a", "b"))
        g.add(Entry("b", "c"))
        g.remove("b", "c")
        assert not g.has_path("a", "c")

    def test_concurrent_mutation_is_safe(self):
        g = WaitsForGraph()

        def worker(base):
            for i in range(300):
                g.add(Entry((base, i), (base, i + 1)))
                g.has_path((base, 0), (base, i + 1))
            for i in range(300):
                g.remove((base, i), (base, i + 1))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(g) == 0

    def test_find_path_returns_the_vertex_chain(self):
        g = WaitsForGraph()
        g.add(Entry("a", "b"), Entry("b", "c"))
        assert g._find_path("a", "c") == ["a", "b", "c"]
        assert g._find_path("a", "a") == ["a"]
        assert g._find_path("c", "a") is None
