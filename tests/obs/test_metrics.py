"""Metrics-layer tests: exactness under concurrency, snapshots, exports.

The registry is the single stats mechanism for the whole stack, so the
properties pinned here — concurrent increments are never lost, snapshots
are immutable copies, the Prometheus rendering is cumulative and
well-formed — are what every other surface (verifier stats, Armus stats,
runtime counters) inherits.
"""

from __future__ import annotations

import gc
import json
import threading

from repro.obs.metrics import (
    NS_BUCKETS,
    Counter,
    CounterGroup,
    Gauge,
    Histogram,
    MetricsRegistry,
)

THREADS = 16
PER_THREAD = 2_000


def _hammer(n_threads, fn):
    barrier = threading.Barrier(n_threads)

    def body(i):
        barrier.wait()
        fn(i)

    workers = [threading.Thread(target=body, args=(i,)) for i in range(n_threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


class TestConcurrentExactness:
    def test_counter_increments_are_never_lost(self):
        c = Counter("reqs")
        _hammer(THREADS, lambda i: [c.inc() for _ in range(PER_THREAD)])
        assert c.value == THREADS * PER_THREAD

    def test_counter_group_cell_increments_are_exact(self):
        g = CounterGroup(("forks", "joins"))

        def body(i):
            cell = g.cell()
            for _ in range(PER_THREAD):
                cell.forks += 1
                if i % 2 == 0:
                    cell.joins += 1

        _hammer(THREADS, body)
        totals = g.totals()
        assert totals["forks"] == THREADS * PER_THREAD
        assert totals["joins"] == (THREADS // 2) * PER_THREAD

    def test_histogram_observation_count_is_exact(self):
        h = Histogram("lat_ns")

        def body(i):
            for k in range(PER_THREAD):
                h.observe(250 * (k % 7))

        _hammer(THREADS, body)
        snap = h.snapshot()
        assert snap["count"] == THREADS * PER_THREAD
        assert snap["sum"] == THREADS * sum(250 * (k % 7) for k in range(PER_THREAD))

    def test_reads_interleaved_with_writes_stay_monotone(self):
        c = Counter("monotone")
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                seen.append(c.value)

        r = threading.Thread(target=reader)
        r.start()
        _hammer(8, lambda i: [c.inc() for _ in range(500)])
        stop.set()
        r.join()
        assert c.value == 8 * 500
        assert all(a <= b for a, b in zip(seen, seen[1:]))


class TestBucketSemantics:
    def test_observation_lands_in_first_bucket_le_bound(self):
        h = Histogram("h", buckets=(10, 100, 1000))
        for v in (5, 10, 11, 100, 101, 5000):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == [10, 100, 1000]
        # <=10: {5, 10}; <=100: {11, 100}; <=1000: {101}; +Inf: {5000}
        assert snap["counts"] == [2, 2, 1, 1]
        assert snap["sum"] == 5 + 10 + 11 + 100 + 101 + 5000

    def test_default_buckets_are_sorted(self):
        assert list(NS_BUCKETS) == sorted(NS_BUCKETS)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_callable_backed(self):
        box = {"v": 3}
        g = Gauge("live", fn=lambda: box["v"])
        assert g.value == 3
        box["v"] = 7
        assert g.value == 7


class TestRegistry:
    def test_same_name_and_labels_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x", labels={"policy": "TJ"})
        b = reg.counter("x", labels={"policy": "TJ"})
        c = reg.counter("x", labels={"policy": "KJ"})
        assert a is b
        assert a is not c

    def test_snapshot_is_an_immutable_copy(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        h = reg.histogram("h", buckets=(10,))
        h.observe(5)
        snap = reg.snapshot()
        snap["counters"]["c"] = 999
        snap["histograms"]["h"]["counts"][0] = 999
        fresh = reg.snapshot()
        assert fresh["counters"]["c"] == 3
        assert fresh["histograms"]["h"]["counts"][0] == 1

    def test_snapshot_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(1234)
        reg.gauge("g").set(2.5)
        doc = json.loads(reg.to_json())
        assert doc["counters"]["c"] == 1
        assert doc["gauges"]["g"] == 2.5
        assert doc["histograms"]["h"]["count"] == 1

    def test_same_prefix_sources_are_summed(self):
        reg = MetricsRegistry()
        reg.add_source("verifier", lambda: {"forks": 2, "joins_checked": 1})
        reg.add_source("verifier", lambda: {"forks": 3})
        snap = reg.snapshot()
        assert snap["sources"]["verifier"] == {"forks": 5, "joins_checked": 1}

    def test_bound_method_sources_do_not_pin_their_owner(self):
        class Stats:
            def snapshot(self):
                return {"n": 1}

        reg = MetricsRegistry()
        owner = Stats()
        reg.add_source("stats", owner.snapshot)
        assert reg.snapshot()["sources"]["stats"] == {"n": 1}
        del owner
        gc.collect()
        assert "stats" not in reg.snapshot()["sources"]


def _parse_prometheus(text):
    """Parse exposition text into {name{labels}: value} plus TYPE lines."""
    samples, types = {}, {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples, types


class TestPrometheusRendering:
    def test_counters_gauges_and_histograms_render(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", labels={"policy": "TJ"}).inc(4)
        reg.gauge("depth").set(2)
        h = reg.histogram("lat_ns", buckets=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        samples, types = _parse_prometheus(reg.to_prometheus())
        assert types["reqs_total"] == "counter"
        assert types["depth"] == "gauge"
        assert types["lat_ns"] == "histogram"
        assert samples['reqs_total{policy="TJ"}'] == 4
        assert samples["depth"] == 2
        # cumulative le buckets, +Inf equals _count
        assert samples['lat_ns_bucket{le="10"}'] == 1
        assert samples['lat_ns_bucket{le="100"}'] == 2
        assert samples['lat_ns_bucket{le="+Inf"}'] == 3
        assert samples["lat_ns_count"] == 3
        assert samples["lat_ns_sum"] == 555

    def test_le_label_merges_with_existing_labels(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(10,), labels={"policy": "TJ"}).observe(1)
        samples, _ = _parse_prometheus(reg.to_prometheus())
        assert samples['h_bucket{le="10",policy="TJ"}'] == 1

    def test_one_type_line_per_family_across_labelled_series(self):
        reg = MetricsRegistry()
        for policy in ("TJ-SP", "KJ-VC"):
            reg.histogram("repro_verifier_join_check_ns", labels={"policy": policy}).observe(1)
        text = reg.to_prometheus()
        assert text.count("# TYPE repro_verifier_join_check_ns histogram") == 1

    def test_source_fields_export_as_prefixed_gauges(self):
        reg = MetricsRegistry()
        reg.add_source("verifier", lambda: {"forks": 9})
        samples, types = _parse_prometheus(reg.to_prometheus())
        assert samples["verifier_forks"] == 9
        assert types["verifier_forks"] == "gauge"
