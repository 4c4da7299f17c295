"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

The registry is the *one* stats mechanism for the whole stack.  Two
design constraints drive everything here:

* **Hot-path writes must not contend.**  Counters and histograms shard
  per thread, exactly like the verifier's stats shards: each writer
  thread owns a private cell (a ``__slots__`` object, or a flat bucket
  list for histograms) and bumps plain Python ints under the GIL — no
  lock, no allocation.  Readers aggregate all cells under a lock.
* **Dead threads must not leak cells.**  Runtimes churn through worker
  threads (the pooled fork fast path reaps idle workers), so live-cell
  lists would grow without bound.  Every instrument folds cells whose
  owner thread has died into a ``retired`` accumulator whenever a new
  cell registers or a snapshot is taken — the same fix PR 3 applied to
  the verifier shards, now owned by the registry so every metric gets
  it for free.

Snapshots are point-in-time plain dicts (fresh copies — mutating one
never touches live state) exportable as JSON or Prometheus text.
"""

from __future__ import annotations

import json
import threading
import weakref
from bisect import bisect_left
from typing import Callable, Iterable, Mapping, Optional, Sequence

__all__ = [
    "NS_BUCKETS",
    "WAIT_NS_BUCKETS",
    "RTT_NS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "CounterGroup",
    "MetricsRegistry",
    "label_snapshot",
    "merge_snapshots",
    "snapshot_to_prometheus",
]

#: default latency buckets (nanoseconds) for sub-millisecond hot paths:
#: fork, join-check, Armus cycle check, journal flush.
NS_BUCKETS: tuple[int, ...] = (
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    5_000_000,
    25_000_000,
    100_000_000,
)

#: buckets (nanoseconds) for blocked waits, which routinely span
#: milliseconds to seconds (leaf sleeps, join deadlines, stalls).
WAIT_NS_BUCKETS: tuple[int, ...] = (
    10_000,
    100_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
    30_000_000_000,
)

#: buckets (nanoseconds) for service round trips: a loopback
#: check-verdict exchange lands in the tens of microseconds, a LAN hop
#: in the hundreds, and a degraded/retrying client can stretch to
#: seconds — the range must resolve all three regimes.
RTT_NS_BUCKETS: tuple[int, ...] = (
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    10_000_000,
    50_000_000,
    250_000_000,
    1_000_000_000,
    5_000_000_000,
)


def _labels_key(labels: Optional[Mapping[str, str]]) -> tuple:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def _render_labels(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _make_cell_class(fields: Sequence[str]) -> type:
    """Build a ``__slots__`` counter cell holding one int per field."""

    fields = tuple(fields)

    def __init__(self, owner=None):
        for f in fields:
            setattr(self, f, 0)
        self.owner = owner

    return type(
        "CounterCell",
        (),
        {"__slots__": fields + ("owner",), "__init__": __init__},
    )


class _Sharded:
    """Per-thread cell sharding with dead-cell folding.

    Subclasses provide ``_new_cell(owner)`` and ``_merge(acc, cell)``;
    the base class owns the thread-local lookup, the registered-cell
    list, and the fold-into-retired discipline.  ``_cells`` is public to
    tests (it mirrors the verifier's ``_shards``): its length stays
    bounded by the number of *live* writer threads.
    """

    def __init__(self) -> None:
        self._cells: list = []
        self._retired = self._new_cell(None)
        self._cells_lock = threading.Lock()
        self._local = threading.local()

    # subclass API ------------------------------------------------------
    def _new_cell(self, owner):  # pragma: no cover - abstract
        raise NotImplementedError

    def _merge(self, acc, cell):  # pragma: no cover - abstract
        raise NotImplementedError

    # sharding ----------------------------------------------------------
    def _cell(self):
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = self._new_cell(threading.current_thread())
            with self._cells_lock:
                self._fold_dead_cells()
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def _fold_dead_cells(self) -> None:
        """Caller holds ``_cells_lock``.  Fold dead threads' cells into
        the retired accumulator so churn cannot leak cells."""
        live = []
        for cell in self._cells:
            owner = cell.owner
            if owner is not None and owner.is_alive():
                live.append(cell)
            else:
                self._merge(self._retired, cell)
        self._cells = live

    def _aggregate(self):
        """Fold + merge everything into a fresh accumulator cell."""
        acc = self._new_cell(None)
        with self._cells_lock:
            self._fold_dead_cells()
            self._merge(acc, self._retired)
            for cell in self._cells:
                self._merge(acc, cell)
        return acc


class CounterGroup(_Sharded):
    """A set of named counters sharing one per-thread cell.

    This is the registry-owned generalisation of the verifier's
    ``_StatsShard``: a component that bumps several counters on the same
    hot path fetches *one* cell per event and does plain attribute
    increments on it::

        events = CounterGroup(("forks", "joins_checked"))
        cell = events.cell()
        cell.forks += 1

    ``totals()`` / ``snapshot()`` aggregate exactly (fold + sum).
    """

    def __init__(self, fields: Iterable[str]) -> None:
        self.fields = tuple(fields)
        self._cell_cls = _make_cell_class(self.fields)
        super().__init__()

    def _new_cell(self, owner):
        return self._cell_cls(owner)

    def _merge(self, acc, cell):
        for f in self.fields:
            setattr(acc, f, getattr(acc, f) + getattr(cell, f))

    def cell(self):
        """The calling thread's private cell (creates + registers once)."""
        return self._cell()

    def totals(self) -> dict:
        acc = self._aggregate()
        return {f: getattr(acc, f) for f in self.fields}

    # uniform snapshot protocol (satellite: one protocol for all stats)
    snapshot = totals


class Counter(CounterGroup):
    """A single monotonically-increasing counter (sharded)."""

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        super().__init__(("value",))
        self.name = name
        self.labels = _labels_key(labels)

    def inc(self, n: int = 1) -> None:
        self._cell().value += n

    @property
    def value(self) -> int:
        return self.totals()["value"]

    def snapshot(self) -> int:  # type: ignore[override]
        return self.value


class Gauge:
    """A point-in-time value: set directly or backed by a callable."""

    def __init__(
        self,
        name: str,
        fn: Optional[Callable[[], float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ):
        self.name = name
        self.labels = _labels_key(labels)
        self._fn = fn
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class _HistCell:
    __slots__ = ("counts", "total", "owner")

    def __init__(self, nbuckets: int, owner=None):
        self.counts = [0] * nbuckets
        self.total = 0
        self.owner = owner


class Histogram(_Sharded):
    """Fixed-bucket histogram with per-thread sharding.

    ``observe`` is the hot path: one ``bisect_right`` (C-level) into the
    bucket bounds plus two int bumps on the thread's private cell.
    Bucket semantics match Prometheus: ``counts[i]`` counts observations
    ``<= bounds[i]``, with a final overflow bucket (``+Inf``).
    """

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = NS_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ):
        self.name = name
        self.labels = _labels_key(labels)
        self.bounds = tuple(sorted(buckets))
        self._nbuckets = len(self.bounds) + 1
        super().__init__()

    def _new_cell(self, owner):
        return _HistCell(self._nbuckets, owner)

    def _merge(self, acc, cell):
        counts = acc.counts
        for i, c in enumerate(cell.counts):
            counts[i] += c
        acc.total += cell.total

    def observe(self, value: float) -> None:
        cell = self._cell()
        # bisect_left: a value equal to a bound belongs in that bound's
        # bucket (Prometheus ``le`` semantics)
        cell.counts[bisect_left(self.bounds, value)] += 1
        cell.total += value

    def snapshot(self) -> dict:
        acc = self._aggregate()
        return {
            "buckets": list(self.bounds),
            "counts": list(acc.counts),
            "sum": acc.total,
            "count": sum(acc.counts),
        }

    @property
    def count(self) -> int:
        return sum(self._aggregate().counts)


class MetricsRegistry:
    """Thread-safe registry of instruments plus external stat sources.

    Instruments are created (or fetched — identical name+labels returns
    the same object, so concurrent components share one sharded
    instrument) via :meth:`counter` / :meth:`gauge` / :meth:`histogram`.

    Pre-existing stats surfaces — ``VerifierStats``, ``ArmusStats`` and
    runtime counters — plug in through :meth:`add_source`: a prefix
    plus a zero-arg callable returning a flat ``{field: number}`` dict
    (the uniform ``snapshot()`` protocol).
    Bound methods are held via :class:`weakref.WeakMethod`, so a
    registered verifier or runtime stays collectable; values from
    same-prefix sources are summed, so a registry spanning several
    runtimes reports process-wide totals.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._sources: list = []  # (prefix, ref_or_fn, is_weak)

    # instrument factories ---------------------------------------------
    def counter(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Counter:
        key = (name, _labels_key(labels))
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(name, labels)
        return inst

    def gauge(
        self,
        name: str,
        fn: Optional[Callable[[], float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        key = (name, _labels_key(labels))
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(name, fn, labels)
        return inst

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = NS_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(name, buckets, labels)
        return inst

    # external stat sources --------------------------------------------
    def add_source(self, prefix: str, fn: Callable[[], Mapping[str, float]]) -> None:
        """Register a ``snapshot()``-protocol source under ``prefix``."""
        is_weak = False
        ref: object = fn
        if getattr(fn, "__self__", None) is not None:
            try:
                ref = weakref.WeakMethod(fn)
                is_weak = True
            except TypeError:
                ref = fn
        with self._lock:
            self._sources.append((prefix, ref, is_weak))

    def _live_sources(self) -> list:
        """Resolve sources, pruning ones whose owner was collected."""
        with self._lock:
            entries = list(self._sources)
        out, dead = [], []
        for entry in entries:
            prefix, ref, is_weak = entry
            fn = ref() if is_weak else ref
            if fn is None:
                dead.append(entry)
                continue
            out.append((prefix, fn))
        if dead:
            with self._lock:
                self._sources = [e for e in self._sources if e not in dead]
        return out

    # snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """A point-in-time copy of every instrument and source."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        snap: dict = {"counters": {}, "gauges": {}, "histograms": {}, "sources": {}}
        for c in counters:
            snap["counters"][c.name + _render_labels(c.labels)] = c.value
        for g in gauges:
            snap["gauges"][g.name + _render_labels(g.labels)] = g.value
        for h in histograms:
            snap["histograms"][h.name + _render_labels(h.labels)] = h.snapshot()
        for prefix, fn in self._live_sources():
            bucket = snap["sources"].setdefault(prefix, {})
            for field, value in dict(fn()).items():
                bucket[field] = bucket.get(field, 0) + value
        return snap

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format
        (see :func:`snapshot_to_prometheus`)."""
        return snapshot_to_prometheus(self.snapshot())


# ----------------------------------------------------------------------
# fleet aggregation over snapshots
# ----------------------------------------------------------------------
# The multi-process runtime ships whole registry *snapshots* home (a
# worker's live instruments cannot cross a process boundary), so the
# fleet view works on rendered snapshots: re-label each worker's series
# (``label_snapshot``), then fold the fleet into one merged snapshot
# (``merge_snapshots``) the existing renderers accept.  The fold is
# exact — plain sums of counters and element-wise histogram counts —
# and a dead worker's *last* snapshot keeps contributing, mirroring the
# dead-thread retired-cell rule above at process granularity.
def _parse_series(name: str) -> tuple[str, tuple]:
    """Split a rendered ``name{k="v",...}`` back into (name, labels)."""
    if not name.endswith("}") or "{" not in name:
        return name, ()
    base, _, inner = name.partition("{")
    labels = []
    for part in inner[:-1].split(","):
        if not part:
            continue
        k, _, v = part.partition("=")
        labels.append((k, v.strip('"')))
    return base, tuple(labels)


def _relabel(name: str, extra: Mapping[str, str]) -> str:
    base, labels = _parse_series(name)
    merged = dict(labels)
    merged.update(extra)
    return base + _render_labels(_labels_key(merged))


def label_snapshot(snap: Mapping, **labels: str) -> dict:
    """A copy of *snap* with *labels* injected into every series name.

    Source prefixes get the labels too (``verifier{worker="3"}``), so a
    merged fleet snapshot keeps per-worker sources distinguishable.
    """
    strs = {k: str(v) for k, v in labels.items()}
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}, "sources": {}}
    for name, value in snap.get("counters", {}).items():
        out["counters"][_relabel(name, strs)] = value
    for name, value in snap.get("gauges", {}).items():
        out["gauges"][_relabel(name, strs)] = value
    for name, hist in snap.get("histograms", {}).items():
        out["histograms"][_relabel(name, strs)] = {
            "buckets": list(hist["buckets"]),
            "counts": list(hist["counts"]),
            "sum": hist["sum"],
            "count": hist["count"],
        }
    for prefix, fields in snap.get("sources", {}).items():
        out["sources"][_relabel(prefix, strs)] = dict(fields)
    return out


def merge_snapshots(snaps: Iterable[Mapping]) -> dict:
    """Fold registry snapshots into one: exact sums, no sampling.

    Counters and gauges sum; histograms with identical bucket bounds
    merge element-wise (sum and count included); same-prefix sources
    sum field-wise — the cross-process analogue of the registry's
    same-prefix source summing.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}, "sources": {}}
    for snap in snaps:
        for name, value in snap.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            out["gauges"][name] = out["gauges"].get(name, 0) + value
        for name, hist in snap.get("histograms", {}).items():
            acc = out["histograms"].get(name)
            if acc is None or list(acc["buckets"]) != list(hist["buckets"]):
                out["histograms"][name] = {
                    "buckets": list(hist["buckets"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
                continue
            acc["counts"] = [a + b for a, b in zip(acc["counts"], hist["counts"])]
            acc["sum"] += hist["sum"]
            acc["count"] += hist["count"]
        for prefix, fields in snap.get("sources", {}).items():
            bucket = out["sources"].setdefault(prefix, {})
            for field, value in fields.items():
                bucket[field] = bucket.get(field, 0) + value
    return out


def snapshot_to_prometheus(snap: Mapping) -> str:
    """Render a registry snapshot as Prometheus text.

    Counters and gauges map directly; histograms follow the cumulative
    ``_bucket{le=}`` convention; source fields export as gauges named
    ``<prefix>_<field>``.  The type line is emitted once per metric
    family even when the snapshot holds several labelled series of it.
    A live registry and a merged fleet snapshot render through here
    alike.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def _type_line(name: str, kind: str) -> None:
        base, _ = _parse_series(name)
        if base not in typed:
            typed.add(base)
            lines.append(f"# TYPE {base} {kind}")

    for name, value in sorted(snap.get("counters", {}).items()):
        _type_line(name, "counter")
        lines.append(f"{name} {value}")
    for name, value in sorted(snap.get("gauges", {}).items()):
        _type_line(name, "gauge")
        lines.append(f"{name} {value}")
    for name, hist in sorted(snap.get("histograms", {}).items()):
        base, labels = _parse_series(name)
        _type_line(name, "histogram")
        base_labels = dict(labels)
        cum = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cum += count
            le = _render_labels(_labels_key({**base_labels, "le": str(bound)}))
            lines.append(f"{base}_bucket{le} {cum}")
        cum += hist["counts"][-1]
        inf = _render_labels(_labels_key({**base_labels, "le": "+Inf"}))
        lines.append(f"{base}_bucket{inf} {cum}")
        suffix = _render_labels(tuple(labels))
        lines.append(f"{base}_sum{suffix} {hist['sum']}")
        lines.append(f"{base}_count{suffix} {hist['count']}")
    for prefix, fields in sorted(snap.get("sources", {}).items()):
        base, labels = _parse_series(prefix)
        suffix = _render_labels(tuple(labels))
        for field, value in sorted(fields.items()):
            name = f"{base}_{field}"
            _type_line(name, "gauge")
            lines.append(f"{name}{suffix} {value}")
    return "\n".join(lines) + "\n"
