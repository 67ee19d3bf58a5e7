"""Thread-safe metrics primitives: counters, gauges, log2 histograms.

BSRNG's entire claim is throughput, so the reproduction needs first-class
runtime accounting — not ad-hoc ``perf_counter`` loops.  This module is
the storage layer: a :class:`MetricsRegistry` holds named, labelled
metric instruments and can snapshot itself to a plain-dict form that is
picklable (spawn-context safe), JSON-serialisable, and *mergeable* — a
worker process snapshots its local registry, ships the dict back through
the pool result, and the parent folds it in with a ``partition`` label.

Three instrument kinds, deliberately Prometheus-shaped:

* :class:`Counter` — monotonically increasing total.
* :class:`Gauge` — last-written value (engine gate totals, lane counts).
* :class:`Histogram` — streaming distribution over **fixed log2
  buckets**: one bucket per binary exponent, so ``observe`` is O(1),
  memory is bounded by the value range's exponent span, and merging two
  histograms is exact (bucket-wise addition).  Exposed to Prometheus as
  a cumulative histogram with ``le = 2**(e+1)`` bucket bounds.

Locking discipline: all instruments created by one registry share that
registry's lock.  Increments take the lock.  Metric updates happen at
refill, partition or request granularity, never per byte.  The busiest
caller is the serve daemon: a few updates per request, several thousand
per second, on instruments it binds once, so no update pays a registry
lookup.  The *disabled* fast path in :mod:`repro.obs` never reaches
this module at all.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator

from repro.errors import SpecificationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log2_bucket",
    "SNAPSHOT_VERSION",
]

#: Version stamp written into every snapshot (forward-compat guard).
SNAPSHOT_VERSION = 1

#: Snapshot key for values <= 0, which have no binary exponent.
_UNDERFLOW = "underflow"


def log2_bucket(value: float) -> int | None:
    """Fixed log2 bucket index: ``e`` such that ``2**e <= value < 2**(e+1)``.

    Returns ``None`` for non-positive values (the underflow bucket).
    """
    if value <= 0:
        return None
    # frexp: value = m * 2**exp with m in [0.5, 1) → exponent is exp - 1
    return math.frexp(value)[1] - 1


class _Instrument:
    """Shared plumbing: identity (name + sorted label pairs) and the lock."""

    __slots__ = ("name", "labels", "_lock")

    def __init__(self, name: str, labels: dict[str, str], lock: threading.RLock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock

    def label_str(self) -> str:
        """Canonical ``{k="v",...}`` rendering (empty string when unlabelled)."""
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in sorted(self.labels.items()))
        return "{" + inner + "}"


class Counter(_Instrument):
    """Monotonically increasing total."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: dict[str, str], lock: threading.RLock) -> None:
        super().__init__(name, labels, lock)
        self._value = 0

    def inc(self, n: int | float = 1) -> None:
        """Add *n* (must be non-negative: counters only go up)."""
        if n < 0:
            raise SpecificationError("counters are monotonic; inc() needs n >= 0")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int | float:
        """Current total."""
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """Last-written value (set semantics, not accumulate)."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: dict[str, str], lock: threading.RLock) -> None:
        super().__init__(name, labels, lock)
        self._value = 0.0

    def set(self, v: int | float) -> None:
        """Overwrite the gauge."""
        with self._lock:
            self._value = v

    @property
    def value(self) -> int | float:
        """Current value."""
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Streaming histogram over fixed log2 buckets."""

    __slots__ = ("_buckets", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, labels: dict[str, str], lock: threading.RLock) -> None:
        super().__init__(name, labels, lock)
        self._buckets: dict[int | None, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: int | float) -> None:
        """Record one sample."""
        b = log2_bucket(value)
        with self._lock:
            self._buckets[b] = self._buckets.get(b, 0) + 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Samples observed."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed samples."""
        with self._lock:
            return self._sum

    def state(self) -> dict:
        """Plain-dict form (bucket keys stringified for JSON)."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": None if self._count == 0 else self._min,
                "max": None if self._count == 0 else self._max,
                "buckets": {
                    (_UNDERFLOW if k is None else str(k)): v
                    for k, v in sorted(
                        self._buckets.items(), key=lambda kv: (-math.inf if kv[0] is None else kv[0])
                    )
                },
            }

    def _merge_state(self, state: dict) -> None:
        with self._lock:
            self._count += int(state["count"])
            self._sum += float(state["sum"])
            if state.get("min") is not None and state["min"] < self._min:
                self._min = state["min"]
            if state.get("max") is not None and state["max"] > self._max:
                self._max = state["max"]
            for key, n in state.get("buckets", {}).items():
                b = None if key == _UNDERFLOW else int(key)
                self._buckets[b] = self._buckets.get(b, 0) + int(n)


def _labels_key(labels: dict) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named, labelled metric instruments with snapshot/merge semantics.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the same
    ``(name, labels)`` pair always yields the same instrument, so call
    sites never hold references across reconfiguration.  A name is bound
    to exactly one instrument kind; mixing kinds raises.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[tuple[str, str, tuple], _Instrument] = {}
        self._kinds: dict[str, str] = {}  # name -> the kind it is bound to

    def _get(self, kind: str, cls, name: str, labels: dict) -> _Instrument:
        if not name:
            raise SpecificationError("metric name must be non-empty")
        # an unlabelled instrument (most of the fleet's per-chunk
        # counters) skips building a sorted label key
        key = (kind, name, _labels_key(labels) if labels else ())
        with self._lock:
            inst = self._metrics.get(key)
            if inst is None:
                # the kind check runs once per new instrument, not per lookup
                bound = self._kinds.setdefault(name, kind)
                if bound != kind:
                    raise SpecificationError(f"metric {name!r} already registered as a {bound}")
                inst = cls(name, {str(k): str(v) for k, v in labels.items()}, self._lock)
                self._metrics[key] = inst
            return inst

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter."""
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create a gauge."""
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create a histogram."""
        return self._get("histogram", Histogram, name, labels)

    def clear(self) -> None:
        """Drop every instrument."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def instruments(self) -> Iterator[tuple[str, _Instrument]]:
        """Iterate ``(kind, instrument)`` over a consistent snapshot."""
        with self._lock:
            items = list(self._metrics.items())
        for (kind, _, _), inst in items:
            yield kind, inst

    # -- snapshot / merge --------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict, picklable, JSON-serialisable state of every metric.

        This is the wire format workers ship back through the pool result
        and the format ``--metrics-out`` writes; :meth:`merge` consumes
        it on the other side.
        """
        out: dict = {"version": SNAPSHOT_VERSION, "metrics": []}
        for kind, inst in self.instruments():
            entry: dict = {"type": kind, "name": inst.name, "labels": dict(inst.labels)}
            if kind == "histogram":
                entry.update(inst.state())  # type: ignore[union-attr]
            else:
                entry["value"] = inst.value  # type: ignore[union-attr]
            out["metrics"].append(entry)
        return out

    def drain(self) -> dict:
        """:meth:`snapshot`, then :meth:`clear`, atomically: the delta
        since the last drain (a fleet member ships one per heartbeat)."""
        with self._lock:
            snap = self.snapshot()
            self.clear()
        return snap

    def merge(self, snapshot: dict, extra_labels: dict | None = None) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histograms accumulate; gauges take the incoming
        value (last write wins).  ``extra_labels`` are added to every
        merged series — the parent process passes ``partition=<id>`` so
        per-worker metrics stay distinguishable after the merge.
        """
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise SpecificationError(
                f"unsupported metrics snapshot version {snapshot.get('version')!r}"
            )
        extra = {str(k): str(v) for k, v in (extra_labels or {}).items()}
        for entry in snapshot.get("metrics", []):
            labels = {**entry.get("labels", {}), **extra}
            kind = entry["type"]
            if kind == "counter":
                self.counter(entry["name"], **labels).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(entry["name"], **labels).set(entry["value"])
            elif kind == "histogram":
                self.histogram(entry["name"], **labels)._merge_state(entry)
            else:
                raise SpecificationError(f"unknown metric type {kind!r} in snapshot")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self)} instruments)"
