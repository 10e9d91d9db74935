"""Process-wide metrics: counters, gauges, streaming-quantile histograms.

The registry is the thread-safe aggregation point for every ad-hoc counter
that used to live on individual objects (`ScenarioService` stats,
`MuxRouter` per-pair stats, client byte counts).  Design constraints:

- **hot-path cheap** — a counter increment is one lock acquire and one
  float add; a histogram observation is a bisect into precomputed
  geometric bucket bounds plus five scalar updates.  Call sites cache the
  metric handle (``registry.counter(name)`` is get-or-create) so the
  registry lookup is paid once, not per event.
- **thread-safe by construction** — every metric owns its own lock; there
  is no way to mutate a value outside it.  Concurrent increments from any
  number of threads sum exactly (regression-tested).
- **streaming quantiles** — histograms keep geometric buckets (factor-2
  spacing from 1 ns to ~18 s and beyond), so p50/p90/p99 are available at
  any time without retaining samples.  Exact count/sum/min/max ride along.
"""

from __future__ import annotations

import threading
from bisect import bisect_right

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels,
            "value": self.value,
        }


class Gauge:
    """Last-write-wins instantaneous value."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, v: float) -> None:
        with self._lock:
            self._value = float(v)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels,
            "value": self.value,
        }


#: geometric bucket upper bounds: factor-2 spacing covering 1 ns .. ~1.8e10
#: (seconds-oriented, but unit-agnostic: anything outside lands in the
#: first / last bucket and min/max stay exact).
_BOUNDS = tuple(1e-9 * 2.0**i for i in range(64))


class Histogram:
    """Streaming-quantile histogram over geometric buckets.

    ``observe`` is O(log n_buckets); ``quantile`` interpolates inside the
    selected bucket and clamps to the exact observed min/max, so small
    sample counts do not report values never seen.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "_lock", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._counts = [0] * (len(_BOUNDS) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, v: float) -> None:
        v = float(v)
        idx = bisect_right(_BOUNDS, v)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def count_below(self, v: float) -> int:
        """Observations known to be ``<= v`` — the SLO engine's "good
        within threshold" counter.  Bucket-resolution and pessimistic:
        the bucket straddling ``v`` counts as *above* the threshold, so a
        latency SLO can under-report compliance by at most one bucket,
        never over-report it."""
        idx = bisect_right(_BOUNDS, v)
        with self._lock:
            return sum(self._counts[:idx])

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q * self._count
            cum = 0
            for idx, c in enumerate(self._counts):
                cum += c
                if cum >= target and c:
                    lo = _BOUNDS[idx - 1] if idx > 0 else 0.0
                    hi = _BOUNDS[idx] if idx < len(_BOUNDS) else self._max
                    frac = (target - (cum - c)) / c
                    est = lo + (hi - lo) * frac
                    return min(max(est, self._min), self._max)
            return self._max

    def snapshot(self) -> dict:
        with self._lock:
            count, total = self._count, self._sum
            vmin = self._min if count else 0.0
            vmax = self._max if count else 0.0
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels,
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": vmin,
            "max": vmax,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Metrics are keyed by ``(name, sorted labels)``; asking for an existing
    name with a different metric kind raises, so one name cannot silently
    hold two shapes.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple, object] = {}

    def _get(self, cls, name: str, labels: dict):
        key = (name, _label_key(labels))
        with self._lock:
            m = self._metrics.get(key)
            if m is None:
                m = cls(name, labels)
                self._metrics[key] = m
            elif not isinstance(m, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {m.kind}, "
                    f"not {cls.kind}"
                )
            return m

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def collect(self) -> list[dict]:
        """Snapshot every metric, sorted by (name, labels)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return [m.snapshot() for _, m in metrics]

    def get(self, name: str, **labels):
        """Existing metric or ``None`` (no creation)."""
        with self._lock:
            return self._metrics.get((name, _label_key(labels)))

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
