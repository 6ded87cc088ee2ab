"""Counters, gauges, and fixed-bucket histograms with a process-global registry.

Metrics are *always on*: recording is an attribute add on a plain Python
object, cheap enough that the hot kernels (one observation per MSM or FFT
call, never per row) carry no disable switch.  Only tracing spans — which
allocate and keep records — are gated behind :func:`repro.telemetry.enable`.

:meth:`MetricsRegistry.delta_since` reports what changed since a
:meth:`~MetricsRegistry.snapshot`, so a caller can charge the metrics of
one operation to it.
"""

import threading
from bisect import bisect_left

#: default histogram bucket upper bounds: powers of two, enough to cover
#: constraint counts, MSM sizes, and FFT domains up to the field's 2-adicity
DEFAULT_BUCKETS = tuple(1 << i for i in range(0, 29, 2))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def reset(self):
        self.value = 0

    def snapshot(self):
        return self.value

    def __repr__(self):
        return "Counter(%s=%d)" % (self.name, self.value)


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount

    def reset(self):
        self.value = 0

    def snapshot(self):
        return self.value

    def __repr__(self):
        return "Gauge(%s=%r)" % (self.name, self.value)


class Histogram:
    """Fixed-bucket histogram: counts per bucket plus count/sum/min/max.

    ``bounds`` are inclusive upper bounds; one overflow bucket catches
    everything above the last bound.  Buckets are fixed at construction so
    snapshots and deltas are plain lists that subtract elementwise.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name, bounds=DEFAULT_BUCKETS):
        self.name = name
        self.bounds = tuple(sorted(bounds))
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def observe(self, value):
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def reset(self):
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.counts),
            "bounds": list(self.bounds),
        }

    def __repr__(self):
        return "Histogram(%s, n=%d)" % (self.name, self.count)


class MetricsRegistry:
    """Name -> metric, memoized; the process has one (:data:`REGISTRY`)."""

    def __init__(self):
        self._metrics = {}
        self._lock = threading.Lock()

    def _get(self, name, cls, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    "metric %r already registered as %s" % (name, metric.kind)
                )
            return metric

    def counter(self, name):
        return self._get(name, Counter)

    def gauge(self, name):
        return self._get(name, Gauge)

    def histogram(self, name, bounds=DEFAULT_BUCKETS):
        return self._get(name, Histogram, bounds)

    def names(self):
        return sorted(self._metrics)

    def get(self, name):
        return self._metrics.get(name)

    def snapshot(self):
        """name -> snapshot value, sorted by name (JSON-serializable)."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def reset(self):
        """Zero every metric in place (registered objects stay valid)."""
        for metric in self._metrics.values():
            metric.reset()

    # -- deltas ----------------------------------------------------------------

    def delta_since(self, before):
        """What changed since a :meth:`snapshot`; {} when nothing did.

        Counters and histogram counts subtract; histogram min/max report
        the current values; gauges report the new value only when it
        changed.
        """
        delta = {}
        for name, metric in self._metrics.items():
            prev = before.get(name)
            if metric.kind == "counter":
                base = prev if prev is not None else 0
                if metric.value != base:
                    delta[name] = ("counter", metric.value - base)
            elif metric.kind == "gauge":
                if prev is None or metric.value != prev:
                    delta[name] = ("gauge", metric.value)
            else:
                base_counts = prev["buckets"] if prev else [0] * len(metric.counts)
                base_count = prev["count"] if prev else 0
                base_sum = prev["sum"] if prev else 0
                if metric.count != base_count:
                    delta[name] = (
                        "histogram",
                        {
                            "buckets": [
                                c - b for c, b in zip(metric.counts, base_counts)
                            ],
                            "count": metric.count - base_count,
                            "sum": metric.total - base_sum,
                            "min": metric.min,
                            "max": metric.max,
                            "bounds": list(metric.bounds),
                        },
                    )
        return delta


#: the process-global registry every instrumented module records into
REGISTRY = MetricsRegistry()


def counter(name):
    return REGISTRY.counter(name)


def gauge(name):
    return REGISTRY.gauge(name)


def histogram(name, bounds=DEFAULT_BUCKETS):
    return REGISTRY.histogram(name, bounds)


def snapshot():
    return REGISTRY.snapshot()


def reset():
    REGISTRY.reset()
