"""A lightweight metrics registry for the allocation-serving engine.

Counters (monotonic), gauges (last value) and timing histograms with a
bounded reservoir, all without any external dependency.  Instruments are
created on first use and may carry **labels** (Prometheus-style
key/value dimensions)::

    registry.counter("solve", mode="optimal").increment()
    registry.histogram("latency", reservoir_size=4096).observe(dt)

Exposition comes in two formats: :meth:`MetricsRegistry.snapshot` (one
plain JSON-serializable dict; labeled instruments render as
``name{key="value"}`` keys) and
:meth:`MetricsRegistry.expose_prometheus` (Prometheus text format v0;
histograms with configured ``buckets`` expose cumulative ``_bucket``
series, reservoir-only histograms expose quantile summaries).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.lockgraph import monitored_lock
from ..errors import ConfigurationError

#: A canonicalized label set: sorted (key, value-as-string) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def _label_set(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelSet) -> str:
    """``name`` or ``name{k="v",...}`` for snapshot/exposition keys."""
    if not labels:
        return name
    rendered = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing counter."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = monitored_lock("metrics.counter")

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value (e.g. current cache size)."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = monitored_lock("metrics.gauge")

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Streaming summary of observations with a bounded reservoir.

    Count/sum/min/max are exact over the full stream; percentiles are
    computed over the most recent *reservoir_size* observations.  With
    *buckets* (a sorted sequence of upper bounds) the histogram also
    keeps exact cumulative bucket counts, which is what the Prometheus
    exposition prefers over reservoir quantiles.
    """

    def __init__(
        self,
        reservoir_size: int = 1024,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if reservoir_size < 1:
            raise ConfigurationError(
                f"reservoir size must be >= 1, got {reservoir_size}"
            )
        self.reservoir_size = int(reservoir_size)
        if buckets is not None:
            bounds = tuple(float(b) for b in buckets)
            if not bounds:
                raise ConfigurationError("buckets must be non-empty when given")
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                raise ConfigurationError(
                    f"buckets must be strictly increasing, got {bounds}"
                )
            self.buckets: Optional[Tuple[float, ...]] = bounds
            # One slot per finite bound plus the +Inf overflow slot.
            self._bucket_counts: Optional[List[int]] = [0] * (len(bounds) + 1)
            self._exemplars: Optional[List[Optional[Tuple[str, float]]]] = [
                None
            ] * (len(bounds) + 1)
        else:
            self.buckets = None
            self._bucket_counts = None
            self._exemplars = None
        self._recent: Deque[float] = deque(maxlen=self.reservoir_size)
        self._lock = monitored_lock("metrics.histogram")
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        """Record *value*, optionally tagging its bucket with an exemplar.

        *exemplar* is an opaque reference (in practice a trace ID) that
        links this observation back to its originating request; the
        histogram keeps the most recent exemplar per bucket slot, so a
        tail bucket always points at a *real* slow request.  Exemplars
        require configured ``buckets`` and are ignored otherwise; they
        never alter the statistical state, so passing ``None``
        everywhere is bit-identical to the pre-exemplar histogram.
        """
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.minimum = min(self.minimum, value)
            self.maximum = max(self.maximum, value)
            self._recent.append(value)
            if self._bucket_counts is not None:
                slot = bisect_left(self.buckets, value)
                self._bucket_counts[slot] += 1
                if exemplar is not None and self._exemplars is not None:
                    self._exemplars[slot] = (str(exemplar), value)

    @property
    def mean(self) -> float:
        """The exact mean over the full stream.

        Raises :class:`ConfigurationError` on an empty histogram -- the
        mean of zero observations is undefined, and silently returning
        0.0 hid empty-reservoir bugs in report code.
        """
        with self._lock:
            if not self.count:
                raise ConfigurationError(
                    "mean of an empty histogram is undefined"
                )
            return self.total / self.count

    @staticmethod
    def _percentile(reservoir: "List[float]", q: float) -> float:
        return float(np.percentile(np.asarray(reservoir, dtype=float), q))

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0-100) of the recent reservoir.

        Raises :class:`ConfigurationError` when the reservoir is empty:
        a percentile over zero observations is undefined, and the old
        0.0 sentinel was indistinguishable from a real zero latency.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        # Copy under the lock, compute outside it: numpy percentile math
        # in the critical section would serialize every observe() caller
        # behind it (rule R2 -- the PR 3 snapshot bug, one level down).
        with self._lock:
            recent = list(self._recent)
        if not recent:
            raise ConfigurationError(
                "percentile of an empty histogram is undefined"
            )
        return self._percentile(recent, q)

    def bucket_counts(self) -> Optional[List[int]]:
        """Cumulative counts per bucket bound (+Inf last), or None."""
        with self._lock:
            if self._bucket_counts is None:
                return None
            cumulative: List[int] = []
            running = 0
            for count in self._bucket_counts:
                running += count
                cumulative.append(running)
            return cumulative

    def exemplars(self) -> Optional[Dict[float, Tuple[str, float]]]:
        """Latest ``(exemplar, value)`` per bucket bound, or None.

        Keys are bucket upper bounds (``inf`` for the overflow slot);
        buckets that never saw an exemplar-tagged observation are
        omitted.  Deliberately *not* part of :meth:`as_dict` -- snapshot
        consumers that predate exemplars stay bit-identical.
        """
        with self._lock:
            if self._exemplars is None or self.buckets is None:
                return None
            bounds = [*self.buckets, float("inf")]
            return {
                bound: entry
                for bound, entry in zip(bounds, self._exemplars)
                if entry is not None
            }

    def as_dict(self) -> dict:
        # One lock acquisition copies the whole state -- count/mean/min/
        # max, the reservoir and the bucket counts all come from the
        # same instant, so a snapshot taken mid-``observe`` never mixes
        # pre- and post-update state.  The numpy percentile math then
        # runs on the copies *outside* the lock (rule R2): observe()
        # callers never wait behind it.
        with self._lock:
            count = self.count
            if count == 0:
                return {"count": 0}
            total = self.total
            minimum = self.minimum
            maximum = self.maximum
            recent = list(self._recent)
            bucket_counts = (
                list(self._bucket_counts)
                if self._bucket_counts is not None
                else None
            )
        summary = {
            "count": count,
            "mean": total / count,
            "min": minimum,
            "max": maximum,
            "p50": self._percentile(recent, 50.0),
            "p95": self._percentile(recent, 95.0),
        }
        if bucket_counts is not None:
            running = 0
            cumulative = []
            for bucket_count in bucket_counts:
                running += bucket_count
                cumulative.append(running)
            summary["buckets"] = dict(
                zip(
                    [*map(float, self.buckets or ()), float("inf")],
                    cumulative,
                )
            )
        return summary


#: Default latency buckets [s] for histograms exposed to Prometheus.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


class MetricsRegistry:
    """Named, optionally labeled counters/gauges/histograms.

    Instruments are created on first use, so call sites read as
    ``registry.counter("requests").increment()`` or, with labels,
    ``registry.counter("solve", mode="optimal").increment()``.  Each
    (name, label-set) pair is a distinct instrument; configuration
    (histogram reservoir size, buckets) is fixed at first registration
    and a later conflicting registration raises
    :class:`ConfigurationError` instead of being silently ignored.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
        self._lock = monitored_lock("metrics.registry")

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_set(labels))
        with self._lock:
            return self._counters.setdefault(key, Counter())

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_set(labels))
        with self._lock:
            return self._gauges.setdefault(key, Gauge())

    def histogram(
        self,
        name: str,
        reservoir_size: Optional[int] = None,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        """The named histogram, created on first use.

        ``reservoir_size`` and ``buckets`` configure the instrument at
        first registration; passing a value that conflicts with the
        existing instrument's configuration raises
        :class:`ConfigurationError`.  Omitting them (None) accepts
        whatever configuration the instrument already has.
        """
        key = (name, _label_set(labels))
        requested_buckets = (
            tuple(float(b) for b in buckets) if buckets is not None else None
        )
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = Histogram(
                    reservoir_size=(
                        reservoir_size if reservoir_size is not None else 1024
                    ),
                    buckets=requested_buckets,
                )
                self._histograms[key] = histogram
                return histogram
        if (
            reservoir_size is not None
            and reservoir_size != histogram.reservoir_size
        ):
            raise ConfigurationError(
                f"histogram {_render_key(name, key[1])!r} is registered with "
                f"reservoir_size={histogram.reservoir_size}; conflicting "
                f"re-registration with reservoir_size={reservoir_size}"
            )
        if requested_buckets is not None and requested_buckets != histogram.buckets:
            raise ConfigurationError(
                f"histogram {_render_key(name, key[1])!r} is registered with "
                f"buckets={histogram.buckets}; conflicting re-registration "
                f"with buckets={requested_buckets}"
            )
        return histogram

    def _instruments(
        self,
    ) -> Tuple[
        Dict[Tuple[str, LabelSet], Counter],
        Dict[Tuple[str, LabelSet], Gauge],
        Dict[Tuple[str, LabelSet], Histogram],
    ]:
        # Copy the instrument maps under the registry lock, then read
        # values *outside* it: computing numpy percentiles for every
        # histogram while holding the lock would block every
        # counter()/gauge()/histogram() caller behind percentile math.
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                dict(self._histograms),
            )

    def snapshot(self) -> dict:
        """All instruments as one JSON-serializable dict.

        Unlabeled instruments keep their plain names; labeled ones
        render as ``name{key="value",...}``.  Individual instruments
        are internally consistent (each holds its own lock for the
        read); the registry lock is held only to copy references.
        """
        counters, gauges, histograms = self._instruments()
        return {
            "counters": {
                _render_key(name, labels): c.value
                for (name, labels), c in counters.items()
            },
            "gauges": {
                _render_key(name, labels): g.value
                for (name, labels), g in gauges.items()
            },
            # Histograms with zero observations are omitted: an empty
            # reservoir has no percentiles and a `{"count": 0}` stub
            # only invites NaN math downstream.
            "histograms": {
                _render_key(name, labels): stats
                for (name, labels), h in histograms.items()
                if (stats := h.as_dict())["count"]
            },
        }

    def counters_with_prefix(self, prefix: str) -> Dict[str, float]:
        """Counter values whose name starts with *prefix*, rendered keys.

        A cheap read for health polling: it touches only the matching
        counters (one lock each) and never computes histogram
        percentiles, unlike :meth:`snapshot`.  The cluster controller
        calls this from its event loop on every health rollup.
        """
        counters, _, _ = self._instruments()
        return {
            _render_key(name, labels): counter.value
            for (name, labels), counter in counters.items()
            if name.startswith(prefix)
        }

    def histogram_sums(self, name: str) -> Dict[LabelSet, Tuple[int, float]]:
        """``(count, sum)`` of every histogram called *name*, by label set.

        Like :meth:`counters_with_prefix`, a cheap read: each pair comes
        from one locked read of its histogram, and no percentile is
        computed.
        """
        _, _, histograms = self._instruments()
        sums: Dict[LabelSet, Tuple[int, float]] = {}
        for (instrument, labels), histogram in histograms.items():
            if instrument == name:
                with histogram._lock:
                    sums[labels] = (histogram.count, histogram.total)
        return sums

    # -- Prometheus text exposition -------------------------------------

    def expose_prometheus(
        self,
        prefix: str = "",
        extra_labels: Optional[Dict[str, str]] = None,
        exemplars: bool = False,
    ) -> str:
        """The registry in Prometheus text exposition format.

        Metric names are sanitized (``.`` and other invalid characters
        become ``_``) and optionally prefixed.  Counters expose
        ``_total`` series, histograms with configured buckets expose
        cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``,
        and reservoir-only histograms expose ``{quantile=...}``
        summaries.  *extra_labels* (e.g. ``{"shard": "shard-0"}``) are
        merged into every series.  With ``exemplars=True``, bucket
        series carry OpenMetrics-style ``# {trace_id="..."} value``
        exemplar suffixes where available; the default exposition is
        byte-identical to the pre-exemplar format.
        """
        counters, gauges, histograms = self._instruments()
        extra = _label_set(extra_labels or {})
        return _render_exposition(
            _with_extra_labels(counters, extra),
            _with_extra_labels(gauges, extra),
            _with_extra_labels(histograms, extra),
            prefix,
            exemplars=exemplars,
        )


def _with_extra_labels(
    instruments: Dict[Tuple[str, LabelSet], Any], extra: LabelSet
) -> Dict[Tuple[str, LabelSet], Any]:
    """Instrument map re-keyed with *extra* merged into every label set."""
    if not extra:
        return instruments
    return {
        (name, tuple(sorted((*labels, *extra)))): instrument
        for (name, labels), instrument in instruments.items()
    }


def merged_prometheus(
    registries: Dict[str, MetricsRegistry],
    prefix: str = "",
    label: str = "shard",
    exemplars: bool = False,
) -> str:
    """Several registries as one Prometheus exposition, labeled apart.

    The cluster controller owns one :class:`MetricsRegistry` per shard
    (plus its own); this merges them into a single exposition where
    every series carries ``{label="<key>"}``, with each metric family
    emitted as one contiguous group (interleaving families per shard
    would violate the text-format grouping requirement).
    """
    counters: Dict[Tuple[str, LabelSet], Counter] = {}
    gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
    histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
    for key, registry in registries.items():
        extra = _label_set({label: key})
        shard_counters, shard_gauges, shard_histograms = registry._instruments()
        counters.update(_with_extra_labels(shard_counters, extra))
        gauges.update(_with_extra_labels(shard_gauges, extra))
        histograms.update(_with_extra_labels(shard_histograms, extra))
    return _render_exposition(
        counters, gauges, histograms, prefix, exemplars=exemplars
    )


def _render_exposition(
    counters: Dict[Tuple[str, LabelSet], Counter],
    gauges: Dict[Tuple[str, LabelSet], Gauge],
    histograms: Dict[Tuple[str, LabelSet], Histogram],
    prefix: str,
    exemplars: bool = False,
) -> str:
    lines: List[str] = []

    for (name, labels), counter in sorted(counters.items()):
        metric = _prom_name(prefix, name) + "_total"
        _prom_header(lines, metric, "counter")
        lines.append(f"{metric}{_prom_labels(labels)} {_prom_value(counter.value)}")

    for (name, labels), gauge in sorted(gauges.items()):
        metric = _prom_name(prefix, name)
        _prom_header(lines, metric, "gauge")
        lines.append(f"{metric}{_prom_labels(labels)} {_prom_value(gauge.value)}")

    for (name, labels), histogram in sorted(histograms.items()):
        metric = _prom_name(prefix, name)
        stats = histogram.as_dict()
        count = stats.get("count", 0)
        if not count:
            # Never-observed histograms expose no series at all: a
            # zero-quantile summary reads as "p95 was 0 s", not "no data".
            continue
        total = count * stats.get("mean", 0.0)
        # Bucket counts come from the same locked as_dict() read as
        # sum/count, so the exposed family is internally consistent.
        bucket_counts = stats.get("buckets")
        if bucket_counts is None and histogram.buckets is not None:
            bucket_counts = dict(
                zip(
                    [*map(float, histogram.buckets), float("inf")],
                    histogram.bucket_counts() or [],
                )
            )
        if bucket_counts is not None:
            bucket_exemplars = (
                histogram.exemplars() if exemplars else None
            ) or {}
            _prom_header(lines, metric, "histogram")
            for bound, cumulative in bucket_counts.items():
                le = "+Inf" if bound == float("inf") else _prom_value(bound)
                suffix = ""
                entry = bucket_exemplars.get(bound)
                if entry is not None:
                    ref, observed = entry
                    suffix = (
                        f' # {{trace_id="{_prom_escape(ref)}"}} '
                        f"{_prom_value(observed)}"
                    )
                lines.append(
                    f"{metric}_bucket"
                    f"{_prom_labels(labels, ('le', le))} {cumulative}{suffix}"
                )
        else:
            _prom_header(lines, metric, "summary")
            for q, key in ((0.5, "p50"), (0.95, "p95")):
                lines.append(
                    f"{metric}{_prom_labels(labels, ('quantile', str(q)))} "
                    f"{_prom_value(stats.get(key, 0.0))}"
                )
        lines.append(f"{metric}_sum{_prom_labels(labels)} {_prom_value(total)}")
        lines.append(f"{metric}_count{_prom_labels(labels)} {count}")

    return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(prefix: str, name: str) -> str:
    """A Prometheus-legal metric name (invalid characters become _)."""
    sanitized = "".join(
        c if c.isalnum() or c == "_" else "_" for c in f"{prefix}{name}"
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_labels(labels: LabelSet, *extra: Tuple[str, str]) -> str:
    pairs = [*labels, *extra]
    if not pairs:
        return ""
    rendered = ",".join(
        f'{_prom_name("", k)}="{_prom_escape(v)}"' for k, v in pairs
    )
    return f"{{{rendered}}}"


def _prom_escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_value(value: float) -> str:
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    rendered = repr(value)
    return rendered


_SEEN_HEADERS_SENTINEL = "# TYPE "


def _prom_header(lines: List[str], metric: str, kind: str) -> None:
    """Emit a TYPE header once per metric family."""
    header = f"{_SEEN_HEADERS_SENTINEL}{metric} {kind}"
    if header not in lines:
        lines.append(header)
