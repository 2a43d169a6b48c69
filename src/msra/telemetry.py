"""In-memory time-series store for metric samples with sliding-window aggregation.

Samples are recorded per (service, metric) series, tolerate out-of-order
ingestion, and are sorted lazily on read. Windows are half-open ``(now - W, now]``
so a sample is counted by exactly one window boundary.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from statistics import fmean

from .errors import ConfigurationError, SchemaViolation

DEFAULT_METRICS = ("response_time", "failure", "cpu_usage", "cpu_alloc")

AGGREGATIONS = ("fraction_within_deadline", "fraction_true", "mean", "p95", "max")


@dataclass(frozen=True)
class MetricSample:
    timestamp: float
    service: str
    metric: str
    value: float


@dataclass(frozen=True)
class MetricWindow:
    """Window query: which metric, how far back, and how to reduce it."""

    metric: str
    window_length: float
    aggregation: str
    deadline: float | None = None  # fraction_within_deadline only

    def __post_init__(self):
        if self.window_length <= 0:
            raise ConfigurationError("window_length must be positive")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigurationError(f"unknown aggregation {self.aggregation!r}")
        if self.aggregation == "fraction_within_deadline" and (
            self.deadline is None or self.deadline <= 0
        ):
            raise ConfigurationError("fraction_within_deadline requires a positive deadline")


class MetricStore:
    """Single-writer sample store; readers get consistent sorted views."""

    def __init__(self, extra_metrics: tuple[str, ...] = ()):
        self._series: dict[tuple[str, str], list[MetricSample]] = {}
        self._unsorted: set[tuple[str, str]] = set()
        self.known_metrics: set[str] = set(DEFAULT_METRICS) | set(extra_metrics)

    def register_metric(self, name: str) -> None:
        """Allow a custom metric name; pure configuration, no schema change."""
        self.known_metrics.add(name)

    def record(self, sample: MetricSample) -> "MetricStore":
        if sample.metric not in self.known_metrics:
            raise SchemaViolation(f"metric {sample.metric!r} is not registered")
        if math.isnan(sample.value) or math.isnan(sample.timestamp):
            raise SchemaViolation("NaN values are not recordable")
        if sample.metric == "response_time" and sample.value < 0:
            raise SchemaViolation(f"negative response time {sample.value}")
        key = (sample.service, sample.metric)
        series = self._series.setdefault(key, [])
        if series and sample.timestamp < series[-1].timestamp:
            self._unsorted.add(key)
        series.append(sample)
        return self

    def _sorted_series(self, key: tuple[str, str]) -> list[MetricSample]:
        series = self._series.get(key, [])
        if key in self._unsorted:
            series.sort(key=lambda s: (s.timestamp, s.value))
            self._unsorted.discard(key)
        return series

    def samples(self, service: str | None = None, metric: str | None = None) -> list[MetricSample]:
        """All samples matching the filters, sorted by (timestamp, service, metric, value)."""
        out = []
        for (svc, met), _ in self._series.items():
            if service is not None and svc != service:
                continue
            if metric is not None and met != metric:
                continue
            out.extend(self._sorted_series((svc, met)))
        out.sort(key=lambda s: (s.timestamp, s.service, s.metric, s.value))
        return out

    def clean(self) -> "MetricStore":
        """Sort every series and drop duplicate (timestamp, service, metric, value) tuples.

        Idempotent, and insensitive to the order samples were recorded in.
        """
        for key in list(self._series):
            series = self._sorted_series(key)
            deduped = []
            seen = set()
            for s in series:
                ident = (s.timestamp, s.value)
                if ident in seen:
                    continue
                seen.add(ident)
                deduped.append(s)
            self._series[key] = deduped
        return self

    def aggregate(self, service: str, window: MetricWindow, now: float) -> float | None:
        """Reduce the samples in (now - window_length, now]; None when the window is empty."""
        if window.metric not in self.known_metrics:
            raise ConfigurationError(f"unknown metric {window.metric!r}")
        series = self._sorted_series((service, window.metric))
        times = [s.timestamp for s in series]
        lo = bisect_right(times, now - window.window_length)
        hi = bisect_right(times, now)
        values = [s.value for s in series[lo:hi]]
        if not values:
            return None
        if window.aggregation == "fraction_within_deadline":
            return sum(1 for v in values if v <= window.deadline) / len(values)
        if window.aggregation == "fraction_true":
            return sum(1 for v in values if v == 1) / len(values)
        if window.aggregation == "mean":
            return fmean(values)
        if window.aggregation == "p95":
            ordered = sorted(values)
            rank = math.ceil(0.95 * len(ordered))  # nearest-rank percentile
            return ordered[rank - 1]
        return max(values)

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "service", "metric", "value"])
            for s in self.samples():
                writer.writerow([f"{s.timestamp:.6f}", s.service, s.metric, f"{s.value:.6f}"])
