"""Baseline horizontal pod autoscaler.

Replica targets follow the standard utilization rule
``desired = ceil(current * utilization / threshold)`` with a tolerance band
that suppresses small corrections, and a stabilization window that keeps the
highest recent recommendation so scale-downs lag while scale-ups apply
immediately. Never touches per-replica allocations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .cluster import ClusterSim
from .errors import ConfigurationError, InputError
from .telemetry import MetricStore, MetricWindow


@dataclass(frozen=True)
class HpaConfig:
    cpu_threshold: float  # percent utilization target
    stabilization_window: float = 90.0
    sync_period: float = 15.0
    min_replicas: int = 1
    max_replicas: int = 10
    tolerance: float = 0.10  # relative band around the threshold

    def __post_init__(self):
        if not 0 < self.cpu_threshold <= 100:
            raise ConfigurationError("cpu_threshold must be in (0, 100]")
        if self.stabilization_window <= 0 or self.sync_period <= 0:
            raise ConfigurationError("windows must be positive")
        if self.min_replicas < 1 or self.min_replicas > self.max_replicas:
            raise ConfigurationError("bad replica bounds")


def desired_replicas(current: int, avg_cpu_utilization: float, cfg: HpaConfig) -> int:
    """Raw replica recommendation from average CPU utilization (percent)."""
    if current < 1:
        raise InputError("current replica count must be >= 1")
    ratio = avg_cpu_utilization / cfg.cpu_threshold
    if abs(ratio - 1.0) <= cfg.tolerance:
        raw = current  # within tolerance band: no change
    else:
        raw = math.ceil(current * ratio)
    return max(cfg.min_replicas, min(cfg.max_replicas, raw))


def stabilized_desired(history, raw: int) -> int:
    """Apply scale-down inertia: never go below any raw recommendation still in the window."""
    return max(raw, max(history, default=raw))


@dataclass
class HpaDecision:
    time: float
    utilization: float | None
    raw_desired: int | None
    target: int | None
    applied: bool
    note: str = ""

    def rows(self, service: str) -> list[list[str]]:
        """The decisions.csv row of this sync; verdict, strategy and budget stay blank."""
        action = f"replicas->{self.target}" if self.applied else "none"
        reason = self.note or f"utilization={self.utilization:.2f}%"
        return [[f"{self.time:.1f}", "", "", service, action, reason, ""]]


class HpaController:
    """Periodic sync loop for one service, reading utilization from ``store``."""

    def __init__(self, cfg: HpaConfig, service: str, store: MetricStore):
        self.cfg = cfg
        self.service = service
        self.store = store
        self._used = MetricWindow("cpu_usage", cfg.sync_period, "mean")
        self._alloc = MetricWindow("cpu_alloc", cfg.sync_period, "mean")
        self._history: deque[tuple[float, int]] = deque()

    def utilization(self, now: float) -> float | None:
        """Percent CPU utilization over the last sync period: used / allocated on ready replicas."""
        used = self.store.aggregate(self.service, self._used, now)
        alloc = self.store.aggregate(self.service, self._alloc, now)
        if used is None or alloc is None or alloc == 0:
            return None
        return 100.0 * used / alloc

    def tick(self, now: float, statuses, sim: ClusterSim) -> HpaDecision:
        """One sync: scale the replica count toward the CPU utilization target.

        ``statuses`` is not read: the HPA ignores SLOs by design and scales on
        utilization alone. It takes them so both controllers share one call.
        """
        view = sim.service_view(self.service)
        if view.ready == 0:
            return HpaDecision(now, None, None, None, False, "no ready replicas")
        util = self.utilization(now)
        if util is None:
            return HpaDecision(now, None, None, None, False, "no utilization samples")
        # Scale from the replica count last asked for, as the Kubernetes HPA
        # reads the scale spec: ``active`` also counts a rolling replacement's
        # surge replica.
        raw = desired_replicas(view.desired_replicas, util, self.cfg)
        cutoff = now - self.cfg.stabilization_window
        while self._history and self._history[0][0] <= cutoff:
            self._history.popleft()
        target = stabilized_desired([r for _, r in self._history], raw)
        self._history.append((now, raw))
        applied = False
        if target != view.desired_replicas:
            sim.apply_rolling_update(self.service, target)  # horizontal only, allocations untouched
            applied = True
        return HpaDecision(now, util, raw, target, applied)
