"""Service-level objectives: compliance normalization, strategy targets, error budgets.

Both SLO kinds are normalized to a higher-is-better compliance rate in percent,
so margins and budgets are uniform percentage-point arithmetic:

* ``latency_compliance``: fraction of requests answered within the deadline,
  threshold is the promised percentage X.
* ``failure_rate_below``: failure fraction inverted, threshold Y% becomes a
  compliance threshold of 100 - Y.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigurationError, InputError
from .telemetry import MetricStore, MetricWindow

LATENCY = "latency_compliance"
FAILURE = "failure_rate_below"


class StrategyLevel(enum.Enum):
    """Autoscaling aggressiveness; the margin is the headroom aimed for above the threshold."""

    CONSERVATIVE = "conservative"
    NORMAL = "normal"
    BEST_EFFORT = "best_effort"

    @property
    def margin(self) -> float:
        return _MARGINS[self]


_MARGINS = {
    StrategyLevel.CONSERVATIVE: 10.0,
    StrategyLevel.NORMAL: 5.0,
    StrategyLevel.BEST_EFFORT: 0.0,
}


@dataclass(frozen=True)
class SloSpec:
    """One measurable objective evaluated over a sliding window."""

    slo_id: str
    kind: str
    threshold: float  # percent: X for latency compliance, Y for failure rate
    window_length: float = 60.0
    deadline: float | None = None  # seconds, latency_compliance only

    def __post_init__(self):
        if self.kind not in (LATENCY, FAILURE):
            raise ConfigurationError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.threshold < 100.0:
            raise ConfigurationError(f"SLO threshold must be in (0, 100), got {self.threshold}")
        if self.window_length <= 0:
            raise ConfigurationError("SLO window_length must be positive")
        if self.kind == LATENCY and (self.deadline is None or self.deadline <= 0):
            raise ConfigurationError("latency_compliance requires a positive deadline")

    @property
    def compliance_threshold(self) -> float:
        """Threshold after normalization to the higher-is-better direction."""
        if self.kind == LATENCY:
            return self.threshold
        return 100.0 - self.threshold

    def metric_window(self) -> MetricWindow:
        if self.kind == LATENCY:
            return MetricWindow(
                metric="response_time",
                window_length=self.window_length,
                aggregation="fraction_within_deadline",
                deadline=self.deadline,
            )
        return MetricWindow(
            metric="failure",
            window_length=self.window_length,
            aggregation="fraction_true",
        )


@dataclass(frozen=True)
class SloStatus:
    """Evaluation of one SLO at one instant, normalized to compliance percent."""

    slo_id: str
    measured_compliance: float
    compliance_threshold: float
    target: float
    error_budget: float
    violated: bool
    samples_present: bool = True


def compliance(slo: SloSpec, aggregate_value: float) -> float:
    """Map a window aggregate in [0, 1] to a compliance percentage."""
    if math.isnan(aggregate_value) or not 0.0 <= aggregate_value <= 1.0:
        raise InputError(f"aggregate value must be in [0, 1], got {aggregate_value}")
    if slo.kind == LATENCY:
        return aggregate_value * 100.0
    return 100.0 - aggregate_value * 100.0


def target_for(strategy: StrategyLevel, compliance_threshold: float) -> float:
    """Compliance level a strategy aims for: threshold plus margin, capped at 100."""
    return min(compliance_threshold + strategy.margin, 100.0)


def error_budget(measured: float, compliance_threshold: float) -> float:
    """Signed headroom in percentage points; negative means the SLO is violated."""
    return measured - compliance_threshold


def measure(store: MetricStore, service: str, slo: SloSpec, now: float) -> float | None:
    """Window aggregate of ``service``'s samples for an SLO, or None when the window holds none."""
    return store.aggregate(service, slo.metric_window(), now)


def build_status(slo: SloSpec, aggregate_value: float | None, strategy: StrategyLevel) -> SloStatus:
    """Assemble an SloStatus; an absent aggregate yields a neutral met-with-warning status."""
    ct = slo.compliance_threshold
    if aggregate_value is None:
        return SloStatus(
            slo_id=slo.slo_id,
            measured_compliance=ct,
            compliance_threshold=ct,
            target=target_for(strategy, ct),
            error_budget=0.0,
            violated=False,
            samples_present=False,
        )
    measured = compliance(slo, aggregate_value)
    return SloStatus(
        slo_id=slo.slo_id,
        measured_compliance=measured,
        compliance_threshold=ct,
        target=target_for(strategy, ct),
        error_budget=error_budget(measured, ct),
        violated=measured < ct,
    )
