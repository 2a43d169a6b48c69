"""SLO-driven adaptation loop: classify the SLO picture as met, exceeded, or
poor; pick a strategy from the remaining error budget; plan threshold-based
scaling actions; execute them through rolling updates.

Rules, in order:

* any violated SLO forces the conservative strategy;
* a minimum error budget tighter than ``tight_budget_threshold`` also forces
  conservative, otherwise the customer's preferred strategy applies;
* verdict ``poor`` scales up (+1 replica when allowed, plus a vertical boost of
  the configured rates), ``exceeded`` scales down (-1 replica, or a vertical
  trim once at min replicas), ``met`` does nothing.

Windows with no samples evaluate as met-with-warning and never drive scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cluster import ClusterSim, ServiceView
from .errors import BoundViolation, ConfigurationError
# measure and build_status are not called here; simbench/tracing.py wraps
# them in this module's namespace, so they stay bound until it stops doing so.
from .slo import SloSpec, SloStatus, StrategyLevel, build_status, measure, target_for  # noqa: F401

MET = "met"
EXCEEDED = "exceeded"
POOR = "poor"


@dataclass(frozen=True)
class MsRaConfig:
    slos: tuple[SloSpec, ...]
    preferred_strategy: StrategyLevel = StrategyLevel.NORMAL
    vertical_cpu_rate: float = 20.0  # percent added to (removed from) each replica's CPU
    vertical_mem_rate: float = 20.0
    cooldown: float = 30.0
    exceed_hysteresis: float = 2.0  # percentage points above target before "exceeded"
    tight_budget_threshold: float = 2.0  # budgets below this force conservative

    def __post_init__(self):
        if not self.slos:
            raise ConfigurationError("at least one SLO is required")
        if self.vertical_cpu_rate < 0 or self.vertical_mem_rate < 0:
            raise ConfigurationError("vertical rates must be non-negative")
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be non-negative")
        if self.exceed_hysteresis < 0:
            raise ConfigurationError("exceed_hysteresis must be non-negative")


@dataclass(frozen=True)
class Verdict:
    value: str
    per_slo: tuple[SloStatus, ...]


@dataclass(frozen=True)
class ScalingAction:
    service: str
    horizontal_delta: int = 0
    new_cpu_per_replica: float | None = None
    new_mem_per_replica: float | None = None
    reason: str = ""

    def describe(self) -> str:
        """The decisions.csv action cell, e.g. ``replicas+1;cpu=600;mem=307.2``."""
        parts = []
        if self.horizontal_delta:
            parts.append(f"replicas{self.horizontal_delta:+d}")
        if self.new_cpu_per_replica is not None:
            parts.append(f"cpu={self.new_cpu_per_replica:g}")
        if self.new_mem_per_replica is not None:
            parts.append(f"mem={self.new_mem_per_replica:g}")
        return ";".join(parts) if parts else "none"


@dataclass
class TickResult:
    time: float
    verdict: Verdict
    strategy: StrategyLevel
    statuses: tuple[SloStatus, ...]
    actions: tuple[ScalingAction, ...]
    min_error_budget: float | None

    def rows(self, service: str) -> list[list[str]]:
        """decisions.csv rows: one per action, or one ``none`` row for ``service``."""
        head = [f"{self.time:.1f}", self.verdict.value, self.strategy.value]
        budget = "" if self.min_error_budget is None else f"{self.min_error_budget:.3f}"
        if self.actions:
            return [head + [a.service, a.describe(), a.reason, budget] for a in self.actions]
        note = ""
        if any(not s.samples_present for s in self.statuses):
            note = "window without samples treated as met"
        return [head + [service, "none", note, budget]]


def _exceeds(status: SloStatus, cfg: MsRaConfig) -> bool:
    """Measured far enough above the strategy's target to release capacity."""
    return status.samples_present and status.measured_compliance >= status.target + cfg.exceed_hysteresis


def analyze(statuses, cfg: MsRaConfig) -> Verdict:
    """Holistic verdict over all SLOs: poor beats exceeded beats met."""
    statuses = tuple(statuses)
    if not statuses:
        raise ConfigurationError("cannot analyze an empty status vector")
    present = [s for s in statuses if s.samples_present]
    if any(s.violated for s in present):
        return Verdict(POOR, statuses)
    if any(_exceeds(s, cfg) for s in present):
        return Verdict(EXCEEDED, statuses)
    return Verdict(MET, statuses)


def select_strategy(statuses, cfg: MsRaConfig) -> StrategyLevel:
    """Forced conservative on violation or a tight minimum budget; else the preference."""
    present = [s for s in statuses if s.samples_present]
    if any(s.violated for s in present):
        return StrategyLevel.CONSERVATIVE
    budgets = [s.error_budget for s in present]
    if budgets and min(budgets) < cfg.tight_budget_threshold:
        return StrategyLevel.CONSERVATIVE
    return cfg.preferred_strategy


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


def plan(
    verdict: Verdict,
    strategy: StrategyLevel,
    views: dict[str, ServiceView],
    cfg: MsRaConfig,
    now: float = 0.0,
    last_action: dict[str, float] | None = None,
) -> list[ScalingAction]:
    """Turn a verdict into per-service scaling actions, honoring cooldowns and bounds."""
    if verdict.value == MET:
        return []
    last_action = last_action or {}
    if verdict.value == POOR:
        trigger = [s for s in verdict.per_slo if s.samples_present and s.violated]
    else:
        trigger = [s for s in verdict.per_slo if _exceeds(s, cfg)]
    actions = []
    for service in sorted({s.service for s in trigger}):
        if now - last_action.get(service, float("-inf")) < cfg.cooldown:
            continue
        view = views[service]
        reqs = view.requirements
        if verdict.value == POOR:
            action = _plan_scale_up(service, view, reqs, cfg)
        else:
            action = _plan_scale_down(service, view, reqs, cfg)
        if action is not None:
            actions.append(action)
    return actions


def _plan_scale_up(service, view, reqs, cfg) -> ScalingAction | None:
    notes = []
    new_cpu = new_mem = None
    if reqs.vertical_enabled:
        new_cpu, new_mem = _resize(view, reqs, cfg, +1, notes)
    delta = 0
    if reqs.horizontal_enabled:
        if view.desired_replicas < reqs.max_replicas:
            delta = 1
        else:
            notes.append("at max replicas")
    if delta == 0 and new_cpu is None and new_mem is None:
        return None
    notes.insert(0, "verdict poor: scale up")
    return ScalingAction(service, delta, new_cpu, new_mem, "; ".join(notes))


def _plan_scale_down(service, view, reqs, cfg) -> ScalingAction | None:
    if reqs.horizontal_enabled and view.desired_replicas > reqs.min_replicas:
        return ScalingAction(service, -1, None, None, "verdict exceeded: release one replica")
    if reqs.vertical_enabled:
        notes = []
        new_cpu, new_mem = _resize(view, reqs, cfg, -1, notes)
        if new_cpu is not None or new_mem is not None:
            notes.insert(0, "verdict exceeded: trim allocations at min replicas")
            return ScalingAction(service, 0, new_cpu, new_mem, "; ".join(notes))
    return None


def _resize(view, reqs, cfg, sign: int, notes: list[str]) -> tuple[float | None, float | None]:
    """Per-replica CPU and memory moved by ``sign`` times the vertical rates, clamped to bounds.

    A dimension whose rate is zero, or whose clamped value equals the current
    one, comes back as None; each clamp appends a note.
    """
    out = []
    for dim, rate, current, lo, hi in (
        ("cpu", cfg.vertical_cpu_rate, view.cpu_per_replica, reqs.min_cpu, reqs.max_cpu),
        ("mem", cfg.vertical_mem_rate, view.mem_per_replica, reqs.min_mem, reqs.max_mem),
    ):
        new = None
        if rate > 0:
            resized = current * (1.0 + sign * rate / 100.0)
            new = _clamp(resized, lo, hi)
            if new != resized:
                notes.append(f"{dim} clamped to bounds")
            if new == current:
                new = None
        out.append(new)
    return out[0], out[1]


def execute(actions, sim: ClusterSim) -> list[str]:
    """Apply planned actions through rolling updates; bound violations are logged, not fatal."""
    outcomes = []
    for action in actions:
        view = sim.service_view(action.service)
        reqs = view.requirements
        target = int(_clamp(view.desired_replicas + action.horizontal_delta, reqs.min_replicas, reqs.max_replicas))
        try:
            sim.apply_rolling_update(
                action.service, target,
                cpu=action.new_cpu_per_replica,
                mem=action.new_mem_per_replica,
            )
            outcomes.append("applied")
        except BoundViolation as exc:
            outcomes.append(f"rejected: {exc}")
    return outcomes


class MsRaController:
    """Analyze, plan and execute for one simulated cluster; the harness is the monitor."""

    def __init__(self, cfg: MsRaConfig):
        self.cfg = cfg
        self.last_action: dict[str, float] = {}

    def tick(self, now: float, statuses, sim: ClusterSim) -> TickResult:
        """Act on this tick's SLO statuses, one per SLO in ``cfg.slos``.

        Strategy selection reads only violations and budgets, which no target
        affects, so the statuses may carry any strategy's targets; they are
        retargeted to the selected strategy before analysis.
        """
        strategy = select_strategy(statuses, self.cfg)
        statuses = tuple(
            replace(s, target=target_for(strategy, s.compliance_threshold)) for s in statuses
        )
        verdict = analyze(statuses, self.cfg)
        actions = tuple(plan(verdict, strategy, sim.views(), self.cfg, now, self.last_action))
        outcomes = execute(actions, sim)
        for action, outcome in zip(actions, outcomes):
            if outcome == "applied":
                self.last_action[action.service] = now
        budgets = [s.error_budget for s in statuses if s.samples_present]
        return TickResult(
            time=now,
            verdict=verdict,
            strategy=strategy,
            statuses=statuses,
            actions=actions,
            min_error_budget=min(budgets) if budgets else None,
        )
