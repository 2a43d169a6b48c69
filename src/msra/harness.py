"""Experiment runner: builds fresh clusters per run, drives the closed-loop
workload under each configured controller, counts SLO violations per
evaluation window, and renders comparison summaries.

Configuration is one JSON document (see README for the schema); the bundled
benchmark preset pairs three SLO-driven profiles with three utilization-driven
baseline profiles over a stepped 30-minute workload.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import deque
from dataclasses import dataclass, fields, is_dataclass, replace
from statistics import fmean
from typing import ClassVar

from .cluster import COMPLETED, ClusterSim, ScalingRequirements, ServerProfile
from .controller_hpa import HpaConfig, HpaController
from .controller_msra import MsRaController
from .errors import ConfigurationError
# measure is not called here; simbench/tracing.py wraps it in this module's
# namespace, so it stays bound until it stops doing so.
from .slo import FAILURE, LATENCY, SloSpec, StrategyLevel, build_status, measure  # noqa: F401
from .telemetry import MetricSample, MetricStore
from .workload import ClosedLoopDriver, LoadProfile, benchmark_profile

MSRA = "msra"
HPA = "hpa"

DECISION_HEADER = ["time", "verdict", "strategy", "service", "action", "reason", "min_error_budget"]
SUMMARY_HEADER = ["profile", "avg_replicas", "avg_cpu_millicpu", "avg_mem_mb",
                  "slo1_violations", "slo2_violations"]


@dataclass(frozen=True)
class ServiceConfig:
    name: str
    profile: ServerProfile
    requirements: ScalingRequirements
    initial_replicas: int = 1
    initial_cpu: float = 500.0
    initial_mem: float = 256.0

    def __post_init__(self):
        self.requirements.check_initial(self.initial_replicas, self.initial_cpu, self.initial_mem)


@dataclass(frozen=True)
class ControllerSpec:
    """What every controller profile has: a name and the SLO pair its violations count against.

    ``MsRaSpec`` and ``HpaSpec`` add their engine's fields, a ``kind``, the
    ``control_interval`` the harness ticks at, and ``controller()``, which
    builds the engine for one run. Every field is checked when the spec is
    built, so a bad value fails at load time rather than when the run reaches
    that profile.
    """

    name: str
    slo1_threshold: float  # X: percent of requests within the deadline
    slo2_threshold: float  # Y: failure-rate ceiling, percent
    slo1_deadline: float = 2.5
    slo_window: float = 60.0

    def __post_init__(self):
        # export writes each repetition to runs/<name>-<rep>/, and no OS
        # accepts a NUL in a path.
        if not self.name or any(c in self.name for c in "/\\\0"):
            raise ConfigurationError(f"profile name {self.name!r} must be non-empty, without /, \\ or NUL")
        self.slos  # builds, and so checks, the SLO pair

    @property
    def slos(self) -> tuple[SloSpec, SloSpec]:
        return (
            SloSpec("SLO1", LATENCY, self.slo1_threshold,
                    window_length=self.slo_window, deadline=self.slo1_deadline),
            SloSpec("SLO2", FAILURE, self.slo2_threshold, window_length=self.slo_window),
        )


@dataclass(frozen=True)
class MsRaSpec(ControllerSpec):
    """An SLO-driven profile, and the configuration of its ``MsRaController``."""

    kind: ClassVar[str] = MSRA
    preferred_strategy: str = "normal"
    vertical_cpu_rate: float = 0.0  # percent added to (removed from) each replica's CPU
    vertical_mem_rate: float = 0.0
    evaluation_interval: float = 15.0
    cooldown: float = 30.0
    exceed_hysteresis: float = 2.0  # percentage points above target before "exceeded"
    tight_budget_threshold: float = 2.0  # budgets below this force conservative

    def __post_init__(self):
        super().__post_init__()
        if self.preferred_strategy not in [s.value for s in StrategyLevel]:
            raise ConfigurationError(f"unknown strategy {self.preferred_strategy!r}")
        if self.vertical_cpu_rate < 0 or self.vertical_mem_rate < 0:
            raise ConfigurationError("vertical rates must be non-negative")
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be non-negative")
        if self.exceed_hysteresis < 0:
            raise ConfigurationError("exceed_hysteresis must be non-negative")

    @property
    def control_interval(self) -> float:
        return self.evaluation_interval

    def controller(self, service: str, requirements: ScalingRequirements, store: MetricStore) -> MsRaController:
        return MsRaController(self, service)


@dataclass(frozen=True)
class HpaSpec(ControllerSpec):
    """A utilization-driven baseline profile; its SLOs only count violations."""

    kind: ClassVar[str] = HPA
    cpu_threshold: float = 80.0
    stabilization_window: float = 90.0
    sync_period: float = 15.0

    def __post_init__(self):
        super().__post_init__()
        HpaConfig(self.cpu_threshold, self.stabilization_window, self.sync_period)  # checks these three

    @property
    def control_interval(self) -> float:
        return self.sync_period

    def engine_config(self, requirements: ScalingRequirements) -> HpaConfig:
        return HpaConfig(
            cpu_threshold=self.cpu_threshold,
            stabilization_window=self.stabilization_window,
            sync_period=self.sync_period,
            min_replicas=requirements.min_replicas,
            max_replicas=requirements.max_replicas,
        )

    def controller(self, service: str, requirements: ScalingRequirements, store: MetricStore) -> HpaController:
        return HpaController(self.engine_config(requirements), service, store)


@dataclass(frozen=True)
class ExperimentConfig:
    services: tuple[ServiceConfig, ...]
    workload: LoadProfile
    controllers: tuple[ControllerSpec, ...]
    repetitions: int = 10
    seed: int = 42
    timeout: float = 10.0
    metrics_interval: float = 5.0

    def __post_init__(self):
        if not self.services:
            raise ConfigurationError("at least one service is required")
        if not self.controllers:
            raise ConfigurationError("at least one controller profile is required")
        if type(self.repetitions) is not int or self.repetitions < 1:
            raise ConfigurationError(f"repetitions {self.repetitions!r} is not an integer >= 1")
        if self.timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if self.metrics_interval <= 0:
            raise ConfigurationError("metrics_interval must be positive")
        for what, names in (("service", [s.name for s in self.services]),
                            ("controller profile", [c.name for c in self.controllers])):
            if len(set(names)) != len(names):
                raise ConfigurationError(f"{what} names must be unique")
        horizon = self.workload.total_duration
        if abs(round(horizon / self.metrics_interval) * self.metrics_interval - horizon) > 1e-9:
            raise ConfigurationError("workload duration must be a multiple of metrics_interval")
        service = self.workload.target_service
        if service not in [sc.name for sc in self.services]:
            raise ConfigurationError(f"workload targets unknown service {service!r}")
        for ctrl in self.controllers:
            # run_single ticks and sums SLO counts in whole metrics intervals.
            for what, length in (("control interval", ctrl.control_interval),
                                 ("slo_window", ctrl.slo_window)):
                ratio = length / self.metrics_interval
                if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                    raise ConfigurationError(
                        f"{ctrl.name}: {what} must be a positive multiple of metrics_interval"
                    )


@dataclass
class RepResult:
    profile: str
    repetition: int
    avg_replicas: float
    avg_cpu: float
    avg_mem: float
    slo1_violations: int
    slo2_violations: int
    requests: int
    failures: int
    samples: list[tuple[float, int, float, float]]  # (time, ready, cpu, mem)
    decisions: list[list]


@dataclass
class RunReport:
    profile: str
    kind: str
    avg_replicas: float
    cpu: float
    mem: float
    slo1_violations: float
    slo2_violations: float
    reps: tuple[RepResult, ...]


# ----------------------------------------------------------------- presets

def benchmark_preset(repetitions: int = 10, seed: int = 42) -> ExperimentConfig:
    """Six-profile comparison preset over the stepped 30-minute workload.

    The default service is calibrated so one initial replica holds the worst
    phase just inside a 2.5 s deadline while running hot enough (45-100% CPU)
    that every utilization-driven baseline scales out.
    """
    service = ServiceConfig(
        name="frontend",
        profile=ServerProfile(
            nominal_service_time=0.5,
            reference_cpu=100.0,
            startup_duration=5.0,
            startup_cpu_surge=1.5,
            memory_base=100.0,
            memory_per_inflight=10.0,
        ),
        requirements=ScalingRequirements(
            horizontal_enabled=True,
            vertical_enabled=True,
            min_replicas=1,
            max_replicas=20,
            min_cpu=100.0,
            max_cpu=4000.0,
            min_mem=64.0,
            max_mem=4096.0,
        ),
        initial_replicas=1,
        initial_cpu=500.0,
        initial_mem=256.0,
    )
    controllers = (  # name, SLO1 X, SLO2 Y, then the engine's parameters
        MsRaSpec("MS-RA-A", 95.0, 0.5, preferred_strategy="conservative",
                 vertical_cpu_rate=20.0, vertical_mem_rate=20.0),
        MsRaSpec("MS-RA-B", 90.0, 1.0, preferred_strategy="normal",
                 vertical_cpu_rate=10.0, vertical_mem_rate=10.0),
        MsRaSpec("MS-RA-C", 85.0, 2.0, preferred_strategy="best_effort",
                 vertical_cpu_rate=0.0, vertical_mem_rate=0.0),
        HpaSpec("HPA-A", 95.0, 0.5, cpu_threshold=60.0, stabilization_window=90.0),
        HpaSpec("HPA-B", 90.0, 1.0, cpu_threshold=70.0, stabilization_window=90.0),
        HpaSpec("HPA-C", 85.0, 2.0, cpu_threshold=80.0, stabilization_window=45.0),
    )
    return ExperimentConfig(
        services=(service,),
        workload=benchmark_profile("frontend"),
        controllers=controllers,
        repetitions=repetitions,
        seed=seed,
    )


# --------------------------------------------------------------- execution

def run_single(cfg: ExperimentConfig, ctrl: ControllerSpec, repetition: int) -> RepResult:
    """One fresh cluster + telemetry + controller over the full workload."""
    sim = ClusterSim(timeout=cfg.timeout)
    for sc in cfg.services:
        sim.add_service(sc.name, sc.profile, sc.requirements,
                        initial_replicas=sc.initial_replicas,
                        cpu_alloc=sc.initial_cpu, mem_alloc=sc.initial_mem)
    store = MetricStore()
    ClosedLoopDriver(sim, cfg.workload, seed=cfg.seed + repetition)
    service = cfg.workload.target_service
    slo1, slo2 = ctrl.slos
    deadline = slo1.deadline
    controller = ctrl.controller(service, sim.service_view(service).requirements, store)

    steps = round(cfg.workload.total_duration / cfg.metrics_interval)
    ctrl_every = round(ctrl.control_interval / cfg.metrics_interval)

    violations = {"SLO1": 0, "SLO2": 0}
    requests = failures = 0
    # One (resolved, failed, within deadline) count per metrics interval.
    # sim.advance(t) returns the requests resolved in (t - metrics_interval, t],
    # the store's own half-open window unit, so the sum over the last slo_window
    # gives the same integer ratios MetricStore.aggregate would.
    counts: deque[tuple[int, int, int]] = deque(maxlen=round(ctrl.slo_window / cfg.metrics_interval))
    samples: list[tuple[float, int, float, float]] = []
    decisions: list[list] = []

    def sample_usage(t: float, record_metrics: bool) -> None:
        usage = sim.take_usage_sample()
        ready = cpu = mem = 0.0
        for name, u in usage.items():
            if record_metrics:
                used_mcpu = u.used_cpu_seconds / cfg.metrics_interval
                store.record(MetricSample(t, name, "cpu_usage", used_mcpu))
                store.record(MetricSample(t, name, "cpu_alloc", u.ready_cpu_alloc))
            ready += u.ready_replicas
            cpu += u.total_cpu
            mem += u.total_mem
        samples.append((t, int(ready), cpu, mem))

    sample_usage(0.0, record_metrics=False)
    for step in range(1, steps + 1):
        t = step * cfg.metrics_interval
        resolved = sim.advance(t)
        failed = within = 0
        for rec in resolved:
            failed += rec.outcome != COMPLETED
            within += rec.completion_time - rec.arrival_time <= deadline
        counts.append((len(resolved), failed, within))
        requests += len(resolved)
        failures += failed
        sample_usage(t, record_metrics=True)
        if step % ctrl_every != 0:
            continue
        # Each SLO is measured once per tick. Violation accounting is
        # controller-independent: one count per evaluation window whose
        # measured compliance sits below threshold. MS-RA acts on the same
        # statuses.
        n, failed, within = map(sum, zip(*counts))  # over the last slo_window
        statuses = [
            build_status(slo1, within / n if n else None, StrategyLevel.BEST_EFFORT),
            build_status(slo2, failed / n if n else None, StrategyLevel.BEST_EFFORT),
        ]
        for status in statuses:
            if status.samples_present and status.violated:
                violations[status.slo_id] += 1
        decisions.extend(controller.tick(t, statuses, sim).rows(service))

    return RepResult(
        profile=ctrl.name,
        repetition=repetition,
        avg_replicas=fmean(s[1] for s in samples),
        avg_cpu=fmean(s[2] for s in samples),
        avg_mem=fmean(s[3] for s in samples),
        slo1_violations=violations["SLO1"],
        slo2_violations=violations["SLO2"],
        requests=requests,
        failures=failures,
        samples=samples,
        decisions=decisions,
    )


def run_experiment(cfg: ExperimentConfig, profiles: list[str] | None = None) -> list[RunReport]:
    """Every selected controller profile x repetition on a fresh cluster; deterministic."""
    selected = list(cfg.controllers)
    if profiles is not None:
        known = {c.name for c in cfg.controllers}
        unknown = [p for p in profiles if p not in known]
        if unknown:
            raise ConfigurationError(f"unknown profiles requested: {unknown}")
        selected = [c for c in cfg.controllers if c.name in profiles]
    reports = []
    for ctrl in selected:
        if cfg.workload.think_jitter == 0:
            # Without jitter the driver never draws from its RNG, and nothing
            # else in the model is random, so every repetition repeats
            # repetition 0 exactly: run it once and relabel it for the rest.
            first = run_single(cfg, ctrl, 0)
            reps = tuple(replace(first, repetition=rep) for rep in range(cfg.repetitions))
        else:
            reps = tuple(run_single(cfg, ctrl, rep) for rep in range(cfg.repetitions))
        reports.append(RunReport(
            profile=ctrl.name,
            kind=ctrl.kind,
            avg_replicas=fmean(r.avg_replicas for r in reps),
            cpu=fmean(r.avg_cpu for r in reps),
            mem=fmean(r.avg_mem for r in reps),
            slo1_violations=fmean(r.slo1_violations for r in reps),
            slo2_violations=fmean(r.slo2_violations for r in reps),
            reps=reps,
        ))
    return reports


# ----------------------------------------------------------------- reports

def reduction_pct(candidate: float, baseline: float) -> float:
    """Percent reduction of candidate relative to baseline (0 when baseline is 0)."""
    if baseline == 0:
        return 0.0
    return 100.0 * (1.0 - candidate / baseline)


@dataclass
class Summary:
    rows: list[RunReport]
    reductions: list[tuple[str, str, float, float, float]]

    def to_text(self) -> str:
        lines = [
            f"{'profile':<10} {'avg_replicas':>13} {'cpu_millicpu':>13} {'mem_mb':>10} "
            f"{'slo1_viol':>10} {'slo2_viol':>10}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.profile:<10} {r.avg_replicas:>13.3f} {r.cpu:>13.3f} {r.mem:>10.3f} "
                f"{r.slo1_violations:>10.1f} {r.slo2_violations:>10.1f}"
            )
        if self.reductions:
            lines.append("")
            lines.append("resource reductions (SLO-driven profile vs baseline):")
            for ms, hpa, reps, cpu, mem in self.reductions:
                lines.append(
                    f"  {ms} vs {hpa}: replicas {-reps:+.1f}%  cpu {-cpu:+.1f}%  mem {-mem:+.1f}%"
                )
        return "\n".join(lines) + "\n"


def summarize(reports: list[RunReport]) -> Summary:
    """Comparison table plus pairwise reductions of every SLO-driven profile against every baseline."""
    msra_reports = [r for r in reports if r.kind == MSRA]
    hpa_reports = [r for r in reports if r.kind == HPA]
    reductions = []
    for ms in msra_reports:
        for hpa in hpa_reports:
            reductions.append((
                ms.profile, hpa.profile,
                reduction_pct(ms.avg_replicas, hpa.avg_replicas),
                reduction_pct(ms.cpu, hpa.cpu),
                reduction_pct(ms.mem, hpa.mem),
            ))
    return Summary(rows=list(reports), reductions=reductions)


def export(reports: list[RunReport], out_dir: str, export_timeseries: bool = False) -> Summary:
    """Write summary.csv, summary.txt, and per-run decision (and optional metrics) CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    summary = summarize(reports)
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for r in reports:
            writer.writerow([r.profile, f"{r.avg_replicas:.6f}", f"{r.cpu:.6f}", f"{r.mem:.6f}",
                             f"{r.slo1_violations:.6f}", f"{r.slo2_violations:.6f}"])
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(summary.to_text())
    for report in reports:
        for rep in report.reps:
            run_dir = os.path.join(out_dir, "runs", f"{report.profile}-{rep.repetition}")
            os.makedirs(run_dir, exist_ok=True)
            with open(os.path.join(run_dir, "decisions.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(DECISION_HEADER)
                writer.writerows(rep.decisions)
            if export_timeseries:
                with open(os.path.join(run_dir, "metrics.csv"), "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["time", "ready_replicas", "total_cpu", "total_mem"])
                    for t, ready, cpu, mem in rep.samples:
                        writer.writerow([f"{t:.1f}", ready, f"{cpu:.6f}", f"{mem:.6f}"])
    return summary


def read_summary(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------ configuration

def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready data with one key per dataclass field; a controller profile
    starts with ``name`` and ``kind``."""
    return _to_data(cfg)


def _to_data(value):
    if isinstance(value, (tuple, list)):
        return [_to_data(v) for v in value]
    if not is_dataclass(value):
        return value
    data = {"name": value.name, "kind": value.kind} if isinstance(value, ControllerSpec) else {}
    data.update((f.name, _to_data(getattr(value, f.name))) for f in fields(value))
    return data


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build each level from its keys; the dataclasses supply every default,
    and an unknown or misspelled key is rejected at any level."""
    if bad := _not_a_number(data):
        raise ConfigurationError(f"bad experiment configuration: {bad} is not a finite number")
    try:
        workload = data["workload"]
        return ExperimentConfig(**{
            **data,
            "services": tuple(
                ServiceConfig(**{**s, "profile": ServerProfile(**s["profile"]),
                                 "requirements": ScalingRequirements(**s["requirements"])})
                for s in data["services"]
            ),
            "workload": LoadProfile(**{
                # float("30") would read a string as a number; LoadProfile rejects a string.
                **workload, "phases": tuple((float(d) if isinstance(d, (int, float)) else d, u)
                                            for d, u in workload["phases"]),
            }),
            "controllers": tuple(_spec_from_dict(c) for c in data["controllers"]),
        })
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad experiment configuration: {exc}") from exc


# A JSON boolean is a Python int, so it would pass for a number; only these
# settings are declared bool.
_BOOL_SETTINGS = frozenset(f.name for f in fields(ScalingRequirements) if f.type == "bool")


def _not_a_number(value, path: str = "config") -> str | None:
    """The path of the first NaN or infinite number in JSON-shaped ``value``
    (json reads both, and no setting means anything with them), or of a
    boolean given for a setting not declared bool; None if there is none."""
    if isinstance(value, dict):
        value = value.items()
    elif isinstance(value, (list, tuple)):
        value = enumerate(value)
    elif isinstance(value, bool):
        return None if path.rpartition(".")[2] in _BOOL_SETTINGS else path
    else:
        return path if isinstance(value, float) and not math.isfinite(value) else None
    return next(filter(None, (_not_a_number(item, f"{path}.{key}") for key, item in value)), None)


def _spec_from_dict(data: dict) -> ControllerSpec:
    values = dict(data)
    kind = values.pop("kind")
    spec = {MSRA: MsRaSpec, HPA: HpaSpec}.get(kind)
    if spec is None:
        raise ConfigurationError(f"unknown controller kind {kind!r}")
    return spec(**values)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def override(cfg: ExperimentConfig, repetitions: int | None = None, seed: int | None = None) -> ExperimentConfig:
    if repetitions is not None:
        cfg = replace(cfg, repetitions=repetitions)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg
