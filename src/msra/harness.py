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
import os
from dataclasses import dataclass, replace
from statistics import fmean
from typing import ClassVar

from .cluster import ClusterSim, ScalingRequirements, ServerProfile
from .controller_hpa import HpaConfig, HpaController
from .controller_msra import MsRaConfig, MsRaController
from .errors import ConfigurationError
from .slo import FAILURE, LATENCY, SloSpec, StrategyLevel, build_status, measure
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


@dataclass(frozen=True)
class ControllerSpec:
    """What every controller profile has: a name and the SLO pair its violations count against.

    ``MsRaSpec`` and ``HpaSpec`` add their engine's fields, a ``kind``, the
    ``control_interval`` the harness ticks at, and ``controller()``, which
    builds the engine for one run.
    """

    name: str
    slo1_threshold: float  # X: percent of requests within the deadline
    slo2_threshold: float  # Y: failure-rate ceiling, percent
    slo1_deadline: float = 2.5
    slo_window: float = 60.0

    def slo_specs(self, service: str) -> tuple[SloSpec, SloSpec]:
        return (
            SloSpec("SLO1", LATENCY, self.slo1_threshold, service,
                    window_length=self.slo_window, deadline=self.slo1_deadline),
            SloSpec("SLO2", FAILURE, self.slo2_threshold, service, window_length=self.slo_window),
        )


@dataclass(frozen=True)
class MsRaSpec(ControllerSpec):
    """An SLO-driven profile."""

    kind: ClassVar[str] = MSRA
    preferred_strategy: str = "normal"
    vertical_cpu_rate: float = 0.0
    vertical_mem_rate: float = 0.0
    evaluation_interval: float = 15.0
    cooldown: float = 30.0
    exceed_hysteresis: float = 2.0
    tight_budget_threshold: float = 2.0

    def __post_init__(self):
        if self.preferred_strategy not in [s.value for s in StrategyLevel]:
            raise ConfigurationError(f"unknown strategy {self.preferred_strategy!r}")

    @property
    def control_interval(self) -> float:
        return self.evaluation_interval

    def controller(self, service: str, requirements: ScalingRequirements, store: MetricStore) -> MsRaController:
        return MsRaController(MsRaConfig(
            slos=self.slo_specs(service),
            preferred_strategy=StrategyLevel(self.preferred_strategy),
            vertical_cpu_rate=self.vertical_cpu_rate,
            vertical_mem_rate=self.vertical_mem_rate,
            cooldown=self.cooldown,
            exceed_hysteresis=self.exceed_hysteresis,
            tight_budget_threshold=self.tight_budget_threshold,
        ))


@dataclass(frozen=True)
class HpaSpec(ControllerSpec):
    """A utilization-driven baseline profile; its SLOs only count violations."""

    kind: ClassVar[str] = HPA
    cpu_threshold: float = 80.0
    stabilization_window: float = 90.0
    sync_period: float = 15.0

    @property
    def control_interval(self) -> float:
        return self.sync_period

    def controller(self, service: str, requirements: ScalingRequirements, store: MetricStore) -> HpaController:
        return HpaController(HpaConfig(
            cpu_threshold=self.cpu_threshold,
            stabilization_window=self.stabilization_window,
            sync_period=self.sync_period,
            min_replicas=requirements.min_replicas,
            max_replicas=requirements.max_replicas,
        ), service, store)


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
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if self.metrics_interval <= 0:
            raise ConfigurationError("metrics_interval must be positive")
        names = [c.name for c in self.controllers]
        if len(set(names)) != len(names):
            raise ConfigurationError("controller profile names must be unique")
        for ctrl in self.controllers:
            ratio = ctrl.control_interval / self.metrics_interval
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ConfigurationError(
                    f"{ctrl.name}: control interval must be a multiple of metrics_interval"
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
            stateful=False,
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
    sim = ClusterSim(timeout=cfg.timeout, log_requests=False)
    for sc in cfg.services:
        sim.add_service(sc.name, sc.profile, sc.requirements,
                        initial_replicas=sc.initial_replicas,
                        cpu_alloc=sc.initial_cpu, mem_alloc=sc.initial_mem)
    store = MetricStore()
    ClosedLoopDriver(sim, cfg.workload, seed=cfg.seed + repetition)
    service = cfg.workload.target_service
    slos = ctrl.slo_specs(service)
    requirements = next(sc.requirements for sc in cfg.services if sc.name == service)
    controller = ctrl.controller(service, requirements, store)

    horizon = cfg.workload.total_duration
    steps = round(horizon / cfg.metrics_interval)
    if abs(steps * cfg.metrics_interval - horizon) > 1e-9:
        raise ConfigurationError("workload duration must be a multiple of metrics_interval")
    ctrl_every = round(ctrl.control_interval / cfg.metrics_interval)

    violations = {"SLO1": 0, "SLO2": 0}
    requests = failures = 0
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
        for rec in sim.advance(t):
            requests += 1
            failed = rec.outcome != "completed"
            failures += failed
            store.record(MetricSample(rec.completion_time, rec.service, "response_time", rec.response_time))
            store.record(MetricSample(rec.completion_time, rec.service, "failure", 1.0 if failed else 0.0))
        sample_usage(t, record_metrics=True)
        if step % ctrl_every != 0:
            continue
        # Each SLO is measured once per tick. Violation accounting is
        # controller-independent: one count per evaluation window whose
        # measured compliance sits below threshold. MS-RA acts on the same
        # statuses.
        statuses = [build_status(slo, measure(store, slo, t), StrategyLevel.BEST_EFFORT) for slo in slos]
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
                    f"  {ms} vs {hpa}: replicas -{reps:.1f}%  cpu -{cpu:.1f}%  mem -{mem:.1f}%"
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
    return {
        "seed": cfg.seed,
        "repetitions": cfg.repetitions,
        "timeout": cfg.timeout,
        "metrics_interval": cfg.metrics_interval,
        "services": [
            {
                "name": sc.name,
                "profile": vars(sc.profile).copy(),
                "requirements": vars(sc.requirements).copy(),
                "initial_replicas": sc.initial_replicas,
                "initial_cpu": sc.initial_cpu,
                "initial_mem": sc.initial_mem,
            }
            for sc in cfg.services
        ],
        "workload": {
            "phases": [[d, u] for d, u in cfg.workload.phases],
            "target_service": cfg.workload.target_service,
            "think_time": cfg.workload.think_time,
            "think_jitter": cfg.workload.think_jitter,
        },
        "controllers": [{"name": c.name, "kind": c.kind, **vars(c)} for c in cfg.controllers],
    }


def config_from_dict(data: dict) -> ExperimentConfig:
    try:
        services = tuple(
            ServiceConfig(
                name=s["name"],
                profile=ServerProfile(**s["profile"]),
                requirements=ScalingRequirements(**s["requirements"]),
                initial_replicas=s.get("initial_replicas", 1),
                initial_cpu=s.get("initial_cpu", 500.0),
                initial_mem=s.get("initial_mem", 256.0),
            )
            for s in data["services"]
        )
        workload = LoadProfile(
            phases=tuple((float(d), int(u)) for d, u in data["workload"]["phases"]),
            target_service=data["workload"].get("target_service", "frontend"),
            think_time=data["workload"].get("think_time", 1.0),
            think_jitter=data["workload"].get("think_jitter", 0.0),
        )
        controllers = tuple(_spec_from_dict(c) for c in data["controllers"])
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"bad experiment configuration: {exc}") from exc
    return ExperimentConfig(
        services=services,
        workload=workload,
        controllers=controllers,
        repetitions=data.get("repetitions", 10),
        seed=data.get("seed", 42),
        timeout=data.get("timeout", 10.0),
        metrics_interval=data.get("metrics_interval", 5.0),
    )


def _spec_from_dict(data: dict) -> ControllerSpec:
    fields = dict(data)
    kind = fields.pop("kind")
    spec = {MSRA: MsRaSpec, HPA: HpaSpec}.get(kind)
    if spec is None:
        raise ConfigurationError(f"unknown controller kind {kind!r}")
    return spec(**fields)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def override(cfg: ExperimentConfig, repetitions: int | None = None, seed: int | None = None) -> ExperimentConfig:
    if repetitions is not None:
        cfg = replace(cfg, repetitions=repetitions)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg
