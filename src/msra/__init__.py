"""SLO-driven microservice autoscaling on a deterministic cluster simulator.

Building blocks: a discrete-event cluster model (`cluster`), a closed-loop
load generator (`workload`), a sliding-window metric store (`telemetry`), SLO
arithmetic (`slo`), the SLO-driven controller (`controller_msra`), a
utilization-driven baseline (`controller_hpa`), and the experiment harness
plus CLI (`harness`, `cli`).
"""

from .cluster import (
    ClusterSim,
    ReplicaState,
    RequestRecord,
    ScalingRequirements,
    ServerProfile,
)
from .controller_hpa import HpaConfig, HpaController, desired_replicas, stabilized_desired
from .controller_msra import (
    MsRaController,
    ScalingAction,
    analyze,
    execute,
    plan,
    select_strategy,
)
from .errors import (
    BoundViolation,
    ConfigurationError,
    InputError,
    SchemaViolation,
)
from .harness import (
    ControllerSpec,
    ExperimentConfig,
    HpaSpec,
    MsRaSpec,
    RunReport,
    ServiceConfig,
    benchmark_preset,
    export,
    run_experiment,
    summarize,
)
from .slo import SloSpec, SloStatus, StrategyLevel, compliance, error_budget, target_for
from .telemetry import MetricSample, MetricStore, MetricWindow
from .workload import ClosedLoopDriver, LoadProfile, benchmark_profile

__version__ = "0.1.0"
