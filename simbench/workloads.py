"""The benchmark's workloads: each is the list of operations one round runs.

An operation is one controller profile under one seed, run through
``harness.run_experiment`` with one repetition and exported. Every workload is
a closed loop of simulated users, as in the paper; the workload seed comes
from the command line and reaches the program only inside the generated
``ExperimentConfig``.
"""

from __future__ import annotations

import dataclasses

WORKLOADS = ("preset", "long-horizon", "overload")

LONG_HORIZON_REPEATS = 4
LONG_HORIZON_PROFILES = ("MS-RA-A", "HPA-A")

# Flash crowd: (seconds, users). The surges sit far beyond what four replicas
# serve inside the timeout, so timeouts fire and every controller acts.
OVERLOAD_PHASES = ((60.0, 10), (600.0, 400), (300.0, 20), (600.0, 400), (240.0, 10))
OVERLOAD_MAX_REPLICAS = 4
OVERLOAD_STARTUP_S = 20.0
OVERLOAD_THINK_JITTER = 0.2
OVERLOAD_PROFILES = ("MS-RA-A", "MS-RA-C", "HPA-C")

# MS-RA-A under the flash crowd fails the action check: one scale-up per run
# lands while a rolling replacement's surge replica is counted as active, so
# the replica count moves by two. That operation keeps this seed whatever the
# command line says, so it fails in every run and the failed share is fixed.
KNOWN_FAULT = ("MS-RA-A", "action")
KNOWN_FAULT_SEED = 0


@dataclasses.dataclass(frozen=True)
class Op:
    profile: str
    cfg: object  # msra.ExperimentConfig with repetitions=1
    export_timeseries: bool
    expected_failure: str | None = None  # the one check a known program fault fails


def build(msra, workload: str, seed: int) -> list[Op]:
    """The operations of one round of ``workload``, generated from ``seed``."""
    preset = msra.benchmark_preset(repetitions=1, seed=seed)
    if workload == "preset":
        return [Op(c.name, preset, True) for c in preset.controllers]
    if workload == "long-horizon":
        phases = preset.workload.phases * LONG_HORIZON_REPEATS
        cfg = dataclasses.replace(preset, workload=dataclasses.replace(preset.workload, phases=phases))
        return [Op(name, cfg, False) for name in LONG_HORIZON_PROFILES]
    if workload == "overload":
        service = preset.services[0]
        service = dataclasses.replace(
            service,
            profile=dataclasses.replace(service.profile, startup_duration=OVERLOAD_STARTUP_S),
            requirements=dataclasses.replace(service.requirements, max_replicas=OVERLOAD_MAX_REPLICAS),
        )
        load = msra.LoadProfile(
            phases=OVERLOAD_PHASES,
            target_service=service.name,
            think_time=preset.workload.think_time,
            think_jitter=OVERLOAD_THINK_JITTER,
        )
        cfg = dataclasses.replace(preset, services=(service,), workload=load)
        ops = []
        for name in OVERLOAD_PROFILES:
            if name == KNOWN_FAULT[0]:
                ops.append(Op(name, dataclasses.replace(cfg, seed=KNOWN_FAULT_SEED), False, KNOWN_FAULT[1]))
            else:
                ops.append(Op(name, cfg, False))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
