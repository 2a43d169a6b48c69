"""The benchmark's hooks into the package, exercised on one short run.

``simbench/checks.py`` subclasses the classes ``harness.run_single`` builds and
overrides ``ClusterSim.submit``; ``simbench/tracing.py`` wraps methods and the
driver's resolve hook, which it expects last in ``resolve_hooks``. A change
that breaks either contract fails here, not first in a benchmark run.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

import msra
from msra import harness
from msra.workload import ClosedLoopDriver

from test_harness import small_config

SIMBENCH = Path(__file__).resolve().parent.parent / "simbench"
PATCHED = ("ClusterSim", "MetricStore", "MsRaController", "HpaController", "ClosedLoopDriver")


@pytest.fixture
def simbench(monkeypatch):
    """simbench's ``checks`` and ``tracing`` modules; every name they patch is restored after."""
    monkeypatch.syspath_prepend(str(SIMBENCH))
    for name in PATCHED:
        monkeypatch.setattr(harness, name, getattr(harness, name))
    import checks
    import tracing
    return checks, tracing


@pytest.mark.parametrize("profile", ["MS-RA-A", "HPA-A"])
def test_recorded_and_traced_run_passes_the_benchmark_checks(simbench, profile):
    checks, tracing = simbench
    cfg = small_config(phases=((30.0, 3), (30.0, 6)))
    plain = harness.run_experiment(cfg, [profile])[0].reps[0]

    recorder, tracer = checks.Recorder(), tracing.Tracer()
    checks.install(msra, recorder)
    try:
        tracer.install(msra)
        rep = harness.run_experiment(cfg, [profile])[0].reps[0]
    finally:
        tracer.uninstall()
    recorder.detach_store(cfg.workload.target_service)

    assert rep == plain  # recording and tracing change no output
    assert len(recorder.sub_ids) >= rep.requests > 0  # every request went through submit
    assert tracer.calls["workload.hook"] == rep.requests  # the driver's hook, wrapped, saw each one
    assert checks.check_run(SimpleNamespace(cfg=cfg, profile=profile), rep, recorder) == {}


def test_driver_appends_one_resolve_hook_last():
    cfg = small_config()
    sim = harness.ClusterSim()
    for sc in cfg.services:
        sim.add_service(sc.name, sc.profile, sc.requirements)
    sim.resolve_hooks.append(print)
    ClosedLoopDriver(sim, cfg.workload)
    assert len(sim.resolve_hooks) == 2 and sim.resolve_hooks[0] is print
