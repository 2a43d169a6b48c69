"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 6 and 7 share one execution of the full benchmark preset through a
module-scoped fixture; criterion 7 performs the second, independent execution
itself. Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines on success).
"""

import random
import time

import pytest

from msra.cluster import ClusterSim, ScalingRequirements, ServerProfile
from msra.controller_hpa import HpaConfig, desired_replicas, stabilized_desired
from msra.controller_msra import EXCEEDED, MET, POOR, analyze, select_strategy
from msra.harness import MsRaSpec, benchmark_preset, export, run_experiment
from msra.slo import SloStatus, StrategyLevel, target_for
from msra.telemetry import MetricSample, MetricStore, MetricWindow

from util import fifo_completions, one_replica_sim, ready_trace


def check(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def preset_run():
    cfg = benchmark_preset(repetitions=10, seed=42)
    start = time.perf_counter()
    reports = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return cfg, reports, elapsed


def test_criterion_1_strategy_targets():
    ok = (
        target_for(StrategyLevel.CONSERVATIVE, 85.0) == 95.0
        and target_for(StrategyLevel.NORMAL, 85.0) == 90.0
        and target_for(StrategyLevel.BEST_EFFORT, 85.0) == 85.0
    )
    check(1, "strategy targets over threshold 85 are exactly 95/90/85", ok)


def test_criterion_2_verdict_trichotomy_and_forced_conservative():
    start = time.perf_counter()
    cfg = MsRaSpec("web", 85.0, 1.0, slo1_deadline=1.0, preferred_strategy="best_effort")
    rng = random.Random(2024)
    ok = True
    for _ in range(10_000):
        statuses = []
        for i in range(rng.randint(1, 5)):
            threshold = rng.uniform(50.0, 99.0)
            measured = rng.uniform(40.0, 100.0)
            strategy = rng.choice(list(StrategyLevel))
            statuses.append(SloStatus(
                slo_id=f"s{i}",
                measured_compliance=measured,
                compliance_threshold=threshold,
                target=target_for(strategy, threshold),
                error_budget=measured - threshold,
                violated=measured < threshold,
            ))
        verdict = analyze(statuses, cfg)
        is_poor = any(s.violated for s in statuses)
        is_exceeded = not is_poor and any(
            s.measured_compliance >= s.target + cfg.exceed_hysteresis for s in statuses
        )
        expected = POOR if is_poor else EXCEEDED if is_exceeded else MET
        ok &= verdict == expected
        ok &= [verdict == v for v in (POOR, EXCEEDED, MET)].count(True) == 1
        if is_poor:
            ok &= select_strategy(statuses, cfg) is StrategyLevel.CONSERVATIVE
        if not ok:
            break
    elapsed = time.perf_counter() - start
    check(2, f"trichotomy + forced conservative over 10,000 vectors ({elapsed:.2f}s)",
          ok and elapsed < 5.0)


def test_criterion_3_queueing_oracle():
    start = time.perf_counter()
    arrivals = [(i * 2.0, "svc") for i in range(100)]
    oracle = fifo_completions([t for t, _ in arrivals], 1.0)
    base = one_replica_sim(nominal=1.0, cpu_alloc=100.0)
    records = base.advance(300.0, arrivals=arrivals)
    flat = all(r.response_time == 1.0 for r in records)
    matches_oracle = [r.completion_time for r in records] == oracle
    doubled = one_replica_sim(nominal=1.0, cpu_alloc=200.0)
    fast = doubled.advance(300.0, arrivals=arrivals)
    halved = all(r.response_time == 0.5 for r in fast)
    elapsed = time.perf_counter() - start
    check(3, "D/D/1 at utilization 0.5 is flat at s_eff; doubling CPU halves it exactly",
          flat and matches_oracle and halved and elapsed < 1.0)


def test_criterion_4_hpa_formula_and_stabilization():
    start = time.perf_counter()
    cfg = HpaConfig(cpu_threshold=60.0, stabilization_window=60.0, max_replicas=20)
    formula = desired_replicas(5, 90.0, cfg) == 8
    example = stabilized_desired([8, 8, 6], 2) == 8
    ups_immediate = stabilized_desired([8, 8, 6], 10) == 10
    empty = stabilized_desired([], 3) == 3
    rng = random.Random(4)
    inertia = True
    for _ in range(2000):
        history = [rng.randint(1, 20) for _ in range(rng.randint(0, 10))]
        raw = rng.randint(1, 20)
        target = stabilized_desired(history, raw)
        inertia &= target >= raw and all(target >= h for h in history)
    elapsed = time.perf_counter() - start
    check(4, "HPA desired(5,90,60)=8; scale-down deferred to window max; scale-ups immediate",
          formula and example and ups_immediate and empty and inertia and elapsed < 1.0)


def test_criterion_5_zero_downtime_rolling_updates():
    start = time.perf_counter()
    rng = random.Random(55)
    cases = 1000
    ok = True
    for case in range(cases):
        reqs = ScalingRequirements(min_replicas=1, max_replicas=8,
                                   min_cpu=50.0, max_cpu=800.0, min_mem=64.0, max_mem=1024.0)
        profile = ServerProfile(
            nominal_service_time=rng.choice([0.2, 0.5, 1.0]),
            reference_cpu=100.0,
            startup_duration=rng.choice([0.0, 1.0, 3.0]),
            startup_cpu_surge=1.5,
            memory_base=100.0,
            memory_per_inflight=10.0,
        )
        sim = ClusterSim(timeout=10.0)
        initial = rng.randint(1, 5)
        sim.add_service("svc", profile, reqs, initial_replicas=initial,
                        cpu_alloc=rng.choice([100.0, 200.0]), mem_alloc=128.0)
        n_arrivals = rng.randint(5, 40)
        times = sorted(round(rng.uniform(0.0, 20.0), 3) for _ in range(n_arrivals))
        floors = []  # (apply_time, min(ready_before, target))

        def make_update(target, cpu):
            def fire():
                ready_before = sim.ready_count("svc")
                sim.apply_rolling_update("svc", target, cpu=cpu)
                floors.append((sim.now, min(ready_before, target)))
            return fire

        for _ in range(rng.randint(1, 3)):
            at = round(rng.uniform(0.5, 20.0), 3)
            sim.schedule_timer(at, make_update(rng.randint(1, 8),
                                               rng.choice([None, 100.0, 150.0, 250.0])))
        records = sim.advance(80.0, arrivals=[(t, "svc") for t in times])

        conserved = len(records) == n_arrivals and len({r.request_id for r in records}) == n_arrivals
        floors.sort()
        floor_ok = True
        for t, count in ready_trace(sim.event_log, "svc"):
            if t == 0.0:
                continue  # initial replicas ramping in at setup
            # the floor set by the most recent update governs; before any
            # update nothing may terminate, so the initial count is the floor
            current = initial
            for at, floor in floors:
                if at <= t:
                    current = floor
            if count < current:
                floor_ok = False
                break
        ok &= conserved and floor_ok
        if not ok:
            break
    elapsed = time.perf_counter() - start
    check(5, f"{cases} randomized update schedules: ready floor held, no request lost ({elapsed:.1f}s)",
          ok and elapsed < 30.0)


def test_criterion_6_benchmark_directional_reproduction(preset_run):
    _cfg, reports, elapsed = preset_run
    by_name = {r.profile: r for r in reports}
    hpa = [by_name[f"HPA-{x}"] for x in "ABC"]
    msra = [by_name[f"MS-RA-{x}"] for x in "ABC"]

    a_ordering = hpa[0].avg_replicas >= hpa[1].avg_replicas >= hpa[2].avg_replicas
    b_reductions = all(
        ms.avg_replicas <= 0.5 * h.avg_replicas
        and ms.cpu <= 0.5 * h.cpu
        and ms.mem <= 0.5 * h.mem
        for ms in msra for h in hpa
    )
    c_zero = by_name["MS-RA-A"].slo1_violations == 0.0 and by_name["MS-RA-A"].slo2_violations == 0.0
    d_monotone = (
        msra[0].slo1_violations <= msra[1].slo1_violations <= msra[2].slo1_violations
        and hpa[0].slo1_violations <= hpa[1].slo1_violations <= hpa[2].slo1_violations
    )
    check(6, "benchmark preset orderings: (a) HPA replica ordering "
             f"({hpa[0].avg_replicas:.2f}>={hpa[1].avg_replicas:.2f}>={hpa[2].avg_replicas:.2f}), "
             "(b) >=50% reductions, (c) zero violations for MS-RA-A, "
             f"(d) monotone SLO1 violations ({elapsed:.0f}s)",
          a_ordering and b_reductions and c_zero and d_monotone and elapsed < 120.0)


def test_criterion_7_preset_determinism(preset_run, tmp_path):
    cfg, first_reports, first_elapsed = preset_run
    start = time.perf_counter()
    second_reports = run_experiment(cfg)
    second_elapsed = time.perf_counter() - start
    export(first_reports, str(tmp_path / "a"))
    export(second_reports, str(tmp_path / "b"))
    bytes_a = (tmp_path / "a" / "summary.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "summary.csv").read_bytes()
    total = first_elapsed + second_elapsed
    check(7, f"two preset executions give byte-identical summary CSVs ({total:.0f}s total)",
          bytes_a == bytes_b and total < 240.0)


def test_criterion_8_telemetry_laws():
    start = time.perf_counter()
    rng = random.Random(8)
    base = [MetricSample(float(i % 11), "web", "response_time", float(i % 4)) for i in range(60)]
    reference = None
    laws = True
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        store = MetricStore()
        for s in shuffled:
            store.record(s)
        once = store.clean().samples()
        twice = store.clean().samples()
        laws &= once == twice
        if reference is None:
            reference = once
        laws &= once == reference

    store = MetricStore()
    for i, rt in enumerate([1.0, 2.0, 3.0]):
        store.record(MetricSample(float(i), "web", "response_time", rt))
    within = store.aggregate(
        "web", MetricWindow("response_time", 60.0, "fraction_within_deadline", deadline=2.5), 10.0)
    for i, v in enumerate([0.0, 0.0, 0.0, 1.0]):
        store.record(MetricSample(float(i), "web", "failure", v))
    failure = store.aggregate("web", MetricWindow("failure", 60.0, "fraction_true"), 10.0)
    elapsed = time.perf_counter() - start
    check(8, "clean is idempotent and permutation-insensitive; aggregates reproduce 2/3 and 0.25",
          laws and within == 2 / 3 and failure == 0.25 and elapsed < 5.0)
