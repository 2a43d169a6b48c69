import random
from collections import deque

import pytest

from msra.cluster import ScalingRequirements, ServiceView
from msra.controller_msra import (
    EXCEEDED,
    MET,
    POOR,
    MsRaController,
    ScalingAction,
    analyze,
    execute,
    plan,
    select_strategy,
)
from msra.errors import ConfigurationError
from msra.harness import MsRaSpec
from msra.slo import (
    SloStatus,
    StrategyLevel,
    build_status,
    measure,
    target_for,
)
from msra.telemetry import MetricSample, MetricStore

from util import one_replica_sim


def cfg(**kwargs):
    # SLO1: 85% within 2.5 s, SLO2: at most 2% failed, both over 60 s windows.
    defaults = dict(name="web-profile", slo1_threshold=85.0, slo2_threshold=2.0,
                    preferred_strategy="normal", vertical_cpu_rate=20.0, vertical_mem_rate=20.0)
    defaults.update(kwargs)
    return MsRaSpec(**defaults)


def status(measured, threshold=85.0, strategy=StrategyLevel.NORMAL, slo_id="SLO1", present=True):
    return SloStatus(
        slo_id=slo_id,
        measured_compliance=measured,
        compliance_threshold=threshold,
        target=target_for(strategy, threshold),
        error_budget=measured - threshold,
        violated=measured < threshold,
        samples_present=present,
    )


def measured_statuses(controller, store, now):
    """Statuses as the harness builds them once per tick."""
    return [build_status(slo, measure(store, controller.service, slo, now), StrategyLevel.BEST_EFFORT)
            for slo in controller.cfg.slos]


def view(active=1, ready=None, cpu=200.0, mem=256.0, reqs=None):
    reqs = reqs or ScalingRequirements(min_replicas=1, max_replicas=10,
                                       min_cpu=100.0, max_cpu=2000.0,
                                       min_mem=64.0, max_mem=4096.0)
    return ServiceView(name="web", ready=ready if ready is not None else active,
                       active=active, desired_replicas=active,
                       cpu_per_replica=cpu, mem_per_replica=mem, requirements=reqs)


class TestAnalyze:
    def test_violation_means_poor(self):
        verdict = analyze([status(80.0)], cfg())
        assert verdict == POOR

    def test_all_exactly_at_target_is_met(self):
        statuses = [status(90.0), status(99.0, threshold=98.0, slo_id="SLO2")]
        assert all(s.measured_compliance == s.target for s in statuses[:1])
        assert analyze(statuses, cfg()) == MET

    def test_above_target_plus_hysteresis_is_exceeded(self):
        # target 90, hysteresis 2: 99.5 >= 92
        verdict = analyze([status(99.5)], cfg(exceed_hysteresis=2.0))
        assert verdict == EXCEEDED

    def test_measured_100_under_a_capped_target_is_met(self):
        # Conservative over threshold 95 aims for 105, capped at 100, and
        # 100 < 100 + hysteresis: no measurement can release capacity.
        full = status(100.0, threshold=95.0, strategy=StrategyLevel.CONSERVATIVE)
        assert full.target == 100.0
        assert analyze([full], cfg()) == MET

    def test_empty_statuses_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze([], cfg())

    def test_absent_statuses_do_not_drive_verdicts(self):
        absent = status(0.0, present=False)
        assert analyze([absent], cfg()) == MET

    def test_trichotomy_randomized(self):
        rng = random.Random(5)
        config = cfg()
        for _ in range(2000):
            statuses = [
                status(rng.uniform(40, 100), threshold=rng.uniform(50, 99),
                       strategy=rng.choice(list(StrategyLevel)))
                for _ in range(rng.randint(1, 4))
            ]
            verdict = analyze(statuses, config)
            is_poor = any(s.violated for s in statuses)
            is_exceeded = not is_poor and any(
                s.measured_compliance >= s.target + config.exceed_hysteresis for s in statuses
            )
            expected = POOR if is_poor else EXCEEDED if is_exceeded else MET
            assert verdict == expected


class TestSelectStrategy:
    def test_violation_forces_conservative(self):
        picked = select_strategy([status(70.0)], cfg(preferred_strategy="best_effort"))
        assert picked is StrategyLevel.CONSERVATIVE

    def test_tight_budget_forces_conservative(self):
        # budget 1pp < tight threshold 2pp
        picked = select_strategy([status(86.0)], cfg(preferred_strategy="best_effort"))
        assert picked is StrategyLevel.CONSERVATIVE

    def test_wide_budget_uses_preference(self):
        picked = select_strategy([status(93.0)], cfg(preferred_strategy="normal"))
        assert picked is StrategyLevel.NORMAL

    def test_minimum_budget_across_slos_decides(self):
        wide = status(95.0)
        tight = status(99.0, threshold=98.0, slo_id="SLO2")
        picked = select_strategy([wide, tight], cfg(preferred_strategy="best_effort"))
        assert picked is StrategyLevel.CONSERVATIVE


class TestPlan:
    def test_met_plans_nothing(self):
        assert plan(MET, view(), cfg()) is None

    def test_poor_boosts_vertically_and_adds_replica(self):
        action = plan(POOR, view(cpu=200.0), cfg())
        assert action.horizontal_delta == 1
        assert action.new_cpu_per_replica == 240.0  # 200 * 1.2

    def test_exceeded_releases_a_replica(self):
        action = plan(EXCEEDED, view(active=3), cfg())
        assert action.horizontal_delta == -1

    def test_exceeded_at_min_replicas_trims_allocation(self):
        action = plan(EXCEEDED, view(active=1, cpu=200.0), cfg())
        assert action.horizontal_delta == 0
        assert action.new_cpu_per_replica == 160.0  # 200 * 0.8

    def test_exceeded_with_zero_rates_at_min_is_noop(self):
        action = plan(EXCEEDED, view(active=1), cfg(vertical_cpu_rate=0.0, vertical_mem_rate=0.0))
        assert action is None

    def test_cooldown_suppresses_actions(self):
        assert plan(POOR, view(), cfg(cooldown=30.0), now=10.0, last_action=0.0) is None
        assert plan(POOR, view(), cfg(cooldown=30.0), now=30.0, last_action=0.0) is not None

    def test_boost_clamped_to_bounds_and_annotated(self):
        reqs = ScalingRequirements(min_replicas=1, max_replicas=10,
                                   min_cpu=100.0, max_cpu=220.0, min_mem=64.0, max_mem=4096.0)
        action = plan(POOR, view(cpu=200.0, reqs=reqs), cfg())
        assert action.new_cpu_per_replica == 220.0
        assert "clamped" in action.reason

    def test_at_max_replicas_only_vertical_remains(self):
        reqs = ScalingRequirements(min_replicas=1, max_replicas=2,
                                   min_cpu=100.0, max_cpu=2000.0, min_mem=64.0, max_mem=4096.0)
        action = plan(POOR, view(active=2, reqs=reqs), cfg())
        assert action.horizontal_delta == 0
        assert action.new_cpu_per_replica is not None

    def test_monotone_reaction_randomized(self):
        # Degrading one SLO's measured compliance never turns a scale-up into
        # a scale-down or no-op.
        rng = random.Random(17)
        config = cfg()
        web = view(active=rng.randint(1, 5))

        def direction(statuses):
            a = plan(analyze(statuses, config), web, config)
            if a is None:
                return 0
            if a.horizontal_delta > 0:
                return 1
            if a.horizontal_delta < 0:
                return -1
            if a.new_cpu_per_replica is not None:
                return 1 if a.new_cpu_per_replica > web.cpu_per_replica else -1
            return 0

        for _ in range(2000):
            strategy = rng.choice(list(StrategyLevel))
            measured = [rng.uniform(60, 100), rng.uniform(60, 100)]
            thresholds = [rng.uniform(50, 99), rng.uniform(50, 99)]
            base = [status(m, threshold=t, strategy=strategy, slo_id=f"S{i}")
                    for i, (m, t) in enumerate(zip(measured, thresholds))]
            idx = rng.randrange(2)
            degraded_value = measured[idx] - rng.uniform(0, 30)
            degraded = list(base)
            degraded[idx] = status(degraded_value, threshold=thresholds[idx],
                                   strategy=strategy, slo_id=f"S{idx}")
            if direction(base) == 1:
                assert direction(degraded) == 1


class TestExecute:
    def test_empty_actions_change_nothing(self):
        sim = one_replica_sim()
        before = sim.service_view("svc")
        assert execute([], sim) == []
        assert sim.service_view("svc") == before

    def test_scale_up_creates_starting_replica(self):
        sim = one_replica_sim()
        execute([ScalingAction("svc", horizontal_delta=1)], sim)
        assert sim.service_view("svc").active == 2
        assert sim.service_view("svc").ready == 1

    def test_vertical_then_scale_out_counts_the_surge_once(self):
        # The +1 lands while the vertical update's surge replica is starting.
        sim = one_replica_sim(cpu_alloc=200.0)
        execute([ScalingAction("svc", new_cpu_per_replica=240.0)], sim)
        execute([ScalingAction("svc", horizontal_delta=1)], sim)
        sim.advance(60.0)
        assert sim.service_view("svc").ready == 2

    def test_replica_count_follows_clamped_deltas_during_rollouts(self):
        rng = random.Random(31)
        traffic = random.Random(32)  # its own stream, so the rollout schedules stay put
        for _ in range(300):
            lo = rng.randint(1, 3)
            hi = rng.randint(lo, lo + 4)
            reqs = ScalingRequirements(min_replicas=lo, max_replicas=hi, min_cpu=50.0,
                                       max_cpu=2000.0, min_mem=64.0, max_mem=4096.0)
            expected = rng.randint(lo, hi)
            sim = one_replica_sim(replicas=expected, startup=5.0, requirements=reqs)
            replicas = sim.services["svc"].replicas

            def advance(until, arrivals=()):
                records = sim.advance(until, arrivals)
                # The counted backlog, and no resolved record keeps its replica alive.
                assert all(r.backlog == r.in_flight + len(r.queue) for r in replicas.values())
                assert all(r.replica is None for r in records)

            resolved = []
            sim.resolve_hooks.append(lambda req: resolved.append(req.request_id))
            submitted = 0
            for _ in range(rng.randint(1, 10)):
                delta = rng.choice((-1, 0, 1))
                cpu = rng.choice((None, 100.0, 150.0, 200.0))
                mem = rng.choice((None, 128.0, 256.0))
                execute([ScalingAction("svc", delta, cpu, mem)], sim)
                expected = max(lo, min(hi, expected + delta))
                assert list(replicas) == sorted(replicas)
                until = sim.now + rng.uniform(0.5, 4.5)  # shorter than startup: surges overlap
                times = sorted(traffic.uniform(sim.now, until) for _ in range(traffic.randint(0, 12)))
                advance(until, arrivals=[(t, "svc") for t in times])
                submitted += len(times)
                assert list(replicas) == sorted(replicas)
                assert sim.service_view("svc").ready >= 1  # the ready-replica floor
            advance(sim.now + 100.0)
            final = sim.service_view("svc")
            assert (final.ready, final.active, final.desired_replicas) == (expected,) * 3
            assert sorted(resolved) == list(range(submitted))  # each request resolves once

    def test_vertical_action_rolls_with_zero_downtime(self):
        sim = one_replica_sim(cpu_alloc=200.0)
        execute([ScalingAction("svc", new_cpu_per_replica=240.0)], sim)
        assert sim.service_view("svc").ready >= 1
        sim.advance(10.0)
        assert sim.service_view("svc").cpu_per_replica == 240.0
        assert sim.ready_count("svc") == 1


class TestLoopLiveness:
    def test_absorbable_overload_reaches_met(self):
        # 3 req/s against 1 req/s initial capacity; max configuration
        # (6 replicas, up to 400m each) is far more than enough.
        reqs = ScalingRequirements(min_replicas=1, max_replicas=6,
                                   min_cpu=50.0, max_cpu=400.0, min_mem=64.0, max_mem=4096.0)
        sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0, requirements=reqs, startup=2.0)
        controller = MsRaController(cfg(preferred_strategy="conservative", cooldown=30.0), "svc")
        store = MetricStore()
        arrivals = deque((i / 3.0, "svc") for i in range(1800))
        horizon, step = 600.0, 5.0
        met_at = None
        for i in range(1, int(horizon / step) + 1):
            t = i * step
            chunk = []
            while arrivals and arrivals[0][0] <= t:
                chunk.append(arrivals.popleft())
            for rec in sim.advance(t, arrivals=chunk):
                failed = rec.outcome != "completed"
                store.record(MetricSample(rec.completion_time, "svc", "response_time", rec.response_time))
                store.record(MetricSample(rec.completion_time, "svc", "failure", 1.0 if failed else 0.0))
            if t % 15.0 == 0:
                result = controller.tick(t, measured_statuses(controller, store, t), sim)
                if result.verdict == MET and met_at is None and t > 60:
                    met_at = t
        assert met_at is not None and met_at <= 600.0
        # capacity actually grew
        assert sim.service_view("svc").active > 1 or sim.service_view("svc").cpu_per_replica > 100.0


def test_controller_tick_treats_missing_data_as_met():
    sim = one_replica_sim(service="web")
    controller = MsRaController(cfg(), "web")
    result = controller.tick(15.0, measured_statuses(controller, MetricStore(), 15.0), sim)
    assert result.verdict == MET
    assert result.actions == ()
    assert result.min_error_budget is None
