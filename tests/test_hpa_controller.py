import random

import pytest

from msra.controller_hpa import HpaConfig, HpaController, desired_replicas, stabilized_desired
from msra.errors import ConfigurationError, InputError
from msra.telemetry import MetricSample, MetricStore

from util import one_replica_sim


CFG60 = HpaConfig(cpu_threshold=60.0, stabilization_window=40.0, sync_period=15.0,
                  min_replicas=1, max_replicas=20)


class TestDesiredReplicas:
    def test_standard_formula(self):
        assert desired_replicas(5, 90.0, CFG60) == 8  # ceil(5 * 1.5)

    def test_utilization_at_threshold_unchanged(self):
        assert desired_replicas(5, 60.0, CFG60) == 5

    def test_tolerance_band_suppresses_small_drift(self):
        assert desired_replicas(4, 63.0, CFG60) == 4   # ratio 1.05
        assert desired_replicas(4, 55.0, CFG60) == 4   # ratio 0.917

    def test_scale_down_formula(self):
        assert desired_replicas(4, 30.0, CFG60) == 2  # ceil(4 * 0.5)

    def test_clamped_to_bounds(self):
        assert desired_replicas(4, 1.0, CFG60) == 1
        small = HpaConfig(cpu_threshold=60.0, max_replicas=10)
        assert desired_replicas(9, 100.0, small) == 10

    def test_requires_at_least_one_replica(self):
        with pytest.raises(InputError):
            desired_replicas(0, 50.0, CFG60)


class TestStabilization:
    def test_drop_is_deferred_to_window_max(self):
        assert stabilized_desired([8, 8, 6], 2) == 8

    def test_scale_up_bypasses_window(self):
        assert stabilized_desired([8, 8, 6], 10) == 10

    def test_empty_history_passthrough(self):
        assert stabilized_desired([], 3) == 3

    def test_never_below_any_raw_in_window(self):
        rng = random.Random(23)
        for _ in range(500):
            history = [rng.randint(1, 20) for _ in range(rng.randint(0, 8))]
            raw = rng.randint(1, 20)
            target = stabilized_desired(history, raw)
            assert target >= raw
            assert all(target >= h for h in history)


def feed_utilization(store, service, t, util_pct, alloc):
    store.record(MetricSample(t, service, "cpu_usage", alloc * util_pct / 100.0))
    store.record(MetricSample(t, service, "cpu_alloc", alloc))


class TestTick:
    def make(self, replicas=2):
        sim = one_replica_sim(nominal=0.5, cpu_alloc=100.0, replicas=replicas, startup=1.0)
        store = MetricStore()
        return sim, HpaController(CFG60, "svc", store), store

    def test_scale_down_waits_for_window_scale_up_does_not(self):
        sim, controller, store = self.make(replicas=2)
        schedule = [(15.0, 90.0), (30.0, 90.0), (45.0, 10.0), (60.0, 10.0), (75.0, 10.0), (90.0, 95.0)]
        actives = []
        for t, util in schedule:
            sim.advance(t)
            alloc = sim.take_usage_sample()["svc"].ready_cpu_alloc or 100.0
            feed_utilization(store, "svc", t, util, alloc)
            controller.tick(t, (), sim)
            actives.append(sim.service_view("svc").active)
        # ramp 2->3->5; the drop to 1 is held at 5 until the high raws age out
        # of the 40s window (last raw 5 recorded at t=30); spike rescales at once
        assert actives == [3, 5, 5, 5, 1, 2]

    def test_never_emits_vertical_changes(self):
        sim, controller, store = self.make(replicas=1)
        for t in (15.0, 30.0, 45.0):
            sim.advance(t)
            feed_utilization(store, "svc", t, 95.0, 100.0)
            controller.tick(t, (), sim)
        assert all(r.cpu_alloc == 100.0 for r in sim.services["svc"].replicas.values())
        assert sim.service_view("svc").active > 1

    def test_in_band_utilization_is_noop(self):
        sim, controller, store = self.make(replicas=2)
        sim.advance(15.0)
        feed_utilization(store, "svc", 15.0, 60.0, 200.0)
        decision = controller.tick(15.0, (), sim)
        assert not decision.applied
        assert sim.service_view("svc").active == 2

    def test_no_samples_is_noop_with_note(self):
        sim, controller, store = self.make()
        sim.advance(15.0)
        decision = controller.tick(15.0, (), sim)
        assert not decision.applied
        assert decision.note == "no utilization samples"

    def test_output_stays_within_bounds(self):
        cfg = HpaConfig(cpu_threshold=60.0, stabilization_window=40.0, sync_period=15.0,
                        min_replicas=1, max_replicas=3)
        sim = one_replica_sim(nominal=0.5, cpu_alloc=100.0, replicas=2, startup=1.0)
        store = MetricStore()
        controller = HpaController(cfg, "svc", store)
        for t in (15.0, 30.0, 45.0, 60.0):
            sim.advance(t)
            feed_utilization(store, "svc", t, 100.0, 100.0)
            controller.tick(t, (), sim)
        assert sim.service_view("svc").active == 3


def test_config_validation():
    with pytest.raises(ConfigurationError):
        HpaConfig(cpu_threshold=0.0)
    # At tolerance 0.10 the HPA scales up only above 1.1 x threshold, out of
    # reach from 100 / 1.1 = 90.9 up.
    with pytest.raises(ConfigurationError, match=r"100 / \(1 \+ tolerance\)"):
        HpaConfig(cpu_threshold=95.0)
    assert HpaConfig(cpu_threshold=90.0).cpu_threshold == 90.0
    assert HpaConfig(cpu_threshold=95.0, tolerance=0.0).cpu_threshold == 95.0
    with pytest.raises(ConfigurationError):
        HpaConfig(cpu_threshold=100.0, tolerance=0.0)
    with pytest.raises(ConfigurationError):
        HpaConfig(cpu_threshold=60.0, sync_period=0.0)
    with pytest.raises(ConfigurationError):
        HpaConfig(cpu_threshold=60.0, min_replicas=5, max_replicas=2)


@pytest.mark.parametrize("tolerance", [-1.0, -0.5, float("nan"), float("inf")])
def test_tolerance_must_be_non_negative_and_finite(tolerance):
    # -1.0 divided by zero in the ceiling; -0.5 inverted the band.
    with pytest.raises(ConfigurationError, match="tolerance"):
        HpaConfig(cpu_threshold=60.0, tolerance=tolerance)
