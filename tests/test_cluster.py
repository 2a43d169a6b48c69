import random

import pytest

from msra.cluster import (
    STARTING,
    STARTUP,
    ClusterSim,
    ScalingRequirements,
    ServerProfile,
)
from msra.errors import BoundViolation, ConfigurationError, ConfigurationWarning, InputError

from util import fifo_completions, one_replica_sim, ready_trace


class TestServiceModel:
    def test_single_request_completes_after_service_time(self):
        sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0)
        records = sim.advance(5.0, arrivals=[(0.0, "svc")])
        assert len(records) == 1
        assert records[0].outcome == "completed"
        assert records[0].completion_time == 1.0

    def test_fifo_queueing_hand_trace(self):
        # Second arrival at 0.2 waits 0.8s then is served for 1.0s.
        oracle = fifo_completions([0.0, 0.2], 1.0)
        assert oracle == [1.0, 2.0]
        sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0)
        records = sim.advance(5.0, arrivals=[(0.0, "svc"), (0.2, "svc")])
        assert [r.completion_time for r in records] == oracle
        assert records[1].start_service_time == 1.0

    def test_dd1_at_half_utilization_has_flat_response_times(self):
        arrivals = [(i * 2.0, "svc") for i in range(100)]
        oracle = fifo_completions([t for t, _ in arrivals], 1.0)
        sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0)
        records = sim.advance(300.0, arrivals=arrivals)
        assert [r.completion_time for r in records] == oracle
        assert all(r.response_time == 1.0 for r in records)

    def test_doubling_cpu_halves_service_exactly(self):
        arrivals = [(0.0, "svc"), (0.2, "svc")]
        slow = one_replica_sim(nominal=1.0, cpu_alloc=100.0).advance(10.0, arrivals=arrivals)
        fast = one_replica_sim(nominal=1.0, cpu_alloc=200.0).advance(10.0, arrivals=arrivals)
        assert [r.completion_time for r in fast] == [c / 2 for c in (1.0, 2.0)]
        assert all(f.completion_time <= s.completion_time for f, s in zip(fast, slow))

    def test_dispatch_prefers_smallest_backlog_then_lowest_id(self):
        sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0, replicas=2)
        sim.advance(0.5, arrivals=[(0.0, "svc"), (0.0, "svc"), (0.0, "svc")])
        starts = [(row[3], row[4]) for row in sim.event_log if row[1] == "start"]
        # req0 -> replica 0, req1 -> replica 1, req2 ties and queues on replica 0
        assert starts == [(0, 0), (1, 1)]
        records = sim.advance(5.0)
        third = next(r for r in records if r.request_id == 2)
        assert third.start_service_time == 1.0

    def test_unknown_service_rejected(self):
        sim = one_replica_sim()
        with pytest.raises(ConfigurationError):
            sim.advance(1.0, arrivals=[(0.0, "nope")])

    def test_non_monotone_arrivals_rejected(self):
        sim = one_replica_sim()
        with pytest.raises(InputError):
            sim.advance(1.0, arrivals=[(0.5, "svc"), (0.2, "svc")])

    def test_cannot_advance_backwards(self):
        sim = one_replica_sim()
        sim.advance(5.0)
        with pytest.raises(InputError):
            sim.advance(1.0)

    def test_events_at_interval_end_are_included(self):
        sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0)
        records = sim.advance(1.0, arrivals=[(0.0, "svc")])
        assert [r.completion_time for r in records] == [1.0]


class TestTimeouts:
    def test_slow_service_times_out_at_deadline(self):
        sim = one_replica_sim(nominal=20.0, cpu_alloc=100.0, timeout=10.0)
        records = sim.advance(30.0, arrivals=[(0.0, "svc")])
        assert records[0].outcome == "failed_timeout"
        assert records[0].completion_time == 10.0  # arrival + timeout

    def test_completion_exactly_at_deadline_counts_completed(self):
        sim = one_replica_sim(nominal=10.0, cpu_alloc=100.0, timeout=10.0)
        records = sim.advance(30.0, arrivals=[(0.0, "svc")])
        assert records[0].outcome == "completed"
        assert records[0].completion_time == 10.0

    def test_queued_request_times_out_and_frees_nothing(self):
        sim = one_replica_sim(nominal=8.0, cpu_alloc=100.0, timeout=10.0)
        records = sim.advance(40.0, arrivals=[(0.0, "svc"), (0.5, "svc")])
        by_id = {r.request_id: r for r in records}
        assert by_id[0].outcome == "completed" and by_id[0].completion_time == 8.0
        # second request starts at 8.0 but cannot finish by 10.5
        assert by_id[1].outcome == "failed_timeout"
        assert by_id[1].completion_time == 10.5

    def test_pending_request_without_ready_replica_times_out(self):
        # Synthetic: force the only replica back into startup to expose the
        # service-level pending queue.
        sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0, timeout=10.0)
        svc = sim.services["svc"]
        replica = next(iter(svc.replicas.values()))
        replica.phase = STARTING
        sim._push(30.0, STARTUP, ("svc", replica.replica_id))
        records = sim.advance(60.0, arrivals=[(0.0, "svc"), (25.0, "svc")])
        by_id = {r.request_id: r for r in records}
        assert by_id[0].outcome == "failed_timeout" and by_id[0].completion_time == 10.0
        # the second arrival was still pending when the replica came up at 30
        assert by_id[1].outcome == "completed"
        assert by_id[1].start_service_time == 30.0


class TestConservationAndDeterminism:
    def test_every_arrival_yields_exactly_one_record(self):
        rng = random.Random(42)
        for _ in range(20):
            n = rng.randint(1, 60)
            times = sorted(round(rng.uniform(0, 30), 3) for _ in range(n))
            sim = one_replica_sim(nominal=rng.choice([0.5, 1.0, 3.0]), cpu_alloc=100.0,
                                  replicas=rng.randint(1, 3))
            records = sim.advance(100.0, arrivals=[(t, "svc") for t in times])
            assert len(records) == n
            assert len({r.request_id for r in records}) == n
            assert all(r.outcome in ("completed", "failed_timeout") for r in records)

    def test_record_time_ordering_invariants(self):
        sim = one_replica_sim(nominal=2.0, cpu_alloc=100.0)
        arrivals = [(float(i), "svc") for i in range(10)]
        for r in sim.advance(100.0, arrivals=arrivals):
            if r.outcome == "completed":
                assert r.arrival_time <= r.start_service_time <= r.completion_time
            else:
                assert r.completion_time == r.arrival_time + 10.0

    def test_identical_inputs_give_identical_logs(self):
        def run():
            sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0, replicas=2)
            sim.schedule_timer(3.0, lambda: sim.apply_rolling_update("svc", 3))
            records = sim.advance(50.0, arrivals=[(i * 0.4, "svc") for i in range(40)])
            return sim.event_log, [(r.request_id, r.completion_time, r.outcome) for r in records]

        log_a, rec_a = run()
        log_b, rec_b = run()
        assert log_a == log_b
        assert rec_a == rec_b

    def test_dd_c_with_spare_capacity_never_times_out(self):
        # 2 replicas at 1 req/s each vs 1.8 req/s arrivals: queue stays bounded.
        sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0, replicas=2)
        arrivals = [(i / 1.8, "svc") for i in range(200)]
        records = sim.advance(300.0, arrivals=arrivals)
        assert all(r.outcome == "completed" for r in records)
        assert max(r.response_time for r in records) < 3.0

    def test_more_cpu_never_delays_any_request(self):
        rng = random.Random(99)
        for _ in range(10):
            times = sorted(round(rng.uniform(0, 20), 3) for _ in range(40))
            base = one_replica_sim(nominal=0.8, cpu_alloc=100.0)
            boosted = one_replica_sim(nominal=0.8, cpu_alloc=160.0)
            rec_base = {r.request_id: r for r in base.advance(80.0, arrivals=[(t, "svc") for t in times])}
            rec_boost = {r.request_id: r for r in boosted.advance(80.0, arrivals=[(t, "svc") for t in times])}
            for rid, r in rec_base.items():
                assert rec_boost[rid].completion_time <= r.completion_time


class TestResourceUsage:
    def test_idle_ready_replica_uses_base_memory(self):
        sim = one_replica_sim()
        usage = sim.take_usage_sample()["svc"]
        assert usage.total_mem == 100.0
        assert usage.ready_replicas == 1

    def test_starting_replica_cpu_surge(self):
        sim = one_replica_sim(cpu_alloc=200.0, startup=5.0,
                              requirements=ScalingRequirements(min_replicas=1, max_replicas=5,
                                                               min_cpu=50.0, max_cpu=2000.0,
                                                               min_mem=64.0, max_mem=4096.0))
        sim.apply_rolling_update("svc", 2)
        usage = sim.take_usage_sample()["svc"]
        assert usage.total_cpu == 200.0 + 200.0 * 1.5
        assert usage.ready_replicas == 1

    def test_memory_scales_with_in_flight(self):
        sim = one_replica_sim(replicas=2)
        for replica in sim.services["svc"].replicas.values():
            replica.in_flight = 3  # direct arithmetic check over synthetic state
        usage = sim.take_usage_sample()["svc"]
        assert usage.total_mem == 260.0


class TestRollingUpdate:
    def test_pure_scale_out_keeps_existing_ready(self):
        sim = one_replica_sim(replicas=3, startup=5.0)
        sim.apply_rolling_update("svc", 4)
        view = sim.service_view("svc")
        assert view.ready == 3 and view.active == 4
        sim.advance(4.9)
        assert sim.service_view("svc").ready == 3
        sim.advance(5.0)
        assert sim.service_view("svc").ready == 4

    def test_vertical_change_replaces_with_zero_downtime(self):
        sim = one_replica_sim(cpu_alloc=200.0, startup=5.0)
        sim.apply_rolling_update("svc", 1, cpu=240.0)
        assert sim.service_view("svc").ready == 1  # old replica still serving
        sim.advance(10.0)
        view = sim.service_view("svc")
        assert view.ready == 1 and view.cpu_per_replica == 240.0
        replicas = list(sim.services["svc"].replicas.values())
        assert len(replicas) == 1 and replicas[0].cpu_alloc == 240.0
        trace = ready_trace(sim.event_log, "svc")
        assert min(count for _, count in trace) >= 1

    def test_vertical_change_updates_all_replicas_one_at_a_time(self):
        sim = one_replica_sim(replicas=3, cpu_alloc=200.0, startup=2.0)
        sim.apply_rolling_update("svc", 3, cpu=300.0)
        sim.advance(30.0)
        allocs = [r.cpu_alloc for r in sim.services["svc"].replicas.values()]
        assert allocs == [300.0, 300.0, 300.0]
        trace = ready_trace(sim.event_log, "svc")
        assert min(count for t, count in trace if t > 0) >= 3
        # surge of one: never more than 4 replicas existed at once
        assert max(count for _, count in trace) <= 4

    def test_scale_in_drains_higher_id_and_drops_nothing(self):
        sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0, replicas=2)
        arrivals = [(0.0, "svc")] * 6  # three per replica
        sim.advance(0.5, arrivals=arrivals)
        sim.apply_rolling_update("svc", 1)
        remaining = sim.services["svc"].replicas
        assert [r.phase for r in remaining.values()] == ["ready", "terminating"]
        records = sim.advance(30.0)
        completed = {r.request_id for r in records}
        assert completed == {0, 1, 2, 3, 4, 5}
        assert len(sim.services["svc"].replicas) == 1
        assert 0 in sim.services["svc"].replicas  # the lower id survived

    def test_ready_floor_is_min_of_previous_and_target(self):
        sim = one_replica_sim(replicas=3)
        sim.apply_rolling_update("svc", 1)
        trace = ready_trace(sim.event_log, "svc")
        assert trace[-1][1] == 1
        assert min(count for _, count in trace[3:]) >= 1

    def test_out_of_bounds_rejected_without_side_effects(self):
        sim = one_replica_sim(replicas=2)
        before = len(sim.services["svc"].replicas)
        with pytest.raises(BoundViolation):
            sim.apply_rolling_update("svc", 11)
        with pytest.raises(BoundViolation):
            sim.apply_rolling_update("svc", 0)
        with pytest.raises(BoundViolation):
            sim.apply_rolling_update("svc", 2, cpu=5000.0)
        with pytest.raises(BoundViolation):
            sim.apply_rolling_update("svc", 2, mem=1.0)
        view = sim.service_view("svc")
        assert len(sim.services["svc"].replicas) == before
        assert view.active == 2 and view.cpu_per_replica == 100.0

    def test_disabled_dimensions_are_rejected(self):
        horizontal_only = ScalingRequirements(
            horizontal_enabled=True, vertical_enabled=False,
            min_replicas=1, max_replicas=5, min_cpu=50.0, max_cpu=2000.0,
            min_mem=64.0, max_mem=4096.0,
        )
        sim = one_replica_sim(requirements=horizontal_only)
        with pytest.raises(BoundViolation):
            sim.apply_rolling_update("svc", 1, cpu=150.0)
        vertical_only = ScalingRequirements(
            horizontal_enabled=False, vertical_enabled=True,
            min_replicas=1, max_replicas=5, min_cpu=50.0, max_cpu=2000.0,
            min_mem=64.0, max_mem=4096.0,
        )
        sim2 = one_replica_sim(requirements=vertical_only, service="svc")
        with pytest.raises(BoundViolation):
            sim2.apply_rolling_update("svc", 2)

    def test_update_during_update_supersedes(self):
        sim = one_replica_sim(replicas=2, cpu_alloc=200.0, startup=5.0)
        sim.apply_rolling_update("svc", 2, cpu=240.0)
        sim.advance(2.0)
        sim.apply_rolling_update("svc", 2, cpu=288.0)
        sim.advance(60.0)
        view = sim.service_view("svc")
        assert view.active == 2 and view.ready == 2
        assert all(r.cpu_alloc == 288.0 for r in sim.services["svc"].replicas.values())
        trace = ready_trace(sim.event_log, "svc")
        assert min(count for _, count in trace[2:]) >= 2


def test_stateful_with_horizontal_scaling_warns():
    sim = ClusterSim()
    profile = ServerProfile(stateful=True)
    reqs = ScalingRequirements(min_replicas=1, max_replicas=3,
                               min_cpu=50.0, max_cpu=2000.0, min_mem=64.0, max_mem=4096.0)
    with pytest.warns(ConfigurationWarning):
        sim.add_service("db", profile, reqs, cpu_alloc=100.0, mem_alloc=128.0)


def test_event_log_export(tmp_path):
    sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0)
    sim.advance(5.0, arrivals=[(0.0, "svc")])
    path = tmp_path / "events.csv"
    sim.export_event_log(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,event_kind,service,replica_id,request_id,detail"
    kinds = [line.split(",")[1] for line in lines[1:]]
    assert kinds == ["replica_ready", "arrival", "start", "complete"]


def test_profile_and_requirement_validation():
    with pytest.raises(ConfigurationError):
        ServerProfile(nominal_service_time=0.0)
    with pytest.raises(ConfigurationError):
        ServerProfile(startup_cpu_surge=0.5)
    with pytest.raises(ConfigurationError):
        ScalingRequirements(horizontal_enabled=False, vertical_enabled=False)
    with pytest.raises(ConfigurationError):
        ScalingRequirements(min_replicas=3, max_replicas=2)
    with pytest.raises(ConfigurationError):
        ScalingRequirements(min_cpu=0.0)
