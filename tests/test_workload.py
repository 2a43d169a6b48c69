import pytest

from msra.errors import ConfigurationError
from msra.workload import ClosedLoopDriver, LoadProfile, benchmark_profile

from util import one_replica_sim, record_arrivals


class TestProfile:
    def test_benchmark_profile_steps(self):
        profile = benchmark_profile()
        assert profile.phases[0] == (300.0, 10)
        assert profile.phases[3] == (300.0, 10)
        assert [users for _, users in profile.phases] == [10, 20, 30, 10, 30, 20]
        assert profile.total_duration == 1800.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(phases=((0.0, 10),))
        with pytest.raises(ConfigurationError):
            LoadProfile(phases=((10.0, -1),))
        with pytest.raises(ConfigurationError):
            LoadProfile(phases=((10.0, 1),), think_time=-1.0)


class TestClosedLoop:
    def test_single_user_cycle_hand_trace(self):
        # response 1s + think 1s -> one request every 2s over a 10s horizon
        sim = one_replica_sim(nominal=1.0, cpu_alloc=100.0)
        profile = LoadProfile(phases=((10.0, 1),), target_service="svc", think_time=1.0)
        arrivals = record_arrivals(sim)
        ClosedLoopDriver(sim, profile)
        sim.advance(10.0)
        assert arrivals == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_zero_users_no_arrivals(self):
        sim = one_replica_sim(nominal=0.2, cpu_alloc=100.0)
        profile = LoadProfile(phases=((5.0, 0), (5.0, 2), (5.0, 0)), target_service="svc",
                              think_time=1.0)
        times = record_arrivals(sim)
        ClosedLoopDriver(sim, profile)
        sim.advance(15.0)
        assert times, "the two-user phase must generate traffic"
        assert all(5.0 <= t < 10.0 for t in times)

    def test_zero_think_time_rate_is_inverse_response_time(self):
        # response 0.5s, no think: one request every 0.5s
        sim = one_replica_sim(nominal=0.5, cpu_alloc=100.0)
        profile = LoadProfile(phases=((5.0, 1),), target_service="svc", think_time=0.0)
        arrivals = record_arrivals(sim)
        ClosedLoopDriver(sim, profile)
        sim.advance(5.0)
        assert arrivals == [i * 0.5 for i in range(10)]

    def test_phase_boundary_adds_exactly_new_users(self):
        # 10 replicas keep the loop uncongested so old-user cycles stay off the boundary
        sim = one_replica_sim(nominal=0.3, cpu_alloc=100.0, replicas=10)
        profile = LoadProfile(phases=((5.0, 10), (5.0, 20)), target_service="svc", think_time=1.0)
        arrivals = record_arrivals(sim)
        ClosedLoopDriver(sim, profile)
        sim.advance(10.0)
        at_boundary = [t for t in arrivals if t == 5.0]
        assert len(at_boundary) == 10

    def test_surplus_users_retire_after_in_flight_resolves(self):
        sim = one_replica_sim(nominal=0.5, cpu_alloc=100.0, replicas=4)
        profile = LoadProfile(phases=((4.0, 4), (6.0, 1)), target_service="svc", think_time=1.0)
        times = record_arrivals(sim)
        ClosedLoopDriver(sim, profile)
        sim.advance(10.0)
        # after the transition settles only one user keeps cycling: spacing 1.5s
        tail = [t for t in times if t >= 6.0]
        assert len(tail) >= 2
        assert all(abs(b - a - 1.5) < 1e-9 for a, b in zip(tail, tail[1:]))

    def test_never_more_in_flight_than_users(self):
        sim = one_replica_sim(nominal=2.0, cpu_alloc=100.0)  # congested on purpose
        profile = LoadProfile(phases=((20.0, 3),), target_service="svc", think_time=0.5)
        arrivals = record_arrivals(sim)
        ClosedLoopDriver(sim, profile)
        records = sim.advance(40.0)
        events = [(t, 1) for t in arrivals]
        events += [(r.completion_time, -1) for r in records]
        events.sort()
        outstanding = peak = 0
        for _, delta in events:
            outstanding += delta
            peak = max(peak, outstanding)
        assert peak <= 3

    def test_stream_reproducible_from_seed(self):
        def run(seed):
            sim = one_replica_sim(nominal=0.4, cpu_alloc=100.0)
            profile = LoadProfile(phases=((15.0, 3),), target_service="svc",
                                  think_time=1.0, think_jitter=0.2)
            arrivals = record_arrivals(sim)
            ClosedLoopDriver(sim, profile, seed=seed)
            sim.advance(15.0)
            return arrivals

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_unknown_target_service(self):
        sim = one_replica_sim()
        with pytest.raises(ConfigurationError):
            ClosedLoopDriver(sim, LoadProfile(phases=((5.0, 1),), target_service="other"))
