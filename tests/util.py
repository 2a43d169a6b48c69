"""Shared test helpers: independent oracles, event-log analyzers and recorders.

The oracles re-derive expected behavior from first principles (queueing
recurrences, plain counting) without touching the simulator's event loop, so
they stay meaningful as checks against it.
"""

from msra.cluster import ClusterSim, ScalingRequirements, ServerProfile


def fifo_completions(arrival_times, service_time):
    """Single-server FIFO completion times: c_i = max(a_i, c_{i-1}) + s."""
    completions = []
    free_at = float("-inf")
    for a in arrival_times:
        start = max(a, free_at)
        free_at = start + service_time
        completions.append(free_at)
    return completions


def ready_trace(event_log, service):
    """(time, ready_count) steps reconstructed from replica lifecycle log rows."""
    count = 0
    trace = []
    for time, kind, svc, _rid, detail in event_log:
        if svc != service:
            continue
        if kind == "replica_ready":
            count += 1
        elif kind == "replica_terminating" and detail == "was=ready":
            count -= 1
        else:
            continue
        trace.append((time, count))
    return trace


def record_arrivals(sim):
    """Wrap ``sim.submit``; the returned list gains each submitted request's arrival time."""
    times = []
    submit = sim.submit

    def recording(time, service):
        times.append(time)
        return submit(time, service)

    sim.submit = recording
    return times


def one_replica_sim(
    nominal=1.0,
    reference_cpu=100.0,
    cpu_alloc=None,
    timeout=10.0,
    replicas=1,
    startup=5.0,
    requirements=None,
    service="svc",
):
    """Small cluster with a single service, for hand-traceable scenarios."""
    sim = ClusterSim(timeout=timeout)
    profile = ServerProfile(
        nominal_service_time=nominal,
        reference_cpu=reference_cpu,
        startup_duration=startup,
        startup_cpu_surge=1.5,
        memory_base=100.0,
        memory_per_inflight=10.0,
    )
    reqs = requirements or ScalingRequirements(
        min_replicas=1, max_replicas=10, min_cpu=50.0, max_cpu=2000.0,
        min_mem=64.0, max_mem=4096.0,
    )
    sim.add_service(service, profile, reqs, initial_replicas=replicas,
                    cpu_alloc=cpu_alloc or reference_cpu, mem_alloc=128.0)
    return sim
