"""Deterministic discrete-event model of a containerized service cluster.

Services hold replicas; each replica serves one request at a time from its own
FIFO queue. Arrivals are dispatched to the ready replica with the smallest
backlog, a count of the requests dispatched to it and not yet resolved (in
flight + queued), ties to the lowest replica id. Effective service time scales
inversely with the CPU allocation:

    s_eff = nominal_service_time * reference_cpu / cpu_alloc

so doubling a replica's CPU halves its service time. Requests that have not
completed within ``timeout`` seconds of arrival are removed and recorded as
``failed_timeout``. Rolling updates replace replicas one at a time with a
surge of one, so the ready count never dips during an allocation change.

Every service always has a ready replica to dispatch to (see ``_dispatch``).
Events fire in (time, event-kind rank, sequence) order, so every run is
bit-reproducible. A request pushes one terminal event when it starts service,
and holds its replica from then until it resolves.
An arrival at the current instant skips the heap for a FIFO lane, drained once
that instant's heap events have fired: arrivals rank last, earlier ones by seq.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .errors import BoundViolation, ConfigurationError, InputError

# Event-kind ranks for same-timestamp ordering. Timers fire first so phase
# changes apply before traffic; completions precede timeouts so a request
# finishing exactly at its deadline counts as completed.
TIMER = 0
STARTUP = 1
COMPLETE = 2
TIMEOUT = 3
ARRIVAL = 4

STARTING = "starting"
READY = "ready"
TERMINATING = "terminating"

COMPLETED = "completed"
FAILED_TIMEOUT = "failed_timeout"


@dataclass(frozen=True)
class ServerProfile:
    """Static performance characteristics of one service's replicas."""

    nominal_service_time: float = 0.5
    reference_cpu: float = 100.0
    startup_duration: float = 5.0
    startup_cpu_surge: float = 1.5
    memory_base: float = 100.0
    memory_per_inflight: float = 10.0

    def __post_init__(self):
        if self.nominal_service_time <= 0:
            raise ConfigurationError("nominal_service_time must be positive")
        if self.reference_cpu <= 0:
            raise ConfigurationError("reference_cpu must be positive")
        if self.startup_duration < 0:
            raise ConfigurationError("startup_duration must be non-negative")
        if self.startup_cpu_surge < 1:
            raise ConfigurationError("startup_cpu_surge must be >= 1")
        if self.memory_base < 0 or self.memory_per_inflight < 0:
            raise ConfigurationError("memory parameters must be non-negative")


@dataclass(frozen=True)
class ScalingRequirements:
    """Per-service scaling permissions and bounds."""

    horizontal_enabled: bool = True
    vertical_enabled: bool = True
    min_replicas: int = 1
    max_replicas: int = 10
    min_cpu: float = 100.0
    max_cpu: float = 4000.0

    def __post_init__(self):
        if not (self.horizontal_enabled or self.vertical_enabled):
            raise ConfigurationError("at least one scaling dimension must be enabled")
        if type(self.min_replicas) is not int or type(self.max_replicas) is not int:
            raise ConfigurationError("replica bounds must be integers")
        if self.min_replicas < 1:
            raise ConfigurationError("min_replicas must be >= 1")
        if self.min_cpu <= 0:
            raise ConfigurationError("min_cpu must be positive")
        for lo, hi, what in (
            (self.min_replicas, self.max_replicas, "replicas"),
            (self.min_cpu, self.max_cpu, "cpu"),
        ):
            if lo > hi:
                raise ConfigurationError(f"min > max for {what} bounds")

    def check_initial(self, replicas: int, cpu: float) -> None:
        """Raise ConfigurationError unless a starting replica count and allocation are within bounds."""
        if type(replicas) is not int or not self.min_replicas <= replicas <= self.max_replicas:
            raise ConfigurationError(f"initial replica count {replicas!r} is not an integer within bounds")
        if not self.min_cpu <= cpu <= self.max_cpu:
            raise ConfigurationError(f"initial cpu allocation {cpu} outside bounds")


@dataclass(slots=True)
class ReplicaState:
    replica_id: int
    cpu_alloc: float
    phase: str
    in_flight: int = 0
    queue: deque = field(default_factory=deque)
    busy_since: float | None = None
    backlog: int = 0  # requests dispatched here and not yet resolved: in_flight + len(queue)


@dataclass(frozen=True)
class UsageSample:
    """Busy CPU since the previous sample plus the instantaneous allocation picture."""

    used_cpu_seconds: float  # millicpu-seconds of actual serving time
    ready_cpu_alloc: float  # millicpu currently allocated to ready replicas
    total_cpu: float  # allocated millicpu, startup surge applied
    total_mem: float  # modeled MB: base plus per-request memory
    ready_replicas: int


@dataclass(frozen=True)
class ServiceView:
    """Immutable controller-facing snapshot of one service."""

    name: str
    ready: int
    active: int  # starting + ready
    desired_replicas: int
    cpu_per_replica: float
    requirements: ScalingRequirements


class RequestRecord:
    """One request, carried by its events and queues; ``outcome`` and
    ``completion_time`` are set when it resolves. ``replica`` is the replica
    serving it, set while it is in service only."""

    __slots__ = ("request_id", "service", "arrival_time", "start_service_time",
                 "completion_time", "outcome", "replica_id", "replica")

    def __init__(self, request_id: int, service: str, arrival_time: float):
        self.request_id = request_id
        self.service = service
        self.arrival_time = arrival_time
        self.start_service_time: float | None = None
        self.completion_time: float | None = None
        self.outcome: str | None = None
        self.replica_id: int | None = None
        self.replica: ReplicaState | None = None

    @property
    def response_time(self) -> float:
        return self.completion_time - self.arrival_time


class _Service:
    __slots__ = (
        "name", "profile", "requirements", "replicas",
        "desired_count", "desired_cpu",
        "replacement", "used_cpu_seconds", "usage_mark",
    )

    def __init__(self, name, profile, requirements, desired_count, cpu):
        self.name = name
        self.profile = profile
        self.requirements = requirements
        # Ids come from one increasing counter and dicts keep insertion order
        # through deletions, so iteration is in replica-id order.
        self.replicas: dict[int, ReplicaState] = {}
        self.desired_count = desired_count
        self.desired_cpu = cpu
        self.replacement: tuple[int, int] | None = None  # (new_id, old_id) in flight
        self.used_cpu_seconds = 0.0
        self.usage_mark = 0.0


class ClusterSim:
    """Single-threaded event loop over one simulated cluster."""

    def __init__(self, timeout: float = 10.0):
        if timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        self.now = 0.0
        self.timeout = timeout
        self.services: dict[str, _Service] = {}
        self.event_log: list[tuple] = []
        self.resolve_hooks: list = []
        self._events: list[tuple] = []
        self._lane: deque[RequestRecord] = deque()  # arrivals at self.now, not yet dispatched
        self._seq = 0
        self._next_replica_id = 0
        self._next_request_id = 0
        self._interval_records: list[RequestRecord] = []

    # ------------------------------------------------------------------ setup

    def add_service(
        self,
        name: str,
        profile: ServerProfile,
        requirements: ScalingRequirements,
        initial_replicas: int = 1,
        cpu_alloc: float | None = None,
    ) -> None:
        if name in self.services:
            raise ConfigurationError(f"service {name!r} already defined")
        cpu = profile.reference_cpu if cpu_alloc is None else float(cpu_alloc)
        requirements.check_initial(initial_replicas, cpu)
        svc = _Service(name, profile, requirements, initial_replicas, cpu)
        self.services[name] = svc
        for _ in range(initial_replicas):
            rid = self._next_replica_id
            self._next_replica_id += 1
            svc.replicas[rid] = ReplicaState(replica_id=rid, cpu_alloc=cpu, phase=READY)
            self._log("replica_ready", name, rid, "initial")

    # ------------------------------------------------------------- scheduling

    def schedule_timer(self, time: float, callback) -> None:
        """Run ``callback()`` when the clock reaches ``time``; fires before same-instant traffic."""
        if time < self.now:
            raise InputError(f"timer at {time} is in the past (now={self.now})")
        self._seq += 1
        heappush(self._events, (time, TIMER, self._seq, callback))

    def submit(self, time: float, service: str) -> int:
        """Schedule one request arrival; returns its request id. One at ``now`` skips the heap."""
        if service not in self.services:
            raise ConfigurationError(f"arrival references unknown service {service!r}")
        if time < self.now:
            raise InputError(f"arrival at {time} is in the past (now={self.now})")
        rid = self._next_request_id
        self._next_request_id += 1
        if time == self.now:
            self._lane.append(RequestRecord(rid, service, time))
        else:
            self._push(time, ARRIVAL, RequestRecord(rid, service, time))
        return rid

    def _push(self, time: float, kind: int, payload) -> None:
        self._seq += 1
        heappush(self._events, (time, kind, self._seq, payload))

    # ------------------------------------------------------------- event loop

    def advance(self, until: float, arrivals=()) -> list[RequestRecord]:
        """Process all events up to ``until``; returns the requests resolved in the interval.

        ``arrivals`` is an optional pre-sorted list of (time, service) tuples.
        """
        if until < self.now:
            raise InputError(f"cannot advance backwards to {until} (now={self.now})")
        last = None
        for time, service in arrivals:
            if last is not None and time < last:
                raise InputError("arrival times must be non-decreasing")
            if service not in self.services:
                raise ConfigurationError(f"arrival references unknown service {service!r}")
            if time < self.now or time > until:
                raise InputError(f"arrival at {time} outside [{self.now}, {until}]")
            last = time
        for time, service in arrivals:
            self.submit(time, service)

        self._interval_records = []
        events, lane, services = self._events, self._lane, self.services
        dispatch, end_service, pop = self._dispatch, self._end_service, heappop
        while True:
            # The lane waits until no heap event is left at this instant, and
            # empties before the clock moves. That is the (time, kind, seq)
            # order: every kind but ARRIVAL ranks first, and a heap ARRIVAL for
            # now was pushed before the clock got here, so with a lower seq than
            # any lane entry. Lane entries take no seq; gaps change no tie order.
            if lane:
                if not events or events[0][0] > self.now:
                    req = lane.popleft()
                    dispatch(services[req.service], req)
                    continue
            elif not events or events[0][0] > until:
                break
            time, kind, _seq, payload = pop(events)
            self.now = time
            # Kinds in order of frequency: a completion and a think timer per request.
            if kind == COMPLETE:
                end_service(payload, COMPLETED)
            elif kind == TIMER:
                payload()
            elif kind == TIMEOUT:
                end_service(payload, FAILED_TIMEOUT)
            elif kind == STARTUP:
                self._on_startup(payload)
            else:
                dispatch(services[payload.service], payload)
        self.now = until
        return self._interval_records

    # request lifecycle -------------------------------------------------------

    def _dispatch(self, svc: _Service, req: RequestRecord) -> None:
        # A ready replica always exists. A service starts with min_replicas >= 1
        # ready replicas. Start-up takes one constant time per service, so
        # replicas become ready in id order: any ready replica has a lower id
        # than every starting one. Scale-in keeps the lowest ids, and a
        # replaced replica drains only after its successor is ready.
        best = None
        for rep in svc.replicas.values():
            if rep.phase == READY and (best is None or rep.backlog < best.backlog):
                best = rep
        best.backlog += 1
        if best.in_flight == 0:
            self._start_service(svc, best, req)
        else:
            best.queue.append(req)

    def _start_service(self, svc: _Service, rep: ReplicaState, req: RequestRecord) -> None:
        now = self.now
        req.replica = rep
        req.replica_id = rep.replica_id
        req.start_service_time = now
        rep.in_flight = 1
        rep.busy_since = now
        profile = svc.profile
        done = now + profile.nominal_service_time * profile.reference_cpu / rep.cpu_alloc
        deadline = req.arrival_time + self.timeout
        # The one terminal event. A queued request needs none before it starts:
        # replica queues are FIFO in arrival order and the timeout is one
        # constant, so the request ahead resolves by its own deadline, no later
        # than this one's, and this one starts by its deadline.
        self._seq += 1
        if done <= deadline:
            heappush(self._events, (done, COMPLETE, self._seq, req))
        else:
            # Same-instant timeouts fire in request-id order, then push order: the
            # order they would have if every request pushed its timeout on submit.
            heappush(self._events, (deadline, TIMEOUT, (req.request_id, self._seq), req))

    def _end_service(self, req: RequestRecord, outcome: str) -> None:
        # The request's one terminal event: it is in service on its replica.
        rep = req.replica
        req.replica = None
        svc = self.services[req.service]
        now = self.now
        svc.used_cpu_seconds += rep.cpu_alloc * (now - rep.busy_since)
        rep.busy_since = None
        rep.in_flight = 0
        rep.backlog -= 1
        req.outcome = outcome
        req.completion_time = now
        self._interval_records.append(req)
        for hook in self.resolve_hooks:
            hook(req)
        if rep.queue:
            self._start_service(svc, rep, rep.queue.popleft())
        elif rep.phase == TERMINATING:
            self._maybe_remove(svc, rep)

    # replica lifecycle --------------------------------------------------------

    def _on_startup(self, payload) -> None:
        name, rid = payload
        svc = self.services[name]
        rep = svc.replicas.get(rid)
        if rep is None:
            return  # terminated, and so removed, while starting
        self._make_ready(svc, rep)

    def _make_ready(self, svc: _Service, rep: ReplicaState) -> None:
        rep.phase = READY
        self._log("replica_ready", svc.name, rep.replica_id, "")
        if svc.replacement and svc.replacement[0] == rep.replica_id:
            # Live and not terminating: only updates terminate replicas, and
            # every update clears the replacement.
            old = svc.replicas[svc.replacement[1]]
            svc.replacement = None
            self._begin_termination(svc, old)
            self._advance_pipeline(svc)

    def _begin_termination(self, svc: _Service, rep: ReplicaState) -> None:
        prior = rep.phase
        rep.phase = TERMINATING
        self._log("replica_terminating", svc.name, rep.replica_id, f"was={prior}")
        self._maybe_remove(svc, rep)

    def _maybe_remove(self, svc: _Service, rep: ReplicaState) -> None:
        if rep.phase == TERMINATING and rep.backlog == 0:
            del svc.replicas[rep.replica_id]
            self._log("replica_removed", svc.name, rep.replica_id, "")

    def _spawn(self, svc: _Service, replaces: int | None = None) -> ReplicaState:
        rid = self._next_replica_id
        self._next_replica_id += 1
        rep = ReplicaState(replica_id=rid, cpu_alloc=svc.desired_cpu, phase=STARTING)
        svc.replicas[rid] = rep
        if replaces is not None:
            svc.replacement = (rid, replaces)
        self._log("replica_created", svc.name, rid, f"cpu={svc.desired_cpu:g}")
        if svc.profile.startup_duration == 0:
            self._make_ready(svc, rep)
        else:
            self._push(self.now + svc.profile.startup_duration, STARTUP, (svc.name, rid))
        return rep

    def _advance_pipeline(self, svc: _Service) -> None:
        # At most one replacement in flight: surge of one, zero unavailability.
        # The next to replace is the lowest-id live replica whose CPU
        # allocation differs from the desired one. A replica never changes its allocation
        # and every replica spawned since the last update has the desired one,
        # so these are the replicas the last update found stale, minus those
        # replaced or terminated since.
        if svc.replacement is not None:
            return
        for old in svc.replicas.values():
            if old.phase != TERMINATING and old.cpu_alloc != svc.desired_cpu:
                self._spawn(svc, replaces=old.replica_id)
                return

    # ------------------------------------------------------------- operations

    def apply_rolling_update(
        self,
        service: str,
        target_replicas: int,
        cpu: float | None = None,
    ) -> None:
        """Move a service toward a new replica count and/or per-replica CPU allocation.

        Validation is all-or-nothing: a target outside the service's
        ScalingRequirements raises BoundViolation and changes nothing.
        """
        if service not in self.services:
            raise ConfigurationError(f"unknown service {service!r}")
        svc = self.services[service]
        reqs = svc.requirements
        new_cpu = svc.desired_cpu if cpu is None else float(cpu)
        if not reqs.min_replicas <= target_replicas <= reqs.max_replicas:
            raise BoundViolation(
                f"{service}: target {target_replicas} replicas outside "
                f"[{reqs.min_replicas}, {reqs.max_replicas}]"
            )
        if not reqs.min_cpu <= new_cpu <= reqs.max_cpu:
            raise BoundViolation(f"{service}: cpu {new_cpu} outside [{reqs.min_cpu}, {reqs.max_cpu}]")
        # desired_count, not the live replicas: a replacement's surge replica
        # is no change of replica count.
        if target_replicas != svc.desired_count and not reqs.horizontal_enabled:
            raise BoundViolation(f"{service}: horizontal scaling is disabled")
        if new_cpu != svc.desired_cpu and not reqs.vertical_enabled:
            raise BoundViolation(f"{service}: vertical scaling is disabled")

        svc.desired_count = target_replicas
        svc.desired_cpu = new_cpu
        svc.replacement = None  # superseding update recomputes the pipeline

        active = [r for r in svc.replicas.values() if r.phase != TERMINATING]
        excess = len(active) - target_replicas
        if excess > 0:
            for rep in reversed(active[-excess:]):
                self._begin_termination(svc, rep)
        elif excess < 0:
            for _ in range(-excess):
                self._spawn(svc)
        self._advance_pipeline(svc)

    def take_usage_sample(self) -> dict[str, UsageSample]:
        """Busy CPU-seconds since the last sample plus current allocations, per service."""
        out = {}
        for name, svc in self.services.items():
            profile = svc.profile
            cpu = mem = alloc_ready = 0.0
            ready = 0
            for rep in svc.replicas.values():
                if rep.busy_since is not None:
                    svc.used_cpu_seconds += rep.cpu_alloc * (self.now - rep.busy_since)
                    rep.busy_since = self.now
                surge = profile.startup_cpu_surge if rep.phase == STARTING else 1.0
                cpu += rep.cpu_alloc * surge
                mem += profile.memory_base + profile.memory_per_inflight * rep.in_flight
                if rep.phase == READY:
                    ready += 1
                    alloc_ready += rep.cpu_alloc
            delta = svc.used_cpu_seconds - svc.usage_mark
            svc.usage_mark = svc.used_cpu_seconds
            out[name] = UsageSample(used_cpu_seconds=delta, ready_cpu_alloc=alloc_ready,
                                    total_cpu=cpu, total_mem=mem, ready_replicas=ready)
        return out

    # ------------------------------------------------------------ introspection

    def service_view(self, name: str) -> ServiceView:
        svc = self.services[name]
        replicas = svc.replicas.values()
        return ServiceView(
            name=name,
            ready=sum(1 for r in replicas if r.phase == READY),
            active=sum(1 for r in replicas if r.phase != TERMINATING),
            desired_replicas=svc.desired_count,
            cpu_per_replica=svc.desired_cpu,
            requirements=svc.requirements,
        )

    def views(self) -> dict[str, ServiceView]:
        return {name: self.service_view(name) for name in self.services}

    def _log(self, kind: str, service: str, replica_id: int, detail: str) -> None:
        self.event_log.append((self.now, kind, service, replica_id, detail))
