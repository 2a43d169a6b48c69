"""Deterministic discrete-event model of a containerized service cluster.

Services hold replicas; each replica serves one request at a time from its own
FIFO queue. Arrivals are dispatched to the ready replica with the smallest
backlog (in flight + queued), ties to the lowest replica id. Effective service
time scales inversely with the CPU allocation:

    s_eff = nominal_service_time * reference_cpu / cpu_alloc

so doubling a replica's CPU halves its service time. Requests that have not
completed within ``timeout`` seconds of arrival are removed and recorded as
``failed_timeout``. Rolling updates replace replicas one at a time with a
surge of one, so the ready count never dips during an allocation change.

Ties between simultaneous events break on (time, event-kind rank, sequence),
which makes every run bit-reproducible from its inputs.
"""

from __future__ import annotations

import csv
import heapq
import warnings
from collections import deque
from dataclasses import dataclass, field

from .errors import BoundViolation, ConfigurationError, ConfigurationWarning, InputError

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

_PENDING = "pending"  # waiting at service level, no ready replica yet
_QUEUED = "queued"
_SERVING = "serving"
_RESOLVED = "resolved"


@dataclass(frozen=True)
class ServerProfile:
    """Static performance characteristics of one service's replicas."""

    nominal_service_time: float = 0.5
    reference_cpu: float = 100.0
    startup_duration: float = 5.0
    startup_cpu_surge: float = 1.5
    memory_base: float = 100.0
    memory_per_inflight: float = 10.0
    stateful: bool = False

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
    min_mem: float = 64.0
    max_mem: float = 4096.0

    def __post_init__(self):
        if not (self.horizontal_enabled or self.vertical_enabled):
            raise ConfigurationError("at least one scaling dimension must be enabled")
        if self.min_replicas < 1:
            raise ConfigurationError("min_replicas must be >= 1")
        if self.min_cpu <= 0:
            raise ConfigurationError("min_cpu must be positive")
        if self.min_mem < 0:
            raise ConfigurationError("min_mem must be non-negative")
        for lo, hi, what in (
            (self.min_replicas, self.max_replicas, "replicas"),
            (self.min_cpu, self.max_cpu, "cpu"),
            (self.min_mem, self.max_mem, "mem"),
        ):
            if lo > hi:
                raise ConfigurationError(f"min > max for {what} bounds")


@dataclass
class ReplicaState:
    replica_id: int
    cpu_alloc: float
    mem_alloc: float
    phase: str
    in_flight: int = 0
    queue: deque = field(default_factory=deque)
    busy_since: float | None = None

    @property
    def backlog(self) -> int:
        return self.in_flight + len(self.queue)


@dataclass(frozen=True)
class RequestRecord:
    request_id: int
    service: str
    arrival_time: float
    start_service_time: float | None
    completion_time: float
    outcome: str

    @property
    def response_time(self) -> float:
        return self.completion_time - self.arrival_time


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
    mem_per_replica: float
    requirements: ScalingRequirements


class _Request:
    __slots__ = ("request_id", "service", "arrival_time", "start_service_time", "replica_id", "state")

    def __init__(self, request_id: int, service: str, arrival_time: float):
        self.request_id = request_id
        self.service = service
        self.arrival_time = arrival_time
        self.start_service_time: float | None = None
        self.replica_id: int | None = None
        self.state = _PENDING


class _Service:
    __slots__ = (
        "name", "profile", "requirements", "replicas", "pending",
        "desired_count", "desired_cpu", "desired_mem",
        "stale", "replacement", "used_cpu_seconds", "usage_mark",
    )

    def __init__(self, name, profile, requirements, desired_count, cpu, mem):
        self.name = name
        self.profile = profile
        self.requirements = requirements
        # Ids come from one increasing counter and dicts keep insertion order
        # through deletions, so iteration is in replica-id order.
        self.replicas: dict[int, ReplicaState] = {}
        self.pending: deque = deque()
        self.desired_count = desired_count
        self.desired_cpu = cpu
        self.desired_mem = mem
        self.stale: deque = deque()  # replica ids awaiting rolling replacement
        self.replacement: tuple[int, int] | None = None  # (new_id, old_id) in flight
        self.used_cpu_seconds = 0.0
        self.usage_mark = 0.0


class ClusterSim:
    """Single-threaded event loop over one simulated cluster."""

    def __init__(self, timeout: float = 10.0, log_requests: bool = True):
        if timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        self.now = 0.0
        self.timeout = timeout
        self.log_requests = log_requests
        self.services: dict[str, _Service] = {}
        self.event_log: list[tuple] = []
        self.resolve_hooks: list = []
        self._events: list[tuple] = []
        self._seq = 0
        self._next_replica_id = 0
        self._next_request_id = 0
        self._requests: dict[int, _Request] = {}
        self._interval_records: list[RequestRecord] = []

    # ------------------------------------------------------------------ setup

    def add_service(
        self,
        name: str,
        profile: ServerProfile,
        requirements: ScalingRequirements,
        initial_replicas: int = 1,
        cpu_alloc: float | None = None,
        mem_alloc: float | None = None,
    ) -> None:
        if name in self.services:
            raise ConfigurationError(f"service {name!r} already defined")
        cpu = profile.reference_cpu if cpu_alloc is None else float(cpu_alloc)
        mem = requirements.min_mem if mem_alloc is None else float(mem_alloc)
        if not requirements.min_replicas <= initial_replicas <= requirements.max_replicas:
            raise ConfigurationError(f"initial replica count {initial_replicas} outside bounds")
        if not requirements.min_cpu <= cpu <= requirements.max_cpu:
            raise ConfigurationError(f"initial cpu allocation {cpu} outside bounds")
        if not requirements.min_mem <= mem <= requirements.max_mem:
            raise ConfigurationError(f"initial mem allocation {mem} outside bounds")
        if profile.stateful and requirements.horizontal_enabled:
            warnings.warn(
                f"service {name!r} is stateful but allows horizontal scaling; "
                "stateful services usually scale better vertically",
                ConfigurationWarning,
                stacklevel=2,
            )
        svc = _Service(name, profile, requirements, initial_replicas, cpu, mem)
        self.services[name] = svc
        for _ in range(initial_replicas):
            rid = self._new_replica_id()
            svc.replicas[rid] = ReplicaState(
                replica_id=rid,
                cpu_alloc=cpu,
                mem_alloc=mem,
                phase=READY,
            )
            self._log(self.now, "replica_ready", name, rid, "", "initial")

    # ------------------------------------------------------------- scheduling

    def schedule_timer(self, time: float, callback) -> None:
        """Run ``callback()`` when the clock reaches ``time``; fires before same-instant traffic."""
        if time < self.now:
            raise InputError(f"timer at {time} is in the past (now={self.now})")
        self._push(time, TIMER, callback)

    def submit(self, time: float, service: str) -> int:
        """Schedule one request arrival; returns its request id."""
        if service not in self.services:
            raise ConfigurationError(f"arrival references unknown service {service!r}")
        if time < self.now:
            raise InputError(f"arrival at {time} is in the past (now={self.now})")
        rid = self._next_request_id
        self._next_request_id += 1
        self._requests[rid] = _Request(rid, service, time)
        self._push(time, ARRIVAL, rid)
        self._push(time + self.timeout, TIMEOUT, rid)
        return rid

    def _push(self, time: float, kind: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._events, (time, kind, self._seq, payload))

    def _new_replica_id(self) -> int:
        rid = self._next_replica_id
        self._next_replica_id += 1
        return rid

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
                raise InputError(f"arrival at {time} outside ({self.now}, {until}]")
            last = time
        for time, service in arrivals:
            self.submit(time, service)

        self._interval_records = []
        events = self._events
        while events and events[0][0] <= until:
            time, kind, _seq, payload = heapq.heappop(events)
            self.now = time
            if kind == ARRIVAL:
                self._on_arrival(payload)
            elif kind == COMPLETE:
                self._on_complete(payload)
            elif kind == TIMEOUT:
                self._on_timeout(payload)
            elif kind == STARTUP:
                self._on_startup(payload)
            else:
                payload()
        self.now = until
        return self._interval_records

    # request lifecycle -------------------------------------------------------

    def _on_arrival(self, rid: int) -> None:
        req = self._requests[rid]
        svc = self.services[req.service]
        if self.log_requests:
            self._log(self.now, "arrival", svc.name, "", rid, "")
        self._dispatch(svc, req)

    def _dispatch(self, svc: _Service, req: _Request) -> None:
        best = None
        for rep in svc.replicas.values():
            if rep.phase != READY:
                continue
            if best is None or rep.backlog < best.backlog:
                best = rep
        if best is None:
            req.state = _PENDING
            svc.pending.append(req.request_id)
            return
        if best.in_flight == 0:
            self._start_service(svc, best, req)
        else:
            req.state = _QUEUED
            req.replica_id = best.replica_id
            best.queue.append(req.request_id)

    def _start_service(self, svc: _Service, rep: ReplicaState, req: _Request) -> None:
        req.state = _SERVING
        req.replica_id = rep.replica_id
        req.start_service_time = self.now
        rep.in_flight = 1
        rep.busy_since = self.now
        s_eff = svc.profile.nominal_service_time * svc.profile.reference_cpu / rep.cpu_alloc
        self._push(self.now + s_eff, COMPLETE, req.request_id)
        if self.log_requests:
            self._log(self.now, "start", svc.name, rep.replica_id, req.request_id, "")

    def _on_complete(self, rid: int) -> None:
        req = self._requests[rid]
        if req.state != _SERVING:
            return  # aborted by timeout before this completion fired
        svc = self.services[req.service]
        rep = svc.replicas[req.replica_id]
        self._finish_service(svc, rep)
        self._resolve(req, COMPLETED, self.now)
        self._start_next(svc, rep)

    def _on_timeout(self, rid: int) -> None:
        req = self._requests[rid]
        if req.state == _RESOLVED:
            return
        svc = self.services[req.service]
        if req.state == _PENDING:
            svc.pending.remove(rid)
        elif req.state == _QUEUED:
            rep = svc.replicas[req.replica_id]
            rep.queue.remove(rid)
            self._resolve(req, FAILED_TIMEOUT, self.now)
            self._maybe_remove(svc, rep)
            return
        elif req.state == _SERVING:
            rep = svc.replicas[req.replica_id]
            self._finish_service(svc, rep)
            self._resolve(req, FAILED_TIMEOUT, self.now)
            self._start_next(svc, rep)
            return
        self._resolve(req, FAILED_TIMEOUT, self.now)

    def _finish_service(self, svc: _Service, rep: ReplicaState) -> None:
        svc.used_cpu_seconds += rep.cpu_alloc * (self.now - rep.busy_since)
        rep.busy_since = None
        rep.in_flight = 0

    def _start_next(self, svc: _Service, rep: ReplicaState) -> None:
        if rep.queue:
            self._start_service(svc, rep, self._requests[rep.queue.popleft()])
        else:
            self._maybe_remove(svc, rep)

    def _resolve(self, req: _Request, outcome: str, completion: float) -> None:
        req.state = _RESOLVED
        record = RequestRecord(
            request_id=req.request_id,
            service=req.service,
            arrival_time=req.arrival_time,
            start_service_time=req.start_service_time,
            completion_time=completion,
            outcome=outcome,
        )
        self._interval_records.append(record)
        if self.log_requests:
            kind = "complete" if outcome == COMPLETED else "timeout"
            self._log(completion, kind, req.service, req.replica_id if req.replica_id is not None else "",
                      req.request_id, record.response_time)
        for hook in self.resolve_hooks:
            hook(record)

    # replica lifecycle --------------------------------------------------------

    def _on_startup(self, payload) -> None:
        name, rid = payload
        svc = self.services[name]
        rep = svc.replicas.get(rid)
        if rep is None or rep.phase != STARTING:
            return  # terminated while starting
        self._make_ready(svc, rep)

    def _make_ready(self, svc: _Service, rep: ReplicaState) -> None:
        rep.phase = READY
        self._log(self.now, "replica_ready", svc.name, rep.replica_id, "", "")
        if svc.replacement and svc.replacement[0] == rep.replica_id:
            old_id = svc.replacement[1]
            svc.replacement = None
            old = svc.replicas.get(old_id)
            if old is not None and old.phase != TERMINATING:
                self._begin_termination(svc, old)
            self._advance_pipeline(svc)
        self._drain_pending(svc)

    def _drain_pending(self, svc: _Service) -> None:
        while svc.pending:
            req = self._requests[svc.pending.popleft()]
            self._dispatch(svc, req)

    def _begin_termination(self, svc: _Service, rep: ReplicaState) -> None:
        if rep.phase == TERMINATING:
            return
        prior = rep.phase
        rep.phase = TERMINATING
        self._log(self.now, "replica_terminating", svc.name, rep.replica_id, "", f"was={prior}")
        self._maybe_remove(svc, rep)

    def _maybe_remove(self, svc: _Service, rep: ReplicaState) -> None:
        if rep.phase == TERMINATING and rep.in_flight == 0 and not rep.queue:
            del svc.replicas[rep.replica_id]
            self._log(self.now, "replica_removed", svc.name, rep.replica_id, "", "")

    def _spawn(self, svc: _Service, replaces: int | None = None) -> ReplicaState:
        rid = self._new_replica_id()
        rep = ReplicaState(
            replica_id=rid,
            cpu_alloc=svc.desired_cpu,
            mem_alloc=svc.desired_mem,
            phase=STARTING,
        )
        svc.replicas[rid] = rep
        if replaces is not None:
            svc.replacement = (rid, replaces)
        self._log(self.now, "replica_created", svc.name, rid, "", f"cpu={svc.desired_cpu:g};mem={svc.desired_mem:g}")
        if svc.profile.startup_duration == 0:
            self._make_ready(svc, rep)
        else:
            self._push(self.now + svc.profile.startup_duration, STARTUP, (svc.name, rid))
        return rep

    def _advance_pipeline(self, svc: _Service) -> None:
        # At most one replacement in flight: surge of one, zero unavailability.
        while svc.replacement is None and svc.stale:
            old = svc.replicas.get(svc.stale.popleft())
            if old is None or old.phase == TERMINATING:
                continue
            if (old.cpu_alloc, old.mem_alloc) == (svc.desired_cpu, svc.desired_mem):
                continue
            self._spawn(svc, replaces=old.replica_id)

    # ------------------------------------------------------------- operations

    def apply_rolling_update(
        self,
        service: str,
        target_replicas: int,
        cpu: float | None = None,
        mem: float | None = None,
    ) -> None:
        """Move a service toward a new replica count and/or per-replica allocation.

        Validation is all-or-nothing: a target outside the service's
        ScalingRequirements raises BoundViolation and changes nothing.
        """
        if service not in self.services:
            raise ConfigurationError(f"unknown service {service!r}")
        svc = self.services[service]
        reqs = svc.requirements
        new_cpu = svc.desired_cpu if cpu is None else float(cpu)
        new_mem = svc.desired_mem if mem is None else float(mem)
        if not reqs.min_replicas <= target_replicas <= reqs.max_replicas:
            raise BoundViolation(
                f"{service}: target {target_replicas} replicas outside "
                f"[{reqs.min_replicas}, {reqs.max_replicas}]"
            )
        if not reqs.min_cpu <= new_cpu <= reqs.max_cpu:
            raise BoundViolation(f"{service}: cpu {new_cpu} outside [{reqs.min_cpu}, {reqs.max_cpu}]")
        if not reqs.min_mem <= new_mem <= reqs.max_mem:
            raise BoundViolation(f"{service}: mem {new_mem} outside [{reqs.min_mem}, {reqs.max_mem}]")
        active = [r for r in svc.replicas.values() if r.phase != TERMINATING]
        if target_replicas != len(active) and not reqs.horizontal_enabled:
            raise BoundViolation(f"{service}: horizontal scaling is disabled")
        if (new_cpu, new_mem) != (svc.desired_cpu, svc.desired_mem) and not reqs.vertical_enabled:
            raise BoundViolation(f"{service}: vertical scaling is disabled")

        svc.desired_count = target_replicas
        svc.desired_cpu = new_cpu
        svc.desired_mem = new_mem
        svc.replacement = None  # superseding update recomputes the pipeline

        excess = len(active) - target_replicas
        if excess > 0:
            for rep in reversed(active[-excess:]):
                self._begin_termination(svc, rep)
        elif excess < 0:
            for _ in range(-excess):
                self._spawn(svc)
        svc.stale = deque(
            r.replica_id
            for r in active
            if r.phase != TERMINATING and (r.cpu_alloc, r.mem_alloc) != (new_cpu, new_mem)
        )
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
            mem_per_replica=svc.desired_mem,
            requirements=svc.requirements,
        )

    def views(self) -> dict[str, ServiceView]:
        return {name: self.service_view(name) for name in self.services}

    def ready_count(self, name: str) -> int:
        return sum(1 for r in self.services[name].replicas.values() if r.phase == READY)

    def _log(self, time, kind, service, replica_id, request_id, detail) -> None:
        self.event_log.append((time, kind, service, replica_id, request_id, detail))

    def export_event_log(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "event_kind", "service", "replica_id", "request_id", "detail"])
            for time, kind, service, replica_id, request_id, detail in self.event_log:
                if isinstance(detail, float):
                    detail = f"{detail:.6f}"
                writer.writerow([f"{time:.6f}", kind, service, replica_id, request_id, detail])
