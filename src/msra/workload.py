"""Closed-loop synthetic load: virtual users issue a request, await the
response, think, and repeat. User counts step between phases; new users fire
their first request exactly at the phase boundary, surplus users retire once
their in-flight request resolves."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .cluster import ClusterSim, RequestRecord
from .errors import ConfigurationError

_IDLE = 0
_BUSY = 1  # request in flight or think timer pending


@dataclass(frozen=True)
class LoadProfile:
    phases: tuple[tuple[float, int], ...]  # (duration seconds, concurrent users)
    target_service: str = "frontend"
    think_time: float = 1.0
    think_jitter: float = 0.0  # fraction of think_time; 0 keeps runs seed-independent

    def __post_init__(self):
        if not self.phases:
            raise ConfigurationError("profile needs at least one phase")
        for duration, users in self.phases:
            if not isinstance(duration, (int, float)) or duration <= 0:
                raise ConfigurationError(f"phase duration {duration!r} is not a positive number")
            if type(users) is not int or users < 0:
                raise ConfigurationError(f"user count {users!r} is not a non-negative integer")
        if self.think_time < 0:
            raise ConfigurationError("think_time must be non-negative")
        if not 0.0 <= self.think_jitter < 1.0:
            raise ConfigurationError("think_jitter must be in [0, 1)")

    @property
    def total_duration(self) -> float:
        return sum(duration for duration, _ in self.phases)

    @property
    def max_users(self) -> int:
        return max(users for _, users in self.phases)


def benchmark_profile(service: str = "frontend", think_time: float = 1.0) -> LoadProfile:
    """Six five-minute phases stepping through 10, 20, 30, 10, 30, 20 users."""
    steps = (10, 20, 30, 10, 30, 20)
    return LoadProfile(
        phases=tuple((300.0, users) for users in steps),
        target_service=service,
        think_time=think_time,
    )


class ClosedLoopDriver:
    """Feeds a ClusterSim with the arrival stream of a LoadProfile.

    Attach before advancing the sim; arrivals are generated inside the event
    loop, so the stream reacts to the simulator's own response times.
    """

    def __init__(self, sim: ClusterSim, profile: LoadProfile, seed: int = 0):
        if profile.target_service not in sim.services:
            raise ConfigurationError(f"profile targets unknown service {profile.target_service!r}")
        self.sim = sim
        self.profile = profile
        self.rng = random.Random(seed)
        self.active_users = 0
        self._user_state = [_IDLE] * profile.max_users
        self._req_user: dict[int, int] = {}
        self._think_callbacks = [partial(self._think_over, idx) for idx in range(profile.max_users)]
        # Read once: the per-request path below touches only these.
        self._service = profile.target_service
        self._think = profile.think_time
        self._jitter = profile.think_jitter if profile.think_time > 0 else 0.0
        self._random = self.rng.random
        self._submit = sim.submit
        self._schedule_timer = sim.schedule_timer
        sim.resolve_hooks.append(self._on_resolve)
        boundary = sim.now
        for duration, users in profile.phases:
            sim.schedule_timer(boundary, self._phase_setter(users))
            boundary += duration
        self._end = boundary
        sim.schedule_timer(boundary, self._phase_setter(0))

    def _phase_setter(self, users: int):
        def apply():
            self.active_users = users
            for idx in range(users):
                if self._user_state[idx] == _IDLE:
                    self._think_over(idx)  # a new user issues as if it had just thought
        return apply

    def _on_resolve(self, record: RequestRecord) -> None:
        idx = self._req_user.pop(record.request_id, None)
        if idx is None:
            return  # not one of ours
        now = self.sim.now
        if idx >= self.active_users or now >= self._end:
            self._user_state[idx] = _IDLE
            return
        think = self._think
        if self._jitter:
            think *= 1.0 + self._jitter * (2.0 * self._random() - 1.0)
        self._schedule_timer(now + think, self._think_callbacks[idx])

    def _think_over(self, idx: int) -> None:
        now = self.sim.now
        if idx < self.active_users and now < self._end:
            self._user_state[idx] = _BUSY
            self._req_user[self._submit(now, self._service)] = idx
        else:
            self._user_state[idx] = _IDLE
