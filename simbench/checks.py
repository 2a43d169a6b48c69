"""Capture of each operation's simulated outputs, and checks of them that are
computed apart from the program.

The capture replaces the classes ``harness.run_single`` instantiates with thin
subclasses: the cluster appends every submission and resolution to flat
arrays, and each controller tick is timed and kept with the service views
before and after it. Everything else is checked after the timed region from
those captures, the returned ``RepResult`` and the configuration.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import accumulate
from time import perf_counter
from typing import NamedTuple

COMPLETED, FAILED = 1, 0
_OUTCOME_CODES = {"completed": COMPLETED, "failed_timeout": FAILED}
_UNKNOWN_OUTCOME = 2
_TOLERANCE = 1e-9


class Tick(NamedTuple):
    now: float
    before: dict  # service name -> ServiceView before the tick
    result: object  # TickResult or HpaDecision
    after: dict  # service name -> ServiceView after the tick
    applied: list  # per MS-RA action, whether execute applied it
    seconds: float  # host time of the tick


class Recorder:
    """What one operation's run emitted; reset before each operation."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.sub_ids = array("q")
        self.sub_times = array("d")
        self.res_ids = array("q")
        self.res_times = array("d")
        self.res_outcomes = array("b")
        self.ticks: list[Tick] = []
        self.store = None
        self.usage: dict[str, list] = {}
        self.controller = None

    def attach(self, sim):
        """Register the resolve hook on ``sim``; returns the submit recorder."""
        ids, times = self.sub_ids.append, self.sub_times.append

        def on_submit(rid, time):
            ids(rid)
            times(time)

        res_ids, res_times, outcome = self.res_ids.append, self.res_times.append, self.res_outcomes.append
        codes = _OUTCOME_CODES

        def on_resolve(record):
            res_ids(record.request_id)
            res_times(record.completion_time)
            outcome(codes.get(record.outcome, _UNKNOWN_OUTCOME))

        sim.resolve_hooks.append(on_resolve)
        return on_submit

    def detach_store(self, service: str):
        """Keep only the utilization series the HPA check reads; returns the store."""
        store, self.store = self.store, None
        self.usage = {m: store.samples(service, m) for m in ("cpu_usage", "cpu_alloc")}
        return store

    def tick_seconds(self) -> list[float]:
        return [t.seconds for t in self.ticks]


def install(msra, recorder: Recorder) -> None:
    """Point ``msra.harness`` at recording subclasses of the classes it builds."""
    harness = msra.harness

    class RecordingSim(msra.cluster.ClusterSim):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_on_submit = recorder.attach(self)

        def submit(self, time, service):
            rid = super().submit(time, service)
            self._bench_on_submit(rid, time)
            return rid

    class RecordingStore(msra.telemetry.MetricStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorder.store = self

    def recording(controller_cls):
        class Recording(controller_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                recorder.controller = self

            def tick(self, now, store, sim):
                before = sim.views()
                start = perf_counter()
                result = super().tick(now, store, sim)
                elapsed = perf_counter() - start
                applied = [self.last_action.get(a.service) == now
                           for a in getattr(result, "actions", ())]
                recorder.ticks.append(Tick(now, before, result, sim.views(), applied, elapsed))
                return result

        return Recording

    harness.ClusterSim = RecordingSim
    harness.MetricStore = RecordingStore
    harness.MsRaController = recording(msra.controller_msra.MsRaController)
    harness.HpaController = recording(msra.controller_hpa.HpaController)


# --------------------------------------------------------------------- checks

def _users_bound(phases, start: float, end: float) -> int:
    """Most users any phase overlapping [start, end] allowed."""
    bound, t0 = 0, 0.0
    for duration, users in phases:
        t1 = t0 + duration
        if t0 <= end and t1 >= start:
            bound = max(bound, users)
        t0 = t1
    return bound


def check_run(op, rep, rec: Recorder) -> dict[str, str]:
    """Every failed check of one operation, by check name, with its first reason."""
    kind = next(c.kind for c in op.cfg.controllers if c.name == op.profile)
    checks = [
        ("conservation", _check_conservation),
        ("response_time", _check_response_times),
        ("bounds", _check_bounds),
    ]
    if kind == "msra":
        checks += [("msra_compliance", _check_msra_compliance), ("action", _check_actions)]
    else:
        checks += [("hpa_formula", _check_hpa_formula)]
    failures = {}
    for name, check in checks:
        reason = check(op.cfg, rep, rec)
        if reason:
            failures[name] = reason
    return failures


def _check_conservation(cfg, rep, rec) -> str:
    n = len(rec.sub_ids)
    if rec.sub_ids != array("q", range(n)):
        return "request ids are not issued as 0..n-1"
    resolved = len(rec.res_ids)
    if len(set(rec.res_ids)) != resolved:
        return "a request resolved more than once"
    if resolved and max(rec.res_ids) >= n:
        return "a resolved request was never submitted"
    if _UNKNOWN_OUTCOME in rec.res_outcomes:
        return "a request resolved with an unknown outcome"
    if rep.requests != resolved or rep.failures != rec.res_outcomes.count(FAILED):
        return (f"run reports {rep.requests} requests / {rep.failures} failures, "
                f"capture has {resolved} / {rec.res_outcomes.count(FAILED)}")
    if any(b < a for a, b in zip(rec.res_times, rec.res_times[1:])):
        return "requests resolved out of time order"
    # Each request in flight at t belongs to its own user slot and was issued
    # within the last timeout, so in-flight never exceeds the users allowed then.
    phases, timeout = cfg.workload.phases, cfg.timeout
    starts = list(accumulate((d for d, _ in phases), initial=0.0))
    done, j, k = rec.res_times, 0, 0
    for i, t in enumerate(rec.sub_times):
        while j < resolved and done[j] < t:
            j += 1
        while k + 1 < len(phases) and t >= starts[k + 1]:
            k += 1
        in_flight = i + 1 - j
        # The current phase's users bound it unless users just retired.
        if in_flight > phases[k][1] and in_flight > _users_bound(phases, t - timeout, t):
            return f"{in_flight} requests in flight at t={t} exceed the active users"
    end = cfg.workload.total_duration
    if n - resolved > _users_bound(phases, end - timeout, end):
        return f"{n - resolved} requests still in flight at the end exceed the active users"
    return ""


def _check_response_times(cfg, rep, rec) -> str:
    timeout, arrival = cfg.timeout, rec.sub_times
    for rid, done, outcome in zip(rec.res_ids, rec.res_times, rec.res_outcomes):
        deadline = arrival[rid] + timeout
        if outcome == COMPLETED and not done <= deadline:
            return f"request {rid} completed after its timeout"
        if outcome == FAILED and done != deadline:
            return f"request {rid} failed at {done}, not at its timeout {deadline}"
    return ""


def _check_msra_compliance(cfg, rep, rec) -> str:
    times, arrival = rec.res_times, rec.sub_times
    failed = list(accumulate((o == FAILED for o in rec.res_outcomes), initial=0))
    within_by_deadline = {}
    for slo in rec.controller.cfg.slos:
        if slo.deadline is not None and slo.deadline not in within_by_deadline:
            within_by_deadline[slo.deadline] = list(accumulate(
                (done - arrival[rid] <= slo.deadline for rid, done in zip(rec.res_ids, times)),
                initial=0,
            ))
    specs = {slo.slo_id: slo for slo in rec.controller.cfg.slos}
    for tick in rec.ticks:
        now = tick.now
        for status in tick.result.statuses:
            slo = specs[status.slo_id]
            lo = bisect_right(times, now - slo.window_length)
            hi = bisect_right(times, now)
            count = hi - lo
            if count == 0:
                ok = not status.samples_present and status.measured_compliance == slo.compliance_threshold
            elif slo.deadline is not None:
                within = within_by_deadline[slo.deadline]
                expected = (within[hi] - within[lo]) / count * 100.0
                ok = status.samples_present and abs(status.measured_compliance - expected) <= _TOLERANCE
            else:
                expected = 100.0 - (failed[hi] - failed[lo]) / count * 100.0
                ok = status.samples_present and abs(status.measured_compliance - expected) <= _TOLERANCE
            if not ok:
                return (f"t={now} {slo.slo_id}: measured {status.measured_compliance} "
                        f"over {count} requests disagrees with the request records")
    return ""


def _window_mean(samples, times, now: float, length: float):
    lo, hi = bisect_right(times, now - length), bisect_right(times, now)
    if hi == lo:
        return None
    return math.fsum(s.value for s in samples[lo:hi]) / (hi - lo)


def _check_hpa_formula(cfg, rep, rec) -> str:
    ctl = rec.controller
    hcfg, service = ctl.cfg, ctl.service
    used, alloc = rec.usage["cpu_usage"], rec.usage["cpu_alloc"]
    used_t = [s.timestamp for s in used]
    alloc_t = [s.timestamp for s in alloc]
    history: list[tuple[float, int]] = []
    for now, before, decision, after, _applied, _s in rec.ticks:
        view = before[service]
        if view.ready == 0:
            if decision.raw_desired is not None or decision.applied:
                return f"t={now}: acted with no ready replica"
            continue
        u = _window_mean(used, used_t, now, hcfg.sync_period)
        a = _window_mean(alloc, alloc_t, now, hcfg.sync_period)
        if u is None or a is None or a == 0:
            if decision.raw_desired is not None or decision.applied:
                return f"t={now}: acted without utilization samples"
            continue
        util = 100.0 * u / a
        if decision.utilization is None or not math.isclose(decision.utilization, util, rel_tol=_TOLERANCE):
            return f"t={now}: utilization {decision.utilization} != recomputed {util}"
        ratio = decision.utilization / hcfg.cpu_threshold
        raw = view.active if abs(ratio - 1.0) <= hcfg.tolerance else math.ceil(view.active * ratio)
        raw = max(hcfg.min_replicas, min(hcfg.max_replicas, raw))
        history = [(t, r) for t, r in history if t > now - hcfg.stabilization_window]
        target = max([raw] + [r for _, r in history])
        history.append((now, raw))
        if (decision.raw_desired, decision.target) != (raw, target):
            return (f"t={now}: raw/target {decision.raw_desired}/{decision.target}, "
                    f"recomputed {raw}/{target}")
        if decision.applied != (target != view.active):
            return f"t={now}: applied={decision.applied} with target {target}, active {view.active}"
        if decision.applied and after[service].desired_replicas != target:
            return f"t={now}: desired {after[service].desired_replicas} after scaling to {target}"
    return ""


def _check_bounds(cfg, rep, rec) -> str:
    reqs = {sc.name: sc.requirements for sc in cfg.services}
    service = cfg.workload.target_service
    lo, hi = reqs[service].min_replicas, reqs[service].max_replicas
    for t, ready, _cpu, _mem in rep.samples:
        if not lo <= ready <= hi:
            return f"t={t}: {ready} ready replicas outside [{lo}, {hi}]"
    for tick in rec.ticks:
        now = tick.now
        for name, view in tick.after.items():
            r = reqs[name]
            if not r.min_replicas <= view.ready <= r.max_replicas:
                return f"t={now}: {view.ready} ready replicas outside [{r.min_replicas}, {r.max_replicas}]"
            if not r.min_cpu <= view.cpu_per_replica <= r.max_cpu:
                return f"t={now}: {view.cpu_per_replica} millicpu per replica outside [{r.min_cpu}, {r.max_cpu}]"
    return ""


def _check_actions(cfg, rep, rec) -> str:
    for tick in rec.ticks:
        for action, done in zip(tick.result.actions, tick.applied):
            if not done:
                continue
            view = tick.before[action.service]
            r = view.requirements
            expected = max(r.min_replicas, min(r.max_replicas, view.desired_replicas + action.horizontal_delta))
            got = tick.after[action.service].desired_replicas
            if got != expected:
                return (f"t={tick.now}: action {action.horizontal_delta:+d} moved desired replicas "
                        f"{view.desired_replicas} -> {got}, expected {expected}")
    return ""
