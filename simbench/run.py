"""Benchmark of the msra simulator, run from the root of a checkout:

    python3 simbench/run.py --workload preset --seed 0 --seconds 25 --trace 0

One operation is one controller profile under one seed, run through
``harness.run_experiment`` and exported. A round runs each of the workload's
operations once; rounds repeat until ``--seconds`` have passed. After each
operation, outside the timed region, its simulated outputs are checked against
computations made apart from the program (``checks.py``).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced rounds alternate and the per-layer metrics are printed,
and the spans are written under ``.simbench_out/trace/``. The last line of
standard output is one JSON object. See ``simbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".simbench_out"
SETUP_REPEATS = 5  # before the first round; one more precedes every operation

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "requests_per_s": "1/s",
    "peak_mem_mb": "MB",
    "decision_ms_p50": "ms",
    "decision_ms_p95": "ms",
}


@dataclasses.dataclass
class OpResult:
    profile: str
    seed: int
    host_s: float
    requests: int = 0
    timeouts: int = 0
    issued: int = 0
    tick_s: list = dataclasses.field(default_factory=list)
    failures: dict = dataclasses.field(default_factory=dict)
    digest: tuple = ("", "")
    stats: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Round:
    ops: list
    traced: bool

    @property
    def wall_s(self) -> float:
        return math.fsum(o.host_s for o in self.ops)

    @property
    def requests(self) -> int:
        return sum(o.requests for o in self.ops)


def _unload_msra() -> dict:
    """Remove the msra modules from ``sys.modules``; returns them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "msra" or name.startswith("msra.")}


def fresh_setup(workload: str, seed: int):
    """Import msra from scratch and build the workload's configs; returns (seconds, msra, ops)."""
    _unload_msra()
    start = perf_counter()
    msra = importlib.import_module("msra")
    ops = workloads.build(msra, workload, seed)
    return perf_counter() - start, msra, ops


def timed_setup(workload: str, seed: int) -> float:
    """Time one more fresh set-up, then put back the modules the benchmark is running."""
    in_use = _unload_msra()
    try:
        return fresh_setup(workload, seed)[0]
    finally:
        _unload_msra()
        sys.modules.update(in_use)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def op_digest(out_dir: Path, profile: str) -> tuple[str, str]:
    """Hashes of one exported operation's ``summary.csv`` row and ``decisions.csv``."""
    summary_row = (out_dir / "summary.csv").read_text().splitlines()[1]
    return _sha(summary_row.encode()), _sha((out_dir / "runs" / f"{profile}-0" / "decisions.csv").read_bytes())


def digest_lines(workload: str, digests) -> list[str]:
    """``digests``: (profile, seed, (summary hash, decisions hash)) per operation of one round."""
    lines = [f"digest {workload} {profile} seed={seed} summary={s} decisions={d}"
             for profile, seed, (s, d) in digests]
    combined = _sha("".join(s + d for _p, _seed, (s, d) in digests).encode())
    return lines + [f"digest {workload} all={combined}"]


def run_op(msra, op, workload: str, recorder: checks.Recorder, traced: bool) -> OpResult:
    harness = msra.harness
    out_dir = OUT / workload / f"{op.profile}-seed{op.cfg.seed}"
    recorder.reset()
    gc.collect()
    start = perf_counter()
    try:
        reports = harness.run_experiment(op.cfg, [op.profile])
        harness.export(reports, str(out_dir), export_timeseries=op.export_timeseries)
    except Exception:  # an operation that raises is a failed operation; keep going
        host = perf_counter() - start
        return OpResult(op.profile, op.cfg.seed, host,
                        failures={"raised": traceback.format_exc().strip().splitlines()[-1]})
    host = perf_counter() - start

    # Free the run's cluster and store before checking, so that the checks'
    # own memory does not add to the run's peak.
    rep = reports[0].reps[0]
    store = recorder.detach_store(op.cfg.workload.target_service)
    samples_stored = len(store.samples()) if traced else 0
    del reports, store
    gc.collect()
    result = OpResult(op.profile, op.cfg.seed, host, rep.requests, rep.failures, len(recorder.sub_ids),
                      recorder.tick_seconds(), checks.check_run(op, rep, recorder))
    result.digest = op_digest(out_dir, op.profile)
    if traced:
        result.stats = {
            "actions": sum(len(getattr(t.result, "actions", ())) for t in recorder.ticks),
            "scale_events": sum(bool(getattr(t.result, "applied", False)) for t in recorder.ticks),
            "samples_stored": samples_stored,
            "export_bytes": sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file()),
        }
    return result


def run_round(msra, ops, args, recorder, setup_s: list, tracer: Tracer | None = None) -> Round:
    """One operation after another, each preceded by one timed set-up.

    Spreading the set-ups over the run makes their median sample the same
    host conditions as the operations.
    """
    if tracer is not None:
        tracer.install(msra)
    try:
        results = []
        for op in ops:
            setup_s.append(timed_setup(args.workload, args.seed))
            results.append(run_op(msra, op, args.workload, recorder, tracer is not None))
        return Round(results, tracer is not None)
    finally:
        if tracer is not None:
            tracer.uninstall()


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(rounds, setup_s) -> dict[str, float]:
    """Timings come from the best round: the host runs up to 1.5x slower for
    tens of seconds at a time, and a slow round measures that, not the
    program. A profile's median tick is taken per profile, because MS-RA
    ticks cost ten times HPA ticks and a pooled median would fall in the gap
    between them, where it jumps."""
    per_profile_p50 = [
        min(statistics.median(r.ops[i].tick_s) for r in rounds if r.ops[i].tick_s)
        for i in range(len(rounds[0].ops)) if any(r.ops[i].tick_s for r in rounds)
    ]
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": min(r.wall_s for r in rounds),
        "requests_per_s": max(r.requests / r.wall_s for r in rounds),
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decision_ms_p50": statistics.median(per_profile_p50) * 1e3,
        "decision_ms_p95": min(nearest_rank([t for o in r.ops for t in o.tick_s], 0.95) for r in rounds) * 1e3,
    }


def per_layer_metrics(tracer: Tracer, traced, untraced) -> dict[str, tuple[float, str]]:
    """Per-round means over the traced rounds, each with its unit."""
    n = len(traced)
    totals = tracer.layer_totals()

    def span(name):
        calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
        return calls / n, total / n, self_s / n

    def op_sum(field):
        return sum(getattr(o, field) for r in traced for o in r.ops) / n

    def stat_sum(key):
        return sum(o.stats.get(key, 0) for r in traced for o in r.ops) / n

    advance = span("cluster.advance")
    resolved = op_sum("requests")
    usage, rolling, aggregate = span("cluster.take_usage_sample"), span("cluster.apply_rolling_update"), span("telemetry.aggregate")
    measure, build_status = span("slo.measure"), span("slo.build_status")
    msra_tick, hpa_tick = span("controller_msra.tick"), span("controller_hpa.tick")
    record_calls = tracer.calls["telemetry.record"]
    return {
        "cluster.advance_self_s": (advance[2], "s"),
        "cluster.us_per_request": (advance[2] * 1e6 / resolved if resolved else 0.0, "us/request"),
        "cluster.requests_resolved": (resolved, "count"),
        "cluster.timeouts_fired": (op_sum("timeouts"), "count"),
        "cluster.usage_sample_s": (usage[1], "s"),
        "cluster.rolling_updates": (rolling[0], "count"),
        "cluster.rolling_update_s": (rolling[1], "s"),
        "workload.hook_s": (tracer.seconds["workload.hook"] / n, "s"),
        "workload.requests_issued": (op_sum("issued"), "count"),
        "telemetry.record_calls": (record_calls / n, "count"),
        "telemetry.record_us": (tracer.seconds["telemetry.record"] * 1e6 / record_calls if record_calls else 0.0, "us"),
        "telemetry.aggregate_calls": (aggregate[0], "count"),
        "telemetry.aggregate_us": (aggregate[1] * 1e6 / aggregate[0] if aggregate[0] else 0.0, "us"),
        "telemetry.aggregate_s": (aggregate[1], "s"),
        "telemetry.samples_stored": (stat_sum("samples_stored"), "count"),
        "slo.measure_calls": (measure[0], "count"),
        "slo.measure_self_s": (measure[2] + build_status[2], "s"),
        "controller_msra.tick_calls": (msra_tick[0], "count"),
        "controller_msra.tick_self_s": (msra_tick[2], "s"),
        "controller_msra.actions": (stat_sum("actions"), "count"),
        "controller_hpa.tick_calls": (hpa_tick[0], "count"),
        "controller_hpa.tick_self_s": (hpa_tick[2], "s"),
        "controller_hpa.scale_events": (stat_sum("scale_events"), "count"),
        "harness.run_self_s": (span("harness.run_single")[2], "s"),
        "harness.export_s": (span("harness.export")[1], "s"),
        "harness.export_bytes": (stat_sum("export_bytes"), "bytes"),
        "trace.overhead_s": (statistics.median(r.wall_s for r in traced)
                             - statistics.median(r.wall_s for r in untraced), "s"),
    }


def judge(workload, ops, rounds) -> tuple[bool, int, int]:
    """Print each operation's outcome and digest; returns (correct, attempted, failed).

    ``correct`` is false when an operation fails a check no known fault
    explains, or when a repeated round's simulated outputs differ.
    """
    correct, failed = True, 0
    first = rounds[0].ops
    for idx, rnd in enumerate(rounds):
        for op, res, ref in zip(ops, rnd.ops, first):
            failed += bool(res.failures)
            unexpected = sorted(set(res.failures) - {op.expected_failure})
            repeat_differs = idx > 0 and (res.digest, sorted(res.failures)) != (ref.digest, sorted(ref.failures))
            correct &= not unexpected and not repeat_differs
            if idx > 0 and not unexpected and not repeat_differs:
                continue
            if res.failures:
                verdict = "; ".join(f"{k}: {v}" for k, v in res.failures.items())
                verdict = f"FAILED ({'unexpected' if unexpected else 'known fault'}) {verdict}"
            else:
                verdict = "ok"
                if op.expected_failure:
                    verdict += f" (known fault in check {op.expected_failure!r} did not show)"
            if repeat_differs:
                verdict += " (outputs differ from round 1)"
            print(f"op {workload} round={idx + 1} {res.profile} seed={res.seed} requests={res.requests} "
                  f"timeouts={res.timeouts} host_s={res.host_s:.3f} checks={verdict}")
    print("\n".join(digest_lines(workload, [(r.profile, r.seed, r.digest) for r in first])))
    return correct, sum(len(r.ops) for r in rounds), failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load(workload: str, seed: int):
    """Time SETUP_REPEATS fresh imports plus config builds; returns (seconds list, msra, ops)."""
    if not (SRC / "msra" / "__init__.py").is_file():
        raise SystemExit(f"error: no msra package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    setup_s = []
    for _ in range(SETUP_REPEATS):
        seconds, msra, ops = fresh_setup(workload, seed)
        setup_s.append(seconds)
    if Path(msra.__file__).resolve().parent != SRC / "msra":
        raise SystemExit(f"error: imported msra from {msra.__file__}, not from {SRC}")
    return setup_s, msra, ops


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_s, msra, ops = load(args.workload, args.seed)
    recorder = checks.Recorder()
    checks.install(msra, recorder)

    rounds: list[Round] = []
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        rounds.append(run_round(msra, ops, args, recorder, setup_s))
        if tracer is not None:
            rounds.append(run_round(msra, ops, args, recorder, setup_s, tracer))

    correct, attempted, failed = judge(args.workload, ops, rounds)
    if tracer is None:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end_metrics(rounds, setup_s).items()}
    else:
        traced = [r for r in rounds if r.traced]
        metrics = per_layer_metrics(tracer, traced, [r for r in rounds if not r.traced])
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write_spans(trace_dir / f"{stem}-spans.csv")
        (trace_dir / f"{stem}-metrics.json").write_text(
            json.dumps({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, indent=2) + "\n")
    for idx, rnd in enumerate(rounds):
        print(f"round {args.workload} {idx + 1}{' traced' if rnd.traced else ''} wall_s={rnd.wall_s:.4f} "
              f"op_s={','.join(f'{o.host_s:.4f}' for o in rnd.ops)}")
    print(f"rounds {args.workload}: {len(rounds)} ({sum(r.traced for r in rounds)} traced), "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
