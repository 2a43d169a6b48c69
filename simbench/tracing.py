"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of each module where their
callers look them up: spans with parent links for the few thousand calls per
run, summed counters for the hundreds of thousands of ``MetricStore.record``
calls and resolve-hook invocations. A layer's self time is its spans' duration
minus the time of the spans and counted calls directly inside them. Spans stay
in memory and are written out once, at the end.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from time import perf_counter

# (module, class, method, span name)
_SPANS = (
    ("cluster", "ClusterSim", "advance", "cluster.advance"),
    ("cluster", "ClusterSim", "take_usage_sample", "cluster.take_usage_sample"),
    ("cluster", "ClusterSim", "apply_rolling_update", "cluster.apply_rolling_update"),
    ("telemetry", "MetricStore", "aggregate", "telemetry.aggregate"),
    ("controller_msra", "MsRaController", "tick", "controller_msra.tick"),
    ("controller_hpa", "HpaController", "tick", "controller_hpa.tick"),
)
# (defining module, function, modules that look it up, span name). The
# harness and the MS-RA controller import the SLO functions by name, so each
# reference is wrapped.
_FUNCTION_SPANS = (
    ("slo", "measure", ("slo", "harness", "controller_msra"), "slo.measure"),
    ("slo", "build_status", ("slo", "harness", "controller_msra"), "slo.build_status"),
    ("harness", "run_single", ("harness",), "harness.run_single"),
    ("harness", "export", ("harness",), "harness.export"),
)


class Tracer:
    """Spans and counters for the traced rounds of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, child seconds]
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, parent, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[2], span[3] = start, end
                if parent >= 0:
                    spans[parent][4] += end - start

        return wrapped

    def _counted(self, name, fn):
        spans, stack, calls, seconds = self.spans, self._stack, self.calls, self.seconds

        def wrapped(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            calls[name] += 1
            seconds[name] += elapsed
            if stack:
                spans[stack[-1]][4] += elapsed
            return result

        return wrapped

    def _patch(self, owner, attr, wrapped) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self, msra) -> None:
        for module, cls, method, name in _SPANS:
            owner = getattr(getattr(msra, module), cls)
            self._patch(owner, method, self._span(name, owner.__dict__[method]))
        for source, func, modules, name in _FUNCTION_SPANS:
            wrapped = self._span(name, getattr(getattr(msra, source), func))
            for module in modules:
                self._patch(getattr(msra, module), func, wrapped)
        store = msra.telemetry.MetricStore
        self._patch(store, "record", self._counted("telemetry.record", store.__dict__["record"]))

        # ClosedLoopDriver registers its resolve hook while it is built; wrap it there.
        harness, counted = msra.harness, self._counted

        class TracedDriver(harness.ClosedLoopDriver):
            def __init__(self, sim, *args, **kwargs):
                super().__init__(sim, *args, **kwargs)
                sim.resolve_hooks[-1] = counted("workload.hook", sim.resolve_hooks[-1])

        self._patch(harness, "ClosedLoopDriver", TracedDriver)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, list]:
        """Per span name: [calls, total seconds, self seconds]."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, _parent, start, end, child in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s", "self_s"])
            for idx, (name, parent, start, end, child) in enumerate(self.spans):
                writer.writerow([idx, parent, name, f"{start:.9f}", f"{end:.9f}", f"{end - start - child:.9f}"])
