"""Span tracing of skipsim's layers from outside the package.

`Tracer.install()` replaces each function named in LAYERS, at every
skipsim module attribute that holds it (its import sites), with a wrapper
that records a span (name, start, end, parent) and updates counters.
`Tracer.uninstall()` puts every original back. Spans stay in memory until
the caller writes them out. `self_times` turns a span list into per-layer
self time: a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict


def _count_fit(counts, result, call):
    counts["calibrate.evaluations"] += result.evaluations
    counts["calibrate.improvements"] += sum(
        b < a for a, b in zip(result.trace, result.trace[1:]))


def _count_failed_trial(counts, result, call):
    counts["locomotion.failed_trials"] += result.failure.value != "none"


def _count_strikes(counts, result, call):
    counts["springtail.strikes"] += len(result)


def _count_trace(counts, result, call):
    counts["springtail.trace_samples"] += result.samples.size
    counts["springtail.traced_strikes"] += len(call()["events"])


def _count_peaks(counts, result, call):
    counts["stats.peaks"] += result.count


def _count_resamples(counts, result, call):
    counts["stats.bootstrap_resamples"] += result.resamples


def _count_cycles(counts, result, call):
    counts["gait.cycles"] += len(call()["cycle_times"])


def _count_steps(counts, result, call):
    # run_cycles steps its controller round(duration / dt) times
    args = call()
    counts["gait.controller_steps"] += int(round(args["duration"] / args["dt"]))


# (module, attribute or Class.method, span name, counter)
LAYERS = [
    ("skipsim.config", "load_config", "config.load_config", None),
    ("skipsim.calibrate", "minimize", "calibrate.minimize", _count_fit),
    ("skipsim.calibrate", "loss", "calibrate.loss", None),
    ("skipsim.locomotion", "run_batch", "locomotion.run_batch", None),
    ("skipsim.locomotion", "run_trial", "locomotion.run_trial",
     _count_failed_trial),
    ("skipsim.terrain", "moisture_response", "terrain.moisture_response", None),
    ("skipsim.springtail", "strike_sequence", "springtail.strike_sequence",
     _count_strikes),
    ("skipsim.springtail", "strike_trace", "springtail.strike_trace",
     _count_trace),
    ("skipsim.stats", "detect_peaks", "stats.detect_peaks", _count_peaks),
    ("skipsim.stats", "bootstrap_ci", "stats.bootstrap_ci", _count_resamples),
    ("skipsim.stats", "lateral_drift", "stats.lateral_drift", None),
    ("skipsim.stats", "ForceTrace.read_csv", "stats.ForceTrace.read_csv", None),
    ("skipsim.gait", "crawl_kinematics", "gait.crawl_kinematics",
     _count_cycles),
    ("skipsim.gait", "run_cycles", "gait.run_cycles", _count_steps),
    ("skipsim.gait", "Trajectory.write_csv", "gait.Trajectory.write_csv", None),
    ("skipsim.gait", "Trajectory.read_csv", "gait.Trajectory.read_csv", None),
] + [
    ("skipsim.experiments", f"run_{command.replace('-', '_')}",
     f"experiments.{command}", None)
    for command in ("tail-characterize", "gait-drift", "moisture-sweep",
                    "substrate-bench", "scenario", "calibrate", "analyze")
]


class Tracer:
    """Records spans and counters for the functions in LAYERS."""

    def __init__(self):
        self.names = []  # span names; a span stores its name's index
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (owner, attribute, original value)

    def _wrap(self, fn, name, counter):
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.monotonic
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                def call():
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    return bound.arguments
                counter(counts, result, call)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer function at each of its import sites."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "skipsim" or key.startswith("skipsim.")]
        for module_name, attr, name, counter in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(original.__func__, name, counter))
                else:
                    wrapped = self._wrap(original, name, counter)
                self._set(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, counter)
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._set(site, key, wrapped)

    def uninstall(self):
        """Restore every attribute install() replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counts": dict(self.counts)}


def self_times(spans):
    """Self time of each span: its duration minus the union of its direct
    children's intervals, clipped to the span. `spans` is a list of
    (name, start, end, parent index or -1)."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result
