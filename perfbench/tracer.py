"""Spans around the calls into each rtwlogic layer, kept in memory.

The tracer wraps the public functions listed in TRACED and installs each
wrapper in every module namespace of the package that binds the function,
so calls made through `from .x import f` are caught as well as calls
through `x.f`.  Per-tick helpers (`rtw.value_at`, `rng.mix64`,
`rng.sign_at`, `rng.derive_seed`) are deliberately left unwrapped: they
run millions of times and the wrapper would swamp what it measures.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass
from pathlib import Path

import rtwlogic
from rtwlogic import algebra, cli, experiments, identify, rng, rtw, signal

MODULES = {
    "rng": rng, "rtw": rtw, "algebra": algebra, "signal": signal,
    "identify": identify, "experiments": experiments, "cli": cli,
}

TRACED = (
    "rng.derive_seed_np", "rng.sign_block", "rng.sign_matrix", "rng.sign_tensor",
    "rtw.build_reference_system",
    "algebra.uniform_superposition", "algebra.expand", "algebra.apply_not",
    "algebra.evaluate_symbolic",
    "signal.trace_product", "signal.trace_superposition", "signal.readout",
    "signal.superposition_readouts",
    "identify.tsinbl_identify",
    "experiments.zero_prob_engine", "experiments.run_identification_trials",
    "experiments.run_baseline_trials", "experiments.zero_probability_experiment",
    "experiments.amplitude_range_experiment", "experiments.resolution_experiment",
    "experiments.identification_experiment", "experiments.identification_benchmark",
    "experiments.not_gate_demo", "experiments.ExperimentReport.render",
    "cli.main",
)


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# Work done by one call, as (tag, amount), read from its arguments and result.
WORK = {
    "rng.sign_tensor": lambda fn, a, k, r: (None, r.size),
    "rng.sign_matrix": lambda fn, a, k, r: (None, r.size),
    "rtw.build_reference_system":
        lambda fn, a, k, r: (None, 2 * r.num_bits * r.grid.num_periods),
    "signal.trace_product": lambda fn, a, k, r: (None, len(r.samples)),
    "signal.trace_superposition":
        lambda fn, a, k, r: (None, r.grid.num_bits * len(r.samples)),
    "identify.tsinbl_identify": lambda fn, a, k, r: (None, r.ticks_observed),
    # trials times the 2N*M ticks of the paper's observation budget
    "experiments.run_identification_trials": lambda fn, a, k, r: (
        f"n{_arg(fn, a, k, 'num_bits')}",
        r.trials * 2 * _arg(fn, a, k, "num_bits") * _arg(fn, a, k, "max_periods"),
    ),
    "experiments.run_baseline_trials":
        lambda fn, a, k, r: (f"n{_arg(fn, a, k, 'num_bits')}", r.trials),
}

# (metric, unit, better); every name is emitted on every workload, 0 where
# the workload never calls the layer.
RATES = (
    ("rng.sign_tensor.signs_per_s", "1/s", "higher"),
    ("rng.sign_matrix.signs_per_s", "1/s", "higher"),
    ("experiments.run_identification_trials.ns_per_trial_tick.n16", "ns", "lower"),
    ("experiments.run_identification_trials.ns_per_trial_tick.n32", "ns", "lower"),
    ("experiments.run_identification_trials.ns_per_trial_tick.n64", "ns", "lower"),
    ("experiments.run_identification_trials.peak_alloc_mb", "MB", "lower"),
    ("experiments.run_baseline_trials.us_per_trial.n10", "us", "lower"),
    ("experiments.run_baseline_trials.us_per_trial.n12", "us", "lower"),
    ("experiments.run_baseline_trials.us_per_trial.n14", "us", "lower"),
    ("rtw.build_reference_system.stream_periods_per_s", "1/s", "higher"),
    ("signal.trace_product.ticks_per_s", "1/s", "higher"),
    ("signal.trace_superposition.bit_ticks_per_s", "1/s", "higher"),
    ("identify.tsinbl_identify.ticks_per_s", "1/s", "higher"),
    ("algebra.evaluate_symbolic.calls_per_op", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_share", "fraction", "lower"),
)

PER_LAYER = tuple((f"{n}.self_share", "fraction", "lower") for n in TRACED) + RATES


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    self_s: float
    tag: str | None = None
    work: int | None = None  # set on calls listed in WORK


class Tracer:
    """Records a span per call of each traced function while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        measure = WORK.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                span = Span(name, t0, t1, parent, self.op, t1 - t0 - frame[1])
                spans[frame[0]] = span
            if measure is not None:
                span.tag, span.work = measure(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [rtwlogic, *MODULES.values()]
        for name in TRACED:
            module, *path = name.split(".")
            if len(path) == 2:  # a method: replace it on its class
                cls = getattr(MODULES[module], path[0])
                orig = cls.__dict__[path[1]]
                self._undo.append((cls, path[1], orig))
                setattr(cls, path[1], self._wrap(name, orig))
                continue
            orig = getattr(MODULES[module], path[0])
            wrapper = self._wrap(name, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._undo.append((ns, attr, orig))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    def metrics(self, wall: float, ops: int) -> dict[str, float]:
        """Self shares of every traced function plus the layer rates.

        `wall` is the traced ops' wall time.  The self shares and
        trace.unattributed_share sum to 1: self times partition the
        top-level spans, and the rest of the ops' time lies outside every
        span.
        """
        self_s = dict.fromkeys(TRACED, 0.0)
        calls = dict.fromkeys(TRACED, 0)
        work: dict[tuple[str, str | None], int] = {}
        secs: dict[tuple[str, str | None], float] = {}  # inclusive time of measured calls
        covered = 0.0
        for s in self.spans:
            dur = s.end - s.start
            self_s[s.name] += s.self_s
            calls[s.name] += 1
            if s.parent < 0:
                covered += dur
            if s.work is not None:
                key = (s.name, s.tag)
                work[key] = work.get(key, 0) + s.work
                secs[key] = secs.get(key, 0.0) + dur

        def rate(name, tag=None):  # work per second of inclusive span time
            t = secs.get((name, tag), 0.0)
            return work[(name, tag)] / t if t else 0.0

        def per_work(name, tag, scale):  # inclusive seconds per unit of work
            w = work.get((name, tag), 0)
            return scale * secs[(name, tag)] / w if w else 0.0

        out = {f"{n}.self_share": v / wall for n, v in self_s.items()}
        out["rng.sign_tensor.signs_per_s"] = rate("rng.sign_tensor")
        out["rng.sign_matrix.signs_per_s"] = rate("rng.sign_matrix")
        for n in (16, 32, 64):
            out[f"experiments.run_identification_trials.ns_per_trial_tick.n{n}"] = per_work(
                "experiments.run_identification_trials", f"n{n}", 1e9)
        for n in (10, 12, 14):
            out[f"experiments.run_baseline_trials.us_per_trial.n{n}"] = per_work(
                "experiments.run_baseline_trials", f"n{n}", 1e6)
        out["rtw.build_reference_system.stream_periods_per_s"] = rate(
            "rtw.build_reference_system")
        out["signal.trace_product.ticks_per_s"] = rate("signal.trace_product")
        out["signal.trace_superposition.bit_ticks_per_s"] = rate(
            "signal.trace_superposition")
        out["identify.tsinbl_identify.ticks_per_s"] = rate("identify.tsinbl_identify")
        out["algebra.evaluate_symbolic.calls_per_op"] = calls["algebra.evaluate_symbolic"] / ops
        out["trace.unattributed_share"] = 1.0 - covered / wall
        return out

    def write(self, path: Path, origin: float) -> None:
        """One JSON line per span, times in seconds from `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.name, round(s.start - origin, 9),
                                     round(s.end - origin, 9), s.parent, s.op,
                                     round(s.self_s, 9)]) + "\n")
