#!/usr/bin/env python3
"""Benchmark of the rtwlogic package: four workloads, one process, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-identify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

With --trace 0 the workload's ops run back to back for --seconds and the
end-to-end metrics are printed; op and set-up times are normalised by
reference kernels (calibrate.py).  With --trace 1 the first half of the
time runs untraced and the second half under the layer tracer, and the
per-layer metrics are printed.  Every op's output is checked after the
timed loop.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give the
run's metadata, the check counts and a table that also shows error_rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("mc-identify", "exact-oracle", "baseline-scan", "cli-reports")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # reserved for confirming a claimed gain; never tune on it
MIN_OPS = 100  # so that at least ten ops lie beyond op_ms_p90
SETUP_SAMPLES = 7
SETUP_KERNEL_S = 0.003  # nominal time of setup_kernel(), like calibrate.REFERENCE_S
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "throughput_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def pin_threads() -> None:
    """One thread does the work: set before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def setup_kernel() -> int:
    """Pure-Python reference work that normalises setup_s (see calibrate.py).

    It imports nothing, so it can run just before the timed import as well
    as just after it.
    """
    acc = 0
    table = {}
    for i in range(6000):
        table[i % 97] = (i * 2654435761) & 0xFFFFFFFF
        acc ^= table[i % 97] >> 3
    for j in range(60):
        cls = type(f"C{j}", (), {"a": j, "f": lambda self: self.a})
        acc += cls().f()
    return acc


def _setup_kernel_seconds() -> float:
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        setup_kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


def setup(name: str, seed: int):
    """Import rtwlogic and generate the workload's inputs.

    Returns (normalised seconds taken, workload, inputs).  This is what
    setup_s measures, in a fresh interpreter, up to the first timed op.
    """
    before = _setup_kernel_seconds()
    t0 = time.perf_counter()
    import workloads  # imports rtwlogic

    workload = workloads.make(name, OUT / "cli")
    inputs = workload.inputs(seed)
    seconds = time.perf_counter() - t0
    after = _setup_kernel_seconds()
    return seconds * SETUP_KERNEL_S * 2 / (before + after), workload, inputs


def setup_probe(name: str, seed: int) -> float:
    """setup() in a fresh interpreter; waits for it to exit."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


@dataclass
class Loop:
    """What one timed loop did: per-op times, inputs and outputs."""

    start: float = 0.0
    work: int = 0
    latencies: list[float] = field(default_factory=list)  # wall seconds per op
    normalised: list[float] = field(default_factory=list)  # see calibrate.py
    done: list[tuple[int, object, object]] = field(default_factory=list)
    raised: list[tuple[int, str]] = field(default_factory=list)

    def throughput(self) -> float:
        """Work per second of normalised op time."""
        return self.work / sum(self.normalised)


def timed_loop(workload, inputs, seconds: float, min_ops: int, first: int = 0,
               tracer=None) -> Loop:
    """Run ops back to back, whole rounds at a time, for at least `seconds`.

    Op k runs inputs[k % len(inputs)]; the loop stops at the end of a
    round once the time is up and at least min_ops ops ran.  The
    workload's reference kernel runs before the first op and after every
    op, outside the op's timing, to normalise it.
    """
    import calibrate  # after setup: it imports numpy

    kernel = calibrate.KERNELS[workload.kernel]
    reference = calibrate.REFERENCE_S[workload.kernel]
    loop = Loop(start=time.perf_counter())
    deadline = loop.start + seconds
    kernel()
    before = time.perf_counter() - loop.start
    k = first
    while True:
        inp = inputs[k % len(inputs)]
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            out = workload.op(inp)
        except Exception as exc:  # an op that raises counts as failed
            loop.raised.append((k, f"{type(exc).__name__}: {exc}"))
        else:
            loop.done.append((k, inp, out))
        t1 = time.perf_counter()
        kernel()
        after = time.perf_counter() - t1
        loop.latencies.append(t1 - t0)
        loop.normalised.append((t1 - t0) * reference / ((before + after) / 2))
        before = after
        loop.work += workload.work(inp)
        k += 1
        ran = k - first
        if ran % workload.round_size == 0 and t1 >= deadline and ran >= min_ops:
            break
    return loop


def run_workload(workload, inputs, seed: int, seconds: float, trace: bool,
                 setup_s: float, min_ops: int = MIN_OPS) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if trace:
        import tracer as tracing

        plain = timed_loop(workload, inputs, seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_loop(workload, inputs, seconds / 2, 1,
                                first=len(plain.latencies), tracer=tracer)
        finally:
            tracer.uninstall()
        loops = [plain, traced]
        values = tracer.metrics(sum(traced.latencies), len(traced.latencies))
        values["trace.overhead_frac"] = plain.throughput() / traced.throughput() - 1.0
        alloc_mb = 0.0
        if hasattr(workload, "peak_alloc_call"):
            call = workload.peak_alloc_call(inputs)
            tracemalloc.start()
            try:
                call()
                alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        values["experiments.run_identification_trials.peak_alloc_mb"] = alloc_mb
        tracer.write(OUT / f"{workload.name}.spans.jsonl", traced.start)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        loop = timed_loop(workload, inputs, seconds, min_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        loops = [loop]
        samples = [setup_s] + [setup_probe(workload.name, seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        lat = loop.normalised
        values = {
            "throughput_per_s": loop.throughput(),
            "op_ms_p50": 1e3 * statistics.median(lat),
            "op_ms_p90": 1e3 * statistics.quantiles(lat, n=10)[8],
            "setup_s": statistics.median(samples),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    checked = workload.check([d for lp in loops for d in lp.done])
    raised = [r for lp in loops for r in lp.raised]
    attempted = sum(len(lp.latencies) for lp in loops)
    failed = len(checked.failed) + len(raised)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "_notes": {**checked.notes, "raised": raised[:3]},
        "_wall": {"ops": len(loops[-1].latencies),
                  "op_ms_p50": 1e3 * statistics.median(loops[-1].latencies),
                  "throughput_per_s": loops[-1].work / sum(loops[-1].latencies)},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_meta(workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload.name, "work_unit": workload.unit,
        "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def print_result(name: str, result: dict, meta: dict) -> None:
    wall = result.pop("_wall")
    meta["ops_per_run"] = wall.pop("ops")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print("# checks " + json.dumps(result.pop("_notes"), sort_keys=True))
    print("# wall, not normalised " + json.dumps(wall, sort_keys=True))
    print_table(name, result)
    print(json.dumps(result), flush=True)


def print_table(name: str, result: dict) -> None:
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    rows.append(("error_rate", result["failed"] / result["attempted"], "fraction"))
    for metric, value, unit in rows:
        print(f"{name:14} {metric:64} {value:>14.6g} {unit}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in turn, each in its own process, and one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout)
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print("\n# summary: workload, metric, value, unit")
    combined = {}
    for name, res in results.items():
        print_table(name, res)
        combined.update({f"{name}.{k}": m for k, m in res["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": combined,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "rtwlogic" / "__init__.py").is_file():
        print(f"error: no rtwlogic sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    setup_s, workload, inputs = setup(args.workload, args.seed)
    if args.setup_probe:
        print(setup_s)
        return 0
    try:
        result = run_workload(workload, inputs, args.seed, args.seconds,
                              bool(args.trace), setup_s)
    finally:
        shutil.rmtree(OUT / "cli", ignore_errors=True)
    print_result(args.workload, result,
                 run_meta(workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
