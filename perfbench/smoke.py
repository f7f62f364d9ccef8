#!/usr/bin/env python3
"""Smoke test of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json briefly, untraced and traced, in
this process, and checks that each run reports exactly the metrics that
BENCHMARK.json names with their units, that no op failed (error_rate 0),
that no end-to-end metric reads 0, that the traced self shares and
trace.unattributed_share are non-negative and sum to 1, and that on
mc-identify the cost per trial-tick at N = 64 exceeds that at N = 16.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run


def tiny(name: str):
    import workloads

    if name == "mc-identify":
        return workloads.McIdentify(trials=8, pinned=(0,))
    if name == "exact-oracle":
        return workloads.ExactOracle(bits=6)
    if name == "baseline-scan":
        return workloads.BaselineScan(trials=2, pinned=(0,))
    return workloads.make(name, run.OUT / "cli")


def check_run(name: str, result: dict, expected: list[dict]) -> list[str]:
    problems = []
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        problems.append(f"{name}: metrics differ: {sorted(set(got.items()) ^ set(want.items()))}")
    if result["failed"] or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{name}: error_rate {result['failed']}/{result['attempted']} "
                        f"({result['_notes']})")
    return problems


def check_shares(name: str, metrics: dict) -> list[str]:
    """Self shares and the unattributed share are each >= 0 and sum to 1.

    The sum holds by construction; the signs do not: a span recorded
    outside an op, or spans wider than the op times, make one negative.
    On mc-identify the cost per trial-tick must grow with N (the seed's
    O(N^2 M) layout).
    """
    shares = {k: m["value"] for k, m in metrics.items()
              if k.endswith(".self_share") or k == "trace.unattributed_share"}
    problems = [f"{name}: {k} = {v} < 0" for k, v in shares.items() if v < 0]
    if not math.isclose(sum(shares.values()), 1.0, abs_tol=1e-9):
        problems.append(f"{name}: self shares sum to {sum(shares.values())}")
    if name == "mc-identify":
        tick = "experiments.run_identification_trials.ns_per_trial_tick"
        n16, n64 = metrics[f"{tick}.n16"]["value"], metrics[f"{tick}.n64"]["value"]
        if not n64 > n16:
            problems.append(f"{name}: {tick}.n64 {n64} <= .n16 {n16}")
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    problems = [] if tuple(names) == run.WORKLOADS else [f"workloads {names} != {run.WORKLOADS}"]
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    try:
        for name in names:
            setup_s, _, _ = run.setup(name, run.DEFAULT_SEED)
            workload = tiny(name)
            inputs = workload.inputs(run.DEFAULT_SEED)
            plain = run.run_workload(workload, inputs, run.DEFAULT_SEED, 0.5, False,
                                     setup_s, min_ops=1)
            problems += check_run(name, plain, bench["end_to_end"])
            problems += [f"{name}: {k} is 0" for k, m in plain["metrics"].items()
                         if not m["value"] > 0]
            traced = run.run_workload(workload, inputs, run.DEFAULT_SEED, 0.5, True,
                                      setup_s, min_ops=1)
            problems += check_run(f"{name} (traced)", traced, bench["per_layer"])
            problems += check_shares(name, traced["metrics"])
            print(f"{name}: {plain['attempted']} + {traced['attempted']} ops checked")
    finally:
        shutil.rmtree(run.OUT / "cli", ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
