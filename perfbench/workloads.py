"""The four benchmark workloads.

Each workload turns the benchmark seed into a fixed pool of op inputs,
runs one op per input through the package's public entry points, says
how much work each op completed, and checks every op's output after the
timed loop.  Inputs are drawn with Python's own `random`, never with
`rtwlogic.rng`, so a change to the package's generator cannot change
what is measured.

Why these four (see README.md for the per-layer predictions):

* mc-identify: the numpy tick-tensor engine does nearly all the work;
  the N mix exposes super-linear cost per tick.
* exact-oracle: the exact Fraction path, which barely touches numpy.
* baseline-scan: the exponential 2^N-row XOR table, a second, different
  user of `experiments` and `rng`.
* cli-reports: the CLI, report rendering and the expanded-superposition
  algebra, at sizes where set-up and per-call overhead show.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from rtwlogic import algebra, cli, experiments, identify, rtw, signal

# Op inputs generated per run: more than a 20-second run executes.  A
# longer run cycles through them again.
POOL_OPS = 8400

# A pooled rate check that fails only when the observed count is this
# improbable under the exact per-trial probability.
POOLED_TAIL = 1e-9


def _rounds(name: str, seed: int, round_size: int) -> tuple[random.Random, int]:
    return random.Random(f"perfbench:{name}:{seed}"), -(-POOL_OPS // round_size)


def _sized_ops(name: str, seed: int, bits: tuple[int, ...]) -> list[tuple[int, int]]:
    """(N, op seed) pairs, one per N in a shuffled order each round."""
    gen, rounds = _rounds(name, seed, len(bits))
    ops = []
    for _ in range(rounds):
        order = list(bits)
        gen.shuffle(order)
        ops.extend((n, gen.getrandbits(63)) for n in order)
    return ops


def _binomial_upper_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    below = sum(
        math.exp(
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
        )
        for i in range(min(k, n + 1))
    )
    return max(0.0, 1.0 - below)


@dataclass
class CheckResult:
    """Indices of ops whose output failed a check, plus counts to report."""

    failed: set[int]
    notes: dict[str, object]


class McIdentify:
    """identification_experiment in equal numbers at each N."""

    name = "mc-identify"
    unit = "trials"
    kernel = "tensor"
    bits = (16, 32, 64)
    epsilon = Fraction(1, 1000)
    round_size = len(bits)

    def __init__(self, trials=200, pinned=(0, 1, 2, 3)):
        self.trials = trials
        self.pinned = pinned

    def inputs(self, seed: int) -> list[tuple[int, int]]:
        return _sized_ops(self.name, seed, self.bits)

    def op(self, inp):
        n, seed = inp
        return experiments.identification_experiment(
            n, self.trials, seed, epsilon=self.epsilon
        )

    def work(self, inp) -> int:
        return self.trials

    def peak_alloc_call(self, inputs):
        """The engine call whose allocations are traced: first op at the largest N."""
        n, seed = next(inp for inp in inputs if inp[0] == max(self.bits))
        m = identify.required_periods(n, self.epsilon)
        return lambda: experiments.run_identification_trials(n, m, self.trials, seed)

    def check(self, done) -> CheckResult:
        failed: set[int] = set()
        rate_misses = 0
        undecided: dict[int, int] = {}
        ops_at: dict[int, list[int]] = {}
        for i, (n, seed), report in done:
            obs = report.observed
            sound = (
                obs["wrong_complete_trials"] == 0
                and obs["wrong_decided_bits"] == 0
                and obs["contradictions"] == 0
                and report.parameters["trials"] == self.trials
            )
            if not sound:
                failed.add(i)
            elif not report.passed:
                # the report's own 3-sigma rate test misses on ~1-2% of seeds
                rate_misses += 1
            if n not in ops_at and not self._pinned_ok(n, seed, report):
                failed.add(i)
            undecided[n] = undecided.get(n, 0) + obs["undecided_trials"]
            ops_at.setdefault(n, []).append(i)
        for n, ops in ops_at.items():
            m = identify.required_periods(n, self.epsilon)
            p = 1.0 - (1.0 - 0.25**m) ** n
            if _binomial_upper_tail(undecided[n], len(ops) * self.trials, p) < POOLED_TAIL:
                failed.update(ops)
        return CheckResult(failed, {
            "rate_test_misses": rate_misses,
            "undecided_trials": sum(undecided.values()),
            "pinned_ops": len(ops_at),
        })

    def _pinned_ok(self, n: int, seed: int, report) -> bool:
        m = report.parameters["max_periods"]
        stats = experiments.run_identification_trials(
            n, m, self.trials, seed, keep_per_trial=True
        )
        if (stats.undecided_trials != report.observed["undecided_trials"]
                or stats.mean_ticks_observed != report.observed["mean_ticks_observed"]):
            return False
        for t in self.pinned:
            hidden, res = experiments.identification_trial_exact(seed, t, n, m)
            if (stats.hidden_bits[t] != hidden.bits
                    or bool(stats.complete[t]) != res.complete
                    or stats.ticks_observed[t] != res.ticks_observed
                    or stats.periods_used[t] != res.periods_used
                    or (res.complete
                        and stats.recovered_bits[t] != res.product_string().bits)):
                return False
        return True


class ExactOracle:
    """The README quick start for one seed, checked against evaluate_symbolic."""

    name = "exact-oracle"
    unit = "ops"
    kernel = "blend"
    round_size = 1
    lam = Fraction(1, 2)
    epsilon = Fraction(1, 1000)

    def __init__(self, bits=16):
        self.bits = bits

    def inputs(self, seed: int) -> list[tuple[int, int]]:
        gen, rounds = _rounds(self.name, seed, self.round_size)
        return [(gen.getrandbits(63), gen.getrandbits(self.bits)) for _ in range(rounds)]

    def op(self, inp):
        ref_seed, hidden_bits = inp
        budget = identify.ErrorBudget.from_epsilon(self.bits, self.epsilon)
        refs = rtw.build_reference_system(
            ref_seed, self.bits, budget.max_periods + 1, self.lam
        )
        hidden = algebra.ProductString(self.bits, hidden_bits)
        unknown = signal.trace_product(refs, hidden, shifted=True)
        result = identify.tsinbl_identify(unknown, refs, max_periods=budget.max_periods)
        uni = algebra.uniform_superposition(self.bits)
        readouts = signal.readout(signal.trace_superposition(refs, uni))
        symbolic = tuple(
            algebra.evaluate_symbolic(uni, refs.period_signs(k), refs.lam)
            for k in range(len(readouts))
        )
        return result, readouts, symbolic

    def work(self, inp) -> int:
        return 1

    def check(self, done) -> CheckResult:
        failed: set[int] = set()
        incomplete = 0
        for i, (_, hidden_bits), (result, readouts, symbolic) in done:
            hidden = algebra.ProductString(self.bits, hidden_bits)
            ok = all(value == hidden.value(bit) for bit, value in result.decided.items())
            if result.complete:
                ok = ok and result.product_string() == hidden
            else:
                incomplete += 1  # allowed: the scheme's own error, below epsilon
            if not (ok and readouts == symbolic):
                failed.add(i)
        return CheckResult(failed, {"incomplete_ops": incomplete})


class BaselineScan:
    """run_baseline_trials in equal numbers at each N, 20 periods per test."""

    name = "baseline-scan"
    unit = "trials"
    kernel = "table"
    bits = (10, 12, 14)
    periods_per_test = 20  # the epsilon = 1e-6 verification budget of `bench`
    round_size = len(bits)

    def __init__(self, trials=20, pinned=(0, 1)):
        self.trials = trials
        self.pinned = pinned

    def inputs(self, seed: int) -> list[tuple[int, int]]:
        return _sized_ops(self.name, seed, self.bits)

    def op(self, inp):
        n, seed = inp
        return experiments.run_baseline_trials(n, self.periods_per_test, self.trials, seed)

    def work(self, inp) -> int:
        return self.trials

    def check(self, done) -> CheckResult:
        failed: set[int] = set()
        false_matches = 0
        first_at: dict[int, int] = {}
        for i, (n, seed), stats in done:
            false_matches += stats.false_matches
            if not (stats.trials == self.trials and 1 <= stats.mean_tests <= 2**n):
                failed.add(i)
            if n not in first_at:
                first_at[n] = i
                if not self._pinned_ok(n, seed, stats):
                    failed.add(i)
        # false matches are the scheme's own error (0.5^20 per candidate), not failures
        return CheckResult(failed, {"false_matches": false_matches,
                                    "pinned_ops": len(first_at)})

    def _pinned_ok(self, n: int, seed: int, stats) -> bool:
        kept = experiments.run_baseline_trials(
            n, self.periods_per_test, self.trials, seed, keep_per_trial=True
        )
        if kept.mean_tests != stats.mean_tests or kept.false_matches != stats.false_matches:
            return False
        eps = identify.verification_error_bound(self.periods_per_test)
        return all(
            experiments.baseline_trial_exact(seed, t, n, eps)[1] == kept.tests[t]
            for t in self.pinned
        )


# Seven subcommands at small fixed sizes; each passes its own check at the
# CLI's default --seed, so every op exits 0.
CLI_COMMANDS = (
    ["zero-prob", "--bits", "3", "--trials", "20000"],
    ["range", "--bits", "4", "--lambda", "1/2", "--exhaustive"],
    ["range", "--bits", "8", "--lambda", "1/2", "--trials", "200"],
    ["resolution", "--bits", "200", "--lambda", "1/2"],
    ["identify", "--bits", "8", "--epsilon", "1/1000", "--trials", "500"],
    ["bench", "--bits", "4,6,8", "--trials", "50"],
    ["not-demo", "--bits", "3", "--lambda", "1/2", "--target", "2", "--periods", "200"],
)


class CliReports:
    """In-process cli.main over every subcommand, in csv and json."""

    name = "cli-reports"
    unit = "reports"
    kernel = "blend"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.argvs = [c + ["--format", fmt] for c in CLI_COMMANDS for fmt in ("csv", "json")]
        self.round_size = len(self.argvs)

    def inputs(self, seed: int) -> list[tuple[int, str]]:
        """(argv index, output path); the seed sets the order within each round."""
        gen, rounds = _rounds(self.name, seed, self.round_size)
        ops = []
        for _ in range(rounds):
            order = list(range(self.round_size))
            gen.shuffle(order)
            ops.extend(order)
        return [(a, f"{self.out_dir}/{k}.out") for k, a in enumerate(ops)]

    def op(self, inp):
        a, path = inp
        return cli.main(self.argvs[a] + ["--out", path])

    def work(self, inp) -> int:
        return 1

    def check(self, done) -> CheckResult:
        failed: set[int] = set()
        first: dict[int, bytes] = {}
        for i, (a, path), rc in done:
            if rc != 0:
                failed.add(i)
                continue
            data = Path(path).read_bytes()
            if first.setdefault(a, data) != data:
                failed.add(i)
        return CheckResult(failed, {"distinct_reports": len(first)})


def make(name: str, out_dir: Path):
    """The workload called `name`, at the benchmark's sizes."""
    if name == "cli-reports":
        out_dir.mkdir(parents=True, exist_ok=True)
        return CliReports(out_dir)
    return {"mc-identify": McIdentify, "exact-oracle": ExactOracle,
            "baseline-scan": BaselineScan}[name]()
