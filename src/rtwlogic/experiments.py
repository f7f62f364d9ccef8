"""Reproducible experiments over the representation and identification claims.

Every experiment is a pure function of its parameters (the master seed
included), returns an ExperimentReport that embeds those parameters, and
serializes to CSV (primary) and JSON (mirror) byte-identically across
reruns.  Probabilistic checks compare a Monte Carlo estimate against the
exact formula value under a three-sigma binomial tolerance; exact checks
(exhaustive enumerations, symbolic agreements) use equality of rationals.
The Monte Carlo figures come from the numpy engines of rtwlogic.engines;
their exact twins, which the unit tests pin them to, are here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

import numpy as np

from . import rng
from .algebra import (
    _SHARED_VALUES,
    ProductString,
    agreement_law,
    apply_not,
    ceil_log2,
    evaluator,
    selection_parity,
    uniform_superposition,
)
from .engines import (
    IdentificationTrialStats,
    _batch_size,
    _batch_trials,
    _check_memory,
    _identification_trial_bytes,
    _period_bytes,
    not_gate_engine,
    run_baseline_trials,
    run_identification_trials,
    zero_prob_engine,
)
from .identify import (
    ErrorBudget,
    IdentificationResult,
    baseline_search,
    tsinbl_identify,
    verification_periods,
)
from .rtw import build_reference_system, check_lambda
from .signal import trace_product

DEFAULT_SEED = 1
ZERO_PROB_BITS_CAP = 20
EXHAUSTIVE_BITS_CAP = 6
BASELINE_BITS_CAP = 14
# resolution_bits builds ((1+lambda)/(1-lambda))^N exactly, at a cost that
# grows with the power's size: bits of that power, counted as N times the bit
# lengths of the ratio's numerator and denominator
RESOLUTION_POWER_BITS_CAP = 2 * 10**6
# not_gate_demo's exact values are products of N pair integers: bits of one
# value, counted as N times the bit lengths of lambda's p + q and q
NOT_DEMO_VALUE_BITS_CAP = 10**6


# ===========================================================================
# reports
# ===========================================================================

def _fmt_value(value: object) -> object:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_fmt_value(v) for v in value]
    return str(value)


def _fmt_csv(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class ExperimentReport:
    """Self-describing result of one experiment run.

    parameters/observed/theoretical are flat key-value maps; rows is an
    optional per-configuration table (the benchmark fills it).  passed is
    the experiment's own acceptance verdict and drives the CLI exit code.
    """

    name: str
    parameters: dict[str, object]
    observed: dict[str, object]
    theoretical: dict[str, object]
    passed: bool
    notes: tuple[str, ...] = ()
    rows: tuple[dict[str, object], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.name,
            "parameters": {k: _fmt_value(v) for k, v in self.parameters.items()},
            "observed": {k: _fmt_value(v) for k, v in self.observed.items()},
            "theoretical": {k: _fmt_value(v) for k, v in self.theoretical.items()},
            "passed": self.passed,
            "notes": list(self.notes),
            "rows": [{k: _fmt_value(v) for k, v in row.items()} for row in self.rows],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["section", "key", "value"])
        writer.writerow(["experiment", "name", self.name])
        for section, mapping in (
            ("parameters", self.parameters),
            ("observed", self.observed),
            ("theoretical", self.theoretical),
        ):
            for key, value in mapping.items():
                writer.writerow([section, key, _fmt_csv(value)])
        writer.writerow(["result", "passed", _fmt_csv(self.passed)])
        for i, note in enumerate(self.notes):
            writer.writerow(["note", str(i), note])
        if self.rows:
            writer.writerow([])
            header = list(self.rows[0].keys())
            writer.writerow(header)
            for row in self.rows:
                writer.writerow([_fmt_csv(row.get(k)) for k in header])
        return out.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv_text()
        if fmt == "json":
            return self.to_json_text()
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def three_sigma(probability: float, trials: int) -> float:
    """Binomial three-sigma tolerance for an estimate over `trials` draws."""
    return 3.0 * math.sqrt(probability * (1.0 - probability) / trials)


def fit_slope(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of ys against xs."""
    if len(xs) < 2:
        raise ValueError("need at least two points to fit")
    n = float(len(xs))
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx


def _check_renderable(num_bits: int, lam: Fraction) -> None:
    """Refuse, before drawing, a range report whose bound (1+lambda)^N cannot print.

    Every value the report holds has a numerator and denominator no larger
    than (1+lambda)^N's, and str() refuses ints with more decimal digits
    than sys.get_int_max_str_digits() (0: no limit; absent before 3.10.7).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    top = 1 + lam
    for base in (top.numerator, top.denominator):
        # the float estimate settles all but powers within a digit of the
        # limit, which are small enough to raise exactly
        digits = num_bits * math.log10(base)
        if digits >= limit + 1 or (digits > limit - 1 and base**num_bits >= 10**limit):
            raise ValueError(
                f"range at {num_bits} bits would print (1+lambda)^{num_bits} with more "
                f"than {limit} digits, Python's limit for int to str conversion"
            )


# ===========================================================================
# exact twins of the engines
# ===========================================================================

def identification_trial_exact(
    seed: int, trial_index: int, num_bits: int, max_periods: int
) -> tuple[ProductString, IdentificationResult]:
    """One trial on the exact path: trace synthesis plus the tick scanner.

    Uses the same per-trial seed and hidden-string derivation as the
    vectorized engine, which has no lambda (here 1), so results are
    comparable trial for trial.  A trial costs O(N·M): the shifted product
    trace is one numpy pass over the sign matrix and the scanner reads one
    sample per tick.
    """
    ts = rng.trial_master_seed(seed, trial_index)
    hidden = ProductString(num_bits, rng.hidden_bits_for(ts, num_bits))
    refs = build_reference_system(ts, num_bits, max_periods + 1, 1)
    trace = trace_product(refs, hidden, shifted=True)
    return hidden, tsinbl_identify(trace, refs, max_periods)


def _baseline_periods(epsilon: Fraction | float | str) -> int:
    """Per-candidate baseline budget ceil(log2(1/epsilon)), epsilon clamped to 1/2.

    The clamp gives one period to a union bound of 1 or more (a fixed M).
    """
    return verification_periods(min(Fraction(1, 2), Fraction(epsilon)))


def baseline_trial_exact(
    seed: int, trial_index: int, num_bits: int, epsilon: Fraction | float | str
) -> tuple[ProductString, int]:
    """One baseline-search trial on the exact Fraction path (lambda = 1)."""
    ts = rng.trial_master_seed(seed, trial_index)
    hidden = ProductString(num_bits, rng.hidden_bits_for(ts, num_bits))
    budget = verification_periods(epsilon)
    refs = build_reference_system(ts, num_bits, budget, 1)
    trace = trace_product(refs, hidden, shifted=False)
    result = baseline_search(trace, refs, epsilon)
    return hidden, result.tests_performed


# ===========================================================================
# resolution bits (exact integer arithmetic)
# ===========================================================================

def _range_ratio(lam: Fraction | str) -> Fraction:
    """(1+lambda)/(1-lambda), the readout range per noise-bit; it diverges at lambda = 1."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("lambda must satisfy 0 < lambda < 1")
    return (1 + lam) / (1 - lam)


def resolution_bits(num_bits: int, lam: Fraction | str) -> int:
    """Amplitude resolution needed to represent the superposition's range.

    ceil(N * log2((1+lambda)/(1-lambda))), computed exactly: the smallest
    M with 2^M covering the readout dynamic range ((1+lambda)/(1-lambda))^N.
    Requires N >= 1, 0 < lambda < 1 (see _range_ratio) and a power of at
    most RESOLUTION_POWER_BITS_CAP bits, which admits at most N = 666,666
    (lambda = 1/2, ratio 3/1, the fewest bits any ratio has).
    """
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    ratio = _range_ratio(lam)
    size = num_bits * (ratio.numerator.bit_length() + ratio.denominator.bit_length())
    if size > RESOLUTION_POWER_BITS_CAP:
        raise ValueError(
            f"resolution at {num_bits} bits and lambda = {Fraction(lam)} builds a power of "
            f"about {size} bits; capped at {RESOLUTION_POWER_BITS_CAP}"
        )
    return ceil_log2(ratio**num_bits)


def dynamic_range_below_double(lam: Fraction | str) -> bool:
    """Exact check that the un-rounded bit count N*log2(ratio) is < 2N.

    That holds iff ratio < 4, i.e. lambda < 3/5, whatever N is.
    """
    return _range_ratio(lam) < 4


# ===========================================================================
# experiments
# ===========================================================================

def zero_probability_experiment(
    num_bits: int, trials: int, seed: int = DEFAULT_SEED
) -> ExperimentReport:
    """Estimate P(readout != 0) of the uniform superposition at lambda = 1.

    The legacy equal-amplitude representation loses the complete
    superposition in all but a 0.5^N fraction of periods; the estimate
    must sit within three binomial sigmas of that value.
    """
    if not 1 <= num_bits <= ZERO_PROB_BITS_CAP:
        raise ValueError(f"num_bits must be in 1..{ZERO_PROB_BITS_CAP}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    count = int(zero_prob_engine(num_bits, trials, seed)[num_bits])
    estimate = count / trials
    probability = Fraction(1, 2**num_bits)
    p = float(probability)
    tol = three_sigma(p, trials)
    passed = abs(estimate - p) <= tol
    notes = []
    if p - tol <= 0.0:
        notes.append(
            "trials too small for the three-sigma interval to exclude zero "
            "at this bit count"
        )
    return ExperimentReport(
        name="zero-probability",
        parameters={"bits": num_bits, "trials": trials, "seed": seed, "lambda": "1"},
        observed={
            "nonzero_periods": count,
            "estimate": estimate,
            "abs_error": abs(estimate - p),
        },
        theoretical={
            "probability": probability,
            "probability_float": p,
            "three_sigma": tol,
        },
        passed=passed,
        notes=tuple(notes),
    )


def amplitude_range_experiment(
    num_bits: int,
    lam: Fraction | str,
    exhaustive: bool | None = None,
    trials: int = 10000,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Scan |readout| of the uniform superposition against its exact bounds.

    Exhaustive mode (num_bits <= 6) walks all 2^(2N) sign assignments
    through `algebra.evaluator` and must attain (1-lambda)^N and
    (1+lambda)^N exactly, with nothing outside.  The evaluator returns one
    shared object per distinct value, so the columns are grouped by object
    identity first and each distinct value is compared once; `samples`
    still counts every column.  Monte Carlo mode samples periods and must
    stay inside.  |readout| grows with the agreement count a, so Monte
    Carlo mode reads `algebra.agreement_law` exactly at the smallest and
    largest a of the zero_prob_engine histogram.  Its bounds check cannot
    fail, since every (1+lambda)^a (1-lambda)^(N-a) lies within the
    bounds; it stays so until the report checks the histogram against its
    binomial law.
    """
    lam = check_lambda(lam)
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    if exhaustive is None:
        exhaustive = num_bits <= EXHAUSTIVE_BITS_CAP
    if exhaustive and num_bits > EXHAUSTIVE_BITS_CAP:
        raise ValueError(
            f"exhaustive mode enumerates 2^(2N) assignments; capped at "
            f"{EXHAUSTIVE_BITS_CAP} bits"
        )
    if not exhaustive:
        if trials < 1:
            raise ValueError("trials must be >= 1")
        _batch_trials(f"one period of {num_bits} bits", _period_bytes(num_bits))
    _check_renderable(num_bits, lam)
    t_min = (1 - lam) ** num_bits
    t_max = (1 + lam) ** num_bits
    if exhaustive:
        value = evaluator(uniform_superposition(num_bits), lam)
        columns = iter_product((-1, 1), repeat=2 * num_bits)
        # one entry per shared value object; the dict keeps each alive, so
        # no id is reused, and equal values that are not shared only add
        # entries
        distinct = {id(v): v for v in map(value, columns)}
        values = [abs(v) for v in distinct.values()]
    else:
        seen = np.flatnonzero(zero_prob_engine(num_bits, trials, seed)).tolist()
        _, law = agreement_law(uniform_superposition(num_bits), lam)
        # at A-parity 0 the law gives |readout|: every factor is non-negative
        values = [law((0, a)) for a in (seen[0], seen[-1])]
    v_min = min(values)
    v_max = max(values)
    within = all(t_min <= v <= t_max for v in values)
    if exhaustive:
        passed = within and v_min == t_min and v_max == t_max
    else:
        passed = within
    return ExperimentReport(
        name="amplitude-range",
        parameters={
            "bits": num_bits,
            "lambda": lam,
            "mode": "exhaustive" if exhaustive else "monte-carlo",
            "trials": None if exhaustive else trials,
            "seed": None if exhaustive else seed,
        },
        observed={
            "min_abs": v_min,
            "max_abs": v_max,
            "min_attained": v_min == t_min,
            "max_attained": v_max == t_max,
            "all_within_bounds": within,
            "samples": 4**num_bits if exhaustive else trials,
        },
        theoretical={"min_abs": t_min, "max_abs": t_max},
        passed=passed,
    )


def resolution_experiment(num_bits: int, lam: Fraction | str) -> ExperimentReport:
    """Resolution bit count for the scaled representation, with range check."""
    lam = Fraction(lam)
    bits = resolution_bits(num_bits, lam)
    below = dynamic_range_below_double(lam)
    ratio = _range_ratio(lam)
    notes = []
    if lam != Fraction(1, 2):
        notes.append(
            "bit count for lambda != 1/2 is a derived generalization of the "
            "half-amplitude formula"
        )
    return ExperimentReport(
        name="resolution",
        parameters={"bits": num_bits, "lambda": lam},
        observed={
            "resolution_bits": bits,
            "bits_per_noise_bit": bits / num_bits,
            "ceiling_at_double": bits == 2 * num_bits,
        },
        theoretical={
            "real_valued_bits": num_bits * math.log2(float(ratio)),
            "double_bits": 2 * num_bits,
            "dynamic_range_below_double": below,
        },
        passed=below and bits <= 2 * num_bits,
        notes=tuple(notes),
    )


def _identification_verdict(
    budget: ErrorBudget, trials: int, seed: int
) -> tuple[IdentificationTrialStats, Fraction, float, bool, bool]:
    """Run and judge a budget's trials: (stats, clamped bound, three sigma, rate ok, sound).

    The rate check: the undecided rate is at most the clamped union bound
    plus three binomial sigmas, 0 when the bound is 1.  The soundness
    check: no fully decided trial wrong, no decided bit wrong, no
    contradiction.
    """
    stats = run_identification_trials(budget.num_bits, budget.max_periods, trials, seed)
    bound = budget.clamped_epsilon
    p = float(bound)
    tol = three_sigma(p, trials) if p < 1 else 0.0
    sound = (
        stats.wrong_complete_trials == 0
        and stats.wrong_decided_bits == 0
        and stats.contradictions == 0
    )
    return stats, bound, tol, stats.undecided_rate <= p + tol, sound


def identification_experiment(
    num_bits: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    epsilon: Fraction | float | str | None = None,
    max_periods: int | None = None,
    include_baseline: bool = False,
) -> ExperimentReport:
    """Monte Carlo check of the time-shifted identifier's error budget.

    Provide epsilon (the observation window is derived) or max_periods
    directly.  Undecided rate must stay within the clamped union bound
    plus three sigmas, and every fully decided trial must recover the
    hidden string exactly.
    """
    if (epsilon is None) == (max_periods is None):
        raise ValueError("provide exactly one of epsilon or max_periods")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if include_baseline and num_bits > BASELINE_BITS_CAP:
        raise ValueError(f"baseline search is exponential; capped at {BASELINE_BITS_CAP} bits")
    if max_periods is None:
        budget = ErrorBudget.from_epsilon(num_bits, epsilon)
    else:
        budget = ErrorBudget.from_periods(num_bits, max_periods)
    stats, bound, tol, rate_ok, sound = _identification_verdict(budget, trials, seed)
    parameters: dict[str, object] = {
        "bits": num_bits,
        "trials": trials,
        "seed": seed,
        "epsilon": Fraction(epsilon) if epsilon is not None else None,
        "max_periods": budget.max_periods,
    }
    observed: dict[str, object] = {
        "undecided_rate": stats.undecided_rate,
        "undecided_trials": stats.undecided_trials,
        "complete_trials": stats.complete_trials,
        "wrong_complete_trials": stats.wrong_complete_trials,
        "wrong_decided_bits": stats.wrong_decided_bits,
        "contradictions": stats.contradictions,
        "mean_ticks_observed": stats.mean_ticks_observed,
        "mean_periods_used": stats.mean_periods_used,
    }
    theoretical: dict[str, object] = {
        "undecided_bound": bound,
        "undecided_bound_float": float(bound),
        "three_sigma": tol,
        "budget_ticks": budget.ticks,
    }
    passed = rate_ok and sound
    if include_baseline:
        ppt = _baseline_periods(epsilon if epsilon is not None else budget.epsilon)
        bstats = run_baseline_trials(
            num_bits, ppt, trials, rng.derive_seed(seed, 1)
        )
        observed["baseline_mean_tests"] = bstats.mean_tests
        observed["baseline_false_matches"] = bstats.false_matches
        theoretical["baseline_periods_per_test"] = ppt
        theoretical["baseline_mean_tests"] = ((1 << num_bits) + 1) / 2
    return ExperimentReport(
        name="identification",
        parameters=parameters,
        observed=observed,
        theoretical=theoretical,
        passed=passed,
    )


def identification_benchmark(
    bits_list: list[int],
    epsilon: Fraction | float | str,
    trials: int,
    seed: int = DEFAULT_SEED,
    include_baseline: bool = True,
    baseline_cap: int = BASELINE_BITS_CAP,
    include_timing: bool = False,
) -> ExperimentReport:
    """Cost scaling of time-shifted identification against the baseline scan.

    The fitted time-shifted cost is the scheduled observation window in
    ticks, 2N * required_periods(N, epsilon) (the quantity the linear
    claim is about); mean observed ticks with early exit are reported
    alongside.  Baseline cost is mean tests times the per-test period
    budget and is only run up to baseline_cap bits, from 1 to
    BASELINE_BITS_CAP.  Timing columns are optional because they would
    break byte-identical reruns.
    """
    if not bits_list:
        raise ValueError("need at least one bit count")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if baseline_cap > BASELINE_BITS_CAP:
        raise ValueError(
            f"baseline search is exponential; baseline_cap may not exceed {BASELINE_BITS_CAP}"
        )
    if baseline_cap < 1:  # a report would claim a baseline that never runs
        raise ValueError(f"baseline_cap must be at least 1, got {baseline_cap}")
    if len(set(bits_list)) != len(bits_list):
        raise ValueError("bit counts must be distinct")
    eps = Fraction(epsilon)
    budgets = [ErrorBudget.from_epsilon(n, eps) for n in bits_list]
    for n, m in ((b.num_bits, b.max_periods) for b in budgets):  # before any trial
        _batch_trials(f"one identification trial at {n} bits", _identification_trial_bytes(n, m))
    rows: list[dict[str, object]] = []
    baseline_points: list[tuple[int, float]] = []
    passed = True  # each bit count's rate and soundness checks, then the fits
    for budget in budgets:
        n = budget.num_bits
        t0 = time.perf_counter()
        stats, _, _, rate_ok, sound = _identification_verdict(
            budget, trials, rng.derive_seed(seed, 2 * n)
        )
        dt = time.perf_counter() - t0
        passed = passed and rate_ok and sound
        row: dict[str, object] = {
            "bits": n,
            "tsinbl_periods": budget.max_periods,
            "tsinbl_budget_ticks": budget.ticks,
            "tsinbl_mean_ticks_observed": stats.mean_ticks_observed,
            "tsinbl_undecided_rate": stats.undecided_rate,
            "tsinbl_wrong_trials": stats.wrong_complete_trials,
        }
        if include_timing:
            row["tsinbl_ms_per_trial"] = 1000.0 * dt / trials
        if include_baseline and n <= baseline_cap:
            ppt = _baseline_periods(eps)
            t0 = time.perf_counter()
            bstats = run_baseline_trials(
                n, ppt, trials, rng.derive_seed(seed, 2 * n + 1)
            )
            dt = time.perf_counter() - t0
            row["baseline_periods_per_test"] = ppt
            row["baseline_mean_tests"] = bstats.mean_tests
            row["baseline_mean_cost"] = bstats.mean_tests * ppt
            row["baseline_false_matches"] = bstats.false_matches
            if include_timing:
                row["baseline_ms_per_trial"] = 1000.0 * dt / trials
            baseline_points.append((n, bstats.mean_tests))
        elif include_baseline:
            row["baseline_periods_per_test"] = None
            row["baseline_mean_tests"] = None
            row["baseline_mean_cost"] = None
            row["baseline_false_matches"] = None
        rows.append(row)

    observed: dict[str, object] = {}
    theoretical: dict[str, object] = {}
    budget_costs = [(budget.num_bits, budget.ticks) for budget in budgets]
    per_bit = [cost / n for n, cost in budget_costs]
    observed["tsinbl_cost_per_bit_mean"] = sum(per_bit) / len(per_bit)
    if len(budget_costs) >= 2:
        mean_pb = sum(per_bit) / len(per_bit)
        spread = max(abs(x - mean_pb) for x in per_bit) / mean_pb
        slope, intercept = fit_slope(
            [float(n) for n, _ in budget_costs], [float(c) for _, c in budget_costs]
        )
        exponent, _ = fit_slope(
            [math.log2(n) for n, _ in budget_costs],
            [math.log2(c) for _, c in budget_costs],
        )
        observed["tsinbl_cost_per_bit_max_rel_dev"] = spread
        observed["tsinbl_linear_slope"] = slope
        observed["tsinbl_linear_intercept"] = intercept
        observed["tsinbl_loglog_exponent"] = exponent
        theoretical["tsinbl_cost_per_bit_tolerance"] = 0.15
        passed = passed and spread <= 0.15
    if len(baseline_points) >= 2:
        b_slope, b_intercept = fit_slope(
            [float(n) for n, _ in baseline_points],
            [math.log2(t) for _, t in baseline_points],
        )
        observed["baseline_log2_slope"] = b_slope
        observed["baseline_log2_intercept"] = b_intercept
        theoretical["baseline_log2_slope"] = 1.0
        theoretical["baseline_slope_tolerance"] = 0.1
        passed = passed and abs(b_slope - 1.0) <= 0.1
    return ExperimentReport(
        name="identification-benchmark",
        parameters={
            "bits": list(bits_list),
            "epsilon": eps,
            "trials": trials,
            "seed": seed,
            "baseline": include_baseline,
            "baseline_cap": baseline_cap,
        },
        observed=observed,
        theoretical=theoretical,
        passed=passed,
        rows=tuple(rows),
    )


def _not_demo_bytes(num_bits: int, lam: Fraction) -> int:
    """Bytes not_gate_demo holds at most at N = num_bits and lambda = p/q, for any periods.

    A chunk of its draw (_batch_size periods of _period_bytes); 160N for
    the 4N-bin key table, a row's keys and the NOT result's per-bit
    tuples; and the values.  A key fixes a readout and a NOT result, so a
    run makes at most 6N + 4 distinct values, of which `_shared` keeps at
    most _SHARED_VALUES, each as three integers of at most (N+1) times the
    bit length of p + q bits and 256 bytes of objects; 24 more integers
    cover the laws and the key at hand.
    """
    period = _period_bytes(num_bits)
    bits = (num_bits + 1) * (lam.numerator + lam.denominator).bit_length()
    digits = -(-bits // sys.int_info.bits_per_digit)
    large = sys.getsizeof(0) + digits * sys.int_info.sizeof_digit
    kept = min(_SHARED_VALUES, 6 * num_bits + 4)
    values = (3 * kept + 24) * large + 256 * kept
    return period * _batch_size(period) + 160 * num_bits + values


def not_gate_demo(
    num_bits: int,
    lam: Fraction | str,
    target_bit: int,
    periods: int = 1000,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Inversion of one bit by multiplying with its H*L reference product.

    Checks the factored NOT result of the uniform superposition pair by
    pair, O(N) with no expansion: coefficient_permutation_ok that the
    target bit's (c_H, c_L) is (lambda^2 * c_L, c_H) of the input's, and
    factored_route_matches that the bit count and every other bit's pair
    are unchanged.  Multiplying out is multilinear in the pairs, so when
    both hold every one of the 2^N terms maps by the permutation rule (H
    terms to L unchanged, L terms to H scaled by lambda^2).  The waveform
    route, the readout times the H_r * L_r inverter, must equal the NOT
    result at every readout.  Each period's not_gate_engine key fixes all
    three values while the other bits keep one pair (factored_route_matches;
    else no readout agrees), so each distinct key is checked once, by
    `agreement_law` and `selection_parity`, and adds its periods when the
    routes agree.  Every refusal comes before any draw.
    """
    lam = check_lambda(lam)
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    if not 1 <= target_bit <= num_bits:
        raise ValueError(f"target_bit must be in 1..{num_bits}")
    if periods < 1:
        raise ValueError("periods must be >= 1")
    p, q = lam.numerator, lam.denominator
    size = num_bits * ((p + q).bit_length() + q.bit_length())
    if size > NOT_DEMO_VALUE_BITS_CAP:
        raise ValueError(f"not-demo at {num_bits} bits evaluates values of about {size} bits; "
                         f"capped at {NOT_DEMO_VALUE_BITS_CAP}")
    _check_memory(f"not-demo at {num_bits} bits", _not_demo_bytes(num_bits, lam))
    uni = uniform_superposition(num_bits)
    notted = apply_not(uni, target_bit, lam)

    lam2 = lam * lam
    i = target_bit - 1
    permutation_ok = (notted.c_h[i], notted.c_l[i]) == (lam2 * uni.c_l[i], uni.c_h[i])
    factored_matches = (
        notted.c_h[:i] + notted.c_h[i + 1 :] == uni.c_h[:i] + uni.c_h[i + 1 :]
        and notted.c_l[:i] + notted.c_l[i + 1 :] == uni.c_l[:i] + uni.c_l[i + 1 :]
    )

    table = not_gate_engine(num_bits, target_bit, periods, seed)
    _, readout = agreement_law(uni, lam)
    groups, symbolic = agreement_law(notted, lam)
    _, inverter = selection_parity([(target_bit, "H"), (target_bit, "L")], lam)
    agree = 0
    if factored_matches:  # the target's group counts t, another bit's group o
        g_t, g_o, size = 1 + groups[i], 1 + groups[i - 1], 2 + max(groups)
        for parity, t in iter_product((0, 1), repeat=2):
            for o in np.flatnonzero(table[parity, t]).tolist():
                state = [parity] + [0] * (size - 1)
                state[g_t] += t
                state[g_o] += o
                if readout((parity, t + o)) * inverter[1 - t] == symbolic(state):
                    agree += int(table[parity, t, o])

    passed = permutation_ok and factored_matches and agree == periods
    return ExperimentReport(
        name="not-gate",
        parameters={
            "bits": num_bits,
            "lambda": lam,
            "target": target_bit,
            "periods": periods,
            "seed": seed,
        },
        observed={
            "coefficient_permutation_ok": permutation_ok,
            "factored_route_matches": factored_matches,
            "readouts_agreeing": agree,
            "former_l_scale": lam2,
        },
        theoretical={"former_l_scale": lam2, "readouts_agreeing": periods},
        passed=passed,
    )
