"""Command line front end for the experiment suite.

Exit codes: 0 when the experiment's own acceptance check passed, 1 when
it ran but failed its check, 2 for invalid arguments, 3 when the run
stopped on an unexpected error (reported as one `error:` line on stderr,
without a traceback).  Reports embed the
master seed; rerunning any subcommand with the same flags writes
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import experiments
from .identify import check_epsilon
from .rng import MASK64
from .rtw import check_lambda


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _checked(check):
    """An argparse type: a rational number that `check` accepts, or its refusal."""
    def parse(text: str) -> Fraction:
        try:
            return check(_fraction(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


_lambda = _checked(check_lambda)
_epsilon = _checked(check_epsilon)


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """argv with a negative rational after --lambda or --epsilon joined to it by `=`.

    argparse takes a separate word like -1/2 for a flag and refuses the
    flag as missing its value; --lambda=-1/2 reaches the flag's check.
    Abbreviations count: any word longer than -- that begins either name.
    One that names another flag there (range's --e is --exhaustive) has
    argparse refuse the joined value.
    """
    joined: list[str] = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        if (len(flag) > 2 and ("--lambda".startswith(flag) or "--epsilon".startswith(flag))
                and arg.startswith("-")):
            try:
                _fraction(arg)
            except argparse.ArgumentTypeError:
                pass  # another flag: the rational flag's value is missing
            else:
                joined[-1] += "=" + arg
                continue
        joined.append(arg)
    return joined


def _seed(text: str) -> int:
    """An argparse type: a master seed in 0..2^64 - 1.

    The library folds any integer seed mod 2^64, so seeds that differ by a
    multiple of 2^64 would draw the same signs while their reports state
    different seeds.
    """
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if not 0 <= seed <= MASK64:
        raise argparse.ArgumentTypeError(f"seed must satisfy 0 <= seed < 2^64, got {seed}")
    return seed


def _bits_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of ints: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("need at least one bit count")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("bit counts must be positive")
    return values


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="report format (default: csv)",
    )
    common.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report to PATH instead of stdout",
    )

    parser = argparse.ArgumentParser(
        prog="rtwlogic",
        description="experiments on telegraph-wave logic representations "
        "and time-shifted identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "zero-prob", parents=[common],
        help="survival probability of the uniform superposition at lambda=1",
    )
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=_seed, default=experiments.DEFAULT_SEED)
    p.set_defaults(run=lambda a: experiments.zero_probability_experiment(
        a.bits, a.trials, a.seed))

    p = sub.add_parser(
        "range", parents=[common],
        help="amplitude range of the uniform superposition",
    )
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_lambda, default=Fraction(1, 2))
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate all sign assignments (bits <= 6)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=_seed, default=experiments.DEFAULT_SEED)
    p.set_defaults(run=lambda a: experiments.amplitude_range_experiment(
        a.bits, a.lam, exhaustive=True if a.exhaustive else None,
        trials=a.trials, seed=a.seed))

    p = sub.add_parser(
        "resolution", parents=[common],
        help="amplitude resolution bits of the scaled representation",
    )
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_lambda, default=Fraction(1, 2))
    p.set_defaults(run=lambda a: experiments.resolution_experiment(a.bits, a.lam))

    p = sub.add_parser(
        "identify", parents=[common],
        help="Monte Carlo error budget of time-shifted identification",
    )
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--epsilon", type=_epsilon, default=Fraction(1, 1000))
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=_seed, default=experiments.DEFAULT_SEED)
    p.add_argument("--baseline", action="store_true",
                   help="also run the exhaustive baseline search (bits <= 14)")
    p.set_defaults(run=lambda a: experiments.identification_experiment(
        a.bits, a.trials, a.seed, epsilon=a.epsilon, include_baseline=a.baseline))

    p = sub.add_parser(
        "bench", parents=[common],
        help="cost scaling of identification across bit counts",
    )
    # a string default goes through `type` on every parse, so each run gets
    # a fresh list and the cached parser holds no mutable default
    p.add_argument("--bits", type=_bits_list, default="4,6,8,10,12")
    p.add_argument("--epsilon", type=_epsilon, default=Fraction(1, 1000000))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=experiments.DEFAULT_SEED)
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the exponential baseline entirely")
    p.add_argument("--baseline-cap", type=int, default=experiments.BASELINE_BITS_CAP,
                   help="largest bit count the baseline is run at")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock columns (breaks byte-identical reruns)")
    p.set_defaults(run=lambda a: experiments.identification_benchmark(
        a.bits, a.epsilon, a.trials, a.seed, include_baseline=not a.no_baseline,
        baseline_cap=a.baseline_cap, include_timing=a.timing))

    p = sub.add_parser(
        "not-demo", parents=[common],
        help="NOT gate on one bit of the uniform superposition",
    )
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_lambda, default=Fraction(1, 2))
    p.add_argument("--target", type=int, default=1, help="bit to invert (1-based)")
    p.add_argument("--periods", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=experiments.DEFAULT_SEED)
    p.set_defaults(run=lambda a: experiments.not_gate_demo(
        a.bits, a.lam, a.target, periods=a.periods, seed=a.seed))

    return parser


# built on the first call to main, then reused by every call in the process
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(_join_negative_rationals(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse has printed usage or help to its stream
        return exc.code
    try:
        report = args.run(args)
        text = report.render(args.format)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the CLI boundary: one line, never a traceback
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
