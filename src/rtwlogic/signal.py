"""Waveform synthesis and readout over a reference system.

A trace is the exact tick-by-tick value of a product or superposition
waveform.  Samples are rational: a product string's sample is the product
of its chosen reference values (so its magnitude is lambda^(#L factors)),
and a factored superposition's sample is the product over bits of
(c_H * A_r(t) + c_L * lambda * B_r(t)), evaluated in O(N) per tick.
Every value comes from the one exact evaluator, `algebra.evaluator`, and
its rules.

Product and selection traces cost O(N·M) over M periods, with numpy
doing the per-tick work.  They index `algebra.selection_parity`'s two
shared values (±lambda^#L) by `ReferenceSystem.parity_trace`, the parity
of -1 signs over the selection's odd-parity slots at each tick, which is
read from the sign matrix without building a column: once per period
unshifted, and shifted, where exactly one slot switches per tick, as the
period-0 parity XOR-accumulated over the masked slots' switches.
Superposition traces map the evaluator over `ReferenceSystem.column_runs`,
once per run of equal consecutive columns (once per period unshifted,
about half the ticks shifted, O(N) each), and readouts map it over
`ReferenceSystem.period_columns`.  Samples are a few shared objects.

Meaning is assigned at the end-of-period readout window (the last
sub-clock slot), where shifted and unshifted traces of the same object
agree from period 1 on.  For long Monte Carlo runs the readout-only
helpers skip the intermediate ticks; they are exact and are tested to
equal the full-trace readouts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from .algebra import (
    Evaluator, FactoredSuperposition, ProductString, evaluator, selection_parity,
)
from .rtw import ClockGrid, ReferenceSystem


@dataclass(frozen=True)
class SignalTrace:
    """Exact samples of one waveform, one value per tick."""

    grid: ClockGrid
    shifted: bool
    samples: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.samples) != self.grid.num_ticks:
            raise ValueError("sample count disagrees with grid")

    def __len__(self) -> int:
        return len(self.samples)


Selection = Sequence[tuple[int, str]]


def _check_width(refs: ReferenceSystem, s: ProductString | FactoredSuperposition) -> None:
    if s.num_bits != refs.num_bits:
        raise ValueError("bit-width mismatch")


def _trace(refs: ReferenceSystem, value: Evaluator, shifted: bool) -> SignalTrace:
    """Evaluate once per run of equal consecutive columns and repeat the value."""
    samples: list[Fraction] = []
    for column, run in refs.column_runs(shifted):
        samples += [value(column)] * run
    return SignalTrace(grid=refs.grid, shifted=shifted, samples=tuple(samples))


def trace_selection(refs: ReferenceSystem, picks: Selection, shifted: bool = False) -> SignalTrace:
    """Trace of a product of chosen logic-value waveforms.

    picks may cover any subset of bits and may repeat a bit (for example
    [(r, "H"), (r, "L")] is the inverter waveform H_r * L_r for bit r).
    The lambda scale of each L pick is folded into the samples.
    """
    for bit, _ in picks:
        if not 1 <= bit <= refs.num_bits:
            raise ValueError(f"bit {bit} outside 1..{refs.num_bits}")
    slots, values = selection_parity(picks, refs.lam)
    parity = refs.parity_trace(slots, shifted)
    samples = tuple(np.array(values, dtype=object)[parity].tolist())
    return SignalTrace(grid=refs.grid, shifted=shifted, samples=samples)


def trace_product(refs: ReferenceSystem, w: ProductString, shifted: bool = False) -> SignalTrace:
    """Trace of a full product string (one chosen value per bit)."""
    _check_width(refs, w)
    return trace_selection(refs, w.picks(), shifted)


def trace_superposition(
    refs: ReferenceSystem,
    f: FactoredSuperposition,
    shifted: bool = False,
) -> SignalTrace:
    """Trace of a factored superposition, O(num_bits) work per tick."""
    _check_width(refs, f)
    return _trace(refs, evaluator(f, refs.lam), shifted)


def multiply_traces(a: SignalTrace, b: SignalTrace) -> SignalTrace:
    """Pointwise product of two traces over the same grid and mode."""
    if a.grid != b.grid or a.shifted != b.shifted:
        raise ValueError("traces must share grid and mode")
    samples = tuple(x * y for x, y in zip(a.samples, b.samples))
    return SignalTrace(grid=a.grid, shifted=a.shifted, samples=samples)


def readout(trace: SignalTrace) -> tuple[Fraction, ...]:
    """Per-period values at the readout window (last tick of each period)."""
    grid = trace.grid
    return tuple(
        trace.samples[grid.readout_tick(k)] for k in range(grid.num_periods)
    )


# ---------------------------------------------------------------------------
# readout-only fast paths (exact; skip intermediate ticks)
# ---------------------------------------------------------------------------

def _readouts(refs: ReferenceSystem, s: ProductString | FactoredSuperposition) -> tuple:
    """readout() of either mode's trace: at the readout window both hold the period's signs."""
    _check_width(refs, s)
    return tuple(map(evaluator(s, refs.lam), refs.period_columns()))


def product_readouts(refs: ReferenceSystem, w: ProductString) -> tuple[Fraction, ...]:
    """Per-period readout of a product string without building the trace."""
    return _readouts(refs, w)


def superposition_readouts(refs: ReferenceSystem, f: FactoredSuperposition) -> tuple[Fraction, ...]:
    """Per-period readout of a factored superposition without building the trace."""
    return _readouts(refs, f)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _format_amplitude(value: Fraction, style: str) -> str:
    if style == "fraction":
        return str(value)
    if style == "decimal":
        # exact decimal expansion when the denominator is 2^a * 5^b,
        # otherwise fall back to the exact p/q form
        den = value.denominator
        for p in (2, 5):
            while den % p == 0:
                den //= p
        if den != 1:
            return str(value)
        if value.denominator == 1:
            return str(value.numerator)
        scale = 0
        num = value.numerator
        den = value.denominator
        while den % 2 == 0:
            den //= 2
            num *= 5
            scale += 1
        while den % 5 == 0:
            den //= 5
            num *= 2
            scale += 1
        text = str(abs(num)).rjust(scale + 1, "0")
        sign = "-" if num < 0 else ""
        return f"{sign}{text[:-scale]}.{text[-scale:]}" if scale else f"{sign}{text}"
    raise ValueError(f"style must be 'fraction' or 'decimal', got {style!r}")


def write_trace_csv(trace: SignalTrace, out: IO[str], style: str = "fraction") -> None:
    """Write a trace as CSV rows: tick, period, scp, amplitude."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["tick", "period", "scp", "amplitude"])
    grid = trace.grid
    for tick, value in enumerate(trace.samples):
        writer.writerow(
            [tick, grid.period_of(tick), grid.scp_of(tick), _format_amplitude(value, style)]
        )
