"""Waveform synthesis and readout over a reference system.

A trace is the exact tick-by-tick value of a product or superposition
waveform.  Samples are rational: a product string's sample is the product
of its chosen reference values (so its magnitude is lambda^(#L factors)),
and a factored superposition's sample is the product over bits of
(c_H * A_r(t) + c_L * lambda * B_r(t)).  No trace or readout builds a sign
column: each indexes a law of `algebra` by a state read from the sign
matrix, and the tests pin every one to `algebra.evaluator` on literal
columns.  Product and selection traces, O(N·M) over M periods, index
`selection_parity`'s two values (±lambda^#L) by
`ReferenceSystem.parity_trace`, the parity of -1 signs over the
odd-parity slots at each tick.  Superposition traces index
`agreement_law` by `ReferenceSystem.agreement_runs`, the A-parity and
each coefficient group's count of agreeing bits, once per period
unshifted and once per switching tick shifted, so the uniform
superposition costs O(1) per switching tick.  Samples are a few shared
objects.

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

from .algebra import FactoredSuperposition, ProductString, agreement_law, selection_parity
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
    """Trace of a factored superposition, O(G) work per run of `agreement_runs`."""
    runs = _superposition_runs(refs, f, shifted)
    ends = [tick for tick, _ in runs[1:]] + [refs.grid.num_ticks]
    samples: list[Fraction] = []
    for (start, value), end in zip(runs, ends):
        samples += [value] * (end - start)
    return SignalTrace(grid=refs.grid, shifted=shifted, samples=tuple(samples))


def _superposition_runs(refs: ReferenceSystem, f: FactoredSuperposition, shifted: bool) -> list:
    """(first tick, `agreement_law` value) of each run of `agreement_runs`."""
    _check_width(refs, f)
    groups, law = agreement_law(f, refs.lam)
    return [(tick, law(state)) for tick, state in refs.agreement_runs(groups, shifted)]


def multiply_traces(a: SignalTrace, b: SignalTrace) -> SignalTrace:
    """Pointwise product of two traces over the same grid and mode."""
    if a.grid != b.grid or a.shifted != b.shifted:
        raise ValueError("traces must share grid and mode")
    samples = tuple(x * y for x, y in zip(a.samples, b.samples))
    return SignalTrace(grid=a.grid, shifted=a.shifted, samples=samples)


def readout(trace: SignalTrace) -> tuple[Fraction, ...]:
    """Per-period values at the readout window (last tick of each period)."""
    return trace.samples[trace.grid.readout_tick(0) :: trace.grid.subclocks_per_period]


# ---------------------------------------------------------------------------
# readout-only fast paths (exact; skip intermediate ticks)
# ---------------------------------------------------------------------------

def product_readouts(refs: ReferenceSystem, w: ProductString) -> tuple[Fraction, ...]:
    """Per-period readout of a product string without building the trace."""
    _check_width(refs, w)
    slots, values = selection_parity(w.picks(), refs.lam)
    parity = refs.parity_trace(slots, shifted=False)[:: refs.grid.subclocks_per_period]
    return tuple(np.array(values, dtype=object)[parity].tolist())


def superposition_readouts(refs: ReferenceSystem, f: FactoredSuperposition) -> tuple[Fraction, ...]:
    """Per-period readout of a factored superposition without building the trace."""
    return tuple(value for _, value in _superposition_runs(refs, f, shifted=False))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _format_amplitude(value: Fraction, style: str) -> str:
    if style == "fraction":
        return str(value)
    if style == "decimal":
        # exact decimal expansion with a + b digits when the denominator
        # is 2^a * 5^b (each factor 2 or 5 of den turns into a 10 by
        # scaling num by 5 or 2), otherwise fall back to the exact p/q form
        num, den, scale = value.numerator, value.denominator, 0
        for p, q in ((2, 5), (5, 2)):
            while den % p == 0:
                den, num, scale = den // p, num * q, scale + 1
        if den != 1:
            return str(value)
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
