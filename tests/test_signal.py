"""Waveform traces: products, superpositions, readout windows, CSV export."""

from __future__ import annotations

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import algebra as alg
from rtwlogic import rtw
from rtwlogic import signal as sig
from test_rtw import literal_columns


def _refs(seed: int = 5, n: int = 3, periods: int = 8, lam=Fraction(1, 2)):
    return rtw.build_reference_system(seed, n, periods, lam=lam)


def test_trace_product_magnitude_counts_l_factors() -> None:
    refs = _refs()
    lam = refs.lam
    for letters, n_l in (("HHH", 0), ("LHH", 1), ("LLH", 2), ("LLL", 3)):
        tr = sig.trace_product(refs, alg.ProductString.from_letters(letters))
        assert all(abs(v) == lam**n_l for v in tr.samples)


def test_trace_selection_supports_repeats() -> None:
    # picking both carriers of one bit yields the inverter waveform lam*A*B
    refs = _refs()
    tr = sig.trace_selection(refs, [(2, "H"), (2, "L")], shifted=True)
    g = refs.grid
    a = rtw.stream_index(2, rtw.ROLE_A)
    b = rtw.stream_index(2, rtw.ROLE_B)
    columns = literal_columns(refs, shifted=True)
    assert len(columns) == g.num_ticks
    for t in range(g.num_ticks):
        expect = refs.lam * columns[t][a] * columns[t][b]
        assert tr.samples[t] == expect


def test_trace_selection_rejects_unknown_bit() -> None:
    refs = _refs()
    with pytest.raises(ValueError):
        sig.trace_selection(refs, [(4, "H")])
    with pytest.raises(ValueError):
        sig.trace_selection(refs, [(1, "X")])


def test_readout_samples_last_subclock() -> None:
    refs = _refs()
    tr = sig.trace_product(refs, alg.ProductString.from_letters("HLH"), shifted=True)
    outs = sig.readout(tr)
    g = refs.grid
    assert len(outs) == g.num_periods
    spp = g.subclocks_per_period
    for k, v in enumerate(outs):
        assert v == tr.samples[k * spp + spp - 1]


def test_shifted_and_unshifted_readouts_agree() -> None:
    refs = _refs(seed=31, n=4, periods=10)
    w = alg.ProductString.from_letters("HLLH")
    plain = sig.readout(sig.trace_product(refs, w, shifted=False))
    shifted = sig.readout(sig.trace_product(refs, w, shifted=True))
    assert plain == shifted


def test_readout_matches_symbolic_oracle() -> None:
    # readout per period must equal the exact algebra evaluated at that
    # period's signs, for products and for the uniform superposition
    refs = _refs(seed=12, n=4, periods=6)
    u = alg.uniform_superposition(4)
    w = alg.ProductString.from_letters("LHLH")
    for shifted in (False, True):
        tr_w = sig.trace_product(refs, w, shifted=shifted)
        tr_u = sig.trace_superposition(refs, u, shifted=shifted)
        for k, (vw, vu) in enumerate(zip(sig.readout(tr_w), sig.readout(tr_u))):
            signs = refs.period_signs(k)
            assert vw == alg.evaluate_symbolic(w, signs, refs.lam)
            assert vu == alg.evaluate_symbolic(u, signs, refs.lam)


def test_fast_readout_paths_match_traces() -> None:
    refs = _refs(seed=77, n=3, periods=20)
    w = alg.ProductString.from_letters("HLL")
    assert sig.product_readouts(refs, w) == sig.readout(sig.trace_product(refs, w))
    u = alg.uniform_superposition(3)
    assert sig.superposition_readouts(refs, u) == sig.readout(
        sig.trace_superposition(refs, u)
    )


def test_trace_values_are_shared_objects() -> None:
    # every sample is one of the 2(N+1) values +-(1+lam)^a (1-lam)^(N-a),
    # held as that many objects however long the trace
    n, lam = 16, Fraction(1, 2)
    refs = rtw.build_reference_system(2024, n, 8, lam=lam)
    u = alg.uniform_superposition(n)
    value = alg.evaluator(u, lam)
    for shifted in (False, True):
        columns = literal_columns(refs, shifted)
        tr = sig.trace_superposition(refs, u, shifted=shifted)
        assert len({id(v) for v in tr.samples}) <= 2 * (n + 1)
        assert tr.samples == tuple(map(value, columns))
        w = alg.ProductString(n, 0x5A5A)
        product = sig.trace_product(refs, w, shifted=shifted)
        assert len({id(v) for v in product.samples}) <= 2
        assert product.samples == tuple(map(alg.evaluator(w, lam), columns))
    readouts = sig.readout(sig.trace_superposition(refs, u))
    for k, v in enumerate(readouts):
        assert v is alg.evaluate_symbolic(u, refs.period_signs(k), lam)


def test_trace_multiplicativity_over_disjoint_picks() -> None:
    refs = _refs(seed=9, n=4, periods=5)
    for shifted in (False, True):
        t1 = sig.trace_selection(refs, [(1, "H"), (3, "L")], shifted=shifted)
        t2 = sig.trace_selection(refs, [(2, "L"), (4, "H")], shifted=shifted)
        joint = sig.trace_selection(
            refs, [(1, "H"), (2, "L"), (3, "L"), (4, "H")], shifted=shifted
        )
        assert sig.multiply_traces(t1, t2) == joint


def test_multiply_traces_rejects_mixed_modes() -> None:
    refs = _refs()
    a = sig.trace_product(refs, alg.ProductString.from_letters("HHH"), shifted=True)
    b = sig.trace_product(refs, alg.ProductString.from_letters("HHH"), shifted=False)
    with pytest.raises(ValueError):
        sig.multiply_traces(a, b)


def test_shifted_product_changes_only_at_factor_slots() -> None:
    refs = _refs(seed=21, n=4, periods=12)
    w = alg.ProductString.from_letters("HLHL")
    own_slots = set()
    for bit in range(1, 5):
        role = rtw.ROLE_A if w.value(bit) == "H" else rtw.ROLE_B
        own_slots.add(rtw.stream_index(bit, role))
    tr = sig.trace_product(refs, w, shifted=True)
    spp = refs.grid.subclocks_per_period
    for t in range(1, refs.grid.num_ticks):
        if tr.samples[t] != tr.samples[t - 1]:
            assert t % spp in own_slots


def test_superposition_trace_equals_expanded_sum() -> None:
    refs = _refs(seed=3, n=3, periods=4)
    f = alg.FactoredSuperposition(
        3,
        c_h=(Fraction(1), Fraction(-1, 2), Fraction(2)),
        c_l=(Fraction(1, 3), Fraction(1), Fraction(0)),
    )
    e = alg.expand(f)
    for shifted in (False, True):
        tr = sig.trace_superposition(refs, f, shifted=shifted)
        parts = [
            (c, sig.trace_product(refs, w, shifted=shifted)) for w, c in e.items()
        ]
        for t in range(refs.grid.num_ticks):
            assert tr.samples[t] == sum(c * p.samples[t] for c, p in parts)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=5),
    index=st.integers(min_value=1, max_value=32),
)
def test_product_readout_oracle_property(seed: int, n: int, index: int) -> None:
    refs = rtw.build_reference_system(seed, n, 4)
    w = alg.ProductString.from_index((index - 1) % 2**n + 1, num_bits=n)
    outs = sig.product_readouts(refs, w)
    for k, v in enumerate(outs):
        assert v == alg.evaluate_symbolic(w, refs.period_signs(k), refs.lam)


_LAMBDAS = st.sampled_from([Fraction(1), Fraction(1, 2)])


def _assert_trace_maps_columns(trace: sig.SignalTrace, refs, value) -> None:
    # every tick's sample is the evaluator at that tick's column
    assert trace.samples == tuple(map(value, literal_columns(refs, trace.shifted)))


def _literal_selection(refs, picks, shifted: bool) -> tuple[Fraction, ...]:
    """Each tick's product of the picked values, one factor per pick."""
    samples = []
    for column in literal_columns(refs, shifted):
        v = Fraction(1)
        for bit, value in picks:
            role = rtw.ROLE_A if value == "H" else rtw.ROLE_B
            v *= column[rtw.stream_index(bit, role)] * (refs.lam if value == "L" else 1)
        samples.append(v)
    return tuple(samples)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=8),
    periods=st.integers(min_value=1, max_value=6),
    lam=_LAMBDAS,
    data=st.data(),
)
def test_product_trace_equals_evaluator_over_columns(seed, n, periods, lam, data) -> None:
    refs = rtw.build_reference_system(seed, n, periods, lam=lam)
    w = alg.ProductString(n, data.draw(st.integers(min_value=0, max_value=2**n - 1)))
    for shifted in (False, True):
        trace = sig.trace_product(refs, w, shifted)
        _assert_trace_maps_columns(trace, refs, alg.evaluator(w, lam))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=8),
    periods=st.integers(min_value=1, max_value=6),
    lam=_LAMBDAS,
    data=st.data(),
)
def test_selection_trace_equals_evaluator_over_columns(seed, n, periods, lam, data) -> None:
    # any subset of bits, empty included, with repeated bits and repeated picks
    pick = st.tuples(st.integers(min_value=1, max_value=n), st.sampled_from("HL"))
    picks = data.draw(st.lists(pick, max_size=3 * n))
    refs = rtw.build_reference_system(seed, n, periods, lam=lam)
    value = alg.selection_evaluator(picks, lam)
    for shifted in (False, True):
        trace = sig.trace_selection(refs, picks, shifted)
        _assert_trace_maps_columns(trace, refs, value)
        assert trace.samples == _literal_selection(refs, picks, shifted)


@pytest.mark.parametrize("picks", [
    [],
    [(2, "H"), (2, "L")],              # the inverter waveform H_r * L_r
    [(3, "L"), (3, "L")],              # one pick twice: lam^2 * B^2
    [(1, "H"), (1, "H"), (1, "H")],    # three times: A^3 = A
    [(4, "H"), (1, "L"), (4, "H"), (2, "L"), (1, "L")],
    [(r, "H") for r in range(1, 5)] + [(r, "L") for r in range(1, 5)],
])
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(1, 2)])
def test_selection_trace_repeats_and_empty_picks(picks, lam) -> None:
    refs = rtw.build_reference_system(41, 4, 9, lam=lam)
    value = alg.selection_evaluator(picks, lam)
    for shifted in (False, True):
        trace = sig.trace_selection(refs, picks, shifted)
        _assert_trace_maps_columns(trace, refs, value)
        assert trace.samples == _literal_selection(refs, picks, shifted)
        assert len({id(v) for v in trace.samples}) <= 2


def _superposition_forms(n: int, lam: Fraction, target: int) -> list:
    """(form, number of coefficient groups) for the shapes the agreement law must cover."""
    uni = alg.uniform_superposition(n)
    # fresh objects on every bit, some equal in value, zero included: G = N
    distinct = alg.FactoredSuperposition(
        n,
        tuple(Fraction(r % 3 - 1, 2) for r in range(n)),
        tuple(Fraction(r + 1, 3) for r in range(n)),
    )
    # c_L = 0 on bits 3, 6, ... and c_H = 0 on bits 2, 5, ...: three groups, not runs
    zero, one, half = Fraction(0), Fraction(1), Fraction(1, 2)
    zeros = alg.FactoredSuperposition(
        n,
        tuple(zero if r % 3 == 1 else one for r in range(n)),
        tuple(zero if r % 3 == 2 else half for r in range(n)),
    )
    # at lambda = 1 the NOT result's swapped pair (lambda^2, 1) equals the others
    notted = alg.apply_not(uni, min(target, n), lam)
    return [(uni, 1), (notted, 1 if lam == 1 else min(n, 2)), (distinct, n), (zeros, min(n, 3))]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=8),
    periods=st.integers(min_value=1, max_value=6),
    lam=st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
    target=st.integers(min_value=1, max_value=8),
)
def test_superposition_traces_and_readouts_equal_evaluator_over_columns(
    seed, n, periods, lam, target
) -> None:
    # the agreement law indexed by agreement_runs gives, tick for tick and
    # period for period, what the evaluator gives on the literal columns
    refs = rtw.build_reference_system(seed, n, periods, lam=lam)
    spp = refs.grid.subclocks_per_period
    columns = {shifted: literal_columns(refs, shifted) for shifted in (False, True)}
    for f, num_groups in _superposition_forms(n, lam, target):
        assert len(set(alg.agreement_law(f, lam)[0])) == num_groups
        value = alg.evaluator(f, lam)
        for shifted in (False, True):
            trace = sig.trace_superposition(refs, f, shifted)
            assert trace.samples == tuple(map(value, columns[shifted]))
        readouts = tuple(map(value, columns[False][spp - 1 :: spp]))
        assert sig.superposition_readouts(refs, f) == readouts


def test_equal_coefficients_form_one_group() -> None:
    # pairs equal by value form one group, so 256 separately converted
    # coefficients form one agreement group, as the uniform superposition's
    n = 256
    f = alg.FactoredSuperposition(n, (1,) * n, tuple(Fraction(2, 2) for _ in range(n)))
    uni = alg.uniform_superposition(n)
    groups, _ = alg.agreement_law(f, Fraction(1, 2))
    assert set(groups) == {0}
    refs = _refs(seed=9, n=n, periods=3)
    for shifted in (False, True):
        expect = sig.trace_superposition(refs, uni, shifted).samples
        assert sig.trace_superposition(refs, f, shifted).samples == expect
    assert sig.superposition_readouts(refs, f) == sig.superposition_readouts(refs, uni)


def test_product_and_selection_traces_never_build_columns(monkeypatch) -> None:
    # traces and readouts read the sign matrix: no per-tick or per-period
    # column is built and no evaluator runs
    refs = _refs(seed=8, n=5, periods=7)
    w, picks = alg.ProductString(5, 0b10110), [(2, "H"), (2, "L"), (5, "L")]
    uni = alg.uniform_superposition(5)
    forms = (uni, alg.apply_not(uni, 3, refs.lam))
    values = [alg.evaluator(w, refs.lam), alg.selection_evaluator(picks, refs.lam)]
    values += [alg.evaluator(f, refs.lam) for f in forms]
    expect = {}
    for shifted in (False, True):
        columns = literal_columns(refs, shifted)
        expect[shifted] = [tuple(map(value, columns)) for value in values]

    def refuse(*args, **kwargs):
        raise AssertionError("a column was built or an evaluator ran")

    for name in ("evaluator", "selection_evaluator"):
        monkeypatch.setattr(alg, name, refuse)
    for shifted in (False, True):
        traces = [sig.trace_product(refs, w, shifted), sig.trace_selection(refs, picks, shifted)]
        traces += [sig.trace_superposition(refs, f, shifted) for f in forms]
        assert [t.samples for t in traces] == expect[shifted]
        assert sig.product_readouts(refs, w) == sig.readout(traces[0])
        for f, trace in zip(forms, traces[2:]):
            assert sig.superposition_readouts(refs, f) == sig.readout(trace)


def test_write_trace_csv_fraction_style() -> None:
    refs = _refs(seed=5, n=2, periods=2)
    tr = sig.trace_product(refs, alg.ProductString.from_letters("LL"))
    buf = io.StringIO()
    sig.write_trace_csv(tr, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "tick,period,scp,amplitude"
    assert len(lines) == 1 + refs.grid.num_ticks
    tick, period, scp, amp = lines[1].split(",")
    assert (tick, period, scp) == ("0", "0", "0")
    assert Fraction(amp) == tr.samples[0]


def test_write_trace_csv_decimal_style() -> None:
    refs = _refs(seed=5, n=2, periods=2, lam=Fraction(1, 4))
    tr = sig.trace_product(refs, alg.ProductString.from_letters("LL"))
    buf = io.StringIO()
    sig.write_trace_csv(tr, buf, style="decimal")
    body = buf.getvalue().splitlines()[1:]
    # lam^2 = 1/16 renders as an exact decimal
    assert all(line.endswith("0.0625") or line.endswith("-0.0625") for line in body)
    with pytest.raises(ValueError):
        sig.write_trace_csv(tr, io.StringIO(), style="engineering")


def _two_pass_format(value: Fraction, style: str) -> str:
    """The earlier two-pass decimal formatter, kept verbatim as an oracle."""
    if style == "fraction":
        return str(value)
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


def test_amplitude_formats_match_two_pass_oracle() -> None:
    # 2^a * 5^b denominators print a + b digits (3/10 as 0.30); any other
    # prime factor falls back to p/q
    dens = [2**a * 5**b for a in range(7) for b in range(7)]
    dens += [2**20, 5**9, 3, 6, 7, 12, 30, 2**10 * 3, 5**3 * 11, 10**12 + 1]
    nums = (0, 1, -1, 3, -3, 7, -7, 10, 12345, -(10**30) - 1)
    values = [Fraction(p, q) for q in dens for p in nums]
    values += [Fraction(3, 10), Fraction(7, 80), Fraction(1, 2**20), Fraction(1, 5**9)]
    values += values[: len(values) % 2]  # whole periods of a one-bit grid
    assert sig._format_amplitude(Fraction(3, 10), "decimal") == "0.30"
    grid = rtw.ClockGrid(num_bits=1, num_periods=len(values) // 2)
    tr = sig.SignalTrace(grid=grid, shifted=False, samples=tuple(values))
    for style in ("fraction", "decimal"):
        for value in values:
            assert sig._format_amplitude(value, style) == _two_pass_format(value, style), value
        buf = io.StringIO()
        sig.write_trace_csv(tr, buf, style=style)
        expect = ["tick,period,scp,amplitude"] + [
            f"{t},{grid.period_of(t)},{grid.scp_of(t)},{_two_pass_format(v, style)}"
            for t, v in enumerate(values)
        ]
        assert buf.getvalue().splitlines() == expect
