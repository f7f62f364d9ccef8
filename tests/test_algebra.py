"""Product strings, superpositions, and the inverter gate.

The apply_not checks run against an independent monomial oracle built here
from scratch: superpositions are expanded into A/B sign monomials, multiplied
by the inverter waveform lam*A_r*B_r term by term, and squares of signs are
reduced to 1. Agreement with apply_not is required coefficient for
coefficient.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import algebra as alg

# ---------------------------------------------------------------- oracle

Monomial = tuple[frozenset[tuple[int, str]], Fraction]


def _term_monomial(num_bits: int, bits: int, coeff: Fraction, lam: Fraction) -> Monomial:
    # H_r -> A_r, L_r -> lam*B_r
    factors = set()
    c = coeff
    for bit in range(1, num_bits + 1):
        if (bits >> (num_bits - bit)) & 1:
            factors.add((bit, "A"))
        else:
            factors.add((bit, "B"))
            c *= lam
    return frozenset(factors), c


def _oracle_not(s: alg.Superposition, target: int, lam: Fraction) -> dict[frozenset, Fraction]:
    gate = {(target, "A"), (target, "B")}
    out: dict[frozenset, Fraction] = {}
    for w, coeff in s.items():
        mono, c = _term_monomial(s.num_bits, w.bits, coeff, lam)
        prod = frozenset(mono.symmetric_difference(gate))  # x*x == 1 per sign
        c *= lam  # gate carries lam*A*B
        out[prod] = out.get(prod, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _expanded_monomials(s: alg.Superposition, lam: Fraction) -> dict[frozenset, Fraction]:
    out: dict[frozenset, Fraction] = {}
    for w, coeff in s.items():
        mono, c = _term_monomial(s.num_bits, w.bits, coeff, lam)
        out[mono] = out.get(mono, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


# ---------------------------------------------------------------- strings


def test_product_string_enumeration() -> None:
    # catalog order: index 1 is all-L, index 2^N is all-H, bit 1 most significant
    assert alg.ProductString.from_index(1, num_bits=3).letters() == "LLL"
    assert alg.ProductString.from_index(8, num_bits=3).letters() == "HHH"
    assert alg.ProductString.from_index(2, num_bits=3).letters() == "LLH"
    for i in range(1, 9):
        w = alg.ProductString.from_index(i, num_bits=3)
        assert w.index == i
        assert alg.ProductString.from_letters(w.letters()) == w


def test_product_string_values_and_flip() -> None:
    w = alg.ProductString.from_letters("LHH")
    assert w.bits == 3
    assert (w.value(1), w.value(2), w.value(3)) == ("L", "H", "H")
    assert w.with_bit_flipped(1).letters() == "HHH"
    assert w.with_bit_flipped(3).letters() == "LHL"


def test_product_string_validation() -> None:
    with pytest.raises(ValueError):
        alg.ProductString(3, 8)
    with pytest.raises(ValueError):
        alg.ProductString.from_index(0, num_bits=3)
    with pytest.raises(ValueError):
        alg.ProductString.from_letters("LXH")
    with pytest.raises(ValueError):
        alg.ProductString.from_letters("")


# ----------------------------------------------------------- containers


def test_uniform_superposition_expands_to_all_ones() -> None:
    e = alg.expand(alg.uniform_superposition(4))
    assert len(e.terms) == 16
    assert all(c == 1 for _, c in e.items())


def test_expand_prunes_zero_branches() -> None:
    f = alg.FactoredSuperposition(
        3,
        c_h=(Fraction(0), Fraction(1), Fraction(1)),
        c_l=(Fraction(1), Fraction(1), Fraction(1)),
    )
    e = alg.expand(f)
    assert len(e.terms) == 4
    assert all(w.value(1) == "L" for w, _ in e.items())


def test_expand_cap_refusal() -> None:
    f = alg.uniform_superposition(21)
    with pytest.raises(ValueError) as err:
        alg.expand(f)
    assert "20" in str(err.value)


def test_superposition_drops_zero_terms() -> None:
    s = alg.Superposition(2, {0: Fraction(1), 3: Fraction(0)})
    assert {w.bits: c for w, c in s.items()} == {0: Fraction(1)}


def test_json_round_trip() -> None:
    s = alg.Superposition(3, {3: Fraction(3, 4), 5: Fraction(-1, 8)})
    d = s.to_json_dict()
    assert d["bits"] == 3
    assert {"string": "LHH", "coeff": "3/4"} in d["terms"]
    assert alg.Superposition.from_json_dict(d) == s


# ---------------------------------------------------------------- gates


def test_apply_not_factored_rule() -> None:
    lam = Fraction(1, 2)
    f = alg.uniform_superposition(2)
    g = alg.apply_not(f, 1, lam)
    assert isinstance(g, alg.FactoredSuperposition)
    # gate H*L = lam*A*B: former L coefficient lands on H times lam^2,
    # former H coefficient lands on L unchanged
    assert g.c_h == (Fraction(1, 4), Fraction(1))
    assert g.c_l == (Fraction(1), Fraction(1))
    assert g.c_h[0] == lam * lam * f.c_l[0]
    assert g.c_l[0] == f.c_h[0]


def test_apply_not_expanded_permutes_terms() -> None:
    lam = Fraction(1, 2)
    s = alg.Superposition(2, {1: Fraction(1)})  # LH
    t = alg.apply_not(s, 2, lam)
    assert {w.bits: c for w, c in t.items()} == {0: Fraction(1)}  # H2 -> L2 unchanged
    t = alg.apply_not(s, 1, lam)
    assert {w.bits: c for w, c in t.items()} == {3: Fraction(1, 4)}  # L1 -> H1 with lam^2


def test_apply_not_matches_monomial_oracle() -> None:
    lam = Fraction(1, 3)
    s = alg.Superposition(
        3,
        {0: Fraction(1), 3: Fraction(-2, 5), 6: Fraction(7, 2), 7: Fraction(1, 9)},
    )
    for target in (1, 2, 3):
        got = _expanded_monomials(alg.apply_not(s, target, lam), lam)
        assert got == _oracle_not(s, target, lam)


def test_apply_not_involution_at_lambda_one() -> None:
    s = alg.Superposition(3, {1: Fraction(2), 5: Fraction(-1, 3)})
    t = alg.apply_not(alg.apply_not(s, 2, Fraction(1)), 2, Fraction(1))
    assert t == s


def test_double_not_scales_every_term() -> None:
    # each term crosses the L -> H leg exactly once under a double inversion
    lam = Fraction(1, 2)
    s = alg.Superposition(1, {0: Fraction(1), 1: Fraction(1)})
    t = alg.apply_not(alg.apply_not(s, 1, lam), 1, lam)
    assert {w.bits: c for w, c in t.items()} == {0: Fraction(1, 4), 1: Fraction(1, 4)}


def test_apply_not_target_validation() -> None:
    s = alg.uniform_superposition(2)
    with pytest.raises(ValueError):
        alg.apply_not(s, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        alg.apply_not(s, 3, Fraction(1, 2))


# ----------------------------------------------------------- evaluation


def _random_signs(num_bits: int, picks: int) -> dict[tuple[int, str], int]:
    out = {}
    j = 0
    for bit in range(1, num_bits + 1):
        for role in ("A", "B"):
            out[(bit, role)] = 1 if (picks >> j) & 1 else -1
            j += 1
    return out


def test_evaluate_product_frozen() -> None:
    lam = Fraction(1, 2)
    signs = {(1, "A"): 1, (1, "B"): -1, (2, "A"): -1, (2, "B"): 1}
    w = alg.ProductString.from_letters("LH")
    # L1 = lam*(-1), H2 = -1
    assert alg.evaluate_symbolic(w, signs, lam) == Fraction(1, 2)


def test_evaluate_missing_sign_raises() -> None:
    w = alg.ProductString.from_letters("LH")
    with pytest.raises(ValueError):
        alg.evaluate_symbolic(w, {(1, "B"): 1}, Fraction(1, 2))


def test_evaluate_reads_every_carrier() -> None:
    # "LH" reads only (1, B) and (2, A), but the mapping is converted to a
    # full sign column first, so an unread carrier must be present too
    lam = Fraction(1, 2)
    w = alg.ProductString.from_letters("LH")
    read_only = {(1, "B"): -1, (2, "A"): -1}
    with pytest.raises(ValueError, match="got None"):
        alg.evaluate_symbolic(w, read_only, lam)
    with pytest.raises(ValueError, match="got None"):
        alg.evaluate_symbolic(alg.expand(alg.uniform_superposition(2)), read_only, lam)
    bad = {**read_only, (1, "A"): 1, (2, "B"): 0}
    with pytest.raises(ValueError, match="got 0"):
        alg.evaluate_symbolic(w, bad, lam)


def _literal_product(w: alg.ProductString, signs, lam: Fraction) -> Fraction:
    # prod_r (A_r if H else lam * B_r), written out independently of algebra
    acc = Fraction(1)
    for r, letter in enumerate(w.letters(), start=1):
        acc *= signs[(r, "A")] if letter == "H" else lam * signs[(r, "B")]
    return acc


def test_evaluation_matches_literal_oracle() -> None:
    # every product string, the uniform superposition in both forms and a
    # NOT-gated expansion, over all 2^(2N) sign assignments at N <= 3
    for lam in (Fraction(1, 3), Fraction(1)):
        for n in (1, 2, 3):
            strings = [alg.ProductString(n, bits) for bits in range(2**n)]
            u = alg.uniform_superposition(n)
            gated = alg.apply_not(alg.expand(u), n, lam)
            for picks in range(2 ** (2 * n)):
                signs = _random_signs(n, picks)
                values = {w: _literal_product(w, signs, lam) for w in strings}
                for w in strings:
                    assert alg.evaluate_symbolic(w, signs, lam) == values[w]
                uniform = sum(values.values())
                assert alg.evaluate_symbolic(u, signs, lam) == uniform
                assert alg.evaluate_symbolic(alg.expand(u), signs, lam) == uniform
                assert alg.evaluate_symbolic(gated, signs, lam) == sum(
                    c * values[w] for w, c in gated.items()
                )


def test_selection_evaluator_repeats_and_rejects() -> None:
    lam = Fraction(1, 2)
    column = (-1, 1, 1, -1)  # B_1, A_1, B_2, A_2
    # H_1 * L_1 is the inverter waveform lam * A_1 * B_1
    assert alg.selection_evaluator([(1, "H"), (1, "L")], lam)(column) == -lam
    assert alg.selection_evaluator([], lam)(column) == 1
    with pytest.raises(ValueError):
        alg.selection_evaluator([(1, "X")], lam)
    with pytest.raises(TypeError):
        alg.evaluator("HL", lam)


def test_uniform_extremes_frozen() -> None:
    lam = Fraction(1, 2)
    u = alg.uniform_superposition(3)
    all_plus = _random_signs(3, 0b111111)
    assert alg.evaluate_symbolic(u, all_plus, lam) == Fraction(27, 8)
    # A_r = +1, B_r = -1 for every r gives the floor (1 - lam)^N
    floor = {k: (1 if k[1] == "A" else -1) for k in all_plus}
    assert alg.evaluate_symbolic(u, floor, lam) == Fraction(1, 8)


@settings(max_examples=60, deadline=None)
@given(
    num_bits=st.integers(min_value=1, max_value=5),
    picks=st.integers(min_value=0, max_value=2**10 - 1),
    data=st.data(),
)
def test_factored_and_expanded_evaluation_agree(num_bits: int, picks: int, data) -> None:
    lam = Fraction(1, 2)
    coeff = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=8
    )
    c_h = tuple(data.draw(coeff) for _ in range(num_bits))
    c_l = tuple(data.draw(coeff) for _ in range(num_bits))
    f = alg.FactoredSuperposition(num_bits, c_h, c_l)
    signs = _random_signs(num_bits, picks)
    assert alg.evaluate_symbolic(f, signs, lam) == alg.evaluate_symbolic(
        alg.expand(f), signs, lam
    )


def test_uniform_range_exhaustive_small() -> None:
    # over all 2^(2N) sign assignments |Y| stays inside [(1-lam)^N, (1+lam)^N]
    # and both ends are attained exactly
    lam = Fraction(1, 2)
    for n in (1, 2, 3, 4):
        u = alg.uniform_superposition(n)
        lo = (1 - lam) ** n
        hi = (1 + lam) ** n
        seen = set()
        for picks in range(2 ** (2 * n)):
            v = abs(alg.evaluate_symbolic(u, _random_signs(n, picks), lam))
            assert lo <= v <= hi
            seen.add(v)
        assert lo in seen
        assert hi in seen


def test_uniform_vanishes_only_at_lambda_one() -> None:
    for n in (1, 2, 3):
        u = alg.uniform_superposition(n)
        zeros = sum(
            1
            for picks in range(2 ** (2 * n))
            if alg.evaluate_symbolic(u, _random_signs(n, picks), Fraction(1)) == 0
        )
        # P(zero) = 1 - 0.5^N exactly at lam = 1
        assert zeros == 2 ** (2 * n) - 2**n


def test_distinct_products_are_orthogonal() -> None:
    # sum over all sign assignments of W_i * W_j vanishes exactly for i != j
    lam = Fraction(1, 2)
    n = 3
    strings = [alg.ProductString.from_index(i, num_bits=n) for i in range(1, 2**n + 1)]
    assignments = [_random_signs(n, p) for p in range(2 ** (2 * n))]
    for wi, wj in itertools.combinations(strings, 2):
        total = sum(
            alg.evaluate_symbolic(wi, s, lam) * alg.evaluate_symbolic(wj, s, lam)
            for s in assignments
        )
        assert total == 0
