"""Product strings, superpositions, and the inverter gate.

The apply_not checks run against an independent monomial oracle built here
from scratch: superpositions are expanded into A/B sign monomials, multiplied
by the inverter waveform lam*A_r*B_r term by term, and squares of signs are
reduced to 1. Agreement with apply_not is required coefficient for
coefficient.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import re
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


def test_factored_superposition_keeps_fraction_coefficients() -> None:
    half, third = Fraction(1, 2), Fraction(1, 3)
    f = alg.FactoredSuperposition(2, c_h=(half, 1), c_l=("1/4", third))
    assert f.c_h[0] is half and f.c_l[1] is third
    assert f.c_h[1] == 1 and type(f.c_h[1]) is Fraction
    assert f.c_l[0] == Fraction(1, 4) and type(f.c_l[0]) is Fraction
    uni = alg.uniform_superposition(16)
    assert len({id(c) for c in uni.c_h + uni.c_l}) == 1
    assert uni is alg.uniform_superposition(16)
    assert uni is not alg.uniform_superposition(15)
    # an equal count of another type does not hand its type to int callers
    assert alg.uniform_superposition(True).num_bits is True
    assert type(alg.uniform_superposition(1).num_bits) is int
    # a leading None is converted as any other coefficient is, and refused
    with pytest.raises(TypeError):
        alg.FactoredSuperposition(2, c_h=(None, None), c_l=(1, 1))


@settings(max_examples=200, deadline=None)
@given(x=st.fractions(min_value=Fraction(1, 10**6), max_value=10**40, max_denominator=10**30))
def test_ceil_log2_is_the_smallest_covering_power(x: Fraction) -> None:
    m = alg.ceil_log2(x)
    assert m >= 0 and 2**m >= x
    assert m == 0 or 2 ** (m - 1) < x


def test_ceil_log2_at_powers_of_two() -> None:
    for k in range(200):
        assert alg.ceil_log2(2**k) == k
        assert alg.ceil_log2(Fraction(2**k + 1, 1)) == k + 1
        assert alg.ceil_log2(Fraction(2**k, 3**k)) == 0


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
    # one shared instance per bit count, which the gate leaves as it was
    assert f is alg.uniform_superposition(2)
    assert f.c_h == f.c_l == (Fraction(1), Fraction(1))
    assert alg.evaluator(f, lam)((1, 1, 1, 1)) == Fraction(9, 4)


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
    for sign in (2, "1"):
        bad = {**read_only, (1, "A"): 1, (2, "B"): sign}
        with pytest.raises(ValueError, match=rf"^sign \(2, 'B'\) must be \+1 or -1, got {sign}$"):
            alg.evaluate_symbolic(w, bad, lam)
    # True and 1.0 equal 1, so they pass the check and read as 1
    good = {(1, "A"): 1, (1, "B"): 1, (2, "A"): -1, (2, "B"): 1}
    for s in (w, alg.uniform_superposition(2)):
        expect = alg.evaluate_symbolic(s, good, lam)
        for key in ((1, "A"), (1, "B"), (2, "B")):
            for one in (True, 1.0):
                assert alg.evaluate_symbolic(s, {**good, key: one}, lam) == expect
    # the expanded form sums the signs themselves: True and 1.0 give the
    # integer result as a Fraction whether or not an integer call ran first
    expanded = alg.expand(alg.uniform_superposition(2))
    for one in (True, 1.0):
        for key in ((1, "A"), (1, "B"), (2, "B")):
            alg._shared.cache_clear()
            fresh = alg.evaluate_symbolic(expanded, {**good, key: one}, lam)
            expect = alg.evaluate_symbolic(expanded, good, lam)
            again = alg.evaluate_symbolic(expanded, {**good, key: one}, lam)
            assert expect == Fraction(-3, 4)
            for value in (fresh, again):
                assert type(value) is Fraction and value == expect
    # an unhashable entry is no sign either
    for bad in ([1], ([1],)):
        message = f"sign (2, 'B') must be +1 or -1, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            alg.evaluate_symbolic(expanded, {**good, (1, "A"): True, (2, "B"): bad}, lam)


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


def _agreement_state(groups: list[int], column) -> tuple[int, ...]:
    # (parity of the A = -1 signs, agreeing bits of each group), read off
    # the column directly
    state = [sum(a < 0 for a in column[1::2]) % 2] + [0] * (max(groups) + 1)
    for g, b, a in zip(groups, column[::2], column[1::2]):
        state[1 + g] += a == b
    return tuple(state)


def test_factored_evaluator_matches_literal_oracle() -> None:
    # arbitrary (c_H, c_L) pairs, zero and negative included, against the
    # literal sum over product strings of prod_r coefficient times the
    # literal product, over every column at N <= 3, by the evaluator and
    # by the agreement law.  Each object sees lambda go 1/2 -> 1/3 -> 1/2
    # and on, so a law kept for another lambda would show
    coeffs = (Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 4), Fraction(-5, 3))
    forms = [
        (n, alg.FactoredSuperposition(
            n,
            tuple(coeffs[(pick + 2 * r) % 5] for r in range(n)),
            tuple(coeffs[(pick * 3 + r) % 5] for r in range(n)),
        ))
        for n in (1, 2, 3)
        for pick in range(2 * n, 2 * n + 9)
    ]
    for lam in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                Fraction(1), Fraction(1, 3)):
        for n, f in forms:
            strings = [alg.ProductString(n, bits) for bits in range(2**n)]
            value = alg.evaluator(f, lam)
            groups, law = alg.agreement_law(f, lam)
            for picks in range(2 ** (2 * n)):
                signs = _random_signs(n, picks)
                expect = sum(
                    (_literal_product(w, signs, lam) * _string_coeff(w, f.c_h, f.c_l)
                     for w in strings),
                    Fraction(0),
                )
                column = alg._sign_column(signs, n)
                v = value(column)
                assert type(v) is Fraction
                assert v == expect
                assert law(_agreement_state(groups, column)) is v


def test_factored_evaluator_with_shared_and_distinct_coefficient_objects() -> None:
    # bits whose (c_H, c_L) pairs are equal by value share one group, whether
    # they hold the same objects or equal but distinct ones, so the groups
    # are those of the same pairs built from shared objects
    half, ones = Fraction(1, 2), Fraction(1)
    c_h = (half, half, Fraction(1, 2), half, ones, ones, half)
    c_l = (ones, ones, ones, Fraction(1), ones, half, ones)
    f = alg.FactoredSuperposition(7, c_h, c_l)
    shared = {half: half, ones: ones}
    same = alg.FactoredSuperposition(7, tuple(map(shared.get, c_h)), tuple(map(shared.get, c_l)))
    assert alg.agreement_law(f, half)[0] == alg.agreement_law(same, half)[0] == [
        0, 0, 0, 0, 1, 2, 0]
    for lam in (Fraction(1, 3), Fraction(1)):
        value, expanded = alg.evaluator(f, lam), alg.evaluator(alg.expand(f), lam)
        for picks in range(0, 2**14, 37):
            column = alg._sign_column(_random_signs(7, picks), 7)
            assert value(column) == expanded(column)


def _string_coeff(w: alg.ProductString, c_h, c_l) -> Fraction:
    acc = Fraction(1)
    for r, letter in enumerate(w.letters()):
        acc *= c_h[r] if letter == "H" else c_l[r]
    return acc


def test_equal_values_are_one_shared_object() -> None:
    lam = Fraction(1, 2)
    u = alg.uniform_superposition(4)
    column = (1, -1) * 4
    assert alg.evaluator(u, lam)(column) is alg.evaluator(u, lam)(list(column))
    e = alg.expand(u)
    assert alg.evaluator(e, lam)(column) is alg.evaluator(e, lam)(column)
    picks = [(1, "H"), (2, "L")]
    values = {alg.selection_evaluator(picks, lam)(c) for c in ((1, 1, 1, 1), (1, 1, -1, 1))}
    assert values == {lam, -lam}
    again = alg.selection_evaluator(picks, lam)
    assert {id(again((1, 1, 1, 1))), id(again((1, 1, -1, 1)))} == set(map(id, values))
    assert type(alg.evaluator(alg.Superposition(4), lam)(column)) is Fraction


@pytest.mark.parametrize("make", [
    lambda: alg.uniform_superposition(4),
    lambda: alg.FactoredSuperposition(
        4, (Fraction(1, 2), Fraction(3), Fraction(1, 2), Fraction(-2, 7)), (1, 1, "1/5", 0)
    ),
])
def test_laws_share_values_with_a_fresh_equal_superposition(make, monkeypatch) -> None:
    # a fresh, equal superposition's evaluator and agreement law return the
    # very objects of one whose law is kept, before and after its law is
    # built; each (object, lambda) derives its pair integers once
    f = make()
    # f keeps one law slot, so a law at lambda = 1 leaves 1/2 and 1/3 cold
    # even for the shared uniform superposition
    alg.evaluator(f, Fraction(1))
    derived = []
    pair_integers = alg._pair_integers
    monkeypatch.setattr(alg, "_pair_integers", lambda *a: derived.append(a) or pair_integers(*a))
    columns = [alg._sign_column(_random_signs(4, picks), 4) for picks in range(0, 256, 7)]
    for lam in (Fraction(1, 2), Fraction(1, 3)):
        for state in ("cold", "warm"):
            fresh = dataclasses.replace(f)
            assert fresh == f and fresh is not f
            groups, law = alg.agreement_law(f, lam)
            for value in (alg.evaluator(f, lam), alg.evaluator(fresh, lam)):
                for column in columns:
                    v = value(column)
                    assert v is alg.evaluator(fresh, lam)(column), state
                    assert law(_agreement_state(groups, column)) is v, state
                    assert alg.agreement_law(fresh, lam)[1](
                        _agreement_state(groups, column)) is v, state
    # f's law at each lambda once, and each fresh copy's once per lambda
    groups_of_f = len(set(alg.agreement_law(f, Fraction(1, 3))[0]))
    assert len(derived) == groups_of_f * (2 + 2 * 2)


def test_kept_law_is_outside_the_dataclass() -> None:
    # building laws changes no dataclass view of the object, and the groups
    # a caller gets back cannot reach the kept law
    def views(f):
        return f, hash(f), repr(f), [x.name for x in dataclasses.fields(f)], dataclasses.asdict(f)

    half = Fraction(1, 2)
    f = alg.FactoredSuperposition(3, (half, 1, half), (1, 1, 1))
    before = views(f)
    assert before[3] == ["num_bits", "c_h", "c_l"]
    for lam in (half, Fraction(1, 3)):
        groups, law = alg.agreement_law(f, lam)
        alg.evaluator(f, lam)
        assert groups == [0, 1, 0]
        groups[:] = [0, 0, 0]
        groups.append(5)
        assert alg.agreement_law(f, lam)[0] == [0, 1, 0]
        assert views(f) == before
    fresh = alg.FactoredSuperposition(3, (half, 1, half), (1, 1, 1))
    assert views(fresh) == before
    column = (1, 1, -1, 1, -1, -1)
    assert alg.evaluator(f, half)(column) == alg.evaluator(fresh, half)(column) == -half


def test_pickle_and_deepcopy_of_a_built_law_round_trip() -> None:
    # a superposition whose law is built copies and pickles equal, keeps
    # no closure (a deep copy pickles too) and gives the same values
    lam = Fraction(1, 3)
    for f in (alg.uniform_superposition(3),
              alg.FactoredSuperposition(3, (Fraction(2, 5), 1, 1), (0, Fraction(-1, 4), 1))):
        value = alg.evaluator(f, lam)
        groups, law = alg.agreement_law(f, lam)
        for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert clone == f and clone is not f
            assert pickle.loads(pickle.dumps(clone)) == f
            clone_groups, clone_law = alg.agreement_law(clone, lam)
            assert clone_groups == groups
            for picks in range(64):
                column = alg._sign_column(_random_signs(3, picks), 3)
                state = _agreement_state(groups, column)
                assert alg.evaluator(clone, lam)(column) is value(column)
                assert clone_law(state) is law(state) is value(column)


def test_selection_evaluator_repeats_and_rejects() -> None:
    lam = Fraction(1, 2)
    column = (-1, 1, 1, -1)  # B_1, A_1, B_2, A_2
    # H_1 * L_1 is the inverter waveform lam * A_1 * B_1
    assert alg.selection_evaluator([(1, "H"), (1, "L")], lam)(column) == -lam
    assert alg.selection_evaluator([], lam)(column) == 1
    # a slot picked twice contributes sign^2 = 1, and each L pick a lambda
    assert alg.selection_evaluator([(1, "L"), (1, "L")], lam)(column) == lam**2
    assert alg.selection_evaluator([(2, "H")] * 3, lam)(column) == -1
    assert alg.selection_parity([(2, "H"), (1, "L"), (2, "H"), (2, "L")], lam) == (
        (0, 2), (lam**2, -(lam**2))
    )
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
