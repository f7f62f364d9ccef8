"""Exact product-string algebra for the scaled two-reference representation.

A product string picks one logic value per noise-bit, H_r or L_r, and
stands for the product of the chosen reference waveforms.  Superpositions
are rational-coefficient combinations of product strings; the complete
uniform superposition is the product over bits of (H_r + L_r), which
stays in factored form with one (c_H, c_L) coefficient pair per bit until
explicitly expanded.

Coefficients are exact `fractions.Fraction` values in the H/L basis.
Powers of the low-value scale lambda that arise from algebra (for example
from multiplying with the H_r*L_r inverter waveform) are folded into the
rational coefficients using lambda's exact value rather than tracked as a
symbolic variable; lambda is therefore an explicit argument of the
operations that need it, not a field of the algebraic types.

`evaluator` is the package's one exact evaluator: symbolic values here,
traces and readouts in `signal` and the experiments all read it on
slot-ordered sign columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .rtw import ROLE_A, ROLE_B, VALUE_H, VALUE_L, stream_index

# expand() refuses above this many bits
DEFAULT_EXPAND_CAP = 20

# the value of an object as a function of one slot-ordered sign column
Evaluator = Callable[[Sequence[int]], Fraction]


def _check_lambda(lam: Fraction) -> Fraction:
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError("lambda must satisfy 0 < lambda <= 1")
    return lam


@dataclass(frozen=True, order=True)
class ProductString:
    """One of the 2^N orthogonal reference products, one value per bit.

    bits is an N-bit unsigned value read with bit 1 as the most
    significant position: a set bit means that noise-bit takes H, a clear
    bit means L.  The 1-based catalog order is index = bits + 1, so for
    N = 3 index 1 is LLL and index 8 is HHH.
    """

    num_bits: int
    bits: int

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        if not 0 <= self.bits < (1 << self.num_bits):
            raise ValueError(f"bits {self.bits} outside [0, 2^{self.num_bits})")

    @classmethod
    def from_index(cls, index: int, num_bits: int) -> "ProductString":
        """1-based catalog order: index 1 = all-L, index 2^N = all-H."""
        return cls(num_bits=num_bits, bits=index - 1)

    @classmethod
    def from_letters(cls, letters: str) -> "ProductString":
        """Parse "LHH" style strings; position r (1-based) is noise-bit r."""
        if not letters or any(c not in (VALUE_H, VALUE_L) for c in letters):
            raise ValueError(f"letters must be a non-empty string over H/L, got {letters!r}")
        bits = 0
        for c in letters:
            bits = (bits << 1) | (1 if c == VALUE_H else 0)
        return cls(num_bits=len(letters), bits=bits)

    @property
    def index(self) -> int:
        return self.bits + 1

    def value(self, bit: int) -> str:
        """H or L at noise-bit `bit` (1-based)."""
        if not 1 <= bit <= self.num_bits:
            raise ValueError(f"bit {bit} outside 1..{self.num_bits}")
        return VALUE_H if (self.bits >> (self.num_bits - bit)) & 1 else VALUE_L

    def with_bit_flipped(self, bit: int) -> "ProductString":
        if not 1 <= bit <= self.num_bits:
            raise ValueError(f"bit {bit} outside 1..{self.num_bits}")
        return ProductString(self.num_bits, self.bits ^ (1 << (self.num_bits - bit)))

    def letters(self) -> str:
        return "".join(self.value(r) for r in range(1, self.num_bits + 1))

    def __str__(self) -> str:
        return self.letters()


@dataclass(frozen=True)
class Superposition:
    """Expanded rational combination of product strings; zero terms dropped."""

    num_bits: int
    terms: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        cleaned = {}
        for bits, coeff in self.terms.items():
            if not 0 <= bits < (1 << self.num_bits):
                raise ValueError(f"term {bits} outside [0, 2^{self.num_bits})")
            coeff = Fraction(coeff)
            if coeff != 0:
                cleaned[int(bits)] = coeff
        object.__setattr__(self, "terms", cleaned)

    def coeff(self, w: ProductString) -> Fraction:
        if w.num_bits != self.num_bits:
            raise ValueError("bit-width mismatch")
        return self.terms.get(w.bits, Fraction(0))

    def items(self) -> list[tuple[ProductString, Fraction]]:
        """Terms in ascending catalog order."""
        return [
            (ProductString(self.num_bits, bits), self.terms[bits])
            for bits in sorted(self.terms)
        ]

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Superposition):
            return NotImplemented
        return self.num_bits == other.num_bits and dict(self.terms) == dict(other.terms)

    def scaled(self, factor: Fraction) -> "Superposition":
        factor = Fraction(factor)
        return Superposition(self.num_bits, {b: c * factor for b, c in self.terms.items()})

    def to_json_dict(self) -> dict:
        return {
            "bits": self.num_bits,
            "terms": [
                {"string": w.letters(), "coeff": str(c)}
                for w, c in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Superposition":
        n = int(data["bits"])
        terms: dict[int, Fraction] = {}
        for entry in data["terms"]:
            w = ProductString.from_letters(entry["string"])
            if w.num_bits != n:
                raise ValueError("term width disagrees with bits")
            terms[w.bits] = Fraction(entry["coeff"])
        return cls(num_bits=n, terms=terms)


@dataclass(frozen=True)
class FactoredSuperposition:
    """Product over bits of (c_H[r] * H_r + c_L[r] * L_r), kept factored.

    Storage and evaluation are O(N); expanding multiplies out to as many
    as 2^N terms.  c_h[r-1] and c_l[r-1] hold the pair for noise-bit r.
    """

    num_bits: int
    c_h: tuple[Fraction, ...]
    c_l: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        if len(self.c_h) != self.num_bits or len(self.c_l) != self.num_bits:
            raise ValueError("need one (c_H, c_L) pair per bit")
        object.__setattr__(self, "c_h", tuple(Fraction(c) for c in self.c_h))
        object.__setattr__(self, "c_l", tuple(Fraction(c) for c in self.c_l))


def uniform_superposition(num_bits: int) -> FactoredSuperposition:
    """The complete uniform superposition: every c_H = c_L = 1."""
    ones = (Fraction(1),) * num_bits
    return FactoredSuperposition(num_bits=num_bits, c_h=ones, c_l=ones)


def expand(f: FactoredSuperposition) -> Superposition:
    """Multiply a factored form out to explicit product-string terms.

    Refuses above DEFAULT_EXPAND_CAP bits because the expansion has up to
    2^N terms.  Zero-coefficient branches are pruned as they appear, so
    annihilated bits do not double the term count.
    """
    if f.num_bits > DEFAULT_EXPAND_CAP:
        raise ValueError(
            f"expansion of {f.num_bits} bits exceeds the cap of {DEFAULT_EXPAND_CAP} "
            f"(2^{f.num_bits} terms)"
        )
    terms: dict[int, Fraction] = {0: Fraction(1)}
    for r in range(f.num_bits):
        ch, cl = f.c_h[r], f.c_l[r]
        nxt: dict[int, Fraction] = {}
        for bits, coeff in terms.items():
            base = bits << 1
            if cl != 0:
                nxt[base] = coeff * cl
            if ch != 0:
                nxt[base | 1] = coeff * ch
        terms = nxt
    return Superposition(num_bits=f.num_bits, terms=terms)


def apply_not(
    s: Superposition | FactoredSuperposition,
    target_bit: int,
    lam: Fraction,
) -> Superposition | FactoredSuperposition:
    """Multiply by the inverter waveform H_r * L_r for bit r = target_bit.

    Because reference squares are identically one, H terms map to the
    matching L term with coefficient unchanged and L terms map to the
    matching H term scaled by lambda^2.  The amplitude scale is surfaced,
    not renormalized; applying twice scales everything by lambda^2, so at
    lambda = 1 the gate is a pure involution.
    """
    lam = _check_lambda(lam)
    lam2 = lam * lam
    if isinstance(s, FactoredSuperposition):
        if not 1 <= target_bit <= s.num_bits:
            raise ValueError(f"target_bit {target_bit} outside 1..{s.num_bits}")
        i = target_bit - 1
        c_h = list(s.c_h)
        c_l = list(s.c_l)
        c_h[i], c_l[i] = lam2 * s.c_l[i], s.c_h[i]
        return FactoredSuperposition(s.num_bits, tuple(c_h), tuple(c_l))
    if isinstance(s, Superposition):
        if not 1 <= target_bit <= s.num_bits:
            raise ValueError(f"target_bit {target_bit} outside 1..{s.num_bits}")
        mask = 1 << (s.num_bits - target_bit)
        terms: dict[int, Fraction] = {}
        for bits, coeff in s.terms.items():
            if bits & mask:  # H term -> L term, coefficient unchanged
                terms[bits ^ mask] = terms.get(bits ^ mask, Fraction(0)) + coeff
            else:  # L term -> H term, scaled by lambda^2
                terms[bits | mask] = terms.get(bits | mask, Fraction(0)) + coeff * lam2
        return Superposition(s.num_bits, terms)
    raise TypeError(f"unsupported operand type {type(s).__name__}")


def evaluator(
    s: ProductString | Superposition | FactoredSuperposition, lam: Fraction
) -> Evaluator:
    """The one exact evaluator: the value of s as a function of a sign column.

    A column holds one sign per reference stream in slot order
    (B_1, A_1, B_2, A_2, ...), the order `rtw.stream_index` defines; H_r
    reads the role-A sign, L_r lambda times the role-B sign.  The returned
    function does not check the column: callers pass 2N signs of +1 or -1.
    """
    lam = _check_lambda(lam)
    if isinstance(s, ProductString):
        return selection_evaluator([(r, s.value(r)) for r in range(1, s.num_bits + 1)], lam)
    if isinstance(s, FactoredSuperposition):
        # per bit: its A and B slots and c_H * A + c_L * lambda * B for each (A, B)
        factors = [
            (stream_index(r, ROLE_A), stream_index(r, ROLE_B),
             {(a, b): ch * a + cl * lam * b for a in (-1, 1) for b in (-1, 1)})
            for r, ch, cl in zip(range(1, s.num_bits + 1), s.c_h, s.c_l)
        ]
        return lambda column: math.prod(table[column[a], column[b]] for a, b, table in factors)
    if isinstance(s, Superposition):
        terms = [
            (c, evaluator(ProductString(s.num_bits, bits), lam)) for bits, c in s.terms.items()
        ]
        return lambda column: sum((c * value(column) for c, value in terms), Fraction(0))
    raise TypeError(f"unsupported operand type {type(s).__name__}")


def selection_evaluator(picks: Sequence[tuple[int, str]], lam: Fraction) -> Evaluator:
    """`evaluator` for a product of chosen logic values.

    picks may cover any subset of bits and may repeat a bit; the value is
    the integer sign product over the picked slots times lambda^#L.
    """
    lam = _check_lambda(lam)
    slots = []
    for bit, value in picks:
        if value not in (VALUE_H, VALUE_L):
            raise ValueError(f"pick value must be H or L, got {value!r}")
        slots.append(stream_index(bit, ROLE_A if value == VALUE_H else ROLE_B))
    scale = lam ** sum(1 for _, value in picks if value == VALUE_L)
    return lambda column: scale if math.prod(column[i] for i in slots) > 0 else -scale


def _sign_column(signs: Mapping[tuple[int, str], int], num_bits: int) -> list[int]:
    """Slot-ordered column of a {(bit, role): sign} mapping; reads every entry."""
    column = [0] * (2 * num_bits)
    for bit in range(1, num_bits + 1):
        for role in (ROLE_A, ROLE_B):
            sign = signs.get((bit, role))
            if sign not in (-1, 1):
                raise ValueError(f"sign ({bit}, {role!r}) must be +1 or -1, got {sign}")
            column[stream_index(bit, role)] = sign
    return column


def evaluate_symbolic(
    s: ProductString | Superposition | FactoredSuperposition,
    signs: Mapping[tuple[int, str], int],
    lam: Fraction,
) -> Fraction:
    """Exact value of s under one period's {(bit, role): sign} assignment.

    H_r evaluates to the role-A sign, L_r to lambda times the role-B sign.
    Every bit's A and B entries must be present, read or not.
    """
    return evaluator(s, lam)(_sign_column(signs, s.num_bits))
