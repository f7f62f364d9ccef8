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

`evaluator` is the package's one exact evaluator on sign columns; traces
read two laws with the same values instead, `selection_parity` and
`agreement_law`.  It computes on integers: each evaluator scales its
coefficients (and lambda's powers) to integers over one common
denominator when it is built, multiplies or sums integers per column,
and returns a shared `Fraction`, one object per distinct value.  A
factored superposition's integers are derived once per (superposition,
lambda) and kept beside it for `evaluator` and `agreement_law` alike, and
`uniform_superposition` returns one shared instance per bit count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .rtw import ROLE_A, ROLE_B, VALUE_H, VALUE_L, check_lambda, slot_keys, stream_index

# expand() refuses above this many bits
DEFAULT_EXPAND_CAP = 20

# the value of an object as a function of one slot-ordered sign column
Evaluator = Callable[[Sequence[int]], Fraction]


def ceil_log2(x: Fraction | int) -> int:
    """Smallest m >= 0 with 2^m >= x, exactly, for any x > 0.

    num/den lies in (2^(a-b-1), 2^(a-b+1)) for a, b their bit lengths.
    """
    num, den = x.numerator, x.denominator
    m = max(0, num.bit_length() - den.bit_length())
    return m + ((den << m) < num)


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

    def picks(self) -> list[tuple[int, str]]:
        """[(1, value(1)), ..., (N, value(N))]: the string as a selection."""
        return [(r, self.value(r)) for r in range(1, self.num_bits + 1)]

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

    Its integers at lambda (`_pair_law`) are derived once per (object,
    lambda) and kept beside the instance, outside its dataclass fields, so
    `==`, `hash`, `repr`, `fields` and `asdict` do not see them; the
    instance keeps those of _LAWS_KEPT = 1 lambda at a time, about 8N
    bytes of group map at N bits plus about 300 bytes per coefficient
    group of small integers.
    """

    num_bits: int
    c_h: tuple[Fraction, ...]
    c_l: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        if len(self.c_h) != self.num_bits or len(self.c_l) != self.num_bits:
            raise ValueError("need one (c_H, c_L) pair per bit")
        # equal coefficients become one object, as uniform_superposition's
        # 2N are: agreement_law and evaluator group bits by identity.  A run
        # of one object is looked up once (hashing a Fraction is slow)
        shared: dict[Fraction, Fraction] = {}
        for name in ("c_h", "c_l"):
            coeffs, given, kept = [], None, None
            for c in getattr(self, name):
                if c is not given:
                    given = c
                    c = c if isinstance(c, Fraction) else Fraction(c)
                    kept = shared.setdefault(c, c)
                coeffs.append(kept)
            object.__setattr__(self, name, tuple(coeffs))
        # the laws `_pair_law` keeps, by lambda, outside the dataclass fields
        object.__setattr__(self, "_laws", {})


# uniform_superposition keeps the instances of this many bit counts
_UNIFORM_SUPERPOSITIONS = 16


@functools.lru_cache(maxsize=_UNIFORM_SUPERPOSITIONS, typed=True)
def uniform_superposition(num_bits: int) -> FactoredSuperposition:
    """The complete uniform superposition: every c_H = c_L = 1.

    One immutable instance per bit count is shared by every caller, so the
    law it keeps (`_pair_law`) carries from one run to the next; a count
    of another type, such as True for 1, gets its own.  At most
    _UNIFORM_SUPERPOSITIONS = 16 are kept, each about 24N bytes at N bits
    (its two coefficient tuples and one law's group map) plus about 3 KB
    of objects of fixed size.  That memory is held between runs, outside
    any run's memory count.
    """
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
    lam = check_lambda(lam)
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


# _shared keeps the most recently used values of this many (num, den) keys
_SHARED_VALUES = 1024


@functools.lru_cache(maxsize=_SHARED_VALUES)
def _shared(num: int, den: int) -> Fraction:
    """The one `Fraction(num, den)` every evaluator returns for this key.

    Equal values from one evaluator share a single object across calls,
    traces and runs while their key is cached, and the gcd normalisation
    runs once per distinct value.  A key evicted and asked for again gets
    a new, equal object.  So callers may group values by identity rather
    than by hash (hashing a `Fraction` computes a modular inverse on every
    call): a grouping that keeps each object alive, so that no id is
    reused, is exact either way, and equal values that are not shared only
    form extra groups.  The cache holds at most _SHARED_VALUES = 1024
    entries; each holds its key and the reduced value, so about twice the
    size of its integers plus a few objects of fixed size.
    """
    return Fraction(num, den)


def _pair_integers(ch: Fraction, cl: Fraction, lam: Fraction) -> tuple[int, int, int]:
    """(h, l, d): c_H and lambda * c_L as h / d and l / d, d the lcm of their denominators."""
    hd, ld = ch.denominator, cl.denominator * lam.denominator
    d = math.lcm(hd, ld)
    return ch.numerator * (d // hd), cl.numerator * lam.numerator * (d // ld), d


# a FactoredSuperposition keeps the laws of this many lambdas
_LAWS_KEPT = 1

# bit r's group, each group's (h, l, d, n) and the common denominator
_PairLaw = tuple[tuple[int, ...], tuple[tuple[int, int, int, int], ...], int]


def _pair_law(f: FactoredSuperposition, lam: Fraction) -> _PairLaw:
    """f's integers at lambda: (groups, factors, den), derived once per (f, lambda).

    Bits holding one (c_H, c_L) pair, by identity, form a group, numbered
    in order of their first bit; groups[r - 1] is bit r's.  factors[g] is
    group g's (h, l, d, n): its pair as h / d and l / d by `_pair_integers`
    and its n bits.  den = prod_g d^n is f's common denominator.  The law
    is kept in f's memo, keyed by lambda's (numerator, denominator); it
    holds _LAWS_KEPT = 1 law, so another lambda replaces it.  The memo is
    replaced, never changed in place, so threads sharing an instance at
    worst derive a law twice.
    """
    laws = f._laws
    key = lam.numerator, lam.denominator
    law = laws.get(key)
    if law is None:
        index: dict[tuple[int, int], int] = {}
        groups, pairs, counts, pair = [], [], [], None
        for ch, cl in zip(f.c_h, f.c_l):
            if pair is None or ch is not pair[0] or cl is not pair[1]:  # a run's first bit
                pair = ch, cl
                g = index.setdefault((id(ch), id(cl)), len(pairs))
                if g == len(pairs):
                    pairs.append(_pair_integers(ch, cl, lam))
                    counts.append(0)
            counts[g] += 1
            groups.append(g)
        factors = tuple((h, l, d, n) for (h, l, d), n in zip(pairs, counts))
        law = tuple(groups), factors, math.prod(d**n for _, _, d, n in factors)
        kept = list(laws.items())[max(0, len(laws) + 1 - _LAWS_KEPT) :]
        object.__setattr__(f, "_laws", dict(kept + [(key, law)]))
    return law


def evaluator(
    s: ProductString | Superposition | FactoredSuperposition, lam: Fraction
) -> Evaluator:
    """The one exact evaluator: the value of s as a function of a sign column.

    A column holds one sign per reference stream in slot order
    (B_1, A_1, B_2, A_2, ...), the order `rtw.stream_index` defines; H_r
    reads the role-A sign, L_r lambda times the role-B sign.  The returned
    function does not check the column: callers pass 2N signs of +1 or -1.

    Evaluation runs on integers over one common denominator fixed when
    the evaluator is built, and each value is returned as the shared
    `Fraction` of `_shared`, so equal values are one object while cached.
    Grouping the values by identity before any `Fraction` arithmetic is
    exact whether or not they are (see `_shared`).  A factored
    superposition's integers are built once per (superposition, lambda)
    by `_pair_law`, which `agreement_law` reads too; its bound and bytes
    are stated on `FactoredSuperposition`.
    """
    lam = check_lambda(lam)
    if isinstance(s, ProductString):
        return selection_evaluator(s.picks(), lam)
    if isinstance(s, FactoredSuperposition):
        # per bit: its group's integer h * A + l * B over d (_pair_law) for
        # each (A, B); the bits of one group share one table
        groups, factors, den = _pair_law(s, lam)
        by_group = [
            {(1, 1): h + l, (1, -1): h - l, (-1, 1): l - h, (-1, -1): -h - l}
            for h, l, _, _ in factors
        ]
        tables = [by_group[g] for g in groups]
        # column[1::2] holds A_1, A_2, ... and column[::2] B_1, B_2, ...
        return lambda column: _shared(
            math.prod(map(dict.__getitem__, tables, zip(column[1::2], column[::2]))), den
        )
    if isinstance(s, Superposition):
        # per term: its picked slots and c * lambda^#L as num / den
        p, q = lam.numerator, lam.denominator
        terms = []
        for bits, c in s.terms.items():
            n_l = s.num_bits - bits.bit_count()
            slots = _slots(ProductString(s.num_bits, bits).picks())
            terms.append((slots, c.numerator * p**n_l, c.denominator * q**n_l))
        den = math.lcm(*(d for _, _, d in terms))
        weights = [(slots, num * (den // d)) for slots, num, d in terms]
        return lambda column: _shared(
            sum(w * math.prod(map(column.__getitem__, slots)) for slots, w in weights), den
        )
    raise TypeError(f"unsupported operand type {type(s).__name__}")


def _slots(picks: Sequence[tuple[int, str]]) -> list[int]:
    """Stream slot read by each (bit, H or L) pick."""
    slots = []
    for bit, value in picks:
        if value not in (VALUE_H, VALUE_L):
            raise ValueError(f"pick value must be H or L, got {value!r}")
        slots.append(stream_index(bit, ROLE_A if value == VALUE_H else ROLE_B))
    return slots


def selection_parity(
    picks: Sequence[tuple[int, str]], lam: Fraction
) -> tuple[tuple[int, ...], tuple[Fraction, Fraction]]:
    """The odd-parity slot mask and the two values of a product of chosen logic values.

    picks may cover any subset of bits and may repeat a bit.  A slot
    picked twice contributes sign^2 = 1, so the value reads only the slots
    picked an odd number of times (returned in ascending order): it is
    values[0] = lambda^#L, counting every L pick, when an even number of
    those slots hold -1, and values[1] = -lambda^#L when an odd number do.
    Both values are shared.
    """
    lam = check_lambda(lam)
    odd: set[int] = set()
    for slot in _slots(picks):
        odd ^= {slot}
    scale = lam ** sum(1 for _, value in picks if value == VALUE_L)
    num, den = scale.numerator, scale.denominator
    return tuple(sorted(odd)), (_shared(num, den), _shared(-num, den))


def selection_evaluator(picks: Sequence[tuple[int, str]], lam: Fraction) -> Evaluator:
    """`evaluator` for a product of chosen logic values: `selection_parity`'s rule."""
    slots, values = selection_parity(picks, lam)
    return lambda column: values[math.prod(map(column.__getitem__, slots)) < 0]


def agreement_law(
    f: FactoredSuperposition, lam: Fraction
) -> tuple[list[int], Callable[[Sequence[int]], Fraction]]:
    """Each bit's group, and f's value as a function of its agreement state.

    Bit r's factor h * A_r + l * B_r (h = c_H, l = lambda * c_L) is
    A_r * (h + l) if its two carriers agree, else A_r * (h - l).  Bits
    holding one (c_H, c_L) pair, by identity, form a group; at state =
    (parity of the A = -1 signs, a_0, ..., a_(G-1)), a_g of group g's n_g
    bits agreeing, f is (-1)^parity * prod_g (h_g + l_g)^(a_g) (h_g - l_g)^(n_g - a_g),
    the shared `Fraction` `evaluator` returns.  The groups and their
    integers are `_pair_law`'s, built once per (f, lambda) and shared with
    `evaluator`; the returned group list is a fresh copy.
    """
    lam = check_lambda(lam)
    groups, factors, den = _pair_law(f, lam)
    powers = [(h + l, h - l, n) for h, l, _, n in factors]

    def value(state: Sequence[int]) -> Fraction:
        num = -1 if state[0] else 1
        for (s, t, n), a in zip(powers, state[1:]):
            num *= s**a * t ** (n - a)
        return _shared(num, den)

    return list(groups), value


# every accepted sign by value, so True and 1.0 read as the int 1
_UNIT_SIGNS = {1: 1, -1: -1}


def _unit_sign(sign: object) -> int | None:
    """The int +1 or -1 equal to sign, or None; an unhashable entry is no sign."""
    try:
        return _UNIT_SIGNS.get(sign)
    except TypeError:
        return None


def _sign_column(signs: Mapping[tuple[int, str], int], num_bits: int) -> list[int]:
    """Slot-ordered int column of a {(bit, role): sign} mapping; reads every entry.

    The entries are read in `rtw.slot_keys` order and mapped to the int +1
    or -1 they equal; None there marks a missing, bad or unhashable entry.
    """
    keys = slot_keys(num_bits)
    entries = list(map(signs.get, keys))
    try:
        column = list(map(_UNIT_SIGNS.get, entries))
    except TypeError:  # an unhashable entry
        column = list(map(_unit_sign, entries))
    if None in column:
        key, sign = next((k, e) for k, e, c in zip(keys, entries, column) if c is None)
        raise ValueError(f"sign ({key[0]}, {key[1]!r}) must be +1 or -1, got {sign}")
    return column


def evaluate_symbolic(
    s: ProductString | Superposition | FactoredSuperposition,
    signs: Mapping[tuple[int, str], int],
    lam: Fraction,
) -> Fraction:
    """Exact value of s under one period's {(bit, role): sign} assignment.

    H_r evaluates to the role-A sign, L_r to lambda times the role-B sign.
    Every bit's A and B entries must be present, read or not.  Each call
    builds an `evaluator`; for a factored superposition that reads the
    integers kept per (superposition, lambda), so repeated calls on one
    object, such as the shared `uniform_superposition(N)`, derive them once.
    """
    return evaluator(s, lam)(_sign_column(signs, s.num_bits))
