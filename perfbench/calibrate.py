"""Reference kernels that measure how fast the machine is right now.

On a virtual machine whose cores are shared with other tenants (the
2-vCPU Xeon this benchmark was tuned on), speed swings by up to 2x
within seconds, so a wall-clock time of an op says as much about the
neighbours as about the program.  The timed loop runs one reference
kernel after every op; an op's normalised time is its wall time times
REFERENCE_S[kernel] over the mean of the kernel times just before and
just after it.  A kernel tracks an op only when it stresses the machine
the same way.  The blend (rational arithmetic, a small numpy table and
text formatting) tracks the exact and CLI paths; the two numpy engines
get kernels that mimic them, int8 tensors or a doubling table in a
Python loop, because under the blend their op times spread several
times as much (see README.md).  The kernels use only the standard
library and numpy, never rtwlogic, so a change to the package cannot
change them, and they stay small (a few MB) so that they do not set the
process's peak memory.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

_H, _L = Fraction(1), Fraction(1, 2)


def fraction_kernel(periods: int) -> tuple:
    """Products of 16 two-term rational factors, one per period."""
    out = []
    for t in range(periods):
        acc = Fraction(1)
        for r in range(16):
            a = 1 if (t >> (r % 6)) & 1 else -1
            b = 1 if (t * r) & 2 else -1
            acc *= _H * a + _L * b
        out.append(acc)
    return tuple(out)


_GATHER = np.maximum(np.arange(576)[None, :] - np.arange(64)[:, None], 0) // 64
_SLOTS = np.arange(64)[:, None]
_SEEDS = np.arange(40, dtype=np.uint64)


def tensor_kernel() -> int:
    """Counter mixing, an int8 gather to a (40, 64, 576) tensor, a product reduce."""
    with np.errstate(over="ignore"):
        x = _SEEDS[:, None, None] * np.uint64(0x9E3779B97F4A7C15) + np.arange(
            64 * 9, dtype=np.uint64).reshape(1, 64, 9)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(31)
    signs = np.where(x >> np.uint64(63), np.int8(-1), np.int8(1))
    ticks = signs[:, _SLOTS, _GATHER]
    prod = np.multiply.reduce(np.where(ticks > 0, ticks, np.int8(1)), axis=1)
    flips = prod[:, 1:] != prod[:, :-1]
    total = 0
    for i in range(32):
        total += int(np.argmax(flips[:, i::32], axis=1).sum())
    return total


_BITS = (np.arange(24 * 20, dtype=np.uint64).reshape(24, 20) * np.uint64(2654435761)
         % np.uint64(7) < np.uint64(4)).astype(np.uint8)


def table_kernel(num_bits: int = 11, repeats: int = 6) -> int:
    """The doubling XOR table of a candidate scan, in a Python loop."""
    first = 0
    for rep in range(repeats):
        table = np.zeros((1, 20), dtype=np.uint8)
        for i in range(num_bits):
            nxt = np.empty((table.shape[0] * 2, 20), dtype=np.uint8)
            nxt[0::2] = table ^ _BITS[2 * i]
            nxt[1::2] = table ^ _BITS[2 * i + 1]
            table = nxt
        unknown = table[(rep * 977) % table.shape[0]]
        first += int(np.argmax(~(table != unknown[None, :]).any(axis=1)))
    return first


def blend_kernel() -> int:
    """A little of each, plus the text formatting a report does."""
    values = fraction_kernel(12)
    first = table_kernel(num_bits=8, repeats=2)
    text = json.dumps({"values": [str(v) for v in values], "first": first}, indent=2)
    return len(text)


KERNELS = {
    "tensor": tensor_kernel,
    "table": table_kernel,
    "blend": blend_kernel,
}

# Nominal kernel times in seconds, close to what each took on a 2-vCPU
# shared Xeon virtual machine.  They only set the scale of
# normalised times, so they stay fixed: changing one rescales every figure
# measured with it.
REFERENCE_S = {"tensor": 0.012, "table": 0.001, "blend": 0.0011}

