"""Exact edge expansion by exhaustive subset enumeration.

h(X) = min |boundary(F)| / |F| over nonempty F with |F| <= n/2.  The search
space is every subset encoded as a bitmask, so this is strictly a small-n
tool: the guard stops at MAX_EXACT_N = 24 (16.7M subsets, about a second
vectorized, swept in blocks so the memory held stays that of one block).
Ratios are compared exactly: |F| <= 12 always, so scaling every cut by
lcm(1..12)/|F| turns the comparison into int64 arithmetic and the reported
minimizer never depends on float rounding.  Ties are broken toward the
lexicographically least vertex set.
"""

from __future__ import annotations

import numbers
from typing import Iterable

import numpy as np

from .errors import ValidationError, _shown
from .graph_core import Graph

MAX_EXACT_N = 24

# lcm(1..12); any subset size on <= 24 vertices divides into it.
_LCM = 27720

# Masks per block of the sweep: a block's arrays stay under 10 MiB
# together at every n.
_BLOCK = 1 << 18


def boundary_size(x: Graph, subset: Iterable[int]) -> int:
    """Number of edges leaving subset, parallel edges counted separately."""
    fs = set(subset)
    for v in fs:
        if not isinstance(v, numbers.Integral):
            raise ValidationError(f"vertex {v!r} is not an integer id")
        if not 0 <= v < x.n:
            raise ValidationError(f"vertex {_shown(v)} out of range for "
                                  f"n={x.n}")
    inside = np.isin(x.edges, list(fs))
    return int(np.count_nonzero(inside[:, 0] != inside[:, 1]))


def _block_ratios(pairs: list[tuple[int, int, int]], den: np.ndarray,
                  lo: int, size: int) -> np.ndarray:
    """cut * den[|F|] for the subsets F of masks lo .. lo + size - 1, the
    int64 maximum where den[|F|] is 0; pairs are (u, v, multiplicity) of
    the distinct edges."""
    idx = np.arange(lo, lo + size, dtype=np.uint32)
    scaled = np.zeros(size, dtype=np.int64)
    bit_u = np.empty(size, dtype=np.uint32)
    bit_v = np.empty(size, dtype=np.uint32)
    for u, v, w in pairs:
        np.right_shift(idx, np.uint32(u), out=bit_u)
        np.right_shift(idx, np.uint32(v), out=bit_v)
        np.bitwise_xor(bit_u, bit_v, out=bit_u)
        np.bitwise_and(bit_u, np.uint32(1), out=bit_u)
        if w > 1:
            np.multiply(bit_u, np.uint32(w), out=bit_u)
        np.add(scaled, bit_u, out=scaled)
    scale = den[np.bitwise_count(idx)]
    np.multiply(scaled, scale, out=scaled)
    scaled[scale == 0] = np.iinfo(np.int64).max
    return scaled


def _lex_least_mask(cands: np.ndarray) -> int:
    """Lexicographically least vertex set among candidate masks.

    Sets compare as their sorted vertex lists; a set that is a strict
    prefix of another precedes it.
    """
    chosen = 0
    cur = cands.astype(np.int64)
    while True:
        lows = cur & -cur
        low = int(lows.min())
        chosen |= low
        cur = cur[lows == low]
        cur = cur & ~np.int64(low)
        if (cur == 0).any():
            return chosen


def expanding_constant_exact(x: Graph) -> tuple[float, tuple[int, ...]]:
    """(h, witness): the exact expanding constant and a minimizing subset.

    The masks are swept in blocks of _BLOCK, each keeping its minimum
    ratio and the lex-least mask attaining it; the witness is the
    lex-least of those among the blocks attaining the overall minimum.
    """
    if x.n < 2:
        raise ValidationError("expanding constant needs at least two vertices")
    if x.n > MAX_EXACT_N:
        raise ValidationError(
            f"exact expansion is exhaustive; n={x.n} exceeds {MAX_EXACT_N}")
    edges, mult = np.unique(x.edges, axis=0, return_counts=True)
    pairs = [(u, v, w) for (u, v), w in zip(edges.tolist(), mult.tolist())]
    # Exact ratio order: cut/|F| compared as cut * (_LCM / |F|), with
    # den[|F|] = 0 for the empty set and for |F| > n/2.
    den = np.zeros(x.n + 1, dtype=np.int64)
    den[1:x.n // 2 + 1] = _LCM // np.arange(1, x.n // 2 + 1)
    size = min(1 << x.n, _BLOCK)
    best, winners = np.iinfo(np.int64).max, []
    for lo in range(0, 1 << x.n, size):
        scaled = _block_ratios(pairs, den, lo, size)
        low = int(scaled.min())
        if low < best:
            best, winners = low, []
        if low == best:
            winners.append(_lex_least_mask(lo + np.flatnonzero(scaled == low)))
    mask = _lex_least_mask(np.array(winners))
    witness = tuple(v for v in range(x.n) if mask >> v & 1)
    return best / _LCM, witness
