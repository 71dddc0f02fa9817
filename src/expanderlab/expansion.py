"""Exact edge expansion by exhaustive subset enumeration.

h(X) = min |boundary(F)| / |F| over nonempty F with |F| <= n/2.  The search
space is every subset encoded as a bitmask, so this is strictly a small-n
tool: the guard stops at MAX_EXACT_N = 24 (16.7M subsets, a few seconds
vectorized).  Ratios are compared exactly: |F| <= 12 always, so scaling
every cut by lcm(1..12)/|F| turns the comparison into int64 arithmetic and
the reported minimizer never depends on float rounding.  Ties are broken
toward the lexicographically least vertex set.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ValidationError
from .graph_core import Graph

MAX_EXACT_N = 24

# lcm(1..12); any subset size on <= 24 vertices divides into it.
_LCM = 27720


def boundary_size(x: Graph, subset: Iterable[int]) -> int:
    """Number of edges leaving subset, parallel edges counted separately."""
    fs = set(subset)
    for v in fs:
        if not 0 <= v < x.n:
            raise ValidationError(f"vertex {v} out of range for n={x.n}")
    inside = np.isin(x.edges, list(fs))
    return int(np.count_nonzero(inside[:, 0] != inside[:, 1]))


def _cut_array(x: Graph) -> np.ndarray:
    """cut[mask] = weighted boundary of the subset encoded by mask."""
    size = 1 << x.n
    idx = np.arange(size, dtype=np.uint32)
    cut = np.zeros(size, dtype=np.int64)
    bit_u = np.empty(size, dtype=np.uint32)
    bit_v = np.empty(size, dtype=np.uint32)
    pairs, mult = np.unique(x.edges, axis=0, return_counts=True)
    for (u, v), w in zip(pairs.tolist(), mult.tolist()):
        np.right_shift(idx, np.uint32(u), out=bit_u)
        np.right_shift(idx, np.uint32(v), out=bit_v)
        np.bitwise_xor(bit_u, bit_v, out=bit_u)
        np.bitwise_and(bit_u, np.uint32(1), out=bit_u)
        cut += bit_u.astype(np.int64) * w
    return cut


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
    """(h, witness): the exact expanding constant and a minimizing subset."""
    if x.n < 2:
        raise ValidationError("expanding constant needs at least two vertices")
    if x.n > MAX_EXACT_N:
        raise ValidationError(
            f"exact expansion is exhaustive; n={x.n} exceeds {MAX_EXACT_N}")
    cut = _cut_array(x)
    pc = np.bitwise_count(np.arange(1 << x.n, dtype=np.uint32)).astype(np.int64)
    half = x.n // 2
    valid = (pc >= 1) & (pc <= half)
    # Exact ratio order: cut/|F| compared as cut * (_LCM / |F|).
    den = np.ones_like(pc)
    np.floor_divide(_LCM, pc, out=den, where=valid)
    scaled = cut * den
    scaled[~valid] = np.iinfo(np.int64).max
    best = int(scaled.min())
    cands = np.flatnonzero(scaled == best)
    mask = _lex_least_mask(cands)
    witness = tuple(v for v in range(x.n) if mask >> v & 1)
    return best / _LCM, witness
