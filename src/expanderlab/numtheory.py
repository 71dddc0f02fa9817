"""Exact integer arithmetic for prime-gap planning and Legendre symbols.

Point queries (``is_prime``, ``prev_prime``, ``next_prime``, and
``PrimePlan.for_target``, whose ``delta`` is the normalized gap delta_k)
use a fixed Miller-Rabin base set that is exact below 2**64.  Ranges
(``max_delta_in_range``) are swept by a segmented, odd-only numpy sieve of
Eratosthenes.  It strikes composites in blocks of 2**17 odd numbers, each
filled from a presieved 3*5*7*11*13 wheel, and yields the primes in chunks
of 2**16 odd numbers, so memory stays bounded by the block, the chunk and
the base primes below sqrt(RANGE_MAX).  The argmax compares gap ratios by
integer cross-multiplication, so the winning prime never depends on
rounding; floating point enters only as a prefilter that keeps every exact
maximizer, and in the final division.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import ValidationError, _shown

# Strong-pseudoprime bases covering all n < 2**64 (Sinclair's seven-base
# set, exhaustively verified against the Feitsma-Galway pseudoprime list).
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_LIMIT = 2**63

# Largest range end max_delta_in_range accepts: the base primes up to
# sqrt(2**40) = 2**20 fit one 512 KB odd-only sieve.
RANGE_MAX = 2**40

# Odd numbers per yielded chunk of primes.  The chunk, not the strike
# block, sizes the arrays max_delta_in_range builds from it: with 2**18-odd
# chunks a full delta_table ran in 19.1 ms instead of 24.2 ms, but its
# traced peak rose from 625 KB to 2.0 MB.
_BLOCK = 1 << 16

# Odd numbers per strike block, a multiple of _BLOCK: 128 KB of flags in
# one buffer per call.  Each base prime below it costs one slice assignment
# per block, about 0.26 us whatever the block holds, so larger blocks make
# fewer calls.  Measured for a full delta_table() on a 2-core Xeon (numpy
# 2.4.6): 18.3 ms against 24.2 ms with 2**16-odd blocks, a traced peak of
# 583 KB against 625 KB, and the same peak RSS.  2**18 took 16.4 ms but
# raised the peak RSS by its 256 KB buffer; 2**19 and 2**20 raised the
# traced peak to 0.9 and 1.4 MB.
_SIEVE_BLOCK = 1 << 17

# The wheel primes: a strike block starts as a copy of the period of their
# multiples (15015 odd numbers) instead of striking each of them.
_WHEEL = (3, 5, 7, 11, 13)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**63."""
    if not 0 <= n < _LIMIT:
        raise ValidationError(f"is_prime requires 0 <= n < 2**63, "
                              f"got {_shown(n)}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # n is odd and coprime to the small primes; run Miller-Rabin.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prev_prime(k: int) -> int:
    """Largest prime strictly below k; requires k >= 3."""
    if k < 3:
        raise ValidationError(f"no prime below {_shown(k)}")
    return next(n for n in range(k - 1, 1, -1) if is_prime(n))


def next_prime(p: int) -> int:
    """Smallest prime strictly above p; requires p >= 2."""
    if p < 2:
        raise ValidationError(f"next_prime requires p >= 2, got {_shown(p)}")
    return next(n for n in count(p + 1) if is_prime(n))


def _prime_blocks(a: int, b: int) -> Iterator[np.ndarray]:
    """The primes in [a, b), a >= 3, as ascending int64 arrays, one per chunk.

    Odd n = 2i + 1 is tracked by its index i.  Chunk j covers the indices
    [j*_BLOCK, (j+1)*_BLOCK) and strike block j the indices
    [j*_SIEVE_BLOCK, (j+1)*_SIEVE_BLOCK), so no boundary depends on a.  The
    base primes up to isqrt(b - 1) are sieved once.  Each strike block,
    in one buffer reused for all of them, starts as a copy of one period of
    the wheel, the base primes among _WHEEL, with the wheel primes
    themselves restored; it then strikes the odd multiples of every other
    base prime p from max(p*p, its first multiple in the block) on.  A base
    prime p >= _SIEVE_BLOCK strikes at most one flag per block, so those
    primes strike theirs in one indexed assignment.
    """
    r = math.isqrt(b - 1)
    odd = np.ones((r + 1) // 2, dtype=bool)     # odd[i]: is 2i + 1 prime
    odd[:1] = False
    for i in range(1, (math.isqrt(r) + 1) // 2):
        if odd[i]:
            odd[(2 * i + 1) ** 2 // 2::2 * i + 1] = False
    base = 2 * np.flatnonzero(odd) + 1
    wheel = [p for p in _WHEEL if p <= r]
    # Two periods of the wheel's flags, so any rotation is one slice.
    period = math.prod(wheel)
    pattern = np.ones(2 * period, dtype=bool)
    for p in wheel:
        pattern[p // 2::p] = False
    base = base[len(wheel):]
    first, square = base // 2, base * base // 2     # indices of p and p*p
    small = np.count_nonzero(base < _SIEVE_BLOCK)
    lo, hi = a // 2, b // 2
    buffer = np.empty(min(_SIEVE_BLOCK, max(hi - lo, 0)), dtype=bool)
    while lo < hi:
        start, end = lo, min((lo // _SIEVE_BLOCK + 1) * _SIEVE_BLOCK, hi)
        flags = buffer[:end - start]
        # One rotated period, then copies that double the filled prefix.
        rot = start % period
        done = min(period, len(flags))
        flags[:done] = pattern[rot:rot + done]
        while done < len(flags):
            step = min(done, len(flags) - done)
            flags[done:done + step] = flags[:step]
            done += step
        for p in wheel:
            if start <= p // 2 < end:
                flags[p // 2 - start] = True
        starts = np.maximum((first - start) % base, square - start)
        for p, s in zip(base[:small].tolist(), starts[:small].tolist()):
            flags[s::p] = False
        hit = starts[small:]
        flags[hit[hit < end - start]] = False
        while lo < end:
            stop = min((lo // _BLOCK + 1) * _BLOCK, end)
            found = np.flatnonzero(flags[lo - start:stop - start])
            found += lo
            found *= 2
            found += 1
            yield found
            lo = stop


def max_delta_in_range(lo: int, hi: int) -> tuple[float, int]:
    """Maximum of delta_k over k in [lo, hi], with the smallest witness k.

    delta_k is constant for k in (p, p'], so it suffices to take the primes
    p in [prev_prime(lo), prev_prime(hi)] and their successors, which the
    segmented sieve yields from prev_prime(lo) up to next_prime(hi - 1), the
    prime after the last one below hi.  The last prime of each block is
    carried into the next, so gaps across a block boundary count.

    The argmax compares gap/sqrt(p) > gap'/sqrt(p') via
    gap^2 * p' > gap'^2 * p exactly, in ascending p with strict >, so ties go
    to the smallest witness.  Only the primes whose float g^2/p is within a
    relative 1e-9 of the block's float maximum reach that comparison: each
    float ratio is within a few ulps (about 1e-16) of its exact value, so
    every exact maximizer of a block passes the prefilter and the winner is
    the one an exact scan over all primes would pick.

    hi is capped at RANGE_MAX, which keeps the base-prime sieve within 1 MB;
    a larger hi is refused before anything is allocated.
    """
    if not 3 <= lo <= hi:
        raise ValidationError(f"need 3 <= lo <= hi, got [{_shown(lo)}, "
                              f"{_shown(hi)}]")
    if hi > RANGE_MAX:
        raise ValidationError(f"hi={_shown(hi)} exceeds the largest range "
                              f"end {RANGE_MAX}")
    last = prev_prime(lo)
    best_p = best_gap = 0
    for primes in _prime_blocks(last + 1, next_prime(hi - 1) + 1):
        if primes.size == 0:
            continue
        run = np.concatenate(([last], primes))
        gaps = np.diff(run)
        ratio = gaps.astype(np.float64)
        ratio *= ratio
        ratio /= run[:-1]
        keep = np.flatnonzero(ratio >= ratio.max() * (1.0 - 1e-9))
        for p, gap in zip(run[keep].tolist(), gaps[keep].tolist()):
            if best_p == 0 or gap * gap * best_p > best_gap * best_gap * p:
                best_p, best_gap = p, gap
        last = int(primes[-1])
    witness = max(lo, best_p + 1)
    return best_gap / math.sqrt(best_p), witness


def legendre(a: int, q: int) -> int:
    """Legendre symbol (a|q) in {-1, 0, +1} for an odd prime q."""
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValidationError(f"legendre requires an odd prime modulus, "
                              f"got {_shown(q)}")
    a %= q
    if a == 0:
        return 0
    t = pow(a, (q - 1) // 2, q)
    return 1 if t == 1 else -1


@dataclass(frozen=True)
class PrimePlan:
    """Prime-gap data behind a target regularity k.

    p is the largest prime below k, p_next the one after it, increments the
    number of degree bumps needed to lift a (p+1)-regular base to k, and
    delta the normalized gap (p_next - p) / sqrt(p).
    """

    k: int
    p: int
    p_next: int
    increments: int
    delta: float

    @classmethod
    def for_target(cls, k: int) -> "PrimePlan":
        p = prev_prime(k)
        p_next = next_prime(p)
        return cls(k=k, p=p, p_next=p_next, increments=k - p - 1,
                   delta=(p_next - p) / math.sqrt(p))
