import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy

from expanderlab import delta_table, max_delta_in_range
from expanderlab.errors import ValidationError
from expanderlab.numtheory import (
    _BLOCK,
    _SIEVE_BLOCK,
    _WHEEL,
    RANGE_MAX,
    PrimePlan,
    _prime_blocks,
    is_prime,
    legendre,
    next_prime,
    prev_prime,
)
from expanderlab.ramanujan_base import four_square_generators
from helpers import walk_max_delta

mp.mp.dps = 50


# -- is_prime ---------------------------------------------------------------


def test_is_prime_exhaustive_small(primes_1e6):
    prime_set = set(int(p) for p in primes_1e6[primes_1e6 <= 20000])
    for n in range(20001):
        assert is_prime(n) == (n in prime_set), n


def test_is_prime_sampled_vs_sieve(primes_1e6):
    prime_set = set(int(p) for p in primes_1e6)
    rng = np.random.default_rng(11)
    for n in rng.integers(2, 1_000_000, size=3000):
        n = int(n)
        assert is_prime(n) == (n in prime_set), n


def test_is_prime_large_vs_sympy():
    rng = np.random.default_rng(13)
    cases = [2**61 - 1, 2**61 + 1, 10**12 + 39, 2898239, 2898240]
    cases += [int(v) for v in rng.integers(10**9, 2**62, size=200)]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_edges():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    with pytest.raises(ValidationError):
        is_prime(-1)
    with pytest.raises(ValidationError):
        is_prime(2**63)


# -- prev_prime / next_prime --------------------------------------------------


def test_prev_prime_examples():
    assert prev_prime(10) == 7
    assert prev_prime(12) == 11
    assert prev_prime(3) == 2
    assert prev_prime(128) == 127
    with pytest.raises(ValidationError):
        prev_prime(2)


def test_next_prime_examples():
    assert next_prime(2) == 3
    assert next_prime(7) == 11
    assert next_prime(113) == 127
    with pytest.raises(ValidationError):
        next_prime(1)


def test_prev_next_vs_sieve(primes_1e6):
    rng = np.random.default_rng(17)
    ps = primes_1e6
    for k in rng.integers(3, 999_000, size=400):
        k = int(k)
        i = np.searchsorted(ps, k)
        assert prev_prime(k) == int(ps[i - 1])
        j = np.searchsorted(ps, k, side="right")
        assert next_prime(k) == int(ps[j])


# -- delta_k ------------------------------------------------------------------


def test_delta_k_known_values():
    cases = [
        (10, 7, 11),     # gap 4 at p = 7
        (12, 11, 13),
        (114, 113, 127),
        (1328, 1327, 1361),
    ]
    for k, p, p_next in cases:
        exact = mp.mpf(p_next - p) / mp.sqrt(p)
        got = PrimePlan.for_target(k).delta
        assert abs(got - float(exact)) <= 1e-12 * float(exact)


def test_delta_k_constant_between_primes():
    # prev_prime is the same for every k in (p, p'].
    vals = {PrimePlan.for_target(k).delta for k in range(114, 128)}
    assert len(vals) == 1


# -- max_delta_in_range --------------------------------------------------------


def _oracle_max_delta(lo, hi, primes):
    start = prev_prime(lo)
    best = None
    ps = [int(p) for p in primes]
    for a, b in zip(ps, ps[1:]):
        if start <= a < hi:
            d = Fraction((b - a) ** 2, a)
            if best is None or d > best[0]:
                best = (d, a, b - a)
    gap, p = best[2], best[1]
    return gap / math.sqrt(p), max(lo, p + 1)


def test_max_delta_vs_oracle(primes_1e6):
    for lo, hi in [(10, 100), (100, 1000), (50, 60), (3, 10),
                   (1000, 10**4), (500, 501)]:
        got_v, got_w = max_delta_in_range(lo, hi)
        want_v, want_w = _oracle_max_delta(lo, hi, primes_1e6)
        assert got_v == pytest.approx(want_v, rel=1e-15)
        assert got_w == want_w


def test_max_delta_first_range():
    value, witness = max_delta_in_range(10, 100)
    assert value == pytest.approx(4 / math.sqrt(7), rel=1e-15)
    assert witness == 10


def test_max_delta_errors():
    with pytest.raises(ValidationError):
        max_delta_in_range(2, 100)
    with pytest.raises(ValidationError):
        max_delta_in_range(100, 10)


def test_max_delta_matches_walk():
    # Block j of the sieve holds the odd numbers in [2j*_BLOCK + 1,
    # 2(j+1)*_BLOCK + 1), so its first two boundaries sit at these numbers.
    b1, b2 = 2 * _BLOCK + 1, 4 * _BLOCK + 1
    windows = [
        (10, 10), (3, 3), (3, 4), (3, 100), (4, 4),   # lo = 3: prev_prime is 2
        (113, 113), (127, 127), (127, 128), (1327, 1361), (1327, 1362),
        (b1, b1), (b2, b2),          # the one gap spans a block boundary
        (b1 - 2000, b1 + 2000), (b2 - 2000, b2 + 2000),
        (b1 - 50, b2 + 50),          # crosses both boundaries
        (RANGE_MAX - 2000, RANGE_MAX),
    ]
    assert is_prime(127) and is_prime(1361) and not is_prime(b1)
    rng = np.random.default_rng(29)
    for _ in range(200):
        lo = int(rng.integers(3, 6 * _BLOCK))
        windows.append((lo, lo + int(rng.integers(0, 4000))))
    for lo, hi in windows:
        assert max_delta_in_range(lo, hi) == walk_max_delta(lo, hi), (lo, hi)


def test_prime_blocks_match_is_prime():
    # Windows across the first two block boundaries, around 10^7, and across
    # the last boundary below RANGE_MAX, at 2^40 - 2*_BLOCK + 1, where most
    # base primes exceed _SIEVE_BLOCK and strike at most one flag per block.
    edge = RANGE_MAX - 2 * _BLOCK + 1
    for (a, b), count in (((2 * _BLOCK - 3000, 4 * _BLOCK + 3000), 3),
                          ((10**7 - 10**4, 10**7 + 10**4), 1),
                          ((edge - 3000, edge + 3000), 2)):
        blocks = list(_prime_blocks(a, b))
        assert len(blocks) == count
        got = np.concatenate(blocks).tolist()
        assert got == [n for n in range(a, b) if is_prime(n)], (a, b)


def test_prime_blocks_across_strike_blocks_and_wheel_periods():
    # Strike block j starts at the odd number 2j*_SIEVE_BLOCK + 1, and the
    # wheel's flags repeat every 15015 odd indices, from 30030j + 1 on.
    # Every yielded array stays inside one chunk of _BLOCK odd indices.
    period = math.prod(_WHEEL)
    s1, s2 = 2 * _SIEVE_BLOCK + 1, 4 * _SIEVE_BLOCK + 1
    for mid in (s1, s2, 2 * period + 1, 2 * 3 * period + 1,
                2 * (_SIEVE_BLOCK + period) + 1):
        a, b = mid - 3000, mid + 3000
        blocks = list(_prime_blocks(a, b))
        assert all(len({i // _BLOCK for i in (block // 2).tolist()}) == 1
                   for block in blocks if block.size)
        got = np.concatenate(blocks).tolist()
        assert got == [n for n in range(a, b) if is_prime(n)], (a, b)


def test_prime_blocks_keep_the_wheel_primes():
    # The wheel primes are yielded themselves, and 11 and 13 stay primes
    # while they are not base primes (b <= 121 and b <= 169).
    for b in range(4, 201):
        got = np.concatenate(list(_prime_blocks(3, b))).tolist()
        assert got == [n for n in range(3, b) if is_prime(n)], b


def test_delta_table_traced_peak():
    # The strike buffer and the yielded chunks bound the table's memory.
    tracemalloc.start()
    try:
        delta_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_max_delta_above_cap_fails_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="exceeds the largest range end"):
            max_delta_in_range(10, RANGE_MAX + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# -- legendre ------------------------------------------------------------------


def test_legendre_examples():
    assert legendre(5, 13) == -1
    assert legendre(13, 17) == 1
    assert legendre(4, 13) == 1
    assert legendre(26, 13) == 0


def test_legendre_vs_square_sets():
    for q in (5, 13, 17, 29):
        squares = {x * x % q for x in range(1, q)}
        for a in range(1, q):
            assert legendre(a, q) == (1 if a in squares else -1)


def test_legendre_multiplicative():
    rng = np.random.default_rng(19)
    qs = [5, 13, 17, 29, 101]
    for _ in range(1000):
        q = qs[rng.integers(len(qs))]
        a = int(rng.integers(1, 10**6))
        b = int(rng.integers(1, 10**6))
        assert legendre(a * b, q) == legendre(a, q) * legendre(b, q)


def test_legendre_domain():
    for q in (2, 9, 15, 1):
        with pytest.raises(ValidationError):
            legendre(3, q)


# -- four_square_generators ------------------------------------------------------


def test_four_square_p5_exact():
    want = [
        (1, -2, 0, 0), (1, 0, -2, 0), (1, 0, 0, -2),
        (1, 0, 0, 2), (1, 0, 2, 0), (1, 2, 0, 0),
    ]
    assert four_square_generators(5) == want


def test_four_square_p13_shapes():
    tuples = four_square_generators(13)
    assert len(tuples) == 14
    with_three = [t for t in tuples if t[0] == 3]
    with_one = [t for t in tuples if t[0] == 1]
    assert len(with_three) == 6      # (3, +-2, 0, 0) in each position
    assert len(with_one) == 8        # (1, +-2, +-2, +-2)
    for _, a1, a2, a3 in with_one:
        assert {abs(a1), abs(a2), abs(a3)} == {2}


def test_four_square_p17_count():
    assert len(four_square_generators(17)) == 18


def test_four_square_properties_random(primes_1e6):
    candidates = [int(p) for p in primes_1e6
                  if 5 <= p < 10**4 and p % 4 == 1]
    rng = np.random.default_rng(23)
    sample = rng.choice(len(candidates), size=200, replace=False)
    for idx in sample:
        p = candidates[int(idx)]
        tuples = four_square_generators(p)
        assert len(tuples) == p + 1
        assert tuples == sorted(tuples)
        seen = set(tuples)
        assert len(seen) == p + 1
        for a0, a1, a2, a3 in tuples:
            assert a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 == p
            assert a0 % 2 == 1 and a0 > 0
            assert a1 % 2 == 0 and a2 % 2 == 0 and a3 % 2 == 0
            # closure under sign flips of the even coordinates
            assert (a0, -a1, a2, a3) in seen
            assert (a0, a1, -a2, a3) in seen
            assert (a0, a1, a2, -a3) in seen


def test_four_square_domain():
    for p in (2, 4, 7, 9, 3):
        with pytest.raises(ValidationError):
            four_square_generators(p)


# -- PrimePlan -----------------------------------------------------------------


def test_prime_plan_examples():
    plan7 = PrimePlan.for_target(7)
    assert (plan7.p, plan7.p_next, plan7.increments) == (5, 7, 1)
    assert plan7.delta == pytest.approx(2 / math.sqrt(5), rel=1e-15)

    plan14 = PrimePlan.for_target(14)
    assert (plan14.p, plan14.increments) == (13, 0)

    plan12 = PrimePlan.for_target(12)
    assert (plan12.p, plan12.p_next, plan12.increments) == (11, 13, 0)


def test_prime_plan_increment_iff_composite_below():
    for k in range(3, 200):
        plan = PrimePlan.for_target(k)
        assert plan.increments == k - plan.p - 1
        assert (plan.increments == 0) == is_prime(k - 1)


def test_prime_plan_domain():
    with pytest.raises(ValidationError):
        PrimePlan.for_target(2)
