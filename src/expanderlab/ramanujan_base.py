"""Ramanujan base graphs: LPS Cayley graphs plus a fixed named library.

For distinct primes p, q = 1 (mod 4) with 2*sqrt(p) < q <= Q_MAX, the
(p+1)-regular LPS graph X^{p,q} is the Cayley graph of PSL(2, q) or
PGL(2, q) whose connection set comes from the p + 1 four-square
representations

    p = a0^2 + a1^2 + a2^2 + a3^2,   a0 odd positive, a1, a2, a3 even,

each mapped to the projective matrix

    [ a0 + i*a1    a2 + i*a3 ]
    [-a2 + i*a3    a0 - i*a1 ]   (mod q),   i^2 = -1 (mod q).

When p is a square mod q the generators have square determinant and land in
PSL(2, q): n = q*(q^2-1)/2, non-bipartite.  Otherwise they generate all of
PGL(2, q): n = q*(q^2-1), bipartite.  q > 2*sqrt(p) keeps the graph simple
and loop-free.  These graphs meet the Ramanujan bound
lambda_2 <= 2*sqrt(p), which downstream certification re-measures rather
than assumes.

A projective point (a, b, c, d) is normalized by scaling its first nonzero
entry to 1 and stored as the integer code ((a*q + b)*q + c)*q + d, whose
order is the lexicographic order of the tuples.  Vertices are numbered by
ascending code, so construction is deterministic.  Codes lie in [0, 2q^3),
and a table over that range maps each code to its vertex number, or to -1
where the code is not a vertex, so each generator's images are found for
all vertices at once by one gather.  The cap q <= Q_MAX keeps n at most
about 10^6, the table at 8.2 MB, and every code and intermediate product
below 2**31, so the arrays are int32.

The generators come in inverse pairs: the mate of (a, b, c, d) is its
adjugate (d, -b, -c, a), the matrix of the conjugate quaternion.  Images
are computed for one generator of each pair; once they are checked to
permute the vertices, the mate's images are the inverse permutation, one
scatter instead of a normalization.  A generator that is its own mate, an
involution, is computed directly; p = 1 (mod 4) has none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ValidationError, _shown
from .graph_core import Graph, _sorted_rows, from_edge_list
from .numtheory import is_prime, legendre

# Largest modulus of any LPS build: n <= 101*(101^2-1) = 1 030 200.
Q_MAX = 101

# Largest target regularity with a base: k = 2558 anchors at p = 2557,
# and 4p > Q_MAX^2, so no modulus q <= Q_MAX exceeds 2*sqrt(p).
K_MAX = 2557


@dataclass(frozen=True)
class LpsParams:
    """Resolved construction parameters for X^{p,q}."""

    p: int
    q: int
    group: str          # "PSL2" (non-bipartite) or "PGL2" (bipartite)
    n: int


_NOT_A_BASE_PRIME = "{}={} must be a prime = 1 (mod 4), at least 5"


def _fault(p: int, q: int | None = None) -> str | None:
    """Why (p, q) gives no X^{p,q}, or None; with q None, p alone is checked.

    This is the one statement of which (p, q) make a base.  The integer
    range tests come before any primality test, so with q given, is_prime
    only sees p < Q_MAX**2 / 4 and q <= Q_MAX, whatever the size of either.
    """
    given = [(name, v) for name, v in (("p", p), ("q", q)) if v is not None]
    for name, v in given:
        if v < 5 or v % 4 != 1:
            return _NOT_A_BASE_PRIME.format(name, _shown(v))
    if q is not None:
        if q > Q_MAX:
            return f"q={_shown(q)} exceeds the largest modulus {Q_MAX}"
        if q * q <= 4 * p:
            # 2*sqrt(p) to three places, rounded half up, in integers.
            r = (math.isqrt(16 * 10**6 * p) + 1) // 2
            return (f"q={q} must exceed 2*sqrt(p)={_shown(r // 1000)}."
                    f"{r % 1000:03d} for a simple loop-free graph")
    for name, v in given:
        if not is_prime(v):
            return _NOT_A_BASE_PRIME.format(name, _shown(v))
    if p == q:
        return "p and q must be distinct"
    return None


def lps_params(p: int, q: int) -> LpsParams:
    """Validate (p, q) and resolve the group and its size."""
    if (fault := _fault(p, q)) is not None:
        raise ValidationError(fault)
    if legendre(p, q) == 1:
        return LpsParams(p=p, q=q, group="PSL2", n=q * (q * q - 1) // 2)
    return LpsParams(p=p, q=q, group="PGL2", n=q * (q * q - 1))


def lps_shape(p: int, q: int) -> tuple[int, int]:
    """(regularity, vertex count) of X^{p,q}, without building it;
    lps_params' error if (p, q) make no base."""
    return p + 1, lps_params(p, q).n


def base_prime(k: int) -> int | None:
    """The largest p <= k - 1 that the base rule admits, or None (k < 6);
    the one check of a build's k, [3, K_MAX], made before any prime test."""
    if not 3 <= k <= K_MAX:
        raise ValidationError(
            f"construct takes k from 3 to {K_MAX}: past {K_MAX} the anchor "
            f"p has no modulus q <= {Q_MAX} exceeding 2*sqrt(p)")
    return next((p for p in range(k - 1, 4, -1) if _fault(p) is None), None)


def smallest_modulus(p: int, min_vertices: int) -> int:
    """Least q giving an X^{p,q} with min_vertices or more vertices, tried in
    ascending order, since n depends on the Legendre symbol.  An unusable p
    raises lps_params' error for it."""
    for q in range(5, Q_MAX + 1):
        if _fault(p, q) is None and lps_params(p, q).n >= min_vertices:
            return q
    raise ValidationError(_fault(p) or (
        f"no modulus q <= {Q_MAX} gives a base with {_shown(min_vertices)} "
        f"vertices at p={_shown(p)}"))


def _decode(codes: np.ndarray, q: int) -> tuple[np.ndarray, ...]:
    return tuple(codes // q**e % q for e in (3, 2, 1, 0))


def _normalize(m, q: int) -> np.ndarray:
    """Codes of the invertible matrices m = (a, b, c, d), entries in [0, q).

    The first row of an invertible matrix is nonzero, so the entry scaled
    to 1 is a where a != 0 and b elsewhere.
    """
    a, b, c, d = m
    inv = np.array([0] + [pow(x, -1, q) for x in range(1, q)], dtype=np.int32)
    s = inv[np.where(a != 0, a, b)]
    return ((a * s % q * q + b * s % q) * q + c * s % q) * q + d * s % q


def _vertices(q: int, square_det: bool) -> np.ndarray:
    """Codes of the normalized points of PGL(2, q), or PSL(2, q), ascending.

    Normalized matrices are (0, 1, c, d), codes q^2 + [0, q^2), and
    (1, b, c, d), codes q^3 + [0, q^3); the invertible ones are kept.
    Scaling multiplies the determinant by a square, so 'determinant is a
    nonzero square' is well defined on them and picks out PSL(2, q).
    """
    codes = np.concatenate([q**2 + np.arange(q**2, dtype=np.int32),
                            q**3 + np.arange(q**3, dtype=np.int32)])
    a, b, c, d = _decode(codes, q)
    det = (a * d - b * c) % q
    squares = np.zeros(q, dtype=bool)
    squares[np.arange(1, q) ** 2 % q] = True
    return codes[squares[det] if square_det else det != 0]


def _sqrt_minus_one(q: int) -> int:
    """Smaller square root of -1 modulo a prime q = 1 (mod 4): the least
    i with i^2 = -1, found by a scan, since q <= Q_MAX."""
    return next(i for i in range(1, q) if i * i % q == q - 1)


def four_square_generators(p: int) -> list[tuple[int, int, int, int]]:
    """The p + 1 four-square tuples of p behind the generators of X^{p,q}.

    a0 is odd positive and a1..a3 even; Jacobi's four-square theorem gives
    their count.  Returned in lexicographic order.
    """
    if (fault := _fault(p)) is not None:
        raise ValidationError(fault)
    lim = math.isqrt(p)
    found = set()
    for a0 in range(1, lim + 1, 2):
        for a1 in range(0, lim + 1, 2):
            for a2 in range(0, lim + 1, 2):
                r = p - a0 * a0 - a1 * a1 - a2 * a2
                if r < 0:
                    break
                a3 = math.isqrt(r)
                if a3 * a3 == r and a3 % 2 == 0:
                    found.update(product([a0], (a1, -a1), (a2, -a2),
                                         (a3, -a3)))
    tuples = sorted(found)
    if len(tuples) != p + 1:
        raise AssertionError(
            f"four-square count for p={p} is {len(tuples)}, expected {p + 1}"
        )
    return tuples


def _generators(p: int, q: int) -> np.ndarray:
    """Codes of the p + 1 generators of X^{p,q}, ascending."""
    i = _sqrt_minus_one(q)
    a0, a1, a2, a3 = np.array(four_square_generators(p), dtype=np.int32).T
    gens = np.unique(_normalize(((a0 + i * a1) % q, (a2 + i * a3) % q,
                                 (i * a3 - a2) % q, (a0 - i * a1) % q), q))
    if len(gens) != p + 1:
        raise AssertionError(
            f"generator set for ({p}, {q}) collapsed to {len(gens)} points")
    return gens


def _mates(gens: np.ndarray, q: int) -> np.ndarray:
    """For each generator code, the position in gens of its projective
    inverse: the adjugate (d, -b, -c, a) of (a, b, c, d), the quaternion
    conjugate's matrix.  AssertionError if an inverse is not in gens."""
    a, b, c, d = _decode(gens, q)
    inverse = _normalize((d, -b % q, -c % q, a), q)
    mate = np.searchsorted(gens, inverse)
    if not (gens[np.minimum(mate, len(gens) - 1)] == inverse).all():
        raise AssertionError(f"generator set mod {q} is not closed under "
                             "inversion")
    return mate


def _code_table(verts: np.ndarray, q: int) -> np.ndarray:
    """Vertex number of each code in [0, 2q^3), -1 where it is no vertex;
    a singular image normalizes to 0, which is no vertex."""
    index = np.full(2 * q**3, -1, dtype=np.int32)
    index[verts] = np.arange(len(verts), dtype=np.int32)
    return index


def build_lps(p: int, q: int) -> Graph:
    """Construct X^{p,q} with deterministic vertex numbering.

    Vertex j is the j-th smallest code; it is adjacent to s*j for each
    generator s.  The generator set is closed under projective inversion,
    so the relation is symmetric and every vertex has degree p + 1.  The
    images are computed for one generator of each inverse pair, checked to
    permute the vertices, and the mate's images are that permutation's
    inverse.  Each vertex's sorted neighbours above it give its edges, so
    they come out in canonical order, written once into the array the
    graph keeps.
    """
    params = lps_params(p, q)
    verts = _vertices(q, square_det=params.group == "PSL2")
    if len(verts) != params.n:
        raise AssertionError(
            f"enumerated {len(verts)} vertices for ({p}, {q}), "
            f"expected {params.n}")
    index = _code_table(verts, q)
    j = np.arange(params.n, dtype=np.int32)
    a, b, c, d = _decode(verts, q)
    gens = _generators(p, q)
    mate = _mates(gens, q)
    nbrs = np.empty((params.n, p + 1), dtype=np.int32)
    for col, (s0, s1, s2, s3) in enumerate(
            np.column_stack(_decode(gens, q)).tolist()):
        if mate[col] < col:
            continue                # the inverse of an earlier column
        image = _normalize(((s0 * a + s1 * c) % q, (s0 * b + s1 * d) % q,
                            (s2 * a + s3 * c) % q, (s2 * b + s3 * d) % q), q)
        h = index[image]
        name = f"generator {(s0, s1, s2, s3)} of X^{{{p},{q}}}"
        if (h < 0).any():
            raise AssertionError(f"{name} maps vertex {(h < 0).argmax()} "
                                 "outside the group")
        if (h == j).any():
            raise AssertionError(f"{name} fixes vertex {(h == j).argmax()}, "
                                 "a loop")
        inverse = np.full(params.n, -1, dtype=np.int32)
        inverse[h] = j
        if (inverse < 0).any():
            raise AssertionError(f"{name} does not permute the vertices: "
                                 f"no vertex maps to {(inverse < 0).argmax()}")
        nbrs[:, col] = h
        if mate[col] != col:
            nbrs[:, mate[col]] = inverse
    del verts, index, a, b, c, d
    nbrs.sort(axis=1)
    # Flat positions of the neighbours above their row's vertex, row-major.
    up = np.flatnonzero(nbrs > j[:, None])
    e = np.empty((len(up), 2), dtype=np.int64)
    np.floor_divide(up, p + 1, out=e[:, 0])
    e[:, 1] = nbrs.ravel()[up]
    x = Graph(params.n, _sorted_rows(e))
    if len(x.edges) != params.n * (p + 1) // 2 or not x.is_simple():
        raise AssertionError(f"X^{{{p},{q}}} is not ({p + 1})-regular simple")
    return x


# The named base graphs, name -> (regularity, vertex count), ascending in
# vertex count per regularity: the planner serves k = 3, 4, 5, where no LPS
# prime p* fits, from these.
LIBRARY = {
    "complete(4)": (3, 4),
    "petersen": (3, 10),
    "complete(5)": (4, 5),
    "complete(6)": (5, 6),
}


def library_shape(name: str) -> tuple[int, int]:
    """(regularity, vertex count) of the LIBRARY graph called name."""
    if not (isinstance(name, str) and name in LIBRARY):
        raise ValidationError(
            f"unknown graph name {name!r}; expected one of {tuple(LIBRARY)}")
    return LIBRARY[name]


def small_ramanujan(name: str) -> Graph:
    """The LIBRARY graph called name; every one meets the Ramanujan bound."""
    n = library_shape(name)[1]
    if name == "petersen":
        outer = [(v, (v + 1) % 5) for v in range(5)]
        spokes = [(v, v + 5) for v in range(5)]
        inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
        return from_edge_list(10, outer + spokes + inner)
    return from_edge_list(n, np.column_stack(np.triu_indices(n, 1)))
