"""Ramanujan base graphs: LPS Cayley graphs plus a small named library.

For distinct primes p, q = 1 (mod 4) with q > 2*sqrt(p), the (p+1)-regular
LPS graph X^{p,q} is the Cayley graph of PSL(2, q) or PGL(2, q) whose
connection set comes from the p + 1 four-square representations

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

Projective points are normalized by scaling so the first nonzero entry in
row-major order is 1, and vertices are numbered by sorting the normalized
4-tuples, so construction is deterministic regardless of how the group was
enumerated.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ValidationError
from .graph_core import Graph, from_edge_list
from .numtheory import four_square_generators, is_prime, legendre, sqrt_mod

_MatT = tuple[int, int, int, int]


@dataclass(frozen=True)
class LpsParams:
    """Resolved construction parameters for X^{p,q}."""

    p: int
    q: int
    legendre_sign: int
    group: str          # "PSL2" or "PGL2"
    n: int
    bipartite: bool


def lps_params(p: int, q: int) -> LpsParams:
    """Validate (p, q) and resolve group, size and bipartiteness."""
    for name, v in (("p", p), ("q", q)):
        if v < 5 or v % 4 != 1 or not is_prime(v):
            raise ValidationError(
                f"{name}={v} must be a prime = 1 (mod 4), at least 5")
    if p == q:
        raise ValidationError("p and q must be distinct")
    if q * q <= 4 * p:
        raise ValidationError(
            f"q={q} must exceed 2*sqrt(p)={2 * math.sqrt(p):.3f} "
            "for a simple loop-free graph")
    sign = legendre(p, q)
    if sign == 1:
        return LpsParams(p=p, q=q, legendre_sign=1, group="PSL2",
                         n=q * (q * q - 1) // 2, bipartite=False)
    return LpsParams(p=p, q=q, legendre_sign=-1, group="PGL2",
                     n=q * (q * q - 1), bipartite=True)


def _normalize(m: _MatT, q: int, inv: list[int]) -> _MatT:
    for entry in m:
        if entry:
            s = inv[entry]
            return (m[0] * s % q, m[1] * s % q, m[2] * s % q, m[3] * s % q)
    raise AssertionError("zero matrix cannot be normalized")


def _mul(a: _MatT, b: _MatT, q: int) -> _MatT:
    return ((a[0] * b[0] + a[1] * b[2]) % q,
            (a[0] * b[1] + a[1] * b[3]) % q,
            (a[2] * b[0] + a[3] * b[2]) % q,
            (a[2] * b[1] + a[3] * b[3]) % q)


def _generator_set(p: int, q: int, inv: list[int]) -> list[_MatT]:
    i = sqrt_mod(q - 1, q)
    gens = []
    for a0, a1, a2, a3 in four_square_generators(p):
        m = ((a0 + i * a1) % q, (a2 + i * a3) % q,
             (-a2 + i * a3) % q, (a0 - i * a1) % q)
        gens.append(_normalize(m, q, inv))
    distinct = sorted(set(gens))
    if len(distinct) != p + 1:
        raise AssertionError(
            f"generator set for ({p}, {q}) collapsed to {len(distinct)} points")
    return distinct


def _enumerate_by_filter(q: int, want_square_det: bool) -> list[_MatT]:
    """All normalized projective points, filtered by determinant class.

    Scaling multiplies the determinant by a square, so 'determinant is a
    nonzero square' is well defined on normalized representatives and picks
    out PSL(2, q) inside PGL(2, q).
    """
    squares = {x * x % q for x in range(1, q)}
    out: list[_MatT] = []
    for b in range(q):
        for c in range(q):
            for d in range(q):
                det = (d - b * c) % q
                if det == 0:
                    continue
                if not want_square_det or det in squares:
                    out.append((1, b, c, d))
    for c in range(1, q):
        want = (-c) % q in squares
        if not want_square_det or want:
            for d in range(q):
                out.append((0, 1, c, d))
    return out


def build_lps(p: int, q: int) -> Graph:
    """Construct X^{p,q} with deterministic vertex numbering.

    Vertices are the sorted normalized 4-tuples; vertex u is adjacent to
    s*u for each generator s.  The generator set is closed under projective
    inversion, so the relation is symmetric and every vertex has degree
    p + 1.
    """
    params = lps_params(p, q)
    inv = [0] * q
    for a in range(1, q):
        inv[a] = pow(a, q - 2, q)
    gens = _generator_set(p, q, inv)
    verts = sorted(_enumerate_by_filter(
        q, want_square_det=(params.legendre_sign == 1)))
    if len(verts) != params.n:
        raise AssertionError(
            f"enumerated {len(verts)} vertices for ({p}, {q}), "
            f"expected {params.n}")
    index = {t: j for j, t in enumerate(verts)}
    edges = []
    for j, g in enumerate(verts):
        for s in gens:
            h = index[_normalize(_mul(s, g, q), q, inv)]
            if j < h:
                edges.append((j, h))
            elif j == h:
                raise AssertionError(f"loop at vertex {j} in X^{{{p},{q}}}")
    x = from_edge_list(params.n, edges)
    if len(x.edges) != params.n * (p + 1) // 2 or not x.is_simple():
        raise AssertionError(f"X^{{{p},{q}}} is not ({p + 1})-regular simple")
    return x


_NAME_RE = re.compile(r"^(petersen|complete\((\d+)\)|cycle\((\d+)\))$")


def small_ramanujan(name: str) -> Graph:
    """Named small graphs meeting the Ramanujan bound.

    Supported: 'petersen' (3-regular, n=10), 'complete(n)' for n >= 2
    ((n-1)-regular), 'cycle(n)' for n >= 3 (2-regular).
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ValidationError(
            f"unknown graph name {name!r}; expected 'petersen', "
            "'complete(n)' or 'cycle(n)'")
    if m.group(2) is not None:
        n = int(m.group(2))
        if n < 2:
            raise ValidationError(f"complete graph needs n >= 2, got {n}")
        return from_edge_list(n, [(u, v) for u in range(n)
                                  for v in range(u + 1, n)])
    if m.group(3) is not None:
        n = int(m.group(3))
        if n < 3:
            raise ValidationError(f"cycle needs n >= 3, got {n}")
        return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])
    outer = [(v, (v + 1) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return from_edge_list(10, outer + spokes + inner)
