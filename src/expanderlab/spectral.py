"""Residual-checked extreme eigenvalues and spectral certificates.

extreme_eigs is the one eigensolver entry point and the one gate for what
can be certified: it returns lambda_1, lambda_2 and lambda_n of the
adjacency of a connected regular graph as a Spectrum, and refuses any
other graph with ValidationError, which certify passes on.  lambda_1 = k
exactly at every size, and the Lanczos recurrence below gives lambda_2
and lambda_n.  The method field names one of two size regimes:

- "iterative+inertia", n <= DENSE_THRESHOLD: these values, and two
  Cholesky factorizations, of Schur complements of about half the size
  where the graph allows, prove that no eigenvalue was missed.
- "iterative", n > DENSE_THRESHOLD: the same values from the same
  recurrence, without the proof; that the Ritz values are the extreme
  eigenvalues is then the recurrence's claim.

Every solve starts from a fixed, seeded vector, so repeated runs agree bit
for bit.  Every eigenpair is accepted only after an explicit residual check
against tol, with norms summed by np.sum so that no BLAS thread count
reaches their bits; failures raise ConvergenceError rather than degrading
silently.

The Lanczos recurrence.  A connected k-regular graph has lambda_1 = k with
the all-ones vector, so v1 = 1/sqrt(n) with residual 0, and every other
eigenvector is mean-free.  Let P be the projection that removes the mean.
lambda_2 and lambda_n are then the top and bottom eigenvalues of P A P on
the mean-free vectors, and one run of the plain three-term Lanczos
recurrence finds both, started from the seeded vector less its mean, with
no reorthogonalization and no stored basis.  The first pass keeps only
three scalars per step: the recurrence coefficients alpha_j and beta_j,
which form a tridiagonal T_m, and the mean mu_j it removes.  Every 8 steps
it takes the extreme eigenpairs (theta, y) of T_m, by LAPACK's bisection
dstebz and inverse iteration dstein, called directly, since each solve
costs O(m), and a Ritz pair converges once its Ritz estimate |beta_m y_m|
is at most machine epsilon times ||M||, where M is the operator and
||M|| <= k.  The basis loses orthogonality as Ritz values converge, but a
Ritz value with a small Ritz estimate is still accurate (Paige, Linear
Algebra Appl. 34, 1980).  The second pass rebuilds the same vectors, bit
for bit, and sums y_j q_j into each Ritz vector (Cullum and Willoughby,
Lanczos Algorithms for Large Symmetric Eigenvalue Computations, 1985).  It
replays the recorded scalars rather than reducing again: it applies M and
makes the same subtractions and division in the same order, so each q_j
keeps its bits without the three reductions of a step, and it stops at
the last q_j a Ritz vector uses, without applying M to it.  Every
reduction is an np.sum.  A poor Ritz vector can only fail the residual
check, never pass it.  Four rules keep the recurrence sound; each says
what the code did without it:

- Each end's (theta, y) is frozen at the step where its estimate
  converged, and the second pass sums each Ritz vector over its own m
  steps only.  A later T_m holds ghost copies of a converged Ritz value,
  among which its vector's weight is split: on construct(60, 1000),
  reading the lambda_2 pair from the T_m at which lambda_n converged, 168
  steps later, raised its residual from 9.8e-15 to 3.1e-13.
- The mean is removed from every new Lanczos vector, not only from the
  operator's output; otherwise rounding lets the all-ones vector back in,
  as an eigenvector of P A P for 0.  On K_65, where lambda_2 = -1, that
  gave lambda_2 = 0 and a residual of 64 once the next rule was missing
  too.
- A beta of at most machine epsilon times ||M|| is a breakdown, and the
  Ritz estimate is compared with that bound rather than with |theta|.  A
  spectrum of few distinct eigenvalues exhausts its Krylov space in as
  many steps, after which beta is rounding noise, not 0, and at theta = 0
  a rule relative to |theta| never holds: the complete tripartite
  K_{22,22,22}, lambda_2 = 0, ran 2000 steps.
- On the bipartite route below, a theta within rounding of 0 gives
  lambda_2 = 0 and no lift; K_{40,40} gave a residual of 31.

Past _LANCZOS_STEPS steps the recurrence raises ConvergenceError.  On
construct(7, 1000), n = 2184, it stops after 264 steps, 264 + 263 sparse
products in all.  On construct(8, 10000), n = 12 180, lambda_2 freezes
after 104 steps and lambda_n, which lies at the edge of the bulk of the
spectrum, after 376; on build_lps(5, 61), n = 113 460, both by 184.

Bipartite graphs.  Order the vertices of a bipartite graph side by side and
its adjacency is A = [[0, B], [B^T, 0]], whose spectrum is the singular
values of B and their negatives: (u, w) is an eigenvector for s exactly
when (u, -w) is one for -s.  For a connected k-regular bipartite graph
this gives lambda_n = -k (+1 on one side, -1 on the other) exactly, with
residual 0, and makes lambda_2 the largest singular value of B off the
all-ones vector.  One solve of half the size finds it: the largest
eigenvalue of P B B^T P on one side, found by the recurrence above with
M = B B^T and ||M|| <= k^2, is lambda_2^2.  Its Ritz vector u
lifts to (u, B^T u / lambda_2), and the residual is checked against A
itself.  On a complete bipartite graph, where lambda_2 = 0, P B B^T P is
the zero operator: the first step breaks down and u is the starting
vector.  On two vertices, k parallel edges, neither side has a mean-free
vector, and lambda_2 = lambda_n = -k with residual 0.  On
build_lps(5, 53), n/2 = 74 412, the recurrence stops after 88 steps, and
the two passes hold a few vectors of n/2 and no basis.  B is sliced from
the cached CSR adjacency, like every other block below, and B^T is its
transpose.

The completeness proof.  A Ritz value is an eigenvalue within its residual,
but not necessarily lambda_2.  Rayleigh-Ritz gives lambda_2(A) >= lambda2
and lambda_n(A) <= lambda_n for the iterative values.  For any vector v and
c >= 0, A - c v v^T is a rank-one positive semidefinite downdate of A, so
by interlacing lambda_2(A) <= lambda_max(A - c v v^T).  Hence if
(lambda2 + tol) I - A + c v1 v1^T, with v1 the lambda_1 eigenvector and
c = lambda1 - lambda2 + 1, has a Cholesky factorization (is positive
definite), then lambda_2(A) < lambda2 + tol.  A poor v1 can only make the
factorization fail, never let a wrong lambda2 pass.  Likewise a Cholesky
factorization of A - (lambda_n - tol) I shows lambda_n(A) > lambda_n - tol.
extreme_eigs passes v1 = 1/sqrt(n) and lambda1 = k.

Half-size Schur complements.  Where the graph allows, both claims are
proved on smaller matrices, about half the size on the paper's sparse
graphs.  If a symmetric K splits over a vertex set L and the rest R with
K_LL positive definite, then K is positive definite exactly when its
Schur complement K_RR - K_RL K_LL^-1 K_LR is (Haynsworth's
inertia additivity).  Let tau = lambda2 + tol and sigma = lambda_n - tol,
and let L induce a matching: every vertex of L has at most one neighbour
in L, counting multiplicity.  Then D1 = tau I - A_LL and D2 = A_LL - sigma I
are both s I + t A_LL (s = tau, t = -1 or s = -sigma, t = 1), made of
1 x 1 blocks s and 2 x 2 blocks [[s, t], [t, s]] with eigenvalues s and
s +- 1.  When tau >= 2 and -sigma >= 2 these are at least 1, so D1 and D2
are positive definite whatever the graph, and with h = 1/(s^2 - 1) and P
the projection onto the vertices paired in L their inverses are
D^-1 = I/s + P h/s - t h A_LL, of norm at most 1.  D1 + c v_L v_L^T is
positive definite too, and by the Sherman-Morrison formula the two
claims become that
  S1 = tau I - A_RR - A_RL D1^-1 A_LR + c' u u^T, with u = v_R + A_RL D1^-1 v_L
       and c' = c / (1 + c v_L^T D1^-1 v_L), and
  S2 = A_RR - sigma I - A_RL D2^-1 A_LR
are positive definite.  L is one side of a graph on the bipartite route,
whose induced subgraph has no edge at all, and otherwise the larger sign
class of the lambda_n Ritz vector, pruned in index order until its induced
degree is at most 1: a vector for the most negative eigenvalue puts most
edges across its sign classes.  Any L gives a valid proof; a poor one only
leaves R larger.  On construct(7, 1000), n = 2184 and |L| = 1092.  The
complements' entries grow with the squared degree of L's vertices, so L is
left empty, and K1 and K2 are factored whole, when the maximum degree
exceeds n/64.  On random k-regular graphs with n = 1024, 2048 and 4096 the
complements took 0.30 to 0.93 of the time of the whole factorizations
for k <= n/64, and 1.00 to 1.22 for k >= n/51; on construct(29, 1000)
(k = 29, n = 1092) and construct(60, 1000) (k = 60, n = 2448) they took
1.33 and 1.14 of it.  L is empty too when tau < 2 or -sigma < 2, where
D1 or D2 can be singular: a long cycle has lambda2 < 2, and a complete
bipartite graph lambda2 = 0, which would put 1/tau near 1/tol.

Every complement is held as its lower triangle in one buffer of
|R|(|R|+1)/2 doubles, rectangular full packed storage, and factored there
by LAPACK dpftrf, which works on level-3 BLAS like dpotrf; no |R| x |R|
array is formed.  The sparse parts go in by scatter: the complement is
t A_RR - Q/s - (h/s) Q_P + t h X plus s on the diagonal, with the exact
integer sparse matrices Q = A_RL A_LR, Q_P = A_RL P A_LR and
X = A_RL A_LL A_LR formed once for both claims.  The rank-one term goes
in through dsfrk.  Q, Q_P and X are exact, so each entry of a complement
is off by a few ulps, from four rounded products and their sum.  The
backward-error bound for Cholesky (Higham 2002, ch. 10),
gamma_{|R|+1} trace(S) / (1 - gamma), holds for any order of its inner
products; the tests check that it stays below tol on the paper's graphs.

Eigenvalues are ordered as a non-increasing multiset: lambda_1 >= lambda_2
>= ... >= lambda_n, so lambda_2 of a k-regular connected graph is the
quantity bounded by 2*sqrt(k-1) in a Ramanujan graph.

scipy is imported on first use, by the first CSR adjacency, tridiagonal
eigensolve or Cholesky factorization, not when this module is imported.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .errors import ConvergenceError, ValidationError
from .graph_core import Graph, bipartition, is_connected, regularity

DENSE_THRESHOLD = 4096
DEFAULT_TOL = 1e-8

# Seed for the Lanczos starting vector; fixed so iterative runs reproduce.
_V0_SEED = 1717

# The completeness proof eliminates a vertex set only when the maximum
# degree is at most n / _SCHUR_SPARSITY; the module docstring gives the
# measured crossover.
_SCHUR_SPARSITY = 64

# The Lanczos recurrence freezes a Ritz pair once its Ritz estimate is at
# most _EPS ||M||, checked every _CHECK_EVERY steps, and fails past
# _LANCZOS_STEPS steps; build_lps(5, 53) stops after 88.
_EPS = float(np.finfo(np.float64).eps)
_CHECK_EVERY = 8
_LANCZOS_STEPS = 2000


@dataclass(frozen=True)
class Spectrum:
    """The extreme adjacency eigenvalues lambda_1 >= lambda_2 and lambda_n,
    the worst residual the solver accepted, and its method (size regime)."""

    lambda1: float
    lambda2: float
    lambda_n: float
    residual: float
    method: str


def _norm(v: np.ndarray) -> float:
    # np.sum, not a BLAS dot: OpenBLAS splits dots above 10^4 entries
    # across its threads, and the last bits then follow the thread count.
    return math.sqrt(float(np.sum(v * v)))


def _residual(a, v: np.ndarray, value: float, tol: float) -> float:
    """|A v - value v| / |v|, norms by _norm; ConvergenceError if it
    exceeds tol."""
    res = _norm(a @ v - value * v) / _norm(v)
    if res > tol:
        raise ConvergenceError(
            f"iterative eigensolve residual {res:.3e} > tolerance {tol:.3e}")
    return res


def _lanczos(matvec, q: np.ndarray, scale: float):
    """The three-term Lanczos recurrence of P M P from the unit, mean-free
    vector q, without reorthogonalization.

    matvec applies the symmetric M, which maps the all-ones vector to a
    multiple of itself, and scale bounds ||M||; P removes the mean, from
    every new basis vector.  Yields, step after step, the basis vector q_j
    with alpha_j = q_j^T M q_j, beta_j, the norm of the next residual, and
    the mean mu_j removed from that residual, and ends after a beta of at
    most _EPS * scale, a breakdown.  Every reduction is an np.sum (see
    _norm), so a rerun from the same q yields the same bits at any thread
    count; it is called as np.add.reduce, without np.sum's Python wrapper,
    which costs as much as the sum itself at a few thousand entries.
    """
    prev, beta = np.zeros_like(q), 0.0
    tmp = np.empty_like(q)
    while True:
        w = matvec(q)
        w -= np.multiply(beta, prev, out=tmp)
        alpha = float(np.add.reduce(np.multiply(q, w, out=tmp)))
        w -= np.multiply(alpha, q, out=tmp)
        mean = np.add.reduce(w) / len(w)
        w -= mean
        beta = math.sqrt(float(np.add.reduce(np.multiply(w, w, out=tmp))))
        yield q, alpha, beta, mean
        if beta <= _EPS * scale:
            return
        w /= beta
        prev, q = q, w


def _replay(matvec, q: np.ndarray, scalars: list):
    """The q_j that _lanczos yielded from q with the m (alpha_j, beta_j,
    mu_j) in scalars, rebuilt without its reductions: the same products,
    subtractions and division in the same order keep their bits, and M is
    not applied to q_{m-1}, whose product no q_j needs."""
    prev, beta, tmp = np.zeros_like(q), 0.0, np.empty_like(q)
    yield q
    for alpha, beta_next, mean in scalars[:-1]:
        w = matvec(q)
        w -= np.multiply(beta, prev, out=tmp)
        w -= np.multiply(alpha, q, out=tmp)
        w -= mean
        w /= beta_next
        prev, q, beta = q, w, beta_next
        yield q


def _tridiagonal_pair(d: np.ndarray, e: np.ndarray,
                      i: int) -> tuple[float, np.ndarray]:
    """The i-th smallest eigenvalue of the symmetric tridiagonal matrix
    with diagonal d and off-diagonal e, and its unit eigenvector.

    Bisection by LAPACK dstebz, then inverse iteration by dstein: the calls
    scipy's eigh_tridiagonal(select="i") makes, with the same result bits,
    without the wrapper's argument checks, which cost as much as the
    solve at a few dozen steps.  A nonzero info raises ConvergenceError.
    """
    if len(d) == 1:  # LAPACK takes no empty e; T_1 is its own eigenvalue
        return float(d[0]), np.ones(1)
    from scipy.linalg import lapack

    _, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 0.0, i + 1,
                                               i + 1, 0.0, "B")
    if info == 0:
        y, info = lapack.dstein(d, e, w[:1], iblock, isplit)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolve failed (LAPACK "
                               f"info {info}) at m = {len(d)}")
    return float(w[0]), y[:, 0]


def _ritz_pairs(matvec, n: int, scale: float,
                ends: tuple[int, ...]) -> list[tuple[float, np.ndarray]]:
    """Extreme Ritz pairs of P M P on the mean-free vectors of length n.

    matvec and scale are those of _lanczos; ends holds -1 for the top
    pair, 0 for the bottom one.  The first pass records alpha_j, beta_j and
    mu_j, checks every _CHECK_EVERY steps, and at a breakdown, and freezes
    each end's (theta, y), from _tridiagonal_pair, once its Ritz estimate
    |beta_m y_m| is at most _EPS * scale.  The second pass, _replay,
    rebuilds the vectors from the recorded scalars, and each end's Ritz
    vector is summed over its own m steps (see the module docstring).
    Raises ConvergenceError past _LANCZOS_STEPS steps.
    """
    q = np.random.default_rng(_V0_SEED).standard_normal(n)
    q -= q.mean()
    q /= _norm(q)
    alphas, betas, means = [], [], []
    frozen: dict[int, tuple[float, np.ndarray]] = {}
    for m, (_, alpha, beta, mean) in enumerate(_lanczos(matvec, q, scale), 1):
        alphas.append(alpha)
        betas.append(beta)
        means.append(mean)
        if m % _CHECK_EVERY == 0 or beta <= _EPS * scale:
            d, e = np.array(alphas), np.array(betas[:-1])
            for end in set(ends) - set(frozen):
                # end % m is the index of the end among T_m's eigenvalues.
                theta, y = _tridiagonal_pair(d, e, end % m)
                if abs(beta * y[-1]) <= _EPS * scale:
                    frozen[end] = (theta, y)
            if len(frozen) == len(ends):
                break
        if m == _LANCZOS_STEPS:
            raise ConvergenceError(f"the Lanczos recurrence did not converge "
                                   f"in {m} steps")
    vecs = {end: np.zeros(n) for end in ends}
    tmp = np.empty(n)
    steps = max(len(y) for _, y in frozen.values())
    scalars = list(zip(alphas[:steps], betas, means))
    for j, qj in enumerate(_replay(matvec, q, scalars)):
        for end, (_, y) in frozen.items():
            if j < len(y):
                vecs[end] += np.multiply(y[j], qj, out=tmp)
    return [(frozen[end][0], vecs[end]) for end in ends]


def _bipartite_lambda2(x: Graph, k: int, sides: np.ndarray,
                       tol: float) -> tuple[float, float]:
    """lambda_2 of a connected k-regular bipartite graph and its residual.

    sides is the graph's bipartition; the module docstring derives the
    half-size operator P B B^T P, of norm at most k^2, and the lift of its
    top Ritz pair.  A Ritz value theta within _EPS k^2 of 0 is rounding
    noise and gives lambda_2 = 0, with no lift: B^T u / sqrt(theta) would
    blow the noise up.  On two vertices lambda_2 = -k, with residual 0.
    Raises ConvergenceError when the recurrence takes more than
    _LANCZOS_STEPS steps or the residual exceeds tol.
    """
    a = x.adjacency_sparse()
    left = sides == 0
    if np.count_nonzero(left) == 1:
        return -float(k), 0.0
    b = a[left][:, ~left]
    bt = b.T.tocsr()
    scale = float(k * k)
    ((theta, u),) = _ritz_pairs(lambda z: b @ (bt @ z), b.shape[0], scale,
                                (-1,))
    lambda2 = math.sqrt(theta) if theta > _EPS * scale else 0.0
    v = np.zeros(x.n)
    v[left] = u
    if lambda2 > 0.0:
        v[~left] = bt @ u / lambda2
    return lambda2, _residual(a, v, lambda2, tol)


def _prove_extremes(x: Graph, lambda1: float, lambda2: float,
                    lambda_n: float, v1: np.ndarray, vn: np.ndarray,
                    tol: float) -> None:
    """Check that no eigenvalue but one exceeds lambda2 + tol and none is
    below lambda_n - tol; raise ConvergenceError otherwise.

    lambda1 must be within tol of an eigenvalue (extreme_eigs passes k,
    with the all-ones v1); v1 and vn are the lambda1 and lambda_n Ritz
    vectors.  The claims are that K1 = tau I - A + c v1 v1^T, with
    tau = lambda2 + tol and c = lambda1 - lambda2 + 1, and K2 = A - sigma I,
    with sigma = lambda_n - tol, are positive definite.  Each is proved by
    Cholesky of its Schur complement on the vertices R outside
    L = _matching_side(a, vn), or of itself when L is empty (see the module
    docstring), held in one packed buffer of |R|(|R|+1)/2 doubles (see
    _packed_index).
    """
    from scipy.linalg import lapack

    a = x.adjacency_sparse()
    tau, sigma = lambda2 + tol, lambda_n - tol
    if (tau >= 2.0 and -sigma >= 2.0
            and _SCHUR_SPARSITY * int(x.degrees().max()) <= x.n):
        left = _matching_side(a, vn)
    else:
        left = np.empty(0, dtype=np.int64)
    right = np.setdiff1d(np.arange(x.n), left, assume_unique=True)
    r = len(right)
    rows = a[left]
    a_ll, a_lr = rows[:, left], rows[:, right]
    a_rl = a_lr.T.tocsr()
    paired = np.diff(a_ll.indptr) > 0
    # With D = s I + t A_LL, D^-1 = I/s + P h/s - t h A_LL (module
    # docstring), so a complement sums four exact integer matrices.
    parts = [_lower_packed(r, m) for m in (
        (a[right][:, right], a_rl @ a_lr, a_rl[:, paired] @ a_lr[paired],
         a_rl @ (a_ll @ a_lr)) if len(left) else (a,))]
    diag = _packed_index(r, np.arange(r), np.arange(r))
    buf = np.zeros(r * (r + 1) // 2)

    def complement(s: float, t: float) -> None:
        """Add s I + t A_RR - A_RL D^-1 A_LR to buf's lower triangle."""
        coefs = [t]
        if len(left):
            h = 1.0 / (s * s - 1.0)
            coefs += [-1.0 / s, -h / s, t * h]
        for (at, entries), coef in zip(parts, coefs):
            buf[at] += coef * entries
        buf[diag] += s

    complement(tau, -1.0)
    u, c = v1[right], lambda1 - lambda2 + 1.0
    if len(left):
        v_l, h = v1[left], 1.0 / (tau * tau - 1.0)
        w = v_l / tau + paired * v_l * (h / tau) + h * (a_ll @ v_l)
        u = u + a_rl @ w
        c /= 1.0 + c * float(v_l @ w)
    lapack.dsfrk(r, 1, c, u.reshape(r, 1), 1.0, buf, transr="N", uplo="L",
                 overwrite_c=1)
    _factor(buf, r, f"an eigenvalue other than lambda_1 exceeds "
                    f"lambda_2 + tol = {tau!r}")
    buf[:] = 0.0
    complement(-sigma, 1.0)
    _factor(buf, r, f"an eigenvalue is below lambda_n - tol = {sigma!r}")


def _lower_packed(r: int, m) -> tuple[np.ndarray, np.ndarray]:
    """The packed positions (see _packed_index) and the entries of the
    lower triangle of the sparse symmetric r x r matrix m, grouped by
    column, which keeps the scatter into the packed buffer local."""
    m = m.tocsr().tocoo()
    # Row j of m's upper triangle is column j of its lower triangle.
    up = m.row <= m.col
    return _packed_index(r, m.col[up], m.row[up]), m.data[up]


def _matching_side(a, vn: np.ndarray) -> np.ndarray:
    """A vertex set L, ascending, whose induced subgraph is a matching.

    a is the adjacency.  L is the larger sign class of vn (a tie takes
    vn > 0), pruned in index order: a vertex stays when it and each vertex
    kept before it have induced degree at most 1, counting multiplicity.
    """
    pos = vn > 0
    side = np.flatnonzero(pos if 2 * np.count_nonzero(pos) >= len(vn)
                          else ~pos)
    inner = a[side][:, side]
    deg = np.asarray(inner.sum(axis=1)).ravel()
    # Isolated vertices and isolated edges of the class stay in any order,
    # and no other vertex of the class is next to them.
    keep = ((deg <= 1) & (inner @ deg <= 1)).tolist()
    ptr, cols = inner.indptr.tolist(), inner.indices.tolist()
    mult = inner.data.tolist()
    load = [0.0] * len(side)  # induced degree among the vertices kept
    for i in [i for i, kept in enumerate(keep) if not kept]:
        edges = range(ptr[i], ptr[i + 1])
        if load[i] <= 1 and not any(
                keep[cols[e]] and load[cols[e]] + mult[e] > 1 for e in edges):
            keep[i] = True
            for e in edges:
                load[cols[e]] += mult[e]
    return side[np.array(keep, dtype=bool)]


def _packed_index(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Where entry (i, j), i >= j, of a symmetric n x n matrix sits in
    rectangular full packed storage with transr='N' and uplo='L'.

    That storage holds the lower triangle in n(n+1)/2 doubles, which
    LAPACK's dpftrf factors with level-3 BLAS (Gustavson, Wasniewski,
    Dongarra and Langou, ACM TOMS 37(2), 2010).
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if n % 2 == 0:
        h = n // 2
        return np.where(j < h, i + 1 + j * (n + 1), j - h + (i - h) * (n + 1))
    h = (n + 1) // 2
    return np.where(j < h, i + j * n, j - h + (i - h + 1) * n)


def _factor(buf: np.ndarray, n: int, claim: str) -> None:
    """Cholesky of the packed buffer in place; ConvergenceError naming the
    claim if it is not positive definite."""
    from scipy.linalg import lapack

    _, info = lapack.dpftrf(n, buf, transr="N", uplo="L", overwrite_a=1)
    if info < 0:
        raise ValueError(f"dpftrf: argument {-info} is illegal")
    if info > 0:
        raise ConvergenceError(f"{claim} ({info}-th leading minor of the "
                               f"array is not positive definite)")


def extreme_eigs(x: Graph, *, tol: float = DEFAULT_TOL) -> Spectrum:
    """lambda_1, lambda_2 and lambda_n of x, residual-checked.

    x must be connected and regular with at least two vertices; any other
    graph raises ValidationError, and this is the check certify relies on.
    lambda_1 = k exactly, and lambda_2 comes from the Lanczos recurrence on
    the mean-free vectors: on a half-size operator for a bipartite graph,
    whose lambda_n = -k, and otherwise on A, where the same run also gives
    lambda_n.  Up to DENSE_THRESHOLD the values are also proved complete by
    _prove_extremes (see the module docstring).
    """
    k = regularity(x)
    if x.n < 2 or k is None or not is_connected(x):
        raise ValidationError("certification needs a connected regular "
                              "graph of at least two vertices")
    sides = bipartition(x)
    if sides is not None:
        lambda2, res = _bipartite_lambda2(x, k, sides, tol)
        # The lambda_n eigenvector: its sign classes are the two sides.
        lambda_n, vn = -float(k), np.where(sides == 0, 1.0, -1.0)
    else:
        a = x.adjacency_sparse()
        pairs = _ritz_pairs(lambda z: a @ z, x.n, float(k), (-1, 0))
        res = max(_residual(a, v, theta, tol) for theta, v in pairs)
        (lambda2, _), (lambda_n, vn) = pairs
    if x.n > DENSE_THRESHOLD:
        return Spectrum(float(k), lambda2, lambda_n, res, "iterative")
    v1 = np.full(x.n, 1.0 / math.sqrt(x.n))
    _prove_extremes(x, float(k), lambda2, lambda_n, v1, vn, tol)
    return Spectrum(float(k), lambda2, lambda_n, res, "iterative+inertia")


@dataclass(frozen=True)
class SpectralCertificate:
    """Machine-checkable record of a graph's spectral certification.

    Serialization is canonical (sorted keys, fixed indentation, no
    timestamps), so identical inputs produce byte-identical certificates.
    """

    version: str
    k: int
    n: int
    provenance: tuple[dict, ...]
    lambda1: float
    lambda2: float
    lambda_n: float
    spectral_gap: float
    ramanujan: bool
    bipartite: bool
    residual: float
    method: str
    bounds: tuple[dict, ...] = field(default_factory=tuple)
    expansion: dict | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SpectralCertificate":
        """Parse to_json output; any other shape raises ValidationError.

        The keys must be exactly the field names, each scalar field must
        hold its declared type (a bool is not an int), provenance and
        bounds must be lists of objects and expansion an object or null.
        NaN, Infinity and -Infinity, which json.loads accepts by default
        but JSON does not define, are refused.
        """
        def refuse(name: str):
            raise ValidationError(f"certificate holds non-JSON constant {name}")

        try:
            d = json.loads(text, parse_constant=refuse)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"certificate is not JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ValidationError("certificate must be a JSON object")
        names = {f.name for f in fields(cls)}
        if set(d) != names:
            raise ValidationError(
                f"certificate keys: missing {sorted(names - set(d))}, "
                f"unknown {sorted(set(d) - names)}")
        for name, want in get_type_hints(cls).items():
            if want in (str, int, float, bool) and type(d[name]) is not want:
                raise ValidationError(f"certificate {name} must be of type "
                                      f"{want.__name__}, got {d[name]!r}")
        for name in ("provenance", "bounds"):
            if not (isinstance(d[name], list)
                    and all(isinstance(e, dict) for e in d[name])):
                raise ValidationError(f"certificate {name} must be a list "
                                      f"of objects")
        if not isinstance(d["expansion"], (dict, type(None))):
            raise ValidationError("certificate expansion must be an object "
                                  "or null")
        return cls(**{**d, "provenance": tuple(d["provenance"]),
                      "bounds": tuple(d["bounds"])})

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_json())
