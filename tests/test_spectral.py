import functools
import itertools
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import (
    SpectralCertificate,
    build_lps,
    cartesian_k2,
    certify,
    construct,
    extreme_eigs,
    is_bipartite,
    is_connected,
    regularity,
    spectral,
)
from expanderlab.errors import ConvergenceError, ValidationError
from expanderlab.graph_core import Graph, bipartition, from_edge_list
from expanderlab.ramanujan_base import LIBRARY, small_ramanujan
from expanderlab.spectral import (
    DEFAULT_TOL,
    DENSE_THRESHOLD,
    _V0_SEED,
    Spectrum,
    _bipartite_lambda2,
    _matching_side,
    _packed_index,
    _prove_extremes,
    _ritz_pairs,
    _tridiagonal_pair,
)
from helpers import (
    adjacency_matrix,
    arpack_lambda_n,
    complete_bipartite,
    complete_multipartite,
    cycle,
    double_cover,
    eigvalsh,
    hypercube,
    k4,
    matching_side,
    parallel_k2,
    path,
    petersen,
    product_spectrum_oracle,
    proof_matrices,
    random_regular,
    script_env,
    stored_basis_ritz_pairs,
    two_triangles,
    weyl_check,
)


# -- spectrum: known values -----------------------------------------------------


def test_spectrum_k4():
    assert np.allclose(eigvalsh(k4()), [3, -1, -1, -1], atol=1e-9)
    s = extreme_eigs(k4())
    assert s.method == "iterative+inertia"
    assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx(
        (3, -1, -1), abs=1e-12)
    assert s.residual <= 1e-15


def test_spectrum_c6():
    assert np.allclose(eigvalsh(cycle(6)), [2, 1, 1, -1, -1, -2], atol=1e-9)


def test_spectrum_petersen():
    want = [3] + [1] * 5 + [-2] * 4
    assert np.allclose(eigvalsh(petersen()), want, atol=1e-9)


def test_petersen_charpoly_crosscheck():
    # (x - 3) * (x - 1)^5 * (x + 2)^4 expanded vs numpy's characteristic poly.
    from numpy.polynomial import polynomial as P
    want = P.polypow([-3, 1], 1)
    want = P.polymul(want, P.polypow([-1, 1], 5))
    want = P.polymul(want, P.polypow([2, 1], 4))
    got = np.poly(adjacency_matrix(petersen()))[::-1]  # ascending coeffs
    assert np.allclose(got, want, atol=1e-6)


def test_spectrum_invariants():
    for x in (k4(), cycle(6), petersen(), cartesian_k2(petersen())):
        values = eigvalsh(x)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert abs(values.sum()) <= 1e-8 * max(1, x.n)
        assert len(values) == x.n
        s = extreme_eigs(x)
        assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx(
            (values[0], values[1], values[-1]), abs=1e-9)


def test_spectrum_guards():
    with pytest.raises(ValidationError):
        extreme_eigs(from_edge_list(0, []))


# -- extreme_eigs --------------------------------------------------------------------


_SMALL_GRAPHS = (
    [pytest.param(lambda n=n: cycle(n), id=f"C{n}") for n in range(3, 65)]
    + [pytest.param(lambda n=n: complete_multipartite(n, 1), id=f"K{n}")
       for n in range(3, 65)]
    + [pytest.param(lambda a=a: complete_bipartite(a), id=f"K{a},{a}")
       for a in range(1, 33)]
    + [pytest.param(lambda m=m: parallel_k2(m), id=f"K2x{m}")
       for m in range(1, 5)]
    + [pytest.param(lambda: hypercube(6), id="Q6")]
    + [pytest.param(lambda name=name: small_ramanujan(name), id=name)
       for name in LIBRARY])


@pytest.mark.parametrize("make", _SMALL_GRAPHS)
def test_small_graphs_match_eigvalsh(make):
    # Every size takes the recurrence and the Cholesky proof, down to two
    # vertices, where neither side of the bipartite route has a mean-free
    # vector.
    x = make()
    w = eigvalsh(x)
    s = extreme_eigs(x)
    assert s.method == "iterative+inertia"
    assert s.lambda1 == float(regularity(x))
    assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx(
        (w[0], w[1], w[-1]), abs=1e-12)
    assert s.residual <= DEFAULT_TOL


def test_extreme_eigs_small_graphs():
    s = extreme_eigs(k4())
    assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx((3, -1, -1), abs=1e-9)
    s = extreme_eigs(cycle(6))
    assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx((2, 1, -2), abs=1e-9)


def _lanczos_route(x: Graph) -> tuple[float, float, float, np.ndarray,
                                         np.ndarray]:
    """lambda_1, lambda_2 and lambda_n of a connected regular graph, with
    the lambda_1 and lambda_n vectors, as extreme_eigs finds them on a graph
    that is not bipartite, up to DENSE_THRESHOLD."""
    a = x.adjacency_sparse()
    k = regularity(x)
    (lambda2, _), (lambda_n, vn) = _ritz_pairs(lambda z: a @ z, x.n, k,
                                               (-1, 0))
    return float(k), lambda2, lambda_n, np.full(x.n, x.n ** -0.5), vn


def test_iterative_agrees_with_dense(x513):
    # The recurrence on the mean-free vectors finds lambda_2 and lambda_n
    # of any connected regular graph, bipartite or not, and so does
    # ARPACK's "SA", the reference past eigvalsh's reach.
    dense = eigvalsh(x513)
    _, lambda2, lambda_n, _, _ = _lanczos_route(x513)
    assert abs(lambda2 - dense[1]) <= 1e-12
    assert abs(lambda_n - dense[-1]) <= 1e-12
    assert abs(arpack_lambda_n(x513) - dense[-1]) <= 1e-12


def test_top_eigs_guards():
    # lambda_2 needs at least two vertices; K2 is the smallest graph accepted.
    with pytest.raises(ValidationError):
        extreme_eigs(from_edge_list(1, []))
    s = extreme_eigs(from_edge_list(2, [(0, 1)]))
    assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx((1, -1, -1), abs=1e-9)


def test_iterative_unreachable_tolerance_raises(monkeypatch):
    x = cartesian_k2(cycle(41))  # n = 82, not bipartite
    assert not is_bipartite(x)
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    with pytest.raises(ConvergenceError, match="residual"):
        extreme_eigs(x)


def test_small_graph_unreachable_tolerance_raises(monkeypatch):
    # Petersen, n = 10, takes the recurrence like any other graph, and its
    # residual check refuses a tolerance no eigenpair meets.
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    with pytest.raises(ConvergenceError, match="residual"):
        extreme_eigs(petersen())


def test_extreme_eigs_dispatch(x513, monkeypatch):
    # The method follows n alone: the proof runs up to DENSE_THRESHOLD, on
    # ten vertices as on 2184, and nowhere past it.
    s = extreme_eigs(petersen())
    assert s.method == "iterative+inertia"
    assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx((3, 1, -2), abs=1e-9)
    s = extreme_eigs(x513)
    assert s.method == "iterative+inertia"  # 2184 <= 4096
    assert s.lambda1 == 6.0
    assert s.lambda_n == pytest.approx(-6, abs=1e-9)
    monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 9)
    s = extreme_eigs(petersen())
    assert s.method == "iterative"
    assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx((3, 1, -2), abs=1e-9)


def test_inertia_path_matches_dense(x513, x1317):
    graphs = (x513, x1317, construct(7, 1000)[0], construct(29, 1000)[0])
    for x in graphs:
        assert x.n <= DENSE_THRESHOLD
        s = extreme_eigs(x)
        assert s.method == "iterative+inertia"
        w = eigvalsh(x)
        assert abs(s.lambda1 - w[0]) <= 1e-12
        assert abs(s.lambda2 - w[1]) <= 1e-12
        assert abs(s.lambda_n - w[-1]) <= 1e-12


@pytest.fixture(scope="module")
def exact_pairs():
    """Regular graphs with their full eigendecompositions, non-increasing.

    The packed layout differs with the parity of its size, so the proof
    factors Schur complements of odd size (a 3-regular graph on 256
    vertices) and of even size (a 4-regular one on 258), and, where
    64 k > n leaves L empty, whole matrices of even size (a 5-regular
    graph on 128 vertices) and of odd size (a 6-regular one on 131)."""
    pairs = []
    for k, n in ((3, 256), (4, 258), (5, 128), (6, 131)):
        x = random_regular(k, n, 7)
        w, vecs = np.linalg.eigh(adjacency_matrix(x))
        pairs.append((x, w[::-1], vecs[:, ::-1]))
    sizes = [len(_expected_right(x, w[0], w[1], w[-1], vecs[:, -1]))
             for x, w, vecs in pairs]
    assert sizes == [129, 144, 128, 131]
    return pairs


def _expected_right(x: Graph, lambda1: float, lambda2: float,
                    lambda_n: float, vn: np.ndarray) -> list[int]:
    """The vertices the proof keeps, by the rule the spectral module
    docstring states and helpers.matching_side; lambda1 stands for the
    degree k of the regular graph x."""
    left = matching_side(x, vn)
    if (lambda2 + DEFAULT_TOL < 2 or lambda_n - DEFAULT_TOL > -2
            or 64 * lambda1 > x.n):
        left = []
    return [v for v in range(x.n) if v not in set(left)]


@pytest.fixture
def factored(monkeypatch) -> list[tuple[int, float]]:
    """The size and trace of every packed matrix handed to Cholesky from
    now on."""
    calls: list[tuple[int, float]] = []
    factor = spectral._factor

    def recording(buf: np.ndarray, n: int, claim: str) -> None:
        diagonal = _packed_index(n, np.arange(n), np.arange(n))
        calls.append((n, float(buf[diagonal].sum())))
        factor(buf, n, claim)

    monkeypatch.setattr(spectral, "_factor", recording)
    return calls


# The proof takes two factorizations when it accepts.  A failed lambda_2
# factorization stops before lambda_n's.


def test_proof_accepts_exact_extremes(exact_pairs, factored):
    for x, w, vecs in exact_pairs:
        factored.clear()
        _prove_extremes(x, w[0], w[1], w[-1], vecs[:, 0], vecs[:, -1],
                        DEFAULT_TOL)
        assert len(factored) == 2


def test_proof_rejects_low_lambda2(exact_pairs, factored):
    for x, w, vecs in exact_pairs:
        factored.clear()
        with pytest.raises(ConvergenceError, match="lambda_2"):
            _prove_extremes(x, w[0], w[1] - 1e-3, w[-1], vecs[:, 0],
                            vecs[:, -1], DEFAULT_TOL)
        assert len(factored) == 1


def test_proof_rejects_third_distinct_eigenvalue(exact_pairs, factored):
    for x, w, vecs in exact_pairs:
        distinct = [w[0]]
        for t in w[1:]:
            if t < distinct[-1] - 1e-6:
                distinct.append(t)
        factored.clear()
        with pytest.raises(ConvergenceError, match="lambda_2"):
            _prove_extremes(x, w[0], distinct[2], w[-1], vecs[:, 0],
                            vecs[:, -1], DEFAULT_TOL)
        assert len(factored) == 1


def test_proof_rejects_high_lambda_n(exact_pairs, factored):
    for x, w, vecs in exact_pairs:
        factored.clear()
        with pytest.raises(ConvergenceError, match="lambda_n"):
            _prove_extremes(x, w[0], w[1], w[-1] + 1e-3, vecs[:, 0],
                            vecs[:, -1], DEFAULT_TOL)
        assert len(factored) == 2


def test_proof_random_vector_never_passes_wrong_lambda2(exact_pairs, factored):
    # Interlacing holds for any v1, and Haynsworth's additivity for any L,
    # so poor Ritz vectors can only fail the proof.
    rng = np.random.default_rng(59)
    for x, w, vecs in exact_pairs:
        for trial in range(10):
            v = rng.standard_normal(x.n)
            v /= np.linalg.norm(v)
            vn = vecs[:, -1] if trial % 2 else rng.standard_normal(x.n)
            for wrong in (w[1] - 1e-3, w[2] - 1e-3):
                factored.clear()
                with pytest.raises(ConvergenceError, match="lambda_2"):
                    _prove_extremes(x, w[0], wrong, w[-1], v, vn,
                                    DEFAULT_TOL)
                assert len(factored) == 1


def test_matching_side_matches_the_plain_walk(exact_pairs, construct_1000):
    rng = np.random.default_rng(61)
    graphs = [x for x, *_ in exact_pairs] + [construct_1000[12][0]]
    for x in graphs:
        a = x.adjacency_sparse()
        for vn in (rng.standard_normal(x.n), -np.ones(x.n), np.ones(x.n),
                   np.arange(x.n) % 3 - 1.0):
            left = _matching_side(a, vn)
            assert left.tolist() == matching_side(x, vn)
            inner = a[left][:, left]
            assert np.asarray(inner.sum(axis=1)).max(initial=0) <= 1


@pytest.mark.parametrize("n", range(1, 13))
def test_packed_index_matches_dtrttf(n):
    from scipy.linalg import lapack

    full = np.arange(1.0, n * n + 1).reshape(n, n, order="F")
    packed, info = lapack.dtrttf(full, transr="N", uplo="L")
    i, j = np.tril_indices(n)
    at = _packed_index(n, i, j)
    assert info == 0
    assert np.array_equal(np.sort(at), np.arange(n * (n + 1) // 2))
    assert np.array_equal(packed[at], full[i, j])


def test_packed_fill_matches_the_dense_recipe(exact_pairs, monkeypatch):
    # lambda_n + 1e-3 fails, so the proof factors both matrices: Schur
    # complements of odd and even size, and whole matrices of both parities.
    from scipy.linalg import lapack

    seen: list[np.ndarray] = []
    factor = spectral._factor

    def unpacking(buf: np.ndarray, n: int, claim: str) -> None:
        seen.append(lapack.dtfttr(n, buf, transr="N", uplo="L")[0])
        factor(buf, n, claim)

    monkeypatch.setattr(spectral, "_factor", unpacking)
    for x, w, vecs in exact_pairs:
        values = (w[0], w[1], w[-1] + 1e-3, vecs[:, 0])
        seen.clear()
        with pytest.raises(ConvergenceError, match="lambda_n"):
            _prove_extremes(x, *values, vecs[:, -1], DEFAULT_TOL)
        right = _expected_right(x, *values[:3], vecs[:, -1])
        left = [v for v in range(x.n) if v not in set(right)]
        want = proof_matrices(x, *values, DEFAULT_TOL, left)
        assert [len(got) for got in seen] == [len(right)] * 2
        for got, b in zip(seen, want):
            np.testing.assert_allclose(np.tril(got), np.tril(b), rtol=0,
                                       atol=4 * np.spacing(np.abs(b).max()))


# -- where the proof eliminates ------------------------------------------------------


@pytest.fixture(scope="module")
def construct_1000():
    """construct(k, 1000) for k = 6 (bipartite), 7 and 12, whose proofs
    eliminate a vertex set, and k = 29 and 60, whose 64 k > n does not."""
    return {k: construct(k, 1000) for k in (6, 7, 12, 29, 60)}


def test_proof_route_factorization_counts(factored, construct_1000):
    # construct(7, 1000) eliminates a pruned sign class of the lambda_n
    # Ritz vector and construct(6, 1000), which is bipartite, one side.
    cases = ((7, 1092), (6, 1092), (29, 1092))
    for k, size in cases:
        x = construct_1000[k][0]
        assert x.n == (1092 if k == 29 else 2184)
        factored.clear()
        assert extreme_eigs(x).method == "iterative+inertia"
        assert [n for n, _ in factored] == [size, size]
    assert is_bipartite(construct_1000[6][0])
    assert not is_bipartite(construct_1000[7][0])


@pytest.mark.parametrize("x", [complete_bipartite(40), cycle(101)],
                         ids=["complete-bipartite", "cycle"])
def test_proof_keeps_full_size_below_shift_two(x, factored, monkeypatch):
    # K_{40,40} has lambda_2 = 0 and the 101-cycle lambda_2 < 2, so tau < 2
    # and the proof factors K1 and K2 whole, and still passes.  Both fail
    # the degree rule too (64 k > n), so it is switched off here.
    monkeypatch.setattr(spectral, "_SCHUR_SPARSITY", 1)
    s = extreme_eigs(x)
    w = eigvalsh(x)
    assert s.method == "iterative+inertia"
    assert s.lambda2 + DEFAULT_TOL < 2
    assert [n for n, _ in factored] == [x.n, x.n]
    assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx(
        (w[0], w[1], w[-1]), abs=1e-9)


def test_proof_of_a_degenerate_gap(factored):
    # Two disjoint copies: lambda_1 = lambda_2 = 5, so the rank-one term
    # adds c = 1 and the lambda_2 claim rests on the complement alone.
    # extreme_eigs refuses a graph that is not connected, so the proof runs
    # on the exact extremes.
    half = random_regular(5, 512, 11)
    x = from_edge_list(2 * half.n,
                       np.concatenate([half.edges, half.edges + half.n]))
    assert x.n <= DENSE_THRESHOLD and 64 * 5 <= x.n
    w, vecs = np.linalg.eigh(adjacency_matrix(x))
    assert abs(w[-1] - w[-2]) <= 1e-9
    _prove_extremes(x, w[-1], w[-2], w[0], vecs[:, -1], vecs[:, 0],
                    DEFAULT_TOL)
    assert len(factored) == 2 and factored[0][0] < x.n
    with pytest.raises(ValidationError, match="connected regular"):
        extreme_eigs(x)


@pytest.mark.parametrize("k", [7, 12])
def test_schur_rounding_slack_is_below_tol(k, construct_1000, factored):
    # Higham's Cholesky backward error: success proves S + dS positive
    # definite with ||dS||_2 <= gamma_{|R|+1} trace(S) / (1 - gamma).  The
    # margin of S, as of the K it complements, is about tol.
    x = construct_1000[k][0]
    tol = DEFAULT_TOL
    lambda1, lambda2, lambda_n, v1, vn = _lanczos_route(x)
    _prove_extremes(x, lambda1, lambda2, lambda_n, v1, vn, tol)
    size = len(_expected_right(x, lambda1, lambda2, lambda_n, vn))
    assert size < x.n and len(factored) == 2
    u = 2.0 ** -53
    for r, trace_s in factored:
        assert r == size
        gamma = (r + 1) * u / (1 - (r + 1) * u)
        slack = gamma * trace_s / (1 - gamma)
        assert 0 < slack < tol


def test_proof_allocates_no_square_array(construct_1000):
    # The packed buffer holds |R|(|R|+1)/2 doubles, |R| = n/2 here: an
    # eighth of one n x n array.
    x = construct_1000[7][0]
    lambda1, lambda2, lambda_n, v1, vn = _lanczos_route(x)
    tracemalloc.start()
    try:
        _prove_extremes(x, lambda1, lambda2, lambda_n, v1, vn, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * 8 * x.n * x.n


@given(st.integers(3, 8), st.integers(65, 512), st.integers(0, 2**16))
def test_extreme_eigs_random_regular_mid_size(k, n, seed):
    n += (n * k) % 2
    x = random_regular(k, n, seed)
    s = extreme_eigs(x)
    w = eigvalsh(x)
    assert s.method == "iterative+inertia"
    assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx(
        (w[0], w[1], w[-1]), abs=1e-9)


# -- spectral gap / Ramanujan verdict of the certificate -------------------------------


def test_spectral_gap_examples():
    assert certify(k4()).spectral_gap == pytest.approx(4, abs=1e-9)
    assert certify(petersen()).spectral_gap == pytest.approx(2, abs=1e-9)
    assert certify(cycle(4)).spectral_gap == pytest.approx(2, abs=1e-9)


def test_spectral_gap_guards():
    with pytest.raises(ValidationError):
        certify(path(3))
    with pytest.raises(ValidationError):
        certify(two_triangles())


def test_is_ramanujan_positive_cases():
    for x in (k4(), cycle(4), cycle(6), petersen(), cartesian_k2(k4())):
        assert certify(x).ramanujan


def test_is_ramanujan_negative_case():
    # Prism over C24: lambda_2 = 2*cos(pi/12) + 1 > 2*sqrt(2).
    x = cartesian_k2(cycle(24))
    lam2 = extreme_eigs(x).lambda2
    assert lam2 > 2 * math.sqrt(2) + 1e-6
    assert not certify(x).ramanujan


def test_is_ramanujan_guards():
    with pytest.raises(ValidationError):
        certify(path(3))
    with pytest.raises(ValidationError):
        certify(two_triangles())


# -- product law ---------------------------------------------------------------------


def test_product_oracle_k4():
    rep = product_spectrum_oracle(k4())
    assert rep["max_deviation"] <= 1e-8
    assert rep["lambda2_product"] == pytest.approx(2.0, abs=1e-9)
    assert rep["lambda1_minus_one"] == pytest.approx(2.0, abs=1e-9)
    assert rep["lambda2_plus_one"] == pytest.approx(0.0, abs=1e-9)
    assert rep["product_law_lambda2"] == pytest.approx(2.0, abs=1e-9)


def test_product_oracle_c6():
    rep = product_spectrum_oracle(cycle(6))
    assert rep["max_deviation"] <= 1e-8
    # both branches tie: lambda_2 + 1 = 2 = lambda_1 - 1
    assert rep["lambda2_product"] == pytest.approx(2.0, abs=1e-9)


def test_product_oracle_k2():
    rep = product_spectrum_oracle(from_edge_list(2, [(0, 1)]))
    assert rep["lambda2_product"] == pytest.approx(0.0, abs=1e-9)
    assert rep["product_law_lambda2"] == pytest.approx(0.0, abs=1e-9)


def test_product_law_random_regular():
    rng = np.random.default_rng(41)
    for seed in range(15):
        k = int(rng.integers(3, 7))
        n = int(rng.integers(k + 2, 40))
        if (n * k) % 2 == 1:
            n += 1
        x = random_regular(k, n, seed)
        rep = product_spectrum_oracle(x)
        assert rep["max_deviation"] <= 1e-8
        assert rep["lambda2_product"] == pytest.approx(
            rep["product_law_lambda2"], abs=1e-8)


# -- weyl_check ------------------------------------------------------------------------


def test_weyl_diagonal_exact():
    a = np.diag([5.0, 3.0, 1.0])
    b = np.eye(3)
    rep = weyl_check(a, b, 2)
    assert rep["holds"]
    assert rep["upper_slack"] == pytest.approx(0.0, abs=1e-9)
    assert rep["lower_slack"] == pytest.approx(0.0, abs=1e-9)


def test_weyl_kron_tie_case():
    # A = adj(K4) x I2, B = I4 x adj(K2): A + B is the product graph's
    # adjacency and the lower inequality is tight at i = 2.
    a = np.kron(adjacency_matrix(k4()), np.eye(2))
    b = np.kron(np.eye(4), np.array([[0.0, 1.0], [1.0, 0.0]]))
    rep = weyl_check(a, b, 2)
    assert rep["holds"]
    assert rep["value"] == pytest.approx(2.0, abs=1e-9)
    assert rep["lower_slack"] == pytest.approx(0.0, abs=1e-9)


def test_weyl_random_pairs():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(2, 31))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        a = a + a.T
        b = b + b.T
        i = int(rng.integers(1, n + 1))
        assert weyl_check(a, b, i)["holds"]


def test_weyl_guards():
    sym = np.eye(3)
    asym = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ValidationError):
        weyl_check(asym, sym, 1)
    with pytest.raises(ValidationError):
        weyl_check(sym, np.eye(4), 1)
    with pytest.raises(ValidationError):
        weyl_check(sym, sym, 0)
    with pytest.raises(ValidationError):
        weyl_check(sym, sym, 4)
    with pytest.raises(ValidationError):
        weyl_check(np.eye(3)[:2], np.eye(3)[:2], 1)


# -- bipartite spectral symmetry --------------------------------------------------------


def test_lambda_n_is_minus_k_iff_bipartite(x513, x1317):
    cases = [cycle(4), cycle(6), k4(), petersen(), cartesian_k2(cycle(6)),
             x513, x1317]
    for x in cases:
        k = regularity(x)
        lam_n = extreme_eigs(x).lambda_n
        assert (abs(lam_n + k) <= 1e-6) == is_bipartite(x)


# -- the bipartite route --------------------------------------------------------------


def _bipartite_multigraph(h: int) -> Graph:
    """4-regular bipartite circulant on 2h vertices with one doubled edge
    per vertex."""
    return from_edge_list(2 * h, [(i, h + (i + j) % h) for i in range(h)
                                  for j in (0, 0, 1, 5)])


@pytest.fixture(scope="module")
def bipartite_route_graphs(x513):
    """Connected regular bipartite graphs, each with its lambda_2 by a
    dense solve."""
    graphs = [complete_bipartite(3), cycle(8), double_cover(petersen())]
    graphs += [double_cover(random_regular(k, n, seed))
              for k, n, seed in ((3, 34, 1), (4, 90, 2), (5, 128, 3),
                                 (6, 256, 4))]
    graphs += [cartesian_k2(double_cover(random_regular(3, 40, 5))),
               complete_bipartite(33),         # lambda_2 = 0
               _bipartite_multigraph(40)]
    pairs = [(x, eigvalsh(x)[1]) for x in graphs]
    # The k7 product, n = 4368.  Its spectrum is that of X^{5,13} shifted
    # by +1 and -1, which spares a dense solve of twice the size.
    w = eigvalsh(x513)
    return pairs + [(cartesian_k2(x513), max(w[1] + 1.0, w[0] - 1.0))]


def test_bipartite_route_matches_dense(bipartite_route_graphs):
    for x, lambda2 in bipartite_route_graphs:
        k = regularity(x)
        assert k is not None and is_bipartite(x)
        s = extreme_eigs(x)
        assert s.lambda1 == k and s.lambda_n == -k
        assert abs(s.lambda2 - lambda2) <= 1e-9
        assert s.method == ("iterative+inertia" if x.n <= DENSE_THRESHOLD
                            else "iterative")
        assert s.residual <= DEFAULT_TOL


def test_bipartite_route_unreachable_tolerance_raises(bipartite_route_graphs,
                                                     monkeypatch):
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    for x, _ in bipartite_route_graphs:
        with pytest.raises(ConvergenceError):
            extreme_eigs(x)


@pytest.fixture(scope="module")
def lps37() -> Graph:
    """X^{5,37}: bipartite, n = 50 616, past DENSE_THRESHOLD."""
    return build_lps(5, 37)


@pytest.fixture(scope="module")
def lps29() -> Graph:
    """X^{5,29}: not bipartite, n = 12 180, past DENSE_THRESHOLD."""
    return build_lps(5, 29)


def test_certify_counts_degrees_once(x513, lps37, monkeypatch):
    # extreme_eigs is the one regularity check on the certify path, so one
    # degree pass (a bincount over all 2m ids) serves the whole certify,
    # with the completeness proof, which reads the degree from lambda_1 = k,
    # up to DENSE_THRESHOLD as past it.
    calls = []
    degrees = Graph.degrees

    def counted(x):
        calls.append(x)
        return degrees(x)

    monkeypatch.setattr(Graph, "degrees", counted)
    assert x513.n <= DENSE_THRESHOLD < lps37.n
    for x in (x513, lps37):
        calls.clear()
        certify(x)
        assert len(calls) == 1


def test_bipartite_lanczos_matches_arpack(lps37):
    # scipy's ARPACK on the same half-size operator P B B^T P, started from
    # the same projected vector, serves only as the oracle here.
    from scipy.sparse.linalg import LinearOperator, eigsh

    x = lps37
    assert x.n > DENSE_THRESHOLD
    sides = bipartition(x)
    a = x.adjacency_sparse()
    b = a[np.flatnonzero(sides == 0)][:, np.flatnonzero(sides == 1)]

    def matvec(z):
        y = b @ (b.T @ np.ravel(z))
        return y - y.mean()

    v0 = np.random.default_rng(_V0_SEED).standard_normal(b.shape[0])
    op = LinearOperator(2 * (b.shape[0],), matvec=matvec, dtype=np.float64)
    mu = eigsh(op, k=1, which="LA", v0=v0 - v0.mean(), tol=0.0)[0][0]
    lambda2, res = _bipartite_lambda2(x, 6, sides, DEFAULT_TOL)
    assert abs(lambda2 - math.sqrt(mu)) <= 1e-12
    assert res <= 1e-14


def test_bipartite_lanczos_step_cap_raises(bipartite_route_graphs,
                                           monkeypatch):
    x, _ = bipartite_route_graphs[4]
    assert x.n == 180
    monkeypatch.setattr(spectral, "_LANCZOS_STEPS", 5)
    with pytest.raises(ConvergenceError, match="Lanczos recurrence .* 5 steps"):
        extreme_eigs(x)


def test_bipartite_lanczos_stops_on_breakdown(monkeypatch):
    # K_{33,33}: P B B^T P = 0, so the first step's beta is rounding noise
    # below _EPS k^2, and each of the two passes takes one step.
    steps = []

    def counted(generator):
        def run(*args):
            steps.append(0)
            for step in generator(*args):
                steps[-1] += 1
                yield step
        return run

    monkeypatch.setattr(spectral, "_lanczos", counted(spectral._lanczos))
    s = extreme_eigs(complete_bipartite(33))
    assert steps == [1, 1]
    assert s.lambda2 == 0.0 and s.residual <= 1e-14


def test_bipartite_lambda2_memory(lps37):
    # The two passes keep a few vectors of n/2 besides B and B^T (about 30
    # in all); a solver that stores a 20-vector Krylov basis and its
    # workspace, as ARPACK does, peaks near 67.
    x = lps37
    sides = bipartition(x)
    _bipartite_lambda2(x, 6, sides, DEFAULT_TOL)  # imports, the cached CSR
    tracemalloc.start()
    try:
        _bipartite_lambda2(x, 6, sides, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * (x.n // 2) * 8


def test_lps_certificate_holds_with_two_blas_threads(lps37):
    # Every reduction of the half-size recurrence and of its residual is an
    # np.sum, so a child process with two OpenBLAS threads writes the same
    # certificate at a size where BLAS dots split across threads.
    code = ("import sys; from expanderlab import build_lps, certify; "
            "sys.stdout.write(certify(build_lps(5, 37)).to_json())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=script_env(OPENBLAS_NUM_THREADS="2"),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == certify(lps37).to_json().encode("ascii")


def _general_route(x: Graph) -> Spectrum:
    """What extreme_eigs returns for a graph that is not bipartite, up to
    DENSE_THRESHOLD, from one run of the recurrence for both ends."""
    a = x.adjacency_sparse()
    k = float(regularity(x))
    pairs = _ritz_pairs(lambda z: a @ z, x.n, k, (-1, 0))
    (lambda2, _), (lambda_n, vn) = pairs
    _prove_extremes(x, k, lambda2, lambda_n, np.full(x.n, x.n ** -0.5), vn,
                    DEFAULT_TOL)
    res = max(spectral._residual(a, v, t, DEFAULT_TOL) for t, v in pairs)
    return Spectrum(k, lambda2, lambda_n, res, "iterative+inertia")


def test_other_graphs_keep_the_general_route():
    for x in (petersen(), cartesian_k2(random_regular(3, 40, 1)),
              random_regular(5, 66, 2), cartesian_k2(cycle(41))):
        assert regularity(x) is not None and is_connected(x)
        assert not is_bipartite(x)
        assert extreme_eigs(x) == _general_route(x)


def test_extreme_eigs_refuses_irregular_or_disconnected():
    # Among them bipartite graphs, a disconnected one and an irregular one,
    # and edgeless graphs on both sides of DENSE_THRESHOLD: each is refused
    # before any solve.
    cover = double_cover(random_regular(3, 40, 6))
    disconnected = from_edge_list(
        2 * cover.n, np.concatenate([cover.edges, cover.edges + cover.n]))
    # Vertex 0 and its copy lie on opposite sides of the cover.
    uneven = from_edge_list(cover.n, np.concatenate(
        [cover.edges, [[0, cover.n // 2]]]))
    a, b = random_regular(3, 150, 5), random_regular(4, 160, 6)
    union = from_edge_list(a.n + b.n, np.concatenate([a.edges, b.edges + a.n]))
    cases = (disconnected, uneven, path(80), union, path(5),
             from_edge_list(65, []), from_edge_list(5000, []))
    assert is_bipartite(disconnected) and regularity(disconnected) == 3
    assert is_bipartite(uneven) and is_connected(uneven)
    for x in cases:
        assert regularity(x) is None or not is_connected(x)
        with pytest.raises(ValidationError, match="connected regular"):
            extreme_eigs(x)


@pytest.mark.parametrize("x", [
    complete_multipartite(65, 1), complete_multipartite(3, 22),
    complete_multipartite(6, 13)], ids=["K65", "K22,22,22", "K13x6"])
def test_degenerate_spectra(x):
    # K_65 has lambda_2 = lambda_n = -1, and the complete multipartite
    # graphs lambda_2 = 0, each with one Krylov vector per distinct
    # eigenvalue: the recurrence breaks down within two steps, at a beta
    # of rounding size.
    w = eigvalsh(x)
    assert not is_bipartite(x)
    s = extreme_eigs(x)
    assert s.method == "iterative+inertia"
    assert s.lambda1 == float(regularity(x))
    assert (s.lambda1, s.lambda2, s.lambda_n) == pytest.approx(
        (w[0], w[1], w[-1]), abs=1e-12)
    assert s.residual <= 1e-13


# -- lambda_n past DENSE_THRESHOLD ------------------------------------------------


@pytest.fixture(scope="module")
def past_threshold_graphs(construct_1000):
    """Non-bipartite graphs with their dense spectra: random 4-regular and
    3-regular graphs, whose lambda_n lies inside the bulk, and the k7 graph,
    whose lambda_n is an outlier."""
    graphs = (random_regular(4, 400, 1), construct_1000[7][0],
              random_regular(3, 310, 5))
    return [(x, eigvalsh(x)) for x in graphs]


def test_past_threshold_route_matches_dense(past_threshold_graphs,
                                            monkeypatch):
    # Past DENSE_THRESHOLD the recurrence's lambda_n stands unproved, so it
    # must match the dense value, inside the bulk as well as outside it.
    (_, w_bulk), (_, w_k7), (_, w_cubic) = past_threshold_graphs
    # The bulk of a random k-regular graph ends near -2 sqrt(k - 1).
    assert w_bulk[-1] > -2.0 * math.sqrt(3)
    assert w_k7[-1] < -2.0 * math.sqrt(6) - 1.0
    assert w_cubic[-1] > -2.0 * math.sqrt(2)
    monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 1)
    for x, w in past_threshold_graphs:
        assert not is_bipartite(x)
        s = extreme_eigs(x)
        assert s.method == "iterative"
        assert abs(s.lambda_n - w[-1]) <= 1e-10
        assert s.lambda1 == float(regularity(x))
        assert abs(s.lambda2 - w[1]) <= 1e-10
        assert s.residual <= DEFAULT_TOL


def test_past_threshold_route_on_a_multiple_lambda_n(lps29, monkeypatch):
    # X^{5,29}: n = 12180 takes the route unpatched, and lambda_n is
    # highly multiple.
    x = lps29
    assert x.n > DENSE_THRESHOLD and not is_bipartite(x)
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-13)
    s = extreme_eigs(x)
    assert abs(s.lambda_n - arpack_lambda_n(x)) <= 1e-12
    assert s.residual <= 1e-13


def test_past_threshold_route_unreachable_tolerance_raises(
        past_threshold_graphs, monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 1)
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    for x, _ in past_threshold_graphs:
        with pytest.raises(ConvergenceError, match="residual"):
            extreme_eigs(x)


def test_ritz_pairs_are_frozen_where_they_converge(construct_1000):
    # construct(60, 1000), n = 2448: lambda_2 converges after 80 steps and
    # lambda_n after 248.  Frozen at their own steps the pairs' residuals
    # are 9.8e-15 and 1.4e-14; the lambda_2 pair read from T_248 gave
    # 3.06e-13.
    x = construct_1000[60][0]
    assert x.n == 2448 and not is_bipartite(x)
    a = x.adjacency_sparse()
    for theta, v in _ritz_pairs(lambda z: a @ z, x.n, 60.0, (-1, 0)):
        assert spectral._residual(a, v, theta, 1.0) <= 1e-13


# -- the two Lanczos passes ---------------------------------------------------------


def _sliced_blocks(x: Graph):
    """B and B^T of a bipartite graph by scipy's slicing and transpose."""
    sides = bipartition(x)
    b = x.adjacency_sparse()[np.flatnonzero(sides == 0)][
        :, np.flatnonzero(sides == 1)]
    return b, b.T.tocsr()


def _half_size_operator(x: Graph):
    """matvec and length of P B B^T P's B B^T for a bipartite graph, with
    the blocks sliced by scipy."""
    b, bt = _sliced_blocks(x)
    return (lambda z: b @ (bt @ z)), b.shape[0]


def test_replayed_pass_keeps_every_lanczos_vector(construct_1000, lps37):
    # The vector pass takes alpha_j, beta_j and mu_j from the recording
    # pass instead of reducing again; every q_j must keep its bits, on A of
    # construct(7, 1000) over its 264 steps and on the half-size B B^T of
    # X^{5,37}; the rerun ends with its record, and the operator is
    # applied once per vector.
    a = construct_1000[7][0].adjacency_sparse()
    operators = [((lambda z: a @ z), a.shape[0], 7.0, 264),
                 (*_half_size_operator(lps37), 36.0, 120)]
    for matvec, n, scale, steps in operators:
        q = np.random.default_rng(_V0_SEED).standard_normal(n)
        q -= q.mean()
        q /= spectral._norm(q)
        fresh = [(qj.copy(), scalars) for qj, *scalars in itertools.islice(
            spectral._lanczos(matvec, q, scale), steps)]
        assert len(fresh) == steps
        applied = []

        def counting(z, matvec=matvec):
            applied.append(1)
            return matvec(z)

        replayed = spectral._lanczos(counting, q, scale,
                                     [scalars for _, scalars in fresh])
        for (want, scalars), (got, *again) in zip(fresh, replayed,
                                                  strict=True):
            assert np.array_equal(got, want) and again == scalars
        assert len(applied) == steps


@pytest.mark.parametrize("operator", ["C6", "petersen", "X513+1", "X513-half"])
def test_ritz_vectors_are_sums_over_a_stored_basis(operator, construct_1000,
                                                   x513, monkeypatch):
    # The second pass of _ritz_pairs rebuilds each q_j from the first
    # pass's scalars instead of storing it; its Ritz vectors must equal,
    # bit for bit, the same sums over the basis one run stored, and
    # neither run may touch the start vector the other reads.
    if operator == "X513-half":
        (matvec, n), scale, ends = _half_size_operator(x513), 36.0, (-1,)
    else:
        x = {"C6": cycle(6), "petersen": petersen(),
             "X513+1": construct_1000[7][0]}[operator]
        a = x.adjacency_sparse()
        matvec, n, ends = (lambda z: a @ z), x.n, (-1, 0)
        scale = float(regularity(x))
    want = stored_basis_ritz_pairs(matvec, n, scale, ends)
    lanczos, starts = spectral._lanczos, []

    def kept(matvec, q, *args):
        starts.append((q, q.tobytes()))
        return lanczos(matvec, q, *args)

    monkeypatch.setattr(spectral, "_lanczos", kept)
    got = _ritz_pairs(matvec, n, scale, ends)
    for (theta, v), (want_theta, want_v) in zip(got, want, strict=True):
        assert theta == want_theta and v.tobytes() == want_v.tobytes()
    assert len(starts) == 2 and starts[0][0] is starts[1][0]
    assert all(q.tobytes() == before for q, before in starts)


def _assert_same_pair(d: np.ndarray, e: np.ndarray, i: int) -> None:
    from scipy.linalg import eigh_tridiagonal

    theta, y = _tridiagonal_pair(d, e, i)
    (want,), v = eigh_tridiagonal(d, e, select="i", select_range=(i, i))
    assert np.float64(theta).tobytes() == want.tobytes()
    assert y.tobytes() == v[:, 0].tobytes()


def test_tridiagonal_pair_matches_eigh_tridiagonal(construct_1000,
                                                   monkeypatch):
    # The direct dstebz/dstein calls give the bits of the scipy wrapper:
    # for both ends at each of the 33 + 7 checks of construct(7, 1000)'s
    # run, on random tridiagonals, and at m = 1, where LAPACK is not called.
    checks = []

    def checked(d, e, i):
        for end in (0, len(d) - 1):
            _assert_same_pair(d, e, end)
        checks.append(len(d))
        return _tridiagonal_pair(d, e, i)

    monkeypatch.setattr(spectral, "_tridiagonal_pair", checked)
    x = construct_1000[7][0]
    a = x.adjacency_sparse()
    _ritz_pairs(lambda z: a @ z, x.n, 7.0, (-1, 0))
    assert len(checks) == 40 and max(checks) == 264
    rng = np.random.default_rng(23)
    for m in (2, 3, 8, 57, 264, 1000):
        d, e = rng.standard_normal(m), rng.standard_normal(m - 1)
        for i in (0, m - 1, int(rng.integers(m))):
            _assert_same_pair(d, e, i)
    _assert_same_pair(np.array([2.5]), np.array([]), 0)


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_tridiagonal_pair_raises_on_lapack_failure(routine, monkeypatch):
    from scipy.linalg import lapack

    solve = getattr(lapack, routine)
    monkeypatch.setattr(lapack, routine,
                        lambda *args: (*solve(*args)[:-1], 1))
    with pytest.raises(ConvergenceError, match="LAPACK info 1"):
        _tridiagonal_pair(np.ones(3), np.ones(2), 0)


def test_lanczos_operator_and_tridiagonal_counts(construct_1000, monkeypatch):
    # The first pass applies the operator once per step and solves one
    # tridiagonal per unfrozen end every _CHECK_EVERY steps; the vector
    # pass reruns the same recurrence over the same steps, so it applies
    # the operator as often, the last product included, which no Ritz
    # vector uses.
    from scipy.linalg import lapack

    dstebz = lapack.dstebz
    applied, solves = [], []

    def counted(generator):
        def run(matvec, *args):
            applied.append(0)

            def counting(z):
                applied[-1] += 1
                return matvec(z)

            return generator(counting, *args)
        return run

    def counted_dstebz(*args):
        solves.append(len(args[0]))
        return dstebz(*args)

    monkeypatch.setattr(spectral, "_lanczos", counted(spectral._lanczos))
    monkeypatch.setattr(lapack, "dstebz", counted_dstebz)
    for x, steps, checks in ((construct_1000[7][0], 264, 40),
                             (construct(8, 10000)[0], 376, 60),
                             (build_lps(5, 53), 88, 11)):
        applied.clear()
        solves.clear()
        extreme_eigs(x)
        assert applied == [steps, steps]
        assert len(solves) == checks and max(solves) == steps


def test_general_route_memory(lps29):
    # X^{5,29}, n = 12 180, is not bipartite: both passes on A hold about
    # 8 vectors of n at their peak, and no basis, besides what the graph
    # caches.  A solver that kept its Krylov basis for the second pass
    # would hold one vector per step, 88 of them.
    x = lps29
    extreme_eigs(x)  # imports, the cached CSR and graph checks
    tracemalloc.start()
    try:
        extreme_eigs(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * x.n * 8


def test_lps_certificate_past_the_threshold_holds_with_two_blas_threads():
    # X^{5,61}, n = 113 460, is not bipartite: lambda_2 and lambda_n come
    # from one run of the recurrence on A, whose reductions are np.sum, so
    # a child process with two OpenBLAS threads writes the same bytes.
    x = build_lps(5, 61)
    assert x.n == 113460 and not is_bipartite(x)
    code = ("import sys; from expanderlab import build_lps, certify; "
            "sys.stdout.write(certify(build_lps(5, 61)).to_json())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=script_env(OPENBLAS_NUM_THREADS="2"),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == certify(x).to_json().encode("ascii")


def test_lambda1_is_k_and_method_follows_size(lps37):
    # lambda_1 = k exactly on every route; the proof runs up to
    # DENSE_THRESHOLD and nowhere past it.
    for k, n in ((7, 1000), (29, 1000), (8, 10000)):
        cert = construct(k, n)[1]
        assert cert.lambda1 == float(k)
        assert cert.method == ("iterative+inertia" if cert.n <= DENSE_THRESHOLD
                               else "iterative")
    assert not cert.bipartite and cert.n > DENSE_THRESHOLD
    cert = certify(lps37)
    assert cert.lambda1 == 6.0 and cert.method == "iterative"


# -- certificates ------------------------------------------------------------------------


def test_certificate_json_roundtrip_and_stability():
    cert = certify(petersen())
    text1 = cert.to_json()
    text2 = certify(petersen()).to_json()
    assert text1 == text2
    back = SpectralCertificate.from_json(text1)
    assert back.to_json() == text1
    assert back.k == 3 and back.n == 10


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: "{", id="not-json"),
    pytest.param(lambda d: {}, id="empty-object"),
    pytest.param(lambda d: [], id="array"),
    pytest.param(lambda d: {**d, "provenance": 5}, id="provenance-number"),
    pytest.param(lambda d: {**d, "bounds": [1]}, id="bounds-entry-number"),
    pytest.param(lambda d: {**d, "expansion": 5}, id="expansion-number"),
    pytest.param(lambda d: {**d, "claim": "lambda2 <= 2"}, id="unknown-key"),
    pytest.param(lambda d: {**d, "k": "seven"}, id="k-string"),
    pytest.param(lambda d: {**d, "n": True}, id="n-bool"),
    pytest.param(lambda d: {**d, "lambda2": None}, id="lambda2-null"),
    pytest.param(lambda d: {**d, "ramanujan": "yes"}, id="ramanujan-string"),
    pytest.param(lambda d: {**d, "method": 3}, id="method-number"),
    pytest.param(lambda d: {**d, "lambda2": math.nan}, id="lambda2-nan"),
    pytest.param(lambda d: {**d, "residual": math.inf}, id="residual-infinity"),
    pytest.param(lambda d: {**d, "bounds": [{"value": -math.inf}]},
                 id="bound-minus-infinity"),
])
def test_certificate_from_json_rejects_malformed(edit):
    bad = edit(json.loads(certify(k4()).to_json()))
    text = bad if isinstance(bad, str) else json.dumps(bad)
    with pytest.raises(ValidationError):
        SpectralCertificate.from_json(text)


# A from_json call on text under 1 KB traces at most this many bytes; the
# largest peak over the fuzzed examples below was 18 KB.
_FROM_JSON_BUDGET = 64 * 1024
_ODD_VALUES = st.sampled_from([None, True, False, 0, -1, 2**63, 10**300, 1.5,
                               "", "3", "λ", [], [1], [{}], {}, {"k": 1}])
_NUMBERS = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                            "9" * 5000, "-" + "9" * 5000, "9" * 400, "0.5"])
_PROVENANCES = st.sampled_from([{}, "lps", 5, None, [1], [[]], [None],
                                [{"step": "lps"}, 3], [{"step": "é"}]])


@functools.cache
def _k4_certificate() -> dict:
    return json.loads(certify(k4()).to_json())


@st.composite
def _mutated_certificates(draw):
    """K4's certificate text, indented as to_json writes it or compact,
    after one mutation: a field of the wrong type, a bool for k or n, a
    number literal out of JSON or float range or past the digit limit
    (top-level or nested), non-ASCII text inserted anywhere, a missing or
    extra key, or a provenance that is not a list of objects, among them
    one nested past the recursion limit."""
    d = dict(_k4_certificate())
    name = draw(st.sampled_from(sorted(d)))
    kind = draw(st.sampled_from(["none", "type", "bool", "number", "text",
                                 "missing", "extra", "provenance"]))
    literal = None
    if kind == "type":
        d[name] = draw(_ODD_VALUES)
    elif kind == "bool":
        d[draw(st.sampled_from(["k", "n"]))] = draw(st.booleans())
    elif kind == "number":
        literal = draw(_NUMBERS)
        where = draw(st.sampled_from(["top", "bounds", "provenance"]))
        if where == "top":
            d[name] = "@@"
        else:
            d[where] = [{"value": "@@"}]
    elif kind == "missing":
        del d[name]
    elif kind == "extra":
        d[draw(st.text(max_size=6))] = draw(_ODD_VALUES)
    elif kind == "provenance":
        if draw(st.booleans()):
            d["provenance"] = draw(_PROVENANCES)
        else:
            d["provenance"], literal = "@@", "[" * 5000 + "]" * 5000
    text = json.dumps(d, sort_keys=True, indent=draw(st.sampled_from([2, None])))
    if literal is not None:
        text = text.replace('"@@"', literal)
    if kind == "text":
        at = draw(st.integers(0, len(text)))
        extra = draw(st.text(st.characters(min_codepoint=128), min_size=1,
                             max_size=4))
        text = text[:at] + extra + text[at:]
    return text


@settings(max_examples=300)
@given(_mutated_certificates())
def test_certificate_from_json_fuzzed(text):
    # Any text gives a certificate, which reads back from its own JSON,
    # or ValidationError, nothing else; under 1 KB it stays in budget.
    small = len(text.encode("utf-8")) < 1024
    if small:
        tracemalloc.start()
    try:
        try:
            cert = SpectralCertificate.from_json(text)
        except ValidationError:
            cert = None
        peak = tracemalloc.get_traced_memory()[1] if small else 0
    finally:
        if small:
            tracemalloc.stop()
    assert peak <= _FROM_JSON_BUDGET
    if cert is not None:
        assert SpectralCertificate.from_json(cert.to_json()) == cert
