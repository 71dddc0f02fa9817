"""Ramanujan base constructions: parameter algebra, structure, spectra."""

from __future__ import annotations

import math

import mpmath
import pytest

from expanderlab import (
    build_lps,
    certify,
    extreme_eigs,
    is_bipartite,
    is_connected,
    regularity,
)
from expanderlab.errors import ValidationError
from expanderlab.numtheory import four_square_generators, sqrt_mod
from expanderlab.ramanujan_base import (
    _enumerate_by_filter,
    _generator_set,
    _normalize,
    lps_params,
    small_ramanujan,
)
from helpers import eigvalsh, lps_closure

mpmath.mp.dps = 50

# ---------------------------------------------------------------------------
# lps_params
# ---------------------------------------------------------------------------


def test_params_5_13():
    params = lps_params(5, 13)
    assert params.legendre_sign == -1
    assert params.group == "PGL2"
    assert params.n == 13 * (13 * 13 - 1) == 2184
    assert params.bipartite


def test_params_13_17():
    params = lps_params(13, 17)
    assert params.legendre_sign == 1
    assert params.group == "PSL2"
    assert params.n == 17 * (17 * 17 - 1) // 2 == 2448
    assert not params.bipartite


def test_params_5_17():
    params = lps_params(5, 17)
    assert params.group == "PGL2"
    assert params.n == 17 * 288 == 4896


def test_params_rejections():
    with pytest.raises(ValidationError):
        lps_params(5, 5)          # distinct
    with pytest.raises(ValidationError):
        lps_params(7, 13)         # p = 3 (mod 4)
    with pytest.raises(ValidationError):
        lps_params(5, 19)         # q = 3 (mod 4)
    with pytest.raises(ValidationError):
        lps_params(13, 5)         # q^2 <= 4p
    with pytest.raises(ValidationError):
        lps_params(9, 13)         # not prime
    with pytest.raises(ValidationError):
        lps_params(5, 1)          # below 5


# ---------------------------------------------------------------------------
# structure of the built graphs
# ---------------------------------------------------------------------------


def test_x513_structure(x513):
    assert x513.n == 2184
    assert regularity(x513) == 6
    assert x513.num_edges == 2184 * 6 // 2 == 6552
    assert x513.is_simple()
    assert is_connected(x513)
    assert is_bipartite(x513)


def test_x1317_structure(x1317):
    assert x1317.n == 2448
    assert regularity(x1317) == 14
    assert x1317.is_simple()
    assert is_connected(x1317)
    assert not is_bipartite(x1317)


def test_generators_closed_under_inversion():
    # The projective inverse of ((a,b),(c,d)) is its adjugate ((d,-b),(-c,a)).
    for p, q in ((5, 13), (13, 17), (5, 29)):
        inv = [pow(a, q - 2, q) if a else 0 for a in range(q)]
        gens = _generator_set(p, q, inv)
        gen_set = set(gens)
        assert len(gen_set) == p + 1
        for a, b, c, d in gens:
            adj = _normalize((d, (-b) % q, (-c) % q, a), q, inv)
            assert adj in gen_set


def test_generator_images_have_determinant_p():
    p, q = 13, 17
    i = sqrt_mod(q - 1, q)
    assert i * i % q == q - 1
    # Before normalization the matrix determinant is a0^2+a1^2+a2^2+a3^2 = p.
    for a0, a1, a2, a3 in four_square_generators(p):
        m = ((a0 + i * a1) % q, (a2 + i * a3) % q,
             (-a2 + i * a3) % q, (a0 - i * a1) % q)
        det = (m[0] * m[3] - m[1] * m[2]) % q
        assert det == p % q


def test_enumeration_paths_agree():
    # (5, 37): the first modulus above 31, past which builds once used closure.
    for p, q in ((5, 13), (13, 17), (5, 37)):
        params = lps_params(p, q)
        inv = [pow(a, q - 2, q) if a else 0 for a in range(q)]
        gens = _generator_set(p, q, inv)
        by_filter = sorted(_enumerate_by_filter(
            q, want_square_det=(params.legendre_sign == 1)))
        by_closure = lps_closure(gens, q)
        assert by_filter == by_closure
        assert len(by_filter) == params.n


def test_closure_reaches_whole_group_at_5_29():
    # The predicted group order; build_lps(5, 29) asserts that it enumerates
    # exactly this many vertices, and certifying the graph requires it to be
    # connected, so its generators reach the whole group.
    params = lps_params(5, 29)
    assert params.group == "PSL2"
    assert params.n == 29 * (29 * 29 - 1) // 2 == 12180


def test_build_is_deterministic():
    a = build_lps(5, 13)
    b = build_lps(5, 13)
    assert a == b


# ---------------------------------------------------------------------------
# spectra: the Ramanujan property, re-measured
# ---------------------------------------------------------------------------


def test_x513_is_ramanujan(x513):
    s = extreme_eigs(x513)
    assert s.method == "dense"
    assert s.lambda1 == pytest.approx(6.0, abs=1e-9)
    assert s.lambda2 <= 2.0 * math.sqrt(5) + 1e-6
    assert s.lambda_n == pytest.approx(-6.0, abs=1e-9)  # bipartite mirror
    assert s.residual <= 1e-8
    assert certify(x513).ramanujan


def test_x1317_is_ramanujan(x1317):
    s = extreme_eigs(x1317)
    assert s.lambda1 == pytest.approx(14.0, abs=1e-9)
    assert s.lambda2 <= 2.0 * math.sqrt(13) + 1e-6
    assert s.lambda_n > -14.0 + 1e-6  # non-bipartite
    assert certify(x1317).ramanujan


def test_x529_is_ramanujan_iterative():
    # n = 12180 > dense threshold, so this exercises the ARPACK path.
    x = build_lps(5, 29)
    s = extreme_eigs(x)
    assert s.method == "iterative"
    assert s.lambda1 == pytest.approx(6.0, abs=1e-7)
    assert s.lambda2 <= 2.0 * math.sqrt(5) + 1e-6
    assert s.lambda_n > -6.0 + 1e-6
    assert s.residual <= 1e-8
    assert certify(x).ramanujan


# ---------------------------------------------------------------------------
# small named library
# ---------------------------------------------------------------------------


def test_petersen_shape_and_spectrum():
    x = small_ramanujan("petersen")
    assert x.n == 10
    assert regularity(x) == 3
    w = eigvalsh(x)
    assert w[0] == pytest.approx(3.0)
    assert w[1] == pytest.approx(1.0)
    assert w[-1] == pytest.approx(-2.0)


def test_complete_graph_spectrum():
    x = small_ramanujan("complete(4)")
    w = eigvalsh(x)
    assert w[0] == pytest.approx(3.0)
    assert all(v == pytest.approx(-1.0) for v in w[1:])
    assert small_ramanujan("complete(2)").num_edges == 1


def test_cycle_second_eigenvalue():
    x = small_ramanujan("cycle(7)")
    lam2 = eigvalsh(x)[1]
    expected = float(2 * mpmath.cos(2 * mpmath.pi / 7))
    assert lam2 == pytest.approx(expected, abs=1e-9)


def test_library_graphs_meet_the_bound():
    for name in ("petersen", "complete(4)", "complete(6)", "cycle(5)",
                 "cycle(12)"):
        assert certify(small_ramanujan(name)).ramanujan, name


def test_library_name_errors():
    for bad in ("petersen(3)", "complete(1)", "cycle(2)", "tetrahedron",
                "complete(x)", ""):
        with pytest.raises(ValidationError):
            small_ramanujan(bad)


def test_library_rebuild_equality():
    assert small_ramanujan("petersen") == small_ramanujan("petersen")
    assert small_ramanujan("cycle(9)") == small_ramanujan("cycle(9)")
