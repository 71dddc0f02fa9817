"""Ramanujan base constructions: parameter algebra, structure, spectra."""

from __future__ import annotations

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from expanderlab import (
    build_lps,
    certify,
    extreme_eigs,
    is_bipartite,
    is_connected,
    ramanujan_base,
    regularity,
)
from expanderlab.errors import ValidationError
from expanderlab.graph_core import graph_to_text
from expanderlab.numtheory import is_prime
from expanderlab.ramanujan_base import (
    LIBRARY,
    Q_MAX,
    _decode,
    _generators,
    _mates,
    _normalize,
    _sqrt_minus_one,
    _vertices,
    four_square_generators,
    lps_params,
    small_ramanujan,
    smallest_modulus,
)
from helpers import eigvalsh, lps_closure, searchsorted_lps

# ---------------------------------------------------------------------------
# lps_params
# ---------------------------------------------------------------------------


def test_params_5_13():
    params = lps_params(5, 13)
    assert params.group == "PGL2"
    assert params.n == 13 * (13 * 13 - 1) == 2184


def test_params_13_17():
    params = lps_params(13, 17)
    assert params.group == "PSL2"
    assert params.n == 17 * (17 * 17 - 1) // 2 == 2448


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
    with pytest.raises(ValidationError):
        lps_params(5, 1009)       # above Q_MAX
    assert lps_params(5, Q_MAX).n == 101 * (101 * 101 - 1) // 2 == 515100


def test_build_above_q_max_fails_before_allocating():
    # X^{5,109} would have 1 294 920 vertices; the cap refuses it first.
    assert Q_MAX < 109 and is_prime(109) and 109 % 4 == 1
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="q=109"):
            build_lps(5, 109)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


def _tuples(codes, q):
    return [tuple(int(e) for e in m) for m in zip(*_decode(codes, q))]


def test_generators_closed_under_inversion():
    # The projective inverse of ((a,b),(c,d)) is its adjugate ((d,-b),(-c,a)).
    # _mates pairs each generator with it: at each admitted p <= 61 and its
    # least modulus, mate is a fixed-point-free involution, since no
    # generator for p = 1 (mod 4) is its own inverse, and each generator
    # times its mate is a nonzero scalar matrix mod q.
    primes = [p for p in range(5, 62) if is_prime(p) and p % 4 == 1]
    assert len(primes) == 8
    for p, q in [(p, smallest_modulus(p, 1)) for p in primes] + [(5, 29)]:
        gens = _generators(p, q)
        assert len(gens) == p + 1 and (np.diff(gens) > 0).all()
        a, b, c, d = _decode(gens, q)
        adj = _normalize((d, -b % q, -c % q, a), q)
        assert set(adj.tolist()) == set(gens.tolist())
        mate = _mates(gens, q)
        ids = np.arange(p + 1)
        assert (mate[mate] == ids).all() and (mate != ids).all(), p
        for (a, b, c, d), (e, f, g, h) in zip(_tuples(gens, q),
                                              _tuples(gens[mate], q)):
            prod = ((a * e + b * g) % q, (a * f + b * h) % q,
                    (c * e + d * g) % q, (c * f + d * h) % q)
            assert prod[1] == prod[2] == 0 and prod[0] == prod[3] != 0


def test_build_lps_refuses_images_that_are_no_permutation(monkeypatch):
    # A code table that numbers two codes as vertex 2 makes the images of
    # the first generator collide.  build_lps names that generator, the
    # first column it computes, so no inverse column has been written.
    table = ramanujan_base._code_table

    def corrupted(verts, q):
        index = table(verts, q)
        index[verts[1]] = 2
        return index

    monkeypatch.setattr(ramanujan_base, "_code_table", corrupted)
    first = _tuples(_generators(5, 13), 13)[0]
    with pytest.raises(AssertionError, match=re.escape(
            f"generator {first} of X^{{5,13}} does not permute the "
            f"vertices: no vertex maps to 1")):
        build_lps(5, 13)


def test_sqrt_minus_one_is_the_smaller_root():
    for q in range(5, 1000, 4):
        if is_prime(q):
            roots = [x for x in range(q) if x * x % q == q - 1]
            assert _sqrt_minus_one(q) == min(roots), q


def test_generator_images_have_determinant_p():
    p, q = 13, 17
    i = _sqrt_minus_one(q)
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
        by_filter = _vertices(q, square_det=params.group == "PSL2")
        by_closure = lps_closure(_tuples(_generators(p, q), q), q)
        assert _tuples(by_filter, q) == by_closure
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


@pytest.mark.parametrize("p, q, digest", [
    (13, 17, "184ea4b4ceb9945164d89326aa8ae74dc71d1747fe2d42a19cad751b44113102"),
    (29, 13, "63cb6017c56a81464e2a1be7de8efed9b678c9178e637c00168af173af6dec4d"),
    (5, 37, "1844d3048e3b3683e092154cadcaa94e9343306870ef9549574ad0a327b58e2d"),
    (5, 53, "4e649b2450de11215df92ec61399059da34e43f94f9bed7b5416d0143bd9fd31"),
])
def test_build_lps_text_is_pinned(p, q, digest):
    # PSL, a 30-generator set, and two PGL bases; vertex numbering and edge
    # order are part of the graph text, so any change to them shows here.
    text = graph_to_text(build_lps(p, q))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _valid_params(p, q):
    try:
        lps_params(p, q)
    except ValidationError:
        return False
    return True


def test_build_lps_matches_searchsorted_build():
    primes = [v for v in range(5, 60, 4) if is_prime(v)]
    pairs = [(p, q) for p in primes for q in primes
             if q <= 37 and _valid_params(p, q)] + [(5, 53)]
    assert len(pairs) == 24 and (53, 37) in pairs
    for p, q in pairs:
        x, ref = build_lps(p, q), searchsorted_lps(p, q)
        assert x.n == ref.n and np.array_equal(x.edges, ref.edges), (p, q)


def test_build_lps_at_q_max_is_pinned():
    # The largest code table, 2*Q_MAX^3 entries.  Its top code,
    # (1, q-1, q-1, q-1), has determinant -2, a non-square mod 101, so this
    # PSL build stops two codes short of it; PGL builds such as (5, 53), in
    # the test above, reach it.
    x = build_lps(5, Q_MAX)
    assert x.n == 515100 and x.edges.dtype == np.int64
    assert hashlib.sha256(x.edges.tobytes()).hexdigest() == (
        "fb34f68708c662a8dd135091adca3a297bd547f545357a4845a7fc98aeab41fd")


# ---------------------------------------------------------------------------
# spectra: the Ramanujan property, re-measured
# ---------------------------------------------------------------------------


def test_x513_is_ramanujan(x513):
    s = extreme_eigs(x513)
    assert s.method == "iterative+inertia"
    assert s.lambda1 == 6.0
    assert s.lambda2 <= 2.0 * math.sqrt(5) + 1e-6
    assert s.lambda_n == -6.0  # bipartite mirror
    assert s.residual <= 1e-8
    assert certify(x513).ramanujan


def test_x1317_is_ramanujan(x1317):
    s = extreme_eigs(x1317)
    assert s.lambda1 == 14.0
    assert s.lambda2 <= 2.0 * math.sqrt(13) + 1e-6
    assert s.lambda_n > -14.0 + 1e-6  # non-bipartite
    assert certify(x1317).ramanujan


def test_x529_is_ramanujan_iterative():
    # n = 12180 > dense threshold, so this exercises the iterative path:
    # lambda_2 and lambda_n from one run of the Lanczos recurrence.
    x = build_lps(5, 29)
    s = extreme_eigs(x)
    assert s.method == "iterative"
    assert s.lambda1 == 6.0
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


def test_library_graphs_meet_the_bound():
    for name, (k, n) in LIBRARY.items():
        x = small_ramanujan(name)
        assert (regularity(x), x.n) == (k, n), name
        assert certify(x).ramanujan, name


def test_library_name_errors():
    for bad in ("petersen(3)", "complete(1)", "cycle(2)", "tetrahedron",
                "complete(x)", "", "cycle(9)", "complete(7)"):
        with pytest.raises(ValidationError):
            small_ramanujan(bad)


def test_library_rebuild_equality():
    for name in LIBRARY:
        assert small_ramanujan(name) == small_ramanujan(name), name
