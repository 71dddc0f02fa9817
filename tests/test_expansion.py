"""Exact expansion against a Fraction-arithmetic brute-force oracle."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expanderlab.errors import ValidationError
from expanderlab.expansion import (
    MAX_EXACT_N,
    boundary_size,
    expanding_constant_exact,
)
from expanderlab.graph_core import from_edge_list

from helpers import (
    brute_force_expansion,
    cycle,
    doubled_cycle,
    isoperimetric_check,
    k4,
    parallel_k2,
    path,
    petersen,
    random_gnp,
    random_regular,
    two_triangles,
    whole_array_expansion,
)

# ---------------------------------------------------------------------------
# boundary_size
# ---------------------------------------------------------------------------


def test_boundary_examples():
    assert boundary_size(k4(), [0]) == 3
    assert boundary_size(k4(), [0, 1]) == 4
    assert boundary_size(cycle(6), [0, 1, 2]) == 2
    assert boundary_size(cycle(6), [0, 2, 4]) == 6
    assert boundary_size(petersen(), [0, 1, 2, 3, 4]) == 5


def test_boundary_trivial_subsets():
    x = petersen()
    assert boundary_size(x, []) == 0
    assert boundary_size(x, range(x.n)) == 0


def test_boundary_counts_parallel_edges():
    x = parallel_k2(3)
    assert boundary_size(x, [0]) == 3
    y = doubled_cycle(4)
    assert boundary_size(y, [0, 1]) == 4


def test_boundary_rejects_out_of_range():
    with pytest.raises(ValidationError):
        boundary_size(k4(), [4])
    with pytest.raises(ValidationError):
        boundary_size(k4(), [-1])


def test_boundary_rejects_non_integer_ids():
    # 1.5 lies in [0, n) but matches no edge end, so it would count as 3.
    with pytest.raises(ValidationError, match="1.5"):
        boundary_size(petersen(), [0, 1.5])
    with pytest.raises(ValidationError, match="'0'"):
        boundary_size(petersen(), ["0"])
    assert boundary_size(petersen(), [np.int64(0), 1]) == 4


@given(st.integers(0, 2**8 - 1), st.integers(0, 17))
def test_boundary_complement_symmetry(mask, seed):
    x = random_gnp(8, 0.4, seed)
    fs = [v for v in range(8) if mask >> v & 1]
    co = [v for v in range(8) if not mask >> v & 1]
    assert boundary_size(x, fs) == boundary_size(x, co)


# ---------------------------------------------------------------------------
# expanding_constant_exact: known closed forms
# ---------------------------------------------------------------------------


def test_expansion_complete_graph():
    h, witness = expanding_constant_exact(k4())
    assert h == 2.0
    assert witness == (0, 1)


def test_expansion_cycles():
    h, witness = expanding_constant_exact(cycle(6))
    assert h == pytest.approx(2.0 / 3.0)
    assert witness == (0, 1, 2)
    h4, w4 = expanding_constant_exact(cycle(4))
    assert h4 == 1.0
    assert w4 == (0, 1)


def test_expansion_petersen():
    h, witness = expanding_constant_exact(petersen())
    assert h == 1.0
    assert witness == (0, 1, 2, 3, 4)


def test_expansion_disconnected_is_zero():
    h, witness = expanding_constant_exact(two_triangles())
    assert h == 0.0
    assert witness == (0, 1, 2)


def test_expansion_parallel_edges_scale_cuts():
    h, witness = expanding_constant_exact(doubled_cycle(6))
    assert h == pytest.approx(4.0 / 3.0)
    assert witness == (0, 1, 2)
    hk, wk = expanding_constant_exact(parallel_k2(3))
    assert hk == 3.0
    assert wk == (0,)


# ---------------------------------------------------------------------------
# expanding_constant_exact vs exhaustive Fraction oracle
# ---------------------------------------------------------------------------


def _assert_matches_oracle(x):
    h, witness = expanding_constant_exact(x)
    oracle_h, oracle_witness = brute_force_expansion(x)
    assert Fraction(h).limit_denominator(27720) == oracle_h
    assert h == pytest.approx(float(oracle_h), abs=1e-12)
    assert witness == oracle_witness


def test_oracle_agreement_named_graphs():
    for x in [k4(), cycle(4), cycle(5), cycle(6), petersen(), path(5),
              two_triangles(), doubled_cycle(4), parallel_k2(4)]:
        _assert_matches_oracle(x)


def test_oracle_agreement_random_graphs():
    for seed in range(25):
        n = 4 + seed % 7
        x = random_gnp(n, 0.45, seed=seed)
        _assert_matches_oracle(x)


def test_oracle_agreement_random_multigraphs():
    for seed in range(12):
        n = 4 + seed % 5
        base = random_gnp(n, 0.5, seed=1000 + seed)
        doubled = from_edge_list(n, list(base.edges) + list(base.edges)[::2])
        _assert_matches_oracle(doubled)


@given(st.integers(2, 7), st.integers(0, 31))
def test_oracle_agreement_property(n, seed):
    x = random_gnp(n, 0.5, seed=seed)
    _assert_matches_oracle(x)


# ---------------------------------------------------------------------------
# the blocked sweep vs the whole-array search it replaced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 10, 16, 18, 20])
def test_blocked_sweep_matches_whole_array_search(n):
    graphs = [random_regular(3, n, seed) for seed in range(3)]
    graphs += [from_edge_list(n, []),
               from_edge_list(n, np.column_stack(np.triu_indices(n, 1)))]
    for x in graphs:
        assert expanding_constant_exact(x) == whole_array_expansion(x)


def test_blocked_sweep_memory_at_24_vertices():
    # The whole-array search held several arrays of 2^24 entries, 544 MiB
    # traced; the sweep holds one block's.
    x = random_regular(3, MAX_EXACT_N, 0)
    tracemalloc.start()
    try:
        h, witness = expanding_constant_exact(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert 1 <= len(witness) <= MAX_EXACT_N // 2
    assert h == boundary_size(x, witness) / len(witness)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def test_expansion_size_guard():
    with pytest.raises(ValidationError):
        expanding_constant_exact(cycle(MAX_EXACT_N + 1))
    # The boundary itself is fine.
    h, _ = expanding_constant_exact(cycle(MAX_EXACT_N))
    assert h == pytest.approx(2.0 / (MAX_EXACT_N // 2))


def test_expansion_needs_two_vertices():
    with pytest.raises(ValidationError):
        expanding_constant_exact(from_edge_list(1, []))
    with pytest.raises(ValidationError):
        expanding_constant_exact(from_edge_list(0, []))


# ---------------------------------------------------------------------------
# isoperimetric_check
# ---------------------------------------------------------------------------


def test_isoperimetric_complete_graph():
    rep = isoperimetric_check(k4())
    assert rep["k"] == 3
    assert rep["lambda2"] == pytest.approx(-1.0)
    assert rep["h"] == 2.0
    assert rep["witness"] == [0, 1]
    assert rep["lower"] == pytest.approx(2.0)
    assert rep["upper"] == pytest.approx(math.sqrt(24.0))
    assert rep["holds"]


def test_isoperimetric_cycle():
    rep = isoperimetric_check(cycle(6))
    assert rep["lower"] == pytest.approx(0.5)
    assert rep["h"] == pytest.approx(2.0 / 3.0)
    assert rep["upper"] == pytest.approx(2.0)
    assert rep["holds"]


def test_isoperimetric_petersen():
    rep = isoperimetric_check(petersen())
    assert rep["lower"] == pytest.approx(1.0)
    assert rep["h"] == 1.0
    assert rep["upper"] == pytest.approx(math.sqrt(12.0))
    assert rep["holds"]


def test_isoperimetric_tight_lower_multigraph():
    # Two vertices joined by three parallel edges: h = 3 = (k - lambda2)/2.
    rep = isoperimetric_check(parallel_k2(3))
    assert rep["h"] == 3.0
    assert rep["lower"] == pytest.approx(3.0)
    assert rep["holds"]


def test_isoperimetric_rejects_irregular():
    with pytest.raises(ValidationError):
        isoperimetric_check(path(4))


def test_isoperimetric_small_corpus_holds():
    corpus = [k4(), cycle(4), cycle(5), cycle(8), petersen(),
              doubled_cycle(4), doubled_cycle(6), parallel_k2(2),
              parallel_k2(5), two_triangles()]
    for x in corpus:
        rep = isoperimetric_check(x)
        assert rep["holds"], rep
        assert rep["lower"] <= rep["h"] + 1e-9 <= rep["upper"] + 2e-9
