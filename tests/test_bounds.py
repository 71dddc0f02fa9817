"""Bound formulas checked against 50-digit mpmath evaluation."""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expanderlab import delta_table, plan
from expanderlab.bounds import (
    TRUDGIAN_MIN_K,
    bound_entries,
    gap_bound_bhp,
    gap_bound_rh,
    gap_bound_trudgian,
    gap_bounds,
    is_ramanujan,
    lambda2_bound_chain,
    rh_exponent,
)
from expanderlab.errors import ValidationError
from expanderlab.numtheory import prev_prime
from helpers import script_env

mpmath.mp.dps = 50


def _mp_trudgian(k):
    k = mpmath.mpf(k)
    return float(k * (1 - 2 / (111 * mpmath.log(k - 1) ** 2)) - 2 * mpmath.sqrt(k - 1))


def _mp_bhp(k):
    k = mpmath.mpf(k)
    return float(k - 2 * (1 + k**mpmath.mpf("0.025")) * mpmath.sqrt(k - 1))


def _mp_rh(k, c):
    k, c = mpmath.mpf(k), mpmath.mpf(c)
    r = mpmath.log(1 + c * mpmath.log(k - 1)) / mpmath.log(k - 1)
    return float(k - 2 * (k - 1) ** (mpmath.mpf("0.5") + r))


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _table(k, c=1.0):
    return {bound.name: bound for bound in gap_bounds(k, c)}


# ---------------------------------------------------------------------------
# lambda2_bound_chain
# ---------------------------------------------------------------------------


def test_chain_k7():
    intermediate, normalized = lambda2_bound_chain(7)
    assert intermediate == pytest.approx(2.0 * math.sqrt(5) + 1.0, abs=1e-12)
    # delta_7 = (7-5)/sqrt(5); normalized = 2*(1 + 2/sqrt(5))*sqrt(6).
    assert normalized == pytest.approx(
        2.0 * (1.0 + 2.0 / math.sqrt(5)) * math.sqrt(6), abs=1e-12)
    assert intermediate <= normalized


def test_chain_k12():
    intermediate, normalized = lambda2_bound_chain(12)
    assert intermediate == pytest.approx(2.0 * math.sqrt(11), abs=1e-12)
    assert normalized == pytest.approx(
        2.0 * (1.0 + 2.0 / math.sqrt(11)) * math.sqrt(11), abs=1e-12)


def test_chain_collapses_after_prime():
    # k = p + 1 leaves zero increments: intermediate is the Ramanujan value.
    for p in (5, 13, 17, 29, 101):
        intermediate, _ = lambda2_bound_chain(p + 1)
        assert intermediate == pytest.approx(2.0 * math.sqrt(p), abs=1e-12)


def test_chain_rejects_small_k():
    with pytest.raises(ValidationError):
        lambda2_bound_chain(2)


@given(st.integers(3, 10**6))
def test_chain_intermediate_below_normalized(k):
    intermediate, normalized = lambda2_bound_chain(k)
    assert intermediate <= normalized + 1e-9
    p = prev_prime(k)
    assert intermediate == pytest.approx(2.0 * math.sqrt(p) + (k - p - 1))


# ---------------------------------------------------------------------------
# gap_bound_trudgian
# ---------------------------------------------------------------------------


def test_trudgian_against_mpmath():
    for k in (TRUDGIAN_MIN_K, TRUDGIAN_MIN_K + 1, 10**7, 10**9):
        assert _rel(gap_bound_trudgian(k), _mp_trudgian(k)) <= 1e-12


def test_trudgian_magnitude_at_onset():
    v = gap_bound_trudgian(TRUDGIAN_MIN_K)
    assert 2.89e6 < v < 2.90e6


def test_trudgian_validity_flag():
    assert not _table(TRUDGIAN_MIN_K - 1)["trudgian"].valid
    assert _table(TRUDGIAN_MIN_K)["trudgian"].valid
    assert _table(10**9)["trudgian"].valid


def test_trudgian_domain():
    with pytest.raises(ValidationError):
        gap_bound_trudgian(2)
    gap_bound_trudgian(2.5)  # real k > 2 is fine


# ---------------------------------------------------------------------------
# gap_bound_bhp
# ---------------------------------------------------------------------------


def test_bhp_against_mpmath():
    for k in (100, 10**4, 10**6, 10**9):
        assert _rel(gap_bound_bhp(k), _mp_bhp(k)) <= 1e-12


def test_bhp_sign_flip():
    # The additive penalty dominates at small k and washes out later.
    assert gap_bound_bhp(7) < 0
    assert gap_bound_bhp(100) > 0


def test_bhp_model_needs_explicit_threshold():
    # No explicit onset is published, so the table covers no k.
    for k in (7, 10**6, 10**12):
        assert not _table(k)["bhp"].valid


# ---------------------------------------------------------------------------
# gap_bound_rh / rh_exponent
# ---------------------------------------------------------------------------


def test_rh_against_mpmath():
    for k in (7, 10**6, TRUDGIAN_MIN_K):
        for c in (1.0, 2.5):
            assert _rel(gap_bound_rh(k, c), _mp_rh(k, c)) <= 1e-12


def test_rh_dual_forms_agree():
    # (k-1)**r = 1 + c*ln(k-1), so the bound equals
    # k - 2*(1 + c*ln(k-1))*sqrt(k-1).
    rng = random.Random(7)
    for _ in range(200):
        k = math.exp(rng.uniform(math.log(3.5), math.log(1e12)))
        c = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        direct = gap_bound_rh(k, c)
        expanded = k - 2.0 * (1.0 + c * math.log(k - 1.0)) * math.sqrt(k - 1.0)
        assert _rel(direct, expanded) <= 1e-10


def test_rh_exponent_closed_form_at_e_plus_one():
    k = 1.0 + math.e  # ln(k-1) = 1
    assert rh_exponent(k, 3.0) == pytest.approx(math.log(4.0), abs=1e-12)
    assert rh_exponent(k, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_rh_exponent_decays():
    assert rh_exponent(10**3) > rh_exponent(10**6) > rh_exponent(10**12) > 0


def test_rh_domain():
    with pytest.raises(ValidationError):
        gap_bound_rh(2)
    with pytest.raises(ValidationError):
        gap_bound_rh(7, 0.0)
    with pytest.raises(ValidationError):
        gap_bound_rh(7, -1.0)


# ---------------------------------------------------------------------------
# delta_table
# ---------------------------------------------------------------------------


def test_delta_table_small_ranges():
    rows = delta_table(((10, 100), (100, 1000)))
    assert rows[0]["delta_ceil"] == 1.52
    assert rows[0]["witness_k"] == 10
    assert rows[0]["max_delta"] == pytest.approx(4.0 / math.sqrt(7), abs=1e-12)
    assert rows[1]["delta_ceil"] == 1.32
    assert rows[1]["witness_k"] == 114
    assert rows[1]["max_delta"] == pytest.approx(14.0 / math.sqrt(113), abs=1e-12)


def test_delta_table_row_shape():
    rows = delta_table(((10, 100),))
    assert set(rows[0]) == {"lo", "hi", "max_delta", "delta_ceil", "witness_k"}
    assert rows[0]["lo"] == 10 and rows[0]["hi"] == 100
    assert rows[0]["delta_ceil"] >= rows[0]["max_delta"]


def test_reproduce_delta_table_script_runs():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable,
                           str(root / "scripts" / "reproduce_delta_table.py")],
                          capture_output=True, text=True, env=script_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "ceiling column matches the published values" in proc.stdout


# ---------------------------------------------------------------------------
# gap_bounds
# ---------------------------------------------------------------------------


def test_model_dispatch_matches_functions():
    k = 10**6
    assert [bound.name for bound in gap_bounds(k)] == ["trudgian", "bhp", "rh"]
    table = _table(k, 2.0)
    assert table["trudgian"].value() == gap_bound_trudgian(k)
    assert table["bhp"].value() == gap_bound_bhp(k)
    assert table["rh"].value() == gap_bound_rh(k, 2.0)


def test_model_validity():
    assert not _table(10**6)["trudgian"].valid
    assert _table(TRUDGIAN_MIN_K)["trudgian"].valid
    assert _table(3)["rh"].valid
    assert _table(7)["rh"].valid


def test_model_conditionality():
    conditional = [bound.name for bound in gap_bounds(7) if bound.conditional]
    assert conditional == ["rh"]


def test_model_advisory():
    advisory = [bound.name for bound in gap_bounds(7) if bound.advisory]
    assert advisory == ["bhp"]


def test_model_rejects_bad_config():
    for c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            gap_bounds(7, c)


def test_model_values_refuse_k_past_the_float_range():
    # 2**1024 does not convert to a float; every model refuses it.
    for bound in gap_bounds(2**1024):
        with pytest.raises(ValidationError, match="finite float"):
            bound.value()


def test_model_values_are_lazy():
    # For C = 1e308, 6**(1/2 + r) overflows at k = 7 and r is infinite at
    # k = 1000; only reading that value fails.
    for k in (7, 1000):
        table = _table(k, 1e308)
        assert table["trudgian"].value() == gap_bound_trudgian(k)
        assert table["bhp"].value() == gap_bound_bhp(k)
        with pytest.raises(ValidationError, match="overflows"):
            table["rh"].value()


# ---------------------------------------------------------------------------
# certificate entries and verdict
# ---------------------------------------------------------------------------

# sha256 of the JSON rows below: any change to a certificate's bound
# entries, their values or their validity shows here.
_ENTRIES_SHA256 = (
    "6d0c42e3711f3a60a0759bd932bf48cae6cb16d912a1af81dd8151a99c1a63a6")


def test_bound_entries_are_pinned_for_every_input_kind():
    # (base prime, by matching) for the planned base grown by matchings,
    # the planned base grown by K2 products, a library base, and a bare
    # certify of a loaded graph.
    rows = []
    for k in range(3, 201):
        p = plan(k)[1].p_star
        for kind, base, by_matching in (("matching", p, True),
                                        ("product", p, False),
                                        ("library", None, True),
                                        ("bare", None, False)):
            rows.append([k, kind, bound_entries(k, base, by_matching)])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _ENTRIES_SHA256


def test_ramanujan_verdict_is_padded_by_the_slack():
    bound = 2.0 * math.sqrt(6)
    assert is_ramanujan(7, bound, 0.0)
    assert is_ramanujan(7, bound + 1e-9, 1e-8)
    assert not is_ramanujan(7, bound + 1e-7, 1e-8)
    assert is_ramanujan(7, -7.0, 0.0)
