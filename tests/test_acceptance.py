"""Nine go/no-go checks, one per release gate, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Every check measures the shipped code against independent arithmetic
(numpy eigensolves on explicit matrices, 50-digit mpmath re-evaluation,
exhaustive subset search), never against the package's own claims.
"""

from __future__ import annotations

import json
import math
import random
import time

import mpmath
import numpy as np
import pytest

from expanderlab import (
    delta_table,
    increment_regularity,
    is_bipartite,
    is_connected,
    load_graph,
    regularity,
    replay,
)
from expanderlab.bounds import gap_bound_bhp, gap_bound_rh, gap_bound_trudgian
from expanderlab.cli import main
from expanderlab.errors import ValidationError
from expanderlab.planner import certify

from helpers import (
    adjacency_matrix,
    cycle,
    decrement_regularity,
    doubled_cycle,
    isoperimetric_check,
    k4,
    parallel_k2,
    petersen,
    product_spectrum_oracle,
    random_regular,
    weyl_check,
)

mpmath.mp.dps = 50

_EXPECTED_CEILS = [1.52, 1.32, 0.94, 0.41, 0.22, 0.12]

_CERT_KEYS = {
    "version", "k", "n", "provenance", "lambda1", "lambda2", "lambda_n",
    "spectral_gap", "ramanujan", "bipartite", "residual", "method",
    "bounds", "expansion",
}


def _report(num: int, desc: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _lambda12(x) -> tuple[float, float]:
    """Independent (lambda1, lambda2) by a full numpy eigensolve."""
    w = np.linalg.eigvalsh(adjacency_matrix(x))[::-1]
    return float(w[0]), float(w[1])


# ---------------------------------------------------------------------------
# shared builds (module scope keeps the big eigensolves to one run each)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_run():
    t0 = time.perf_counter()
    rows = delta_table()
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cert513(x513):
    return certify(x513)


@pytest.fixture(scope="module")
def cert1317(x1317):
    return certify(x1317)


@pytest.fixture(scope="module")
def k7_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("k7")
    gpath, cpath = d / "graph.txt", d / "cert.json"
    code = main(["construct", "--k", "7", "--min-vertices", "1000",
                 "--strategy", "matching",
                 "--graph-out", str(gpath), "--cert-out", str(cpath)])
    return code, gpath, cpath


# ---------------------------------------------------------------------------
# 1. normalized prime-gap table over the six decades
# ---------------------------------------------------------------------------


def test_criterion_1_delta_table(table_run):
    rows, elapsed = table_run
    ceils = [r["delta_ceil"] for r in rows]
    ok = ceils == _EXPECTED_CEILS and elapsed < 30.0
    _report(1, f"delta table ceils {ceils} in {elapsed:.1f}s "
               f"(want {_EXPECTED_CEILS} in <30s)", ok)


# ---------------------------------------------------------------------------
# 2. Cayley base graphs meet the optimal eigenvalue bound
# ---------------------------------------------------------------------------


def test_criterion_2_base_graphs(x513, x1317, cert513, cert1317):
    checks = [
        x513.n == 2184,
        regularity(x513) == 6,
        is_connected(x513),
        is_bipartite(x513),
        cert513.lambda2 <= 2.0 * math.sqrt(5) + 1e-6,
        cert513.residual <= 1e-8,
        x1317.n == 2448,
        regularity(x1317) == 14,
        is_connected(x1317),
        not is_bipartite(x1317),
        cert1317.lambda2 <= 2.0 * math.sqrt(13) + 1e-6,
        cert1317.residual <= 1e-8,
    ]
    _report(2, "X^(5,13): n=2184 bipartite lambda2="
               f"{cert513.lambda2:.6f} <= {2 * math.sqrt(5):.6f}; "
               "X^(13,17): n=2448 non-bipartite lambda2="
               f"{cert1317.lambda2:.6f} <= {2 * math.sqrt(13):.6f}",
            all(checks))


# ---------------------------------------------------------------------------
# 3. Cartesian-product spectrum law
# ---------------------------------------------------------------------------


def test_criterion_3_product_law():
    rng = random.Random(20260818)
    graphs = [k4(), cycle(6), petersen()]
    while len(graphs) < 53:
        n = rng.randint(4, 40)
        k = rng.randint(2, min(7, n - 1))
        if (n * k) % 2:
            continue
        graphs.append(random_regular(k, n, seed=rng.randint(0, 10**6)))
    worst_spec = worst_law = 0.0
    for x in graphs:
        rep = product_spectrum_oracle(x)
        worst_spec = max(worst_spec, rep["max_deviation"])
        worst_law = max(worst_law,
                        abs(rep["lambda2_product"] - rep["product_law_lambda2"]))
    # The complete-graph instance shows the max() is genuinely two-branch:
    # lambda2 of K4 x K2 is lambda1 - 1 = 2, far above lambda2 + 1 = 0.
    k4_rep = product_spectrum_oracle(k4())
    two_branch = (abs(k4_rep["lambda2_product"] - 2.0) < 1e-9
                  and k4_rep["lambda2_plus_one"] < 1e-9)
    ok = worst_spec <= 1e-8 and worst_law <= 1e-8 and two_branch
    _report(3, f"product law on {len(graphs)} graphs: spectrum dev "
               f"{worst_spec:.2e}, lambda2-law dev {worst_law:.2e} "
               "(both <= 1e-8); K4 hits the lambda1-1 branch", ok)


# ---------------------------------------------------------------------------
# 4. matching increments move lambda2 by at most one
# ---------------------------------------------------------------------------


def test_criterion_4_increment_bound():
    rng = random.Random(41)
    t0 = time.perf_counter()
    worst_up = worst_down = -math.inf
    count = 0
    while count < 100:
        n = 2 * rng.randint(3, 30)
        k = rng.randint(2, n // 2 - 1)
        x = random_regular(k, n, seed=rng.randint(0, 10**6))
        _, lam2 = _lambda12(x)
        up, _ = increment_regularity(x)
        assert regularity(up) == k + 1 and up.is_simple()
        _, lam2_up = _lambda12(up)
        worst_up = max(worst_up, lam2_up - lam2 - 1.0)
        try:
            down, _ = decrement_regularity(x)
            lam2_ref = lam2
        except ValidationError:
            down, _ = decrement_regularity(up)  # up contains a perfect matching
            lam2_ref = lam2_up
        _, lam2_down = _lambda12(down)
        worst_down = max(worst_down, lam2_down - lam2_ref - 1.0)
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_up <= 1e-8 and worst_down <= 1e-8 and elapsed < 60.0
    _report(4, f"100 increments: max lambda2 excess {worst_up:.2e} up, "
               f"{worst_down:.2e} down (<= 1e-8) in {elapsed:.1f}s", ok)


# ---------------------------------------------------------------------------
# 5. isoperimetric sandwich on an exact-expansion corpus
# ---------------------------------------------------------------------------


def test_criterion_5_isoperimetric_sandwich():
    rng = random.Random(5)
    corpus = [cycle(n) for n in range(3, 17)]
    corpus += [k4(), petersen()]
    corpus += [random_regular(3, n, seed=rng.randint(0, 10**6))
               for n in (8, 10, 12, 14, 16)]
    corpus += [random_regular(4, n, seed=rng.randint(0, 10**6))
               for n in (10, 12, 14, 16)]
    multigraphs = [doubled_cycle(4), doubled_cycle(6), doubled_cycle(8),
                   parallel_k2(3), parallel_k2(4)]
    corpus += multigraphs
    failures = []
    for x in corpus:
        rep = isoperimetric_check(x)
        if not (rep["lower"] - 1e-9 <= rep["h"] <= rep["upper"] + 1e-9):
            failures.append(rep)
    ok = (len(corpus) >= 30 and len(multigraphs) >= 5 and not failures)
    _report(5, f"(k-l2)/2 <= h <= sqrt(2k(k-l2)) on {len(corpus)} graphs "
               f"({len(multigraphs)} with parallel edges); "
               f"{len(failures)} violations", ok)


# ---------------------------------------------------------------------------
# 6. eigenvalue-shift inequalities for symmetric matrix sums
# ---------------------------------------------------------------------------


def test_criterion_6_symmetric_shift_inequalities():
    rng = np.random.default_rng(6)
    worst = math.inf
    for _ in range(100):
        n = int(rng.integers(2, 31))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        a, b = a + a.T, b + b.T
        i = int(rng.integers(1, n + 1))
        for first, second in ((a, b), (b, a)):
            rep = weyl_check(first, second, i)
            worst = min(worst, rep["upper_slack"], rep["lower_slack"])
    ok = worst >= -1e-8
    _report(6, f"100 symmetric pairs, four slacks each: min slack "
               f"{worst:.2e} (>= -1e-8)", ok)


# ---------------------------------------------------------------------------
# 7. gap formulas agree with 50-digit re-evaluation
# ---------------------------------------------------------------------------


def _mp_gaps(k: float, c: float) -> tuple[float, float, float]:
    km = mpmath.mpf(k)
    cm = mpmath.mpf(c)
    tr = km * (1 - 2 / (111 * mpmath.log(km - 1) ** 2)) - 2 * mpmath.sqrt(km - 1)
    bh = km - 2 * (1 + km**mpmath.mpf("0.025")) * mpmath.sqrt(km - 1)
    r = mpmath.log(1 + cm * mpmath.log(km - 1)) / mpmath.log(km - 1)
    rh = km - 2 * (km - 1) ** (mpmath.mpf("0.5") + r)
    return float(tr), float(bh), float(rh)


def test_criterion_7_bound_formula_fidelity():
    rng = random.Random(7)
    worst_formula = worst_dual = 0.0
    for _ in range(1000):
        k = math.exp(rng.uniform(math.log(3.1), math.log(1e12)))
        c = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        ref_tr, ref_bh, ref_rh = _mp_gaps(k, c)
        for got, ref in ((gap_bound_trudgian(k), ref_tr),
                         (gap_bound_bhp(k), ref_bh),
                         (gap_bound_rh(k, c), ref_rh)):
            worst_formula = max(worst_formula,
                                abs(got - ref) / max(1.0, abs(ref)))
        expanded = k - 2.0 * (1.0 + c * math.log(k - 1.0)) * math.sqrt(k - 1.0)
        worst_dual = max(worst_dual,
                         abs(gap_bound_rh(k, c) - expanded)
                         / max(1.0, abs(expanded)))
    ok = worst_formula <= 1e-12 and worst_dual <= 1e-10
    _report(7, f"1000 random (k, C): max formula error {worst_formula:.2e} "
               f"(<= 1e-12), max dual-form error {worst_dual:.2e} "
               f"(<= 1e-10)", ok)


# ---------------------------------------------------------------------------
# 8. end-to-end 7-regular build through the command line
# ---------------------------------------------------------------------------


def test_criterion_8_end_to_end_k7(k7_run):
    code, gpath, cpath = k7_run
    x = load_graph(gpath)
    cert = json.loads(cpath.read_text())
    bound = 2.0 * math.sqrt(5) + 1.0 + 1e-6
    checks = [
        code == 0,
        x.n == 2184,
        regularity(x) == 7,
        is_connected(x),
        set(cert) == _CERT_KEYS,
        cert["k"] == 7,
        cert["lambda2"] <= bound,
        replay(cert["provenance"]) == x,
    ]
    _report(8, "construct --k 7 --min-vertices 1000: n=2184, 7-regular, "
               f"connected, lambda2={cert['lambda2']:.6f} <= {bound:.6f}, "
               "certificate replays to the same graph", all(checks))


# ---------------------------------------------------------------------------
# 9. determinism of the table, the base certificates, and the k=7 build
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(table_run, x513, x1317, cert513, cert1317,
                                 k7_run, tmp_path):
    rows, _ = table_run
    table_same = delta_table() == rows
    cert_same = (certify(x513).to_json() == cert513.to_json()
                 and certify(x1317).to_json() == cert1317.to_json())
    _, gpath, cpath = k7_run
    g2, c2 = tmp_path / "graph.txt", tmp_path / "cert.json"
    code = main(["construct", "--k", "7", "--min-vertices", "1000",
                 "--strategy", "matching",
                 "--graph-out", str(g2), "--cert-out", str(c2)])
    k7_same = (code == 0
               and g2.read_bytes() == gpath.read_bytes()
               and c2.read_bytes() == cpath.read_bytes())
    ok = table_same and cert_same and k7_same
    _report(9, "reruns byte-identical: delta table "
               f"{table_same}, base certificates {cert_same}, "
               f"k=7 graph+certificate {k7_same}", ok)
