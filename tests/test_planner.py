"""Planning, end-to-end construction, certification and replay."""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expanderlab import (
    certify,
    choose_q,
    construct,
    delta_table,
    expansion,
    graph_to_text,
    load_graph,
    numtheory,
    plan,
    planner,
    ramanujan_base,
    replay,
)
from expanderlab.errors import ValidationError
from expanderlab.graph_core import Graph, from_edge_list
from expanderlab.matching import increment_regularity
from expanderlab.ramanujan_base import (K_MAX, LIBRARY, Q_MAX, _fault,
                                        lps_params)
from expanderlab.spectral import SpectralCertificate

from helpers import (
    complete_multipartite,
    hypercube,
    k4,
    path,
    petersen,
    random_regular,
    script_env,
    two_triangles,
)

_ROOT = Path(__file__).resolve().parent.parent
_REFERENCE = _ROOT / "out"

# ---------------------------------------------------------------------------
# module-scope builds shared by several tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def k7():
    return construct(7, 1000)


@pytest.fixture(scope="module")
def k7_product():
    return construct(7, 1000, "k2product")


@pytest.fixture(scope="module")
def k12():
    return construct(12, 1000)


def _bound(cert, model):
    hits = [b for b in cert.bounds if b["model"] == model]
    assert len(hits) == 1, model
    return hits[0]


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def test_plan_splits_theory_from_buildable():
    theory, build = plan(12)
    assert theory.p == 11 and theory.increments == 0
    assert build.source == "lps" and build.p_star == 5 and build.increments == 6


def test_plan_when_k_minus_one_is_a_pythagorean_prime():
    for k in (6, 14, 18):
        theory, build = plan(k)
        assert build.p_star == k - 1
        assert build.increments == 0
        assert theory.p == k - 1


def test_plan_single_increment():
    theory, build = plan(7)
    assert (theory.p, theory.increments) == (5, 1)
    assert (build.p_star, build.increments) == (5, 1)


def test_plan_small_k_uses_library():
    for k in (3, 4, 5):
        _, build = plan(k)
        assert build.source == "library"
        assert build.p_star is None and build.increments == 0
        assert any(degree == k for degree, _ in LIBRARY.values())


def test_plan_rejects_tiny_k():
    with pytest.raises(ValidationError):
        plan(2)
    with pytest.raises(ValidationError):
        plan(1)


def test_plan_anchors_the_largest_k_that_has_a_modulus():
    # X^{2549,101} is never built here: it would take several GB.
    _, build = plan(2557)
    assert (build.p_star, build.increments) == (2549, 7)
    assert choose_q(2549, 1) == 101


_CAP_MESSAGE = ("construct takes k from 3 to 2557: past 2557 the anchor p "
                "has no modulus q <= 101 exceeding 2*sqrt(p)")


def _unserved(p: int) -> bool:
    """Whether the base rule admits p but no q <= Q_MAX makes an X^{p,q}."""
    return _fault(p) is None and all(_fault(p, q) for q in range(5, Q_MAX + 1))


def test_k_max_is_the_last_k_whose_anchor_has_a_modulus():
    # k anchors at the largest admitted p <= k - 1, so the cap is the
    # first admitted p that no modulus serves.
    assert K_MAX == next(p for p in range(5, 10**4) if _unserved(p)) == 2557
    _, build = plan(K_MAX)
    assert not _unserved(build.p_star)


@pytest.mark.parametrize("k, p", [(2558, 2557), (2600, 2593)])
def test_construct_refuses_k_past_the_modulus_cap(k, p, monkeypatch):
    # Past k = 2557 the anchor p has no q <= Q_MAX = 101 with q^2 > 4p, and
    # construct refuses k before any base is built or any modulus tried.
    def never(*args):
        raise AssertionError("called past the cap")

    assert _unserved(p)
    monkeypatch.setattr(planner, "build_lps", never)
    monkeypatch.setattr(planner, "smallest_modulus", never)
    with pytest.raises(ValidationError) as err:
        construct(k, 1)
    assert str(err.value) == _CAP_MESSAGE


@pytest.mark.parametrize("k", [2, 2**63 - 24, 2**64, 2**1024],
                         ids=["2", "2**63-24", "2**64", "2**1024"])
def test_construct_checks_k_before_any_primality_test(k, monkeypatch):
    # The cap holds at any size: k is refused with the cap message before
    # a prime walk could reach is_prime's limit of 2**63.
    def never(*args):
        raise AssertionError("primality test before the range check")

    monkeypatch.setattr(ramanujan_base, "is_prime", never)
    monkeypatch.setattr(numtheory, "is_prime", never)
    for call in (lambda: construct(k, 1), lambda: plan(k)):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == _CAP_MESSAGE


# ---------------------------------------------------------------------------
# choose_q
# ---------------------------------------------------------------------------


def test_choose_q_scans_ascending():
    assert choose_q(5, 1000) == 13
    assert choose_q(5, 3000) == 17
    assert choose_q(5, 1) == 13


def test_choose_q_skips_too_small_moduli():
    # q = 5 equals p; q = 13 is the first high enough for p = 13? no:
    # 13 = p itself, and q must also satisfy q^2 > 4p, killing q = 5.
    assert choose_q(13, 1) == 17


def test_choose_q_exhaustion():
    with pytest.raises(ValidationError):
        choose_q(5, 10**9)
    with pytest.raises(ValidationError):
        choose_q(5, 0)


@pytest.mark.parametrize("p", [3, 4, 7])
def test_choose_q_refuses_an_unusable_p_with_the_lps_params_message(p):
    # Some q passes every test on q at each of these p, so the error must
    # name p, not an exhausted search.
    with pytest.raises(ValidationError) as want:
        lps_params(p, 13)
    with pytest.raises(ValidationError) as got:
        choose_q(p, 1)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"p={p} must be a prime")


# ---------------------------------------------------------------------------
# construct: matching strategy
# ---------------------------------------------------------------------------


def test_construct_k7_matching(k7):
    x, cert = k7
    assert x.n == 2184
    assert cert.k == 7 and cert.n == 2184
    assert cert.lambda2 <= 2.0 * math.sqrt(5) + 1.0 + 1e-6
    steps = [s["step"] for s in cert.provenance]
    assert steps == ["lps", "matching_increment"]
    assert cert.provenance[0] == {"step": "lps", "p": 5, "q": 13}
    assert _bound(cert, "lambda2_matching_chain")["valid"]
    assert _bound(cert, "lambda2_matching_chain")["value"] == pytest.approx(
        2.0 * math.sqrt(5) + 1.0)


def test_construct_k6_base_only():
    x, cert = construct(6, 1000)
    assert x.n == 2184
    assert cert.bipartite and cert.ramanujan
    assert [s["step"] for s in cert.provenance] == ["lps"]
    chain = _bound(cert, "lambda2_chain_intermediate")
    assert chain["valid"]  # p* = 5 = prev_prime(6)
    assert chain["value"] == pytest.approx(2.0 * math.sqrt(5))


def test_construct_k12_chain_anchoring(k12):
    x, cert = k12
    assert cert.k == 12
    assert cert.lambda2 <= 2.0 * math.sqrt(5) + 6.0 + 1e-6
    assert _bound(cert, "lambda2_matching_chain")["valid"]
    assert _bound(cert, "lambda2_matching_chain")["value"] == pytest.approx(
        2.0 * math.sqrt(5) + 6.0)
    # The theoretical chain anchors at prev_prime(12) = 11, not at p* = 5,
    # so it is reported but not claimed.
    assert not _bound(cert, "lambda2_chain_intermediate")["valid"]
    assert not _bound(cert, "lambda2_chain_normalized")["valid"]
    assert _bound(cert, "gap_rh")["valid"]
    assert _bound(cert, "gap_rh")["conditional"]
    assert not _bound(cert, "gap_trudgian")["valid"]
    assert not _bound(cert, "gap_bhp")["valid"]


def test_construct_value_capping(k12):
    _, cert = k12
    entry = _bound(cert, "lambda2_matching_chain")
    # 2*sqrt(5) + 6 <= 12, so the cap is inert here.
    assert entry["value_capped"] == entry["value"]
    assert entry["value_capped"] <= 12.0


# ---------------------------------------------------------------------------
# construct: k2product strategy
# ---------------------------------------------------------------------------


def test_construct_k7_product(k7, k7_product):
    (base_x, base_cert) = construct(6, 1000)
    x, cert = k7_product
    assert x.n == 4368
    assert cert.method == "iterative"
    expected = max(base_cert.lambda2 + 1.0, base_cert.lambda1 - 1.0)
    assert cert.lambda2 == pytest.approx(expected, abs=1e-6)
    assert [s["step"] for s in cert.provenance] == ["lps", "k2_product"]
    for model in ("lambda2_matching_chain", "lambda2_chain_intermediate",
                  "lambda2_chain_normalized", "gap_trudgian", "gap_bhp",
                  "gap_rh"):
        assert not _bound(cert, model)["valid"], model
    # The matching route stays strictly tighter on the same target k.
    assert k7[1].lambda2 < cert.lambda2


def test_certify_refuses_a_route_its_provenance_contradicts(k7, k7_product):
    # Bound validity follows strategy and build only where the provenance
    # records their route: a k2product provenance cannot pass as matching.
    _, build = plan(7)
    x, cert = k7_product
    with pytest.raises(ValidationError, match="not the matching route"):
        certify(x, provenance=cert.provenance, strategy="matching",
                build=build)
    x, cert = k7
    steps = cert.provenance
    library = {"step": "library", "name": "petersen"}
    for provenance, strategy, b in (
            (steps, "k2product", build),
            ((dict(steps[0], p=13),) + steps[1:], "matching", build),
            ((library,) + steps[1:], "matching", build),
            ((("lps", 5),) + steps[1:], "matching", build),
            (steps[:1], "matching", build),
            (steps + steps[1:], "matching", build),
            ((), "matching", build),
            (steps, "matching", plan(6)[1]),
            (steps, "matching", None),
            (steps, None, build),
            (steps, "tensor", build)):
        with pytest.raises(ValidationError):
            certify(x, provenance=provenance, strategy=strategy, build=b)
    # The recorded routes give construct's certificates back.
    assert certify(x, provenance=steps, strategy="matching",
                   build=build) == cert
    y, cert3 = construct(3, 5)
    assert certify(y, provenance=cert3.provenance, strategy="matching",
                   build=plan(3)[1]) == cert3


def test_certify_reads_its_provenance_once_as_a_tuple(k7):
    # An iterator is read once, as replay reads it; a provenance that is not
    # iterable is refused as replay refuses it, with or without a route.
    _, build = plan(7)
    x, cert = k7
    assert certify(x, provenance=iter(cert.provenance), strategy="matching",
                   build=build) == cert
    for provenance, strategy, b in ((5, "matching", build), (None, None, None)):
        with pytest.raises(ValidationError, match="provenance must be a "
                           "sequence of steps, got"):
            certify(x, provenance=provenance, strategy=strategy, build=b)


def test_certify_refuses_a_provenance_that_builds_another_graph(k7, k7_product):
    # construct(7, 1000)'s matching route builds X^{5,13} plus one
    # matching, n = 2184; the k2product graph on the same base has 4368.
    _, build = plan(7)
    x, _ = k7_product
    with pytest.raises(ValidationError, match=r"provenance builds n=2184, "
                       r"k=7; the graph has n=4368, k=7"):
        certify(x, provenance=k7[1].provenance, strategy="matching",
                build=build)
    # The same route with another modulus, and a library base of another
    # size, are refused the same way.
    x, cert = k7
    steps = cert.provenance
    with pytest.raises(ValidationError, match=r"provenance builds n=4896,"):
        certify(x, provenance=(dict(steps[0], q=17),) + steps[1:],
                strategy="matching", build=build)
    y, cert3 = construct(3, 5)
    with pytest.raises(ValidationError, match=r"provenance builds n=4, k=3"):
        certify(y, provenance=({"step": "library", "name": "complete(4)"},),
                strategy="matching", build=plan(3)[1])


def test_construct_library_routes():
    x3, cert3 = construct(3, 5)
    assert cert3.provenance == ({"step": "library", "name": "petersen"},)
    assert x3.n == 10 and cert3.ramanujan
    x3s, cert3s = construct(3, 2)
    assert cert3s.provenance == ({"step": "library", "name": "complete(4)"},)
    assert x3s.n == 4
    x5, _ = construct(5, 6)
    assert x5.n == 6
    with pytest.raises(ValidationError):
        construct(4, 6)  # complete(5) is the only k=4 library entry


def test_construct_library_route_matches_reference():
    # A library base has no lambda2_matching_chain entry, and certify
    # enumerates no subsets, so K4's certificate has no expansion data.
    x, cert = construct(3, 1)
    assert [b["model"] for b in cert.bounds] == [
        "lambda2_chain_intermediate", "lambda2_chain_normalized",
        "gap_trudgian", "gap_bhp", "gap_rh"]
    assert hashlib.sha256(graph_to_text(x).encode("ascii")).hexdigest() == (
        "9c3528d98663acb8787c1f08381b6591c46b657d1c4c0061ae09a1e908653f00")
    assert hashlib.sha256(cert.to_json().encode("ascii")).hexdigest() == (
        "748cfe9b29b94263abdf2d69e4326dfd3744aa3bfd3f263153010d104aaea795")


def test_construct_rejections():
    with pytest.raises(ValidationError):
        construct(7, 1000, "productk2")
    with pytest.raises(ValidationError):
        construct(7, 0)
    with pytest.raises(ValidationError):
        construct(2, 10)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_complete_graph():
    cert = certify(k4())
    assert cert.k == 3 and cert.n == 4
    assert cert.lambda2 == pytest.approx(-1.0)
    assert cert.spectral_gap == pytest.approx(4.0)
    assert cert.ramanujan and not cert.bipartite
    assert cert.expansion is None
    assert cert.provenance == ()


def test_certify_petersen():
    cert = certify(petersen())
    assert cert.spectral_gap == pytest.approx(2.0)
    assert cert.expansion is None


def test_certify_enumerates_no_subsets(monkeypatch):
    # certify does the same work at every n: the exhaustive search, 1.2 s
    # of a 24-vertex certificate, stays with the expansion command.
    def enumerated(*args, **kwargs):
        raise AssertionError("certify enumerated subsets")

    monkeypatch.setattr(expansion, "expanding_constant_exact", enumerated)
    for x in (k4(), petersen(), random_regular(3, 24, 0)):
        cert = certify(x)
        assert cert.expansion is None and cert.n == x.n


def test_certify_requires_regular_connected(monkeypatch):
    with pytest.raises(ValidationError):
        certify(path(3))

    def reached(*args, **kwargs):
        raise AssertionError("certify went past its gate")

    # A disconnected and an irregular graph pass the header checks;
    # extreme_eigs refuses both before any bound is computed.
    monkeypatch.setattr(planner, "bound_entries", reached)
    for x in (two_triangles(),
              from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2)])):
        with pytest.raises(ValidationError, match="connected regular"):
            certify(x)


def test_certify_rejects_hostile_sizes_before_allocating():
    # 2m divisible by n and m >= n-1 are necessary for a connected regular
    # graph and read only the header, so nothing of size n gets built.
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="connected graph"):
            certify(from_edge_list(10**6, []))
        with pytest.raises(ValidationError, match="regular graph"):
            certify(from_edge_list(10**6, [(0, 1)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_certify_loaded_graph_matches_reference():
    # A loaded graph names no strategy, so no bound entry is valid.
    cert = certify(load_graph(_REFERENCE / "k7_n2184.txt"),
                   provenance=({"step": "load", "path": "out/k7_n2184.txt"},))
    assert len(cert.bounds) == 5
    assert not any(b["valid"] for b in cert.bounds)
    assert hashlib.sha256(cert.to_json().encode("ascii")).hexdigest() == (
        "31a59c3a57ca7509b93d5d01c37f6eb02fa1a699c9f6964613c06e5a769514f0")


def test_certify_large_graph_skips_expansion(x513):
    cert = certify(x513)
    assert cert.expansion is None
    assert cert.ramanujan


# ---------------------------------------------------------------------------
# determinism and replay
# ---------------------------------------------------------------------------


def test_construct_k7_matches_committed_reference(k7):
    x, cert = k7
    assert graph_to_text(x).encode("ascii") == (
        _REFERENCE / "k7_n2184.txt").read_bytes()
    reference = (_REFERENCE / "k7_n2184.json").read_bytes()
    assert cert.to_json().encode("ascii") == reference
    loaded = SpectralCertificate.from_json(reference.decode("ascii"))
    assert loaded.to_json().encode("ascii") == reference


def test_k7_pipeline_script_writes_the_reference(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "run_k7_pipeline.py"),
         str(tmp_path)],
        capture_output=True, text=True, env=script_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in ("k7_n2184.txt", "k7_n2184.json"):
        assert (tmp_path / name).read_bytes() == (_REFERENCE / name).read_bytes()


def test_output_digests_script_names_the_reference():
    # One sha256 line per graph text and certificate of five builds, and
    # one for the delta table; the construct(7, 1000) lines are the
    # digests of the files under out/.
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "output_digests.py")],
        capture_output=True, text=True, env=script_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 11
    for kind in ("txt", "json"):
        digest = hashlib.sha256(
            (_REFERENCE / f"k7_n2184.{kind}").read_bytes()).hexdigest()
        assert f"{digest}  construct(7, 1000) {kind}" in lines
    table = hashlib.sha256(json.dumps(delta_table()).encode()).hexdigest()
    assert lines[-1] == f"{table}  delta_table() json"


def test_construct_k7_reference_holds_with_two_blas_threads(k7_product):
    # n = 2184 is certified by the Lanczos recurrence on A plus Cholesky,
    # and the bipartite product (n = 4368) by the half-size recurrence;
    # neither's digits follow the OpenBLAS thread count the way a dense
    # eigh's did.  Nor do those of small graphs, which take the same
    # routes: the library bases of construct(3|4|5, 1), the 6-cube Q6
    # (bipartite) and K64.
    code = ("import sys; from expanderlab import certify, construct; "
            "from expanderlab.graph_core import from_edge_list; "
            "sys.stdout.write(construct(7, 1000)[1].to_json()); "
            "sys.stdout.write(construct(7, 1000, 'k2product')[1].to_json()); "
            "[sys.stdout.write(construct(k, 1)[1].to_json()) "
            " for k in (3, 4, 5)]; "
            "sys.stdout.write(certify(from_edge_list(64, [(v, v | 1 << b) "
            " for v in range(64) for b in range(6) if not v >> b & 1]))"
            " .to_json()); "
            "sys.stdout.write(certify(from_edge_list(64, [(u, v) "
            " for u in range(64) for v in range(u + 1, 64)])).to_json())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=script_env(OPENBLAS_NUM_THREADS="2"),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    small = [construct(k, 1)[1] for k in (3, 4, 5)]
    small += [certify(hypercube(6)), certify(complete_multipartite(64, 1))]
    assert [(c.n, c.bipartite) for c in small] == [
        (4, False), (5, False), (6, False), (64, True), (64, False)]
    assert proc.stdout == ((_REFERENCE / "k7_n2184.json").read_bytes()
                           + k7_product[1].to_json().encode("ascii")
                           + "".join(c.to_json() for c in small).encode())


def test_construct_is_deterministic(k7):
    x1, cert1 = k7
    x2, cert2 = construct(7, 1000)
    assert graph_to_text(x1) == graph_to_text(x2)
    assert cert1.to_json() == cert2.to_json()


def test_construct_k29_exchange_steps_match_reference():
    # X^{17,13} (n = 1092) plus 11 increments; seven of them leave vertices
    # exposed after the greedy pass, some four, and so run the exchange.
    # The graph digest is the output of the blossom search that earlier
    # releases ran.  The certificate's proof eliminates no vertex set here
    # (64 k > n), and a child process with two OpenBLAS threads must write
    # the same certificate.
    x, cert = construct(29, 1000)
    assert hashlib.sha256(graph_to_text(x).encode("ascii")).hexdigest() == (
        "5f172f7decb65d471d26a13b5c11ec584395741162078bf35a5297929b852f59")
    assert hashlib.sha256(cert.to_json().encode("ascii")).hexdigest() == (
        "0c8aa4c135ad27d63cf650e7662e69efaee03423cc4d3eda01befb579809738d")
    code = ("import sys; from expanderlab import construct; "
            "sys.stdout.write(construct(29, 1000)[1].to_json())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=script_env(OPENBLAS_NUM_THREADS="2"),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == cert.to_json().encode("ascii")


def test_construct_k7_product_iterative_path_matches_reference(k7_product):
    # n = 4368 is past the dense threshold, so this pins cartesian_k2 and
    # the iterative path byte for byte; digests computed with one OpenBLAS
    # thread, as the suite runs.  The product is bipartite, so lambda_1 and
    # lambda_n are exact and lambda_2 comes from the half-size Lanczos
    # recurrence.
    x, cert = k7_product
    assert cert.method == "iterative"
    assert (cert.lambda1, cert.lambda_n) == (7.0, -7.0)
    assert hashlib.sha256(graph_to_text(x).encode("ascii")).hexdigest() == (
        "2a5f0f0489332e31842584156186c81eecf3062ea681edbf224f420cec985916")
    assert hashlib.sha256(cert.to_json().encode("ascii")).hexdigest() == (
        "1fddfdcefb5d52643fc419542b4418c1a92492c304fff83d56c7831c66444704")


def test_construct_k8_iterative_path_matches_reference():
    # X^{5,29} plus two increments: n = 12180 > DENSE_THRESHOLD and not
    # bipartite, so lambda_2 and lambda_n come from one run of the Lanczos
    # recurrence on A, with no completeness proof.  The digests were
    # computed with one OpenBLAS thread, as the suite runs, and a child
    # process with two threads writes the same certificate.
    x, cert = construct(8, 10000)
    assert cert.method == "iterative" and not cert.bipartite
    assert hashlib.sha256(graph_to_text(x).encode("ascii")).hexdigest() == (
        "ef69eabf3dc564271c2acc6d9f47c4ba3ba6dd1461e739cf8542ac7f81ef559d")
    assert hashlib.sha256(cert.to_json().encode("ascii")).hexdigest() == (
        "19cb4af84996c860e250cb41cd4c1ce2e553235c94fe5e674d7c3d49c1625235")
    code = ("import sys; from expanderlab import construct; "
            "sys.stdout.write(construct(8, 10000)[1].to_json())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=script_env(OPENBLAS_NUM_THREADS="2"),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == cert.to_json().encode("ascii")


def test_replay_rebuilds_the_graph(k7):
    x, cert = k7
    assert replay(cert.provenance) == x


def test_replay_rebuilds_product_route(k7_product):
    x, cert = k7_product
    assert replay(cert.provenance) == x


def test_replay_detects_tampered_matching(k7):
    _, cert = k7
    steps = [dict(s) for s in cert.provenance]
    lines = steps[1]["matching"].splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    steps[1]["matching"] = "\n".join(lines) + "\n"
    with pytest.raises(ValidationError):
        replay(steps)


def test_replay_rejects_malformed_chains():
    with pytest.raises(ValidationError):
        replay(())
    with pytest.raises(ValidationError):
        replay(({"step": "matching_increment"},))
    with pytest.raises(ValidationError):
        replay(({"step": "k2_product"},))
    with pytest.raises(ValidationError):
        replay(({"step": "teleport"},))


_PETERSEN = {"step": "library", "name": "petersen"}


@pytest.mark.parametrize("steps", [
    [{"step": "lps", "p": 5}],
    [{"step": "lps", "p": "5", "q": 13}],
    [{"step": "lps", "p": 5.0, "q": 13}],
    [{"step": "lps", "p": 5, "q": True}],
    [{"step": "library", "name": 7}],
    [{"step": "library", "name": ["petersen"]}],
    [{"step": "library", "name": "cycle(9)"}],
    ["lps"],
    [None],
    [{"step": ["lps"]}],
    [_PETERSEN, _PETERSEN],
    [_PETERSEN, {"step": "lps", "p": 5, "q": 13}],
    [_PETERSEN, {"step": "matching_increment", "matching": 7}],
], ids=["lps-no-q", "lps-str-p", "lps-float-p", "lps-bool-q", "library-int",
        "library-list", "library-unknown", "bare-str", "none", "list-op",
        "second-library", "lps-after-base", "matching-not-text"])
def test_replay_refuses_malformed_steps(steps):
    with pytest.raises(ValidationError):
        replay(steps)


@pytest.mark.parametrize("provenance", [None, 5], ids=["none", "int"])
def test_replay_refuses_a_provenance_that_is_not_iterable(provenance):
    with pytest.raises(ValidationError, match="provenance must be"):
        replay(provenance)


@pytest.mark.parametrize("step, message", [
    ({"step": "lps", "p": 5, "q": 2**64 + 1},
     "q=18446744073709551617 exceeds the largest modulus 101"),
    ({"step": "lps", "p": 10**400 + 1, "q": 13},
     f"q=13 must exceed 2*sqrt(p)={2 * 10**200}.000 "
     "for a simple loop-free graph"),
    ({"step": "lps", "p": 2**64 + 1, "q": 13},
     "q=13 must exceed 2*sqrt(p)=8589934592.000 for a simple loop-free graph"),
], ids=["q-2**64+1", "p-10**400+1", "p-2**64+1"])
def test_replay_refuses_an_oversized_lps_id_by_the_base_rule(monkeypatch,
                                                             step, message):
    # The base rule's own range tests refuse these ids before any
    # primality test, which takes only n < 2**63, and without a float.
    def never(*args):
        raise AssertionError("primality test before the range checks")

    monkeypatch.setattr(ramanujan_base, "is_prime", never)
    with pytest.raises(ValidationError) as err:
        replay([step])
    assert str(err.value) == message


@pytest.mark.parametrize("p, q, message", [
    (5, 10**5000 + 1, "q=<16610-bit integer> exceeds the largest modulus 101"),
    (10**5000 + 3, 13,
     "p=<16610-bit integer> must be a prime = 1 (mod 4), at least 5"),
    (10**9000 + 1, 13, "q=13 must exceed 2*sqrt(p)=<14950-bit integer>.000 "
     "for a simple loop-free graph"),
], ids=["q-5001-digits", "p-5001-digits", "p-9001-digits"])
def test_replay_names_an_lps_id_too_long_to_print(p, q, message):
    # Printed in decimal, each of these numbers is past the interpreter's
    # 4300-digit limit, and the refusal escaped as ValueError.
    with pytest.raises(ValidationError) as err:
        replay([{"step": "lps", "p": p, "q": q}])
    assert str(err.value) == message


def test_base_rule_message_rounds_like_a_float():
    # The refusal's 2*sqrt(p), worked out in integers, prints as the float
    # did at every p that q = 5 is too small for, prime or not.
    for p in range(9, 2**14, 4):
        assert _fault(p, 5) == (f"q=5 must exceed 2*sqrt(p)="
                                f"{2 * math.sqrt(p):.3f} "
                                "for a simple loop-free graph"), p


def _refuse_builds(mp: pytest.MonkeyPatch) -> None:
    """Make every build and eigensolve the planner calls fail the test."""
    def built(*args, **kwargs):
        raise AssertionError("a refused chain reached a build")

    for name in ("build_lps", "small_ramanujan", "increment_regularity",
                 "cartesian_k2", "extreme_eigs"):
        mp.setattr(planner, name, built)


# X^{5,101} has 515 100 vertices; X^{5,13} has 2184, so its 1087th
# increment, from k = 1092, needs n >= 2186.
_LPS_101_THEN_UNKNOWN = [{"step": "lps", "p": 5, "q": 101},
                         {"step": "teleport"}]
_PAST_2K_PLUS_2 = ([{"step": "lps", "p": 5, "q": 13}]
                   + [{"step": "matching_increment"}] * 1090)


@pytest.mark.parametrize("steps, message", [
    (_LPS_101_THEN_UNKNOWN, "unknown provenance step"),
    (_PAST_2K_PLUS_2, r"cannot increment: n=2184 < 2k\+2=2186"),
], ids=["lps-101-then-unknown", "increments-past-2k+2"])
def test_replay_refuses_a_hostile_chain_before_building(monkeypatch, steps,
                                                        message):
    # Both chains are small text; the first would build a 515 100-vertex
    # base and the second run 1086 increments before their fault showed.
    _refuse_builds(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=message):
            replay(steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_certify_refuses_an_infeasible_chain_before_building(monkeypatch):
    # The route matches the hand-made plan step for step; the walk still
    # finds the increment X^{5,13} cannot take.
    _refuse_builds(monkeypatch)
    with pytest.raises(ValidationError,
                       match=r"cannot increment: n=2184 < 2k\+2=2186"):
        certify(petersen(), provenance=_PAST_2K_PLUS_2, strategy="matching",
                build=planner.BuildPlan("lps", 5, 1090))


def test_chain_walk_and_increment_refuse_with_one_message():
    # Petersen takes two increments (n = 10 >= 2k + 2 up to k = 4); the
    # walk refuses the third with the message increment_regularity gives.
    x = replay([_PETERSEN] + [{"step": "matching_increment"}] * 2)
    with pytest.raises(ValidationError) as direct:
        increment_regularity(x)
    with pytest.raises(ValidationError) as walked:
        replay([_PETERSEN] + [{"step": "matching_increment"}] * 3)
    assert str(walked.value) == str(direct.value) == (
        "cannot increment: n=10 < 2k+2=12")


# -- fuzzed provenance chains ------------------------------------------------

_BASES = ({"step": "library", "name": "petersen"},
          {"step": "lps", "p": 5, "q": 13})
_OPS = ("matching_increment", "k2_product")
# Values that are not what construct records in a field, and ints that no
# base admits as p or q (13 and 17 do, but only give small graphs).
_BAD_FIELDS = st.sampled_from([None, True, False, 5.0, "5", b"13", [5],
                               {"p": 5}, "cycle(9)", 7])
_BAD_IDS = st.sampled_from([-13, 0, 1, 2, 3, 4, 7, 9, 11, 13, 17, 2**61 - 1,
                            2**64 + 1, 2**200 + 1])
_BAD_OPS = st.sampled_from(["teleport", "", "LPS", None, 5, ["lps"],
                            "library", "lps", *_OPS])
_NOT_STEPS = st.sampled_from([None, "lps", 5, ["lps"], ("lps", 5, 13)])


@st.composite
def _chains(draw):
    """A chain of up to three increments on a small base, then at most one
    mutation.  No base here has more than 2184 vertices, so a long run of
    increments is past n >= 2k + 2 even after three doublings."""
    steps = [dict(draw(st.sampled_from(_BASES)))]
    steps += [{"step": op} for op in draw(st.lists(st.sampled_from(_OPS),
                                                   max_size=3))]
    i = draw(st.integers(0, len(steps) - 1))
    step = steps[i]
    kind = draw(st.sampled_from(["none", "field", "bool", "id", "op",
                                 "place", "matching", "long"]))
    if kind == "field":
        key = draw(st.sampled_from(["step", "name", "p", "q", "matching"]))
        step[key] = draw(_BAD_FIELDS)
    elif kind == "bool":
        step[draw(st.sampled_from(["p", "q"]))] = True
    elif kind == "id":
        steps[0] = dict(_BASES[1])
        steps[0][draw(st.sampled_from(["p", "q"]))] = draw(_BAD_IDS)
    elif kind == "op":
        step["step"] = draw(_BAD_OPS)
    elif kind == "place":
        where = draw(st.integers(0, len(steps)))
        what = draw(st.one_of(st.sampled_from(_BASES).map(dict), _NOT_STEPS))
        steps.insert(where, what)
        if draw(st.booleans()):
            del steps[0]
    elif kind == "matching":
        step["matching"] = draw(st.sampled_from(["", "0 1\n", "0 1\n2 3\n",
                                                 7, b"0 1\n", ["0 1"]]))
    elif kind == "long":
        steps += [{"step": "matching_increment"}] * 40_000
    return steps


@given(_chains())
def test_replay_fuzzed_chains_build_or_refuse_before_building(steps):
    # A chain either builds a Graph or raises ValidationError; only a
    # well-formed chain whose recorded matching differs from the
    # recomputed one is refused after building.
    built = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("build_lps", "small_ramanujan", "increment_regularity",
                     "cartesian_k2"):
            def counted(*args, _f=getattr(planner, name), **kwargs):
                built.append(_f.__name__)
                if len(built) > 8:
                    raise AssertionError("fuzzed chain ran a long build")
                return _f(*args, **kwargs)
            mp.setattr(planner, name, counted)
        try:
            x = replay(steps)
        except ValidationError as exc:
            assert not built or "replayed matching differs" in str(exc), (
                built, exc)
        else:
            assert isinstance(x, Graph)


def test_replay_refuses_unknown_library_name_before_allocating():
    # A name outside the fixed library is refused before any graph is built.
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="unknown graph name"):
            replay([{"step": "library", "name": "complete(100000)"}])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# matching vs K2 product from the same X^{5,13} base
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def faceoff():
    """construct(k, 1, strategy) certificates for k = 6..8, by strategy."""
    return {k: {s: construct(k, 1, s)[1] for s in ("matching", "k2product")}
            for k in (6, 7, 8)}


def test_strategies_face_off_from_one_base(faceoff):
    base = faceoff[6]
    assert base["matching"].provenance == base["k2product"].provenance
    assert base["matching"].provenance == ({"step": "lps", "p": 5, "q": 13},)
    assert (base["matching"].n, base["matching"].lambda2) == (
        base["k2product"].n, base["k2product"].lambda2)
    for k in (7, 8):
        m, m_prev = faceoff[k]["matching"], faceoff[k - 1]["matching"]
        pr, pr_prev = faceoff[k]["k2product"], faceoff[k - 1]["k2product"]
        assert m.provenance[0] == pr.provenance[0] == base["matching"].provenance[0]
        assert m.lambda2 <= m_prev.lambda2 + 1.0 + 1e-9
        assert pr.n == 2 * pr_prev.n
        expected = max(pr_prev.lambda2 + 1.0, pr_prev.k - 1.0)
        assert pr.lambda2 == pytest.approx(expected, abs=1e-6)
    # The matching route ends with the larger spectral gap.
    assert faceoff[8]["matching"].spectral_gap > faceoff[8]["k2product"].spectral_gap


def _faceoff_script(target: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "strategy_faceoff.py"),
         target], capture_output=True, text=True, env=script_env(),
        timeout=300)


def test_strategy_faceoff_script_runs(faceoff):
    proc = _faceoff_script("7")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("base X^(5,13), group PGL2, k=6 -> 7\n")
    rows = [line.split("|") for line in proc.stdout.splitlines()
            if line.split("|")[0].strip().isdigit()]
    assert [int(row[0]) for row in rows] == [6, 7]
    for row in rows:
        certs = faceoff[int(row[0])]
        for cell, strategy in zip(row[1:], ("matching", "k2product")):
            n, lambda2, _ = cell.split()
            assert int(n) == certs[strategy].n
            assert lambda2 == f"{certs[strategy].lambda2:.6f}"


@pytest.mark.parametrize("target", ["5", "14"])
def test_strategy_faceoff_script_refuses_other_bases(target):
    # k = 5 lies below the base regularity 6; k = 14 anchors at p* = 13.
    proc = _faceoff_script(target)
    assert proc.returncode == 1
    assert "6..13" in proc.stderr and not proc.stdout
