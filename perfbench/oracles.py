"""Independent checks of the outputs a benchmark run wrote.

Nothing here imports expanderlab: every check recomputes its answer with
numpy and scipy, or tests a property the construction must have.  Each
oracle is first checked on a small input against a second method of its
own, so a wrong oracle cannot pass a wrong program.

Run as a child of run.py, so the memory the checks use does not count
toward the workload's peak RSS:

    python3 perfbench/oracles.py <workload> <output-dir> <seed>

It prints one JSON line: {"selfcheck": {...}, "failures": {op: [msg, ...]}}.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import LinearOperator, eigsh

# The paper's table of worst normalized prime gaps, rounded up to 2 decimals.
PAPER_CEILINGS = (1.52, 1.32, 0.94, 0.41, 0.22, 0.12)
DECADES = tuple((10**e, 10**(e + 1)) for e in range(1, 7))

# The certificate tolerance of expanderlab's default certify call.
TOL = 1e-8
DENSE_MAX_N = 4096
LANCZOS_SEED = 20140203


def relabel_permutation(n: int, seed: int) -> np.ndarray:
    """The vertex relabelling the lps workload applies, drawn from its seed."""
    return np.random.default_rng(seed).permutation(n)


# -- prime gaps ------------------------------------------------------------


def sieve_primes(limit: int) -> np.ndarray:
    """All primes < limit (Eratosthenes over a numpy byte array)."""
    is_p = np.ones(limit, dtype=bool)
    is_p[:2] = False
    for i in range(2, math.isqrt(limit - 1) + 1):
        if is_p[i]:
            is_p[i * i::i] = False
    return np.flatnonzero(is_p).astype(np.int64)


def _argmax_delta(ps: list[int], gaps: list[int]) -> tuple[int, int]:
    """(p, gap) maximizing gap/sqrt(p) exactly; ties go to the smaller p."""
    best_p, best_gap = ps[0], gaps[0]
    for p, g in zip(ps, gaps):
        if g * g * best_p > best_gap * best_gap * p:
            best_p, best_gap = p, g
    return best_p, best_gap


def sieve_max_delta(primes: np.ndarray, lo: int, hi: int) -> tuple[float, int]:
    """max delta_k over k in [lo, hi] and its smallest witness k.

    delta_k is gap/sqrt(p) at p = the largest prime below k, so the primes
    that matter run from the largest prime below lo up to the last prime
    below hi.  A float prefilter keeps the near-maximal candidates and the
    exact integer comparison picks among them.
    """
    first = int(np.searchsorted(primes, lo)) - 1
    last = int(np.searchsorted(primes, hi)) - 1
    ps = primes[first:last + 1]
    gaps = primes[first + 1:last + 2] - ps
    ratio = gaps.astype(np.float64) ** 2 / ps
    keep = np.flatnonzero(ratio >= ratio.max() * (1 - 1e-9))
    p, gap = _argmax_delta([int(v) for v in ps[keep]], [int(v) for v in gaps[keep]])
    return gap / math.sqrt(p), max(lo, p + 1)


def fraction_max_delta(lo: int, hi: int) -> tuple[float, int]:
    """The same maximum by trial division and Fraction comparison."""
    def prime(n: int) -> bool:
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    p = lo - 1
    while not prime(p):
        p -= 1
    best = None
    while p < hi:
        nxt = p + 1
        while not prime(nxt):
            nxt += 1
        score = Fraction((nxt - p) ** 2, p)
        if best is None or score > best[0]:
            best = (score, p, nxt - p)
        p = nxt
    _, p, gap = best
    return gap / math.sqrt(p), max(lo, p + 1)


def check_table(rows: list[dict], primes: np.ndarray) -> list[str]:
    bad = []
    if [(r["lo"], r["hi"]) for r in rows] != list(DECADES):
        return [f"table ranges {[(r['lo'], r['hi']) for r in rows]} != {DECADES}"]
    for r, ceiling in zip(rows, PAPER_CEILINGS):
        value, witness = sieve_max_delta(primes, r["lo"], r["hi"])
        if (r["max_delta"], r["witness_k"]) != (value, witness):
            bad.append(f"[{r['lo']}, {r['hi']}]: program ({r['max_delta']!r}, "
                       f"{r['witness_k']}) != sieve ({value!r}, {witness})")
        if math.ceil(value * 100) / 100 != ceiling or r["delta_ceil"] != ceiling:
            bad.append(f"[{r['lo']}, {r['hi']}]: ceiling {r['delta_ceil']} "
                       f"(sieve {value:.6f}) != paper {ceiling}")
    return bad


# -- graphs ----------------------------------------------------------------


class EdgeList:
    """An edge-list text parsed into arrays, with its adjacency matrix."""

    def __init__(self, text: str):
        head, _, body = text.partition("\n")
        self.n, self.m = (int(t) for t in head.split())
        flat = np.array(body.split(), dtype=np.int64)
        if flat.size != 2 * self.m:
            raise ValueError(f"header promises {self.m} edges, text has "
                             f"{flat.size / 2}")
        self.edges = flat.reshape(self.m, 2)
        u, v = self.edges[:, 0], self.edges[:, 1]
        self.adj = sparse.csr_matrix(
            (np.ones(2 * self.m), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(self.n, self.n))
        self._top2: tuple[float, float] | None = None

    def codes(self) -> np.ndarray:
        return self.edges[:, 0] * self.n + self.edges[:, 1]

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


def structure_failures(g: EdgeList, k: int) -> list[str]:
    """Simple, k-regular and connected, read from the text alone."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    bad = []
    if not (np.all(u < v) and u.min() >= 0 and v.max() < g.n):
        bad.append("edge lines must satisfy 0 <= u < v < n")
    if np.unique(g.codes()).size != g.m:
        bad.append("graph has parallel edges")
    deg = g.degrees()
    if not np.all(deg == k):
        bad.append(f"degrees span {deg.min()}..{deg.max()}, expected {k}")
    ncomp, _ = csgraph.connected_components(g.adj, directed=False)
    if ncomp != 1:
        bad.append(f"graph has {ncomp} components")
    return bad


def two_colourable(g: EdgeList) -> bool:
    """BFS levels from vertex 0; bipartite iff every edge joins two parities."""
    order, pred = csgraph.breadth_first_order(g.adj, 0, directed=False,
                                              return_predecessors=True)
    level = np.zeros(g.n, dtype=np.int64)
    for w in order[1:]:
        level[w] = level[pred[w]] + 1
    side = level % 2
    return bool(np.all(side[g.edges[:, 0]] != side[g.edges[:, 1]]))


def dense_top2(g: EdgeList) -> tuple[float, float]:
    """(lambda_1, lambda_2) by dense eigvalsh, computed once per graph."""
    if g._top2 is None:
        w = np.linalg.eigvalsh(g.adj.toarray())
        g._top2 = float(w[-1]), float(w[-2])
    return g._top2


def deflated_lambda2(adj, k: int) -> tuple[float, float]:
    """lambda_2 of a connected k-regular graph by Lanczos, and its residual.

    The constant vector is the lambda_1 = k eigenvector, so projecting it
    out leaves lambda_2 as the largest eigenvalue of the operator.
    """
    n = adj.shape[0]

    def matvec(x):
        x = np.ravel(x)
        y = adj @ (x - x.mean())
        return y - y.mean()

    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    w, vec = eigsh(op, k=1, which="LA", v0=v0, tol=1e-12)
    x = vec[:, 0]
    res = float(np.linalg.norm(matvec(x) - w[0] * x) / np.linalg.norm(x))
    return float(w[0]), res


def lambda2(g: EdgeList, k: int) -> tuple[float, float]:
    """(lambda_2, error bound): dense up to DENSE_MAX_N, Lanczos beyond."""
    if g.n <= DENSE_MAX_N:
        return dense_top2(g)[1], 1e-10
    return deflated_lambda2(g.adj, k)


def lanczos_selfcheck(g: EdgeList, k: int) -> dict:
    """Deflated Lanczos against dense eigvalsh on one graph of n <= 4096."""
    dense = dense_top2(g)[1]
    lanczos, res = deflated_lambda2(g.adj, k)
    ok = abs(dense - lanczos) <= res + 1e-9
    return {"ok": ok, "n": g.n, "dense": dense, "lanczos": lanczos,
            "residual": res}


def random_regular_text(n: int, k: int, seed: int) -> str:
    """Union of k random perfect matchings: a k-regular multigraph."""
    rng = np.random.default_rng(seed)
    pairs = [np.sort(rng.permutation(n).reshape(-1, 2), axis=1) for _ in range(k)]
    e = np.concatenate(pairs)
    return f"{n} {len(e)}\n" + "".join(f"{a} {b}\n" for a, b in e)


def lps_size(p: int, q: int) -> int:
    """|PSL(2,q)| when p is a square mod q (Euler's criterion), else |PGL(2,q)|."""
    full = q * (q * q - 1)
    return full // 2 if pow(p, (q - 1) // 2, q) == 1 else full


def smallest_q(p: int, min_vertices: int) -> int:
    """Smallest prime q = 1 (mod 4), q != p, q^2 > 4p, whose graph is big enough."""
    q = 5
    while True:
        if (q % 4 == 1 and q != p and q * q > 4 * p
                and all(q % d for d in range(2, math.isqrt(q) + 1))
                and lps_size(p, q) >= min_vertices):
            return q
        q += 2


def spectral_failures(g: EdgeList, cert: dict, k: int) -> list[str]:
    """Certificate fields against the benchmark's own measurements."""
    bad = []
    slack = cert["residual"] + TOL
    if (cert["k"], cert["n"]) != (k, g.n):
        bad.append(f"certificate (k, n) = ({cert['k']}, {cert['n']}), "
                   f"graph ({k}, {g.n})")
    if abs(cert["lambda1"] - k) > slack:
        bad.append(f"lambda1 {cert['lambda1']!r} != k = {k}")
    bip = two_colourable(g)
    if cert["bipartite"] != bip:
        bad.append(f"bipartite flag {cert['bipartite']}, 2-colouring says {bip}")
    if (abs(cert["lambda_n"] + k) <= slack) != bip:
        bad.append(f"lambda_n {cert['lambda_n']!r} disagrees with bipartite={bip}")
    lam2, err = lambda2(g, k)
    if abs(lam2 - cert["lambda2"]) > slack + err:
        bad.append(f"lambda2 {cert['lambda2']!r} != recomputed {lam2!r} "
                   f"(allowed {slack + err:.2e})")
    return bad


def bound_entry(cert: dict, model: str) -> dict:
    return next((b for b in cert["bounds"] if b["model"] == model), {})


def check_construct(g: EdgeList, cert_text: str, k: int, min_vertices: int,
                    increments: int) -> list[str]:
    """A matching-strategy construct: X^{5,q} plus perfect-matching increments."""
    cert = json.loads(cert_text)
    bad = structure_failures(g, k) + spectral_failures(g, cert, k)
    steps = cert["provenance"]
    q = smallest_q(5, min_vertices)
    if steps[0] != {"step": "lps", "p": 5, "q": q}:
        bad.append(f"base step {steps[0]} is not X^(5,{q})")
    if g.n != lps_size(5, q):
        bad.append(f"n = {g.n}, Euler's criterion on (5|{q}) gives {lps_size(5, q)}")
    bound = 2 * math.sqrt(5) + (k - 6)
    if cert["lambda2"] > bound + cert["residual"] + TOL:
        bad.append(f"lambda2 {cert['lambda2']!r} exceeds 2*sqrt(5) + {k - 6}")
    chain = bound_entry(cert, "lambda2_matching_chain")
    if not chain.get("valid") or abs(chain.get("value", math.inf) - bound) > 1e-12:
        bad.append(f"matching-chain entry {chain} should be valid at {bound!r}")
    incs = [s for s in steps[1:] if s["step"] == "matching_increment"]
    if len(incs) != increments or len(steps) != 1 + increments:
        bad.append(f"provenance has {len(incs)} increments, expected {increments}")
    # Peel the matchings off newest first: each must be perfect, present,
    # and leave a graph one degree lower.
    remaining = np.sort(g.codes())
    for depth, step in enumerate(reversed(incs), start=1):
        pairs = np.array(step["matching"].split(), dtype=np.int64).reshape(-1, 2)
        if np.unique(pairs).size != g.n or pairs.size != g.n:
            bad.append(f"matching {depth} from the end is not perfect")
            break
        codes = np.sort(pairs.min(axis=1) * g.n + pairs.max(axis=1))
        keep = ~np.isin(remaining, codes)
        if remaining.size - keep.sum() != codes.size:
            bad.append(f"matching {depth} from the end is not in the graph")
            break
        remaining = remaining[keep]
        deg = np.bincount(np.concatenate([remaining // g.n, remaining % g.n]),
                          minlength=g.n)
        if not np.all(deg == k - depth):
            bad.append(f"removing {depth} matching(s) leaves degrees "
                       f"{deg.min()}..{deg.max()}, expected {k - depth}")
    return bad


def check_product(text: str, cert_text: str, k: int) -> list[str]:
    """A k2product construct: the spectrum follows the product law."""
    g, cert = EdgeList(text), json.loads(cert_text)
    bad = structure_failures(g, k) + spectral_failures(g, cert, k)
    half = g.n // 2
    u, v = g.edges[:, 0], g.edges[:, 1]
    low, high = (v < half), (u >= half)
    cross = ~low & ~high
    base_codes = u[low] * g.n + v[low]
    if (not np.array_equal(np.sort(u[cross]), np.arange(half))
            or not np.all(v[cross] == u[cross] + half)
            or not np.array_equal(np.sort(base_codes),
                                  np.sort((u[high] - half) * g.n + v[high] - half))):
        bad.append("graph is not two copies of a base joined by i ~ i + n/2")
        return bad
    base = EdgeList(f"{half} {int(low.sum())}\n"
                    + "".join(f"{a} {b}\n" for a, b in g.edges[low]))
    lam1_b, lam2_b = dense_top2(base)
    expected = max(lam2_b + 1.0, lam1_b - 1.0)
    if abs(cert["lambda2"] - expected) > cert["residual"] + TOL + 1e-10:
        bad.append(f"lambda2 {cert['lambda2']!r} != product law {expected!r}")
    for model in ("lambda2_matching_chain", "lambda2_chain_intermediate",
                  "lambda2_chain_normalized"):
        if bound_entry(cert, model).get("valid", True):
            bad.append(f"{model} must be present and invalid for k2product")
    return bad


def check_lps(base_text: str, text: str, cert_text: str, seed: int) -> dict:
    g, cert = EdgeList(text), json.loads(cert_text)
    bad = structure_failures(g, 6) + spectral_failures(g, cert, 6)
    if g.n != lps_size(5, 53):
        bad.append(f"n = {g.n}, Euler's criterion on (5|53) gives {lps_size(5, 53)}")
    if cert["lambda2"] > 2 * math.sqrt(5) + cert["residual"] + TOL:
        bad.append(f"lambda2 {cert['lambda2']!r} exceeds 2*sqrt(5)")
    base = EdgeList(base_text)
    perm = relabel_permutation(base.n, seed)
    mapped = np.sort(perm[base.edges], axis=1)
    if base.n != g.n or not np.array_equal(
            np.sort(mapped[:, 0] * g.n + mapped[:, 1]), np.sort(g.codes())):
        return {"build": ["built graph is not the certified graph relabelled"],
                "certify": bad}
    return {"build": [], "certify": bad}


def run_checks(workload: str, out: Path, seed: int) -> dict:
    """Self-check the oracles, then check every output that was written.

    An operation that failed in every round wrote nothing; it is already
    counted as failed, so its checks are skipped.
    """
    def have(*names: str) -> bool:
        return all((out / name).is_file() for name in names)

    def read(name: str) -> str:
        return (out / name).read_text(encoding="ascii")

    selfcheck: dict = {}
    failures: dict[str, list[str]] = {}
    if workload == "delta-table":
        primes = sieve_primes(10**7 + 1000)
        pairs = [(sieve_max_delta(primes, lo, hi), fraction_max_delta(lo, hi))
                 for lo, hi in DECADES[:3]]
        selfcheck["sieve_vs_fraction"] = {"ok": all(a == b for a, b in pairs)}
        if have("table.json"):
            failures["table"] = check_table(json.loads(read("table.json")), primes)
        return {"selfcheck": selfcheck, "failures": failures}

    # Lanczos against dense on the k7 graph where the workload built it,
    # else on a fixed 7-regular multigraph of the same size.
    probe = EdgeList(read("k7.txt") if have("k7.txt")
                     else random_regular_text(2184, 7, LANCZOS_SEED))
    selfcheck["lanczos_vs_dense"] = lanczos_selfcheck(probe, 7)
    if workload == "k7-n2184":
        if have("k7.txt", "k7.json"):
            failures["construct"] = check_construct(probe, read("k7.json"), 7, 1000, 1)
        if have("k7_product.txt", "k7_product.json"):
            failures["product_construct"] = check_product(
                read("k7_product.txt"), read("k7_product.json"), 7)
    elif workload == "k8-n12180" and have("k8.txt", "k8.json"):
        failures["construct"] = check_construct(EdgeList(read("k8.txt")),
                                                read("k8.json"), 8, 10000, 2)
    elif workload == "lps-n148824" and have("lps_base.txt", "lps.txt", "lps.json"):
        failures.update(check_lps(read("lps_base.txt"), read("lps.txt"),
                                  read("lps.json"), seed))
    return {"selfcheck": selfcheck, "failures": failures}


if __name__ == "__main__":
    print(json.dumps(run_checks(sys.argv[1], Path(sys.argv[2]), int(sys.argv[3]))))
