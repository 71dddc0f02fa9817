"""Independent oracles and graph factories for the test suite.

Everything here is deliberately naive: sieves, exhaustive enumeration,
brute force over subsets.  None of it shares code with the package, so an
agreement between the two is evidence, not tautology.  The one exception in
kind is blossom_mate, the general matching search that earlier releases ran
for every regularity increment: it is kept as the reference those
increments must still reproduce.  walk_max_delta is kept the same way: it
is the Miller-Rabin prime walk that max_delta_in_range ran before the
segmented sieve, and the reference the sieve must reproduce, value and
witness; it shares only the package's point queries prev_prime and
next_prime.  line_parse_graph and double_cover_is_bipartite are kept the
same way: the per-line text parser that graph_from_text still falls back
to, and the component count that is_bipartite read before the
breadth-first colouring.  searchsorted_lps is kept the same way: the
build_lps that found each generator's images by binary search over the
sorted vertex codes and handed its edges to from_edge_list in generator
order; it shares the package's vertex, generator and normalization steps,
so it checks the code table and the canonical emission that replaced that
search.  isoperimetric_check is no oracle either: it
checks the package's own spectrum and exact expansion against the Cheeger
sandwich that ties them together.  fstring_lines is kept the same way as
the blossom: the per-edge f-string writer behind graph_to_text and
Matching.to_text before the blocked byte writer, whose bytes it must
reproduce.  proof_matrices is no oracle either: it forms, dense and from
the full matrices, the Schur complements that spectral._prove_extremes
fills into one packed triangle, which the fill must reproduce to
rounding; matching_side is the plain walk that picks their vertex set.
adjacency_matrix is the dense adjacency that every dense oracle reads,
formed from the edge list rather than from the package's sparse one.
coo_adjacency is kept the same way as the blossom: the CSR that
Graph.adjacency_sparse built through scipy's COO conversion before it
built the upper triangle from the canonical rows, which it must reproduce
array for array.  whole_array_expansion is kept the same way: the
expanding_constant_exact that held all 2^n masks' ratios at once, which
the blocked sweep must reproduce, h and witness; it shares the package's
lex-least tie-break.  stored_basis_ritz_pairs is no oracle for the
recurrence either: it runs the package's _lanczos once and keeps every
basis vector, which the second pass of _ritz_pairs rebuilds instead, bit
for bit.
"""

from __future__ import annotations

import math
import os
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from expanderlab import (
    cartesian_k2,
    extreme_eigs,
    is_connected,
    regularity,
    spectral,
)
from expanderlab.errors import ValidationError
from expanderlab.expansion import (
    _LCM,
    _lex_least_mask,
    expanding_constant_exact,
)
from expanderlab.graph_core import Graph, Matching, from_edge_list
from expanderlab.numtheory import next_prime, prev_prime
from expanderlab.ramanujan_base import (
    _decode,
    _generators,
    _normalize,
    _vertices,
    lps_params,
)


_SRC = Path(__file__).resolve().parent.parent / "src"


def script_env(**overrides: str) -> dict[str, str]:
    """The caller's environment for a child process that imports the
    checkout's package: src first on PYTHONPATH, then overrides."""
    pythonpath = os.pathsep.join(
        filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **overrides}


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit by the sieve of Eratosthenes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if mask[i]:
            mask[i * i:: i] = False
    return np.flatnonzero(mask)


def walk_max_delta(lo: int, hi: int) -> tuple[float, int]:
    """max_delta_in_range(lo, hi) by walking the primes one point query at a time.

    Walks p from prev_prime(lo) while p < hi, gap = next_prime(p) - p, and
    keeps the first p with the largest gap^2/p by exact cross-multiplication.
    """
    p = prev_prime(lo)
    best_p = best_gap = 0
    while p < hi:
        gap = next_prime(p) - p
        if best_p == 0 or gap * gap * best_p > best_gap * best_gap * p:
            best_p, best_gap = p, gap
        p += gap
    return best_gap / math.sqrt(best_p), max(lo, best_p + 1)


# -- named graphs ------------------------------------------------------------


def k4() -> Graph:
    return from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def cycle(n: int) -> Graph:
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def hypercube(d: int) -> Graph:
    """The d-cube Q_d: v ~ v with bit b set, for each bit b clear in v."""
    return from_edge_list(2 ** d, [(v, v | 1 << b) for v in range(2 ** d)
                                   for b in range(d) if not v >> b & 1])


def path(n: int) -> Graph:
    return from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


def petersen() -> Graph:
    outer = [(v, (v + 1) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return from_edge_list(10, outer + spokes + inner)


def two_triangles() -> Graph:
    return from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def doubled_cycle(n: int) -> Graph:
    """4-regular connected multigraph: every cycle edge twice."""
    e = [(v, (v + 1) % n) for v in range(n)]
    return from_edge_list(n, e + e)


def parallel_k2(mult: int) -> Graph:
    """Two vertices joined by mult parallel edges."""
    return from_edge_list(2, [(0, 1)] * mult)


def edge_pairs(x: Graph) -> tuple[tuple[int, int], ...]:
    """x's edges in canonical order as (u, v) tuples of Python ints."""
    return tuple(map(tuple, x.edges.tolist()))


def neighbor_lists(x: Graph) -> list[list[int]]:
    """Ascending adjacency lists, repeated per multiplicity, from the edges."""
    adj: list[list[int]] = [[] for _ in range(x.n)]
    for u, v in edge_pairs(x):
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(nbrs) for nbrs in adj]


# -- random graphs via networkx ---------------------------------------------


def to_graph(g: nx.Graph) -> Graph:
    return from_edge_list(g.number_of_nodes(),
                          [(int(u), int(v)) for u, v in g.edges()])


def random_regular(k: int, n: int, seed: int) -> Graph:
    """Connected random k-regular simple graph (seed bumped until connected)."""
    s = seed
    while True:
        g = nx.random_regular_graph(k, n, seed=s)
        if nx.is_connected(g):
            return to_graph(g)
        s += 1000003


def random_gnp(n: int, p: float, seed: int) -> Graph:
    return to_graph(nx.gnp_random_graph(n, p, seed=seed))


# -- oracles -----------------------------------------------------------------


def _nx_matching(x: Graph) -> Matching:
    g = nx.Graph()
    g.add_nodes_from(range(x.n))
    g.add_edges_from(set(edge_pairs(x)))
    return Matching(nx.max_weight_matching(g, maxcardinality=True))


def nx_max_matching_size(x: Graph) -> int:
    return len(_nx_matching(x))


def exhaustive_max_matching_size(x: Graph) -> int:
    """Branch over edges; exact for small n."""
    edges = sorted(set(edge_pairs(x)))
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        for j in range(i, len(edges)):
            u, v = edges[j]
            if not (used >> u & 1 or used >> v & 1):
                rec(j + 1, used | 1 << u | 1 << v, size + 1)

    rec(0, 0, 0)
    return best


def perfect_matching(x: Graph) -> Matching:
    """A perfect matching of x by networkx; ValidationError if none exists."""
    m = _nx_matching(x)
    if not m.is_perfect(x.n):
        raise ValidationError(
            f"maximum matching has size {len(m)}, covering {2 * len(m)} of "
            f"{x.n} vertices")
    return m


def remove_matching(x: Graph, m: Matching) -> Graph:
    """Delete one copy of each matching pair; every pair must be present."""
    left = Counter(edge_pairs(x))
    for pair in m:
        if left[pair] == 0:
            raise ValidationError(f"matching pair {pair} is not an edge")
        left[pair] -= 1
    return from_edge_list(x.n, left.elements())


def decrement_regularity(x: Graph) -> tuple[Graph, Matching]:
    """Lower regularity by one by deleting a perfect matching of x."""
    m = perfect_matching(x)
    return remove_matching(x, m), m


def blossom_mate(n: int, neigh: Callable[[int], Iterable[int]]) -> list[int]:
    """Maximum matching on 0..n-1 by Edmonds' blossom search, as a mate array.

    A greedy seed scans each vertex's neighbours in ascending order, then an
    augmenting-path BFS (FIFO queue, ascending adjacency) runs from each
    exposed vertex in turn; blossoms are contracted onto the cycle's least
    common ancestor.  mate[v] is -1 for exposed vertices.
    """
    mate = [-1] * n
    parent = [0] * n
    base = [0] * n

    for v in range(n):
        if mate[v] == -1:
            for u in neigh(v):
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    break

    def lca(a: int, b: int) -> int:
        flagged = [False] * n
        while True:
            a = base[a]
            flagged[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if flagged[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting(root: int) -> None:
        visited = [False] * n
        for i in range(n):
            parent[i] = -1
            base[i] = i
        visited[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in neigh(v):
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    cur = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur, to, in_blossom)
                    mark_path(to, cur, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            if not visited[i]:
                                visited[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            nxt = mate[pv]
                            mate[u] = pv
                            mate[pv] = u
                            u = nxt
                        return
                    visited[mate[to]] = True
                    queue.append(mate[to])

    for v in range(n):
        if mate[v] == -1:
            find_augmenting(v)
    return mate


def _mate_to_matching(mate: list[int]) -> Matching:
    return Matching((v, u) for v, u in enumerate(mate) if v < u)


def maximum_matching(x: Graph) -> Matching:
    """The blossom search's maximum matching of x."""
    adj = neighbor_lists(x)
    return _mate_to_matching(blossom_mate(x.n, lambda v: adj[v]))


def blossom_increment_matching(x: Graph) -> Matching:
    """The complement matching that earlier releases added to x."""
    adj = [set(nbrs) for nbrs in neighbor_lists(x)]
    return _mate_to_matching(blossom_mate(
        x.n, lambda v: (u for u in range(x.n) if u != v and u not in adj[v])))


def brute_force_expansion(x: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact h and the lexicographically least minimizing subset.

    Subsets enumerated ascending by size then lexicographically; ratios
    compared as Fractions, so the first strict minimum seen wins ties the
    same way the package defines them only if scanned in lexicographic
    order over sorted tuples, which combinations() provides per size.
    Across sizes, candidates are collected and the least sorted tuple
    among exact minimizers is returned.
    """
    mult = Counter(edge_pairs(x))
    best: Fraction | None = None
    minimizers: list[tuple[int, ...]] = []
    for size in range(1, x.n // 2 + 1):
        for subset in combinations(range(x.n), size):
            fs = set(subset)
            cut = sum(w for (u, v), w in mult.items() if (u in fs) != (v in fs))
            ratio = Fraction(cut, size)
            if best is None or ratio < best:
                best = ratio
                minimizers = [subset]
            elif ratio == best:
                minimizers.append(subset)
    assert best is not None
    return best, min(minimizers)


def whole_array_expansion(x: Graph) -> tuple[float, tuple[int, ...]]:
    """expanding_constant_exact as it was before it swept the masks in
    blocks: the cut, popcount, scale and ratio of all 2^n masks at once."""
    size = 1 << x.n
    idx = np.arange(size, dtype=np.uint32)
    cut = np.zeros(size, dtype=np.int64)
    bit_u = np.empty(size, dtype=np.uint32)
    bit_v = np.empty(size, dtype=np.uint32)
    pairs, mult = np.unique(x.edges, axis=0, return_counts=True)
    for (u, v), w in zip(pairs.tolist(), mult.tolist()):
        np.right_shift(idx, np.uint32(u), out=bit_u)
        np.right_shift(idx, np.uint32(v), out=bit_v)
        np.bitwise_xor(bit_u, bit_v, out=bit_u)
        np.bitwise_and(bit_u, np.uint32(1), out=bit_u)
        cut += bit_u.astype(np.int64) * w
    pc = np.bitwise_count(idx).astype(np.int64)
    valid = (pc >= 1) & (pc <= x.n // 2)
    den = np.ones_like(pc)
    np.floor_divide(_LCM, pc, out=den, where=valid)
    scaled = cut * den
    scaled[~valid] = np.iinfo(np.int64).max
    best = int(scaled.min())
    mask = _lex_least_mask(np.flatnonzero(scaled == best))
    witness = tuple(v for v in range(x.n) if mask >> v & 1)
    return best / _LCM, witness


def adjacency_matrix(x: Graph) -> np.ndarray:
    """The dense adjacency, counting multiplicity, from the edge list."""
    a = np.zeros((x.n, x.n))
    u, v = x.edges[:, 0], x.edges[:, 1]
    np.add.at(a, (u, v), 1.0)
    np.add.at(a, (v, u), 1.0)
    return a


def coo_adjacency(x: Graph) -> sparse.csr_matrix:
    """The CSR adjacency as Graph.adjacency_sparse once built it, by
    scipy's COO conversion of both halves, which sorts each row and sums
    parallel edges."""
    u, v = x.edges[:, 0], x.edges[:, 1]
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    return sparse.csr_matrix((np.ones(len(rows)), (rows, cols)),
                             shape=(x.n, x.n))


def eigvalsh(x: Graph) -> np.ndarray:
    """The full adjacency spectrum, non-increasing, by numpy's dense solver."""
    return np.linalg.eigvalsh(adjacency_matrix(x))[::-1]


def stored_basis_ritz_pairs(matvec, n: int, scale: float,
                            ends: tuple[int, ...]) -> list:
    """spectral._ritz_pairs(matvec, n, scale, ends) from one run of
    spectral._lanczos that stores its basis: each end's (theta, y) is frozen
    by the same rule, and its Ritz vector summed over the stored q_j."""
    q = np.random.default_rng(spectral._V0_SEED).standard_normal(n)
    q -= q.mean()
    q /= spectral._norm(q)
    basis, alphas, betas, frozen = [], [], [], {}
    bound = spectral._EPS * scale
    for m, (qj, alpha, beta, _) in enumerate(
            spectral._lanczos(matvec, q, scale), 1):
        basis.append(qj.copy())
        alphas.append(alpha)
        betas.append(beta)
        if m % spectral._CHECK_EVERY and beta > bound:
            continue
        for end in set(ends) - set(frozen):
            theta, y = spectral._tridiagonal_pair(
                np.array(alphas), np.array(betas[:-1]), end % m)
            if abs(beta * y[-1]) <= bound:
                frozen[end] = theta, y
        if len(frozen) == len(ends):
            break
    pairs = []
    for end in ends:
        theta, y = frozen[end]
        v = np.zeros(n)
        for yj, qj in zip(y, basis):
            v += yj * qj
        pairs.append((theta, v))
    return pairs


def arpack_lambda_n(x: Graph) -> float:
    """lambda_n by scipy's ARPACK ("SA", to machine precision) from a fixed
    starting vector: the reference for graphs too large for eigvalsh."""
    from scipy.sparse.linalg import eigsh

    v0 = np.random.default_rng(0).standard_normal(x.n)
    return float(eigsh(x.adjacency_sparse(), k=1, which="SA", v0=v0,
                       tol=0.0)[0][0])


def matching_side(x: Graph, vn: np.ndarray) -> list[int]:
    """The vertex set spectral._matching_side must pick, by a plain walk:
    the larger sign class of vn (a tie takes vn > 0), walked in index order,
    keeping a vertex when every kept vertex, it included, has at most one
    kept neighbour counting multiplicity."""
    pos = [v for v in range(x.n) if vn[v] > 0]
    side = pos if 2 * len(pos) >= x.n else [v for v in range(x.n)
                                             if not vn[v] > 0]
    adj = neighbor_lists(x)
    kept: set[int] = set()
    for v in side:
        trial = kept | {v}
        if all(sum(w in trial for w in adj[u]) <= 1 for u in trial):
            kept = trial
    return sorted(kept)


def proof_matrices(x: Graph, lambda1: float, lambda2: float,
                   lambda_n: float, v1: np.ndarray, tol: float,
                   left: list[int]) -> list[np.ndarray]:
    """The two matrices the Cholesky proof factors, built dense: the Schur
    complements over the vertices outside left of
    K1 = (lambda2 + tol) I - A + (lambda1 - lambda2 + 1) v1 v1^T and
    K2 = A - (lambda_n - tol) I, or K1 and K2 when left is empty.

    K_LL^-1 K_LR comes from a dense solve on the full matrix and one step
    of iterative refinement with the residual in long double, and the
    complement is formed in long double: a plain solve is up to 18 ulps
    off on 3-regular graphs of 256 vertices, the refined one within 1.
    Long double products run without BLAS, so keep n in the hundreds.
    """
    a = adjacency_matrix(x)
    eye = np.eye(x.n)
    k1 = ((lambda2 + tol) * eye - a
          + (lambda1 - lambda2 + 1.0) * np.outer(v1, v1))
    k2 = a - (lambda_n - tol) * eye
    if not left:
        return [k1, k2]
    right = [v for v in range(x.n) if v not in set(left)]
    out = []
    for k in (k1, k2):
        k_ll, k_lr = k[np.ix_(left, left)], k[np.ix_(left, right)]
        y = np.linalg.solve(k_ll, k_lr)
        residual = k_lr - k_ll.astype(np.longdouble) @ y
        y = y + np.linalg.solve(k_ll, residual.astype(float))
        s = k[np.ix_(right, right)] - k_lr.T.astype(np.longdouble) @ y
        out.append(s.astype(float))
    return out


def isoperimetric_check(x: Graph, *, tol: float = 1e-9) -> dict:
    """Sandwich (k - lambda_2)/2 <= h(X) <= sqrt(2k(k - lambda_2)), exactly h.

    Only defined for regular graphs small enough for the exact search.
    Returns every ingredient so failures are inspectable.
    """
    k = regularity(x)
    if k is None:
        raise ValidationError("isoperimetric check requires a regular graph")
    # extreme_eigs takes connected graphs only; any other k-regular graph
    # has lambda_2 = k exactly, and h = 0.
    s = extreme_eigs(x) if is_connected(x) else None
    lam2 = s.lambda2 if s else float(k)
    h, witness = expanding_constant_exact(x)
    lower = (k - lam2) / 2.0
    upper = math.sqrt(2.0 * k * max(k - lam2, 0.0))
    pad = tol + (s.residual if s else 0.0)
    return {
        "n": x.n,
        "k": k,
        "lambda2": lam2,
        "h": h,
        "witness": list(witness),
        "lower": lower,
        "upper": upper,
        "holds": bool(lower - pad <= h <= upper + pad),
    }


def complement(x: Graph) -> Graph:
    """Simple complement; input must itself be simple."""
    if not x.is_simple():
        raise ValidationError("complement is defined for simple graphs only")
    present = set(edge_pairs(x))
    return from_edge_list(x.n, [(u, v) for u in range(x.n)
                                for v in range(u + 1, x.n)
                                if (u, v) not in present])


def lps_closure(gens: list[tuple[int, int, int, int]],
                q: int) -> list[tuple[int, int, int, int]]:
    """The projective group generated by gens, by breadth-first closure.

    Matrices are row-major 4-tuples mod q, each scaled so that its first
    nonzero entry is 1; the walk starts at the identity.
    """
    def normalize(m):
        m = [e % q for e in m]
        s = pow(next(e for e in m if e), -1, q)
        return tuple(e * s % q for e in m)

    def mul(a, b):
        return normalize((a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                          a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]))

    identity = (1, 0, 0, 1)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(s, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def searchsorted_lps(p: int, q: int) -> Graph:
    """X^{p,q} as build_lps built it before the code table: one binary
    search of the sorted vertex codes per generator, edges j < s*j in
    generator order, canonical form left to from_edge_list."""
    params = lps_params(p, q)
    verts = _vertices(q, square_det=params.group == "PSL2")
    a, b, c, d = _decode(verts, q)
    j = np.arange(params.n)
    edges = []
    for s0, s1, s2, s3 in zip(*_decode(_generators(p, q), q)):
        image = _normalize(((s0 * a + s1 * c) % q, (s0 * b + s1 * d) % q,
                            (s2 * a + s3 * c) % q, (s2 * b + s3 * d) % q), q)
        h = np.searchsorted(verts, image)
        assert (verts[np.minimum(h, params.n - 1)] == image).all()
        assert (h != j).all()
        edges.append(np.column_stack([j[j < h], h[j < h]]))
    return from_edge_list(params.n, np.concatenate(edges))


def product_spectrum_oracle(x: Graph) -> dict:
    """Compare the spectrum of X x K2 with {lambda +- 1} directly.

    The product's second eigenvalue is max(lambda_2 + 1, lambda_1 - 1), not
    lambda_2 + 1: whenever lambda_1 - 1 > lambda_2 + 1 (a spectral gap above
    2), the shifted copy of lambda_1 overtakes.  The report carries all
    three quantities so callers can see which branch is active.
    """
    s = eigvalsh(x)
    sp = eigvalsh(cartesian_k2(x))
    predicted = np.sort(np.concatenate([s + 1.0, s - 1.0]))[::-1]
    lam1, lam2 = float(s[0]), float(s[1])
    return {
        "n": x.n,
        "max_deviation": float(np.abs(predicted - sp).max()),
        "lambda2_product": float(sp[1]),
        "lambda2_plus_one": lam2 + 1.0,
        "lambda1_minus_one": lam1 - 1.0,
        "product_law_lambda2": max(lam2 + 1.0, lam1 - 1.0),
    }


def weyl_check(a: np.ndarray, b: np.ndarray, i: int) -> dict:
    """Slack in Weyl's inequalities for lambda_i(A + B), eigenvalues descending.

    lambda_i(A) + lambda_n(B) <= lambda_i(A+B) <= lambda_i(A) + lambda_1(B).
    Both slacks are reported; holds is true when neither is meaningfully
    negative at dense-solver accuracy.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"A must be square, got shape {a.shape}")
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not np.array_equal(a, a.T) or not np.array_equal(b, b.T):
        raise ValidationError("weyl_check requires exactly symmetric matrices")
    n = a.shape[0]
    if not 1 <= i <= n:
        raise ValidationError(f"index i must be in 1..{n}, got {i}")
    ea = np.linalg.eigvalsh(a)[::-1]
    eb = np.linalg.eigvalsh(b)[::-1]
    es = np.linalg.eigvalsh(a + b)[::-1]
    upper = ea[i - 1] + eb[0]
    lower = ea[i - 1] + eb[-1]
    scale = max(1.0, float(np.abs(ea).max() + np.abs(eb).max()))
    atol = 1e-9 * scale
    return {
        "i": i,
        "value": float(es[i - 1]),
        "upper_slack": float(upper - es[i - 1]),
        "lower_slack": float(es[i - 1] - lower),
        "holds": bool(upper - es[i - 1] >= -atol and es[i - 1] - lower >= -atol),
    }


def brute_force_bipartite(x: Graph) -> bool:
    """Try all 2^n colorings; exact for small n."""
    edges = edge_pairs(x)
    for mask in range(1 << x.n):
        if all((mask >> u & 1) != (mask >> v & 1) for u, v in edges):
            return True
    return False


def double_cover_is_bipartite(x: Graph) -> bool:
    """Two-colourability by the bipartite double cover (edges (u,i)-(v,1-i)).

    A component of x lifts to two components of the cover when it is
    bipartite and to one when it has an odd cycle.
    """
    a = x.adjacency_sparse()
    cover = sparse.bmat([[None, a], [a, None]], format="csr")
    return (connected_components(cover, directed=False, return_labels=False)
            == 2 * connected_components(a, directed=False, return_labels=False))


def double_cover(x: Graph) -> Graph:
    """The bipartite double cover of x: vertex (v, i) is v + i*n, and each
    edge u-v becomes (u, 0)-(v, 1) and (v, 0)-(u, 1)."""
    u, v = x.edges[:, 0], x.edges[:, 1]
    return from_edge_list(2 * x.n, np.concatenate(
        [np.column_stack([u, v + x.n]), np.column_stack([v, u + x.n])]))


def complete_bipartite(h: int) -> Graph:
    """K_{h,h}: sides 0..h-1 and h..2h-1."""
    return from_edge_list(2 * h, [(u, h + v) for u in range(h)
                                  for v in range(h)])


def complete_multipartite(parts: int, size: int) -> Graph:
    """K_{size, ..., size} with parts parts, vertex v in part v // size;
    complete_multipartite(n, 1) is K_n."""
    n = parts * size
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if u // size != v // size])


def line_parse_graph(text: str) -> Graph:
    """graph_from_text as it parsed every text before the byte parser: line
    by line, each error reported for the first bad line."""
    lines = text.splitlines()
    if not lines:
        raise ValidationError("empty edge-list text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValidationError(f"bad header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValidationError(f"bad header {lines[0]!r}") from exc
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ValidationError(f"header promises {m} edges, found {len(body)}")
    ids: list[int] = []
    for ln in body:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise ValidationError(f"bad edge line {ln!r}") from exc
        if not u < v:
            raise ValidationError(f"edge line {ln!r} must satisfy u < v")
        ids += (u, v)
    return from_edge_list(n, ids)


def fstring_lines(rows) -> str:
    """One f-string 'u v' line per (u, v) row: the text writer before the
    blocked byte writer."""
    return "".join(f"{u} {v}\n" for u, v in rows)


def fstring_graph_text(x: Graph) -> str:
    """graph_to_text as the f-string writer built it."""
    return f"{x.n} {len(x.edges)}\n" + fstring_lines(x.edges.tolist())
