"""Undirected multigraphs on vertex set {0..n-1} with a canonical edge order.

Graphs are immutable: every constructor normalizes edge pairs to u < v and
sorts the edge tuple lexicographically, so two graphs built from the same
edge multiset compare equal and serialize byte-identically.  Loops are
rejected everywhere; parallel edges are allowed and carry multiplicity in
degrees, adjacency matrices and boundary counts.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
from scipy import sparse

from .errors import ValidationError

Edge = tuple[int, int]


class Graph:
    """Immutable undirected loop-free multigraph."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: tuple[Edge, ...]):
        # Internal constructor: edges must already be canonical.
        self.n = n
        self.edges = edges
        self._adj: list[list[int]] | None = None

    # -- basic queries ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbor_lists(self) -> list[list[int]]:
        """Adjacency lists in ascending order, repeated per multiplicity."""
        if self._adj is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    def edge_multiset(self) -> dict[Edge, int]:
        mult: dict[Edge, int] = {}
        for e in self.edges:
            mult[e] = mult.get(e, 0) + 1
        return mult

    def is_simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=dtype)
        for u, v in self.edges:
            a[u, v] += 1
            a[v, u] += 1
        return a

    def adjacency_sparse(self) -> sparse.csr_matrix:
        m = len(self.edges)
        if m == 0:
            return sparse.csr_matrix((self.n, self.n), dtype=np.float64)
        rows = np.empty(2 * m, dtype=np.int64)
        cols = np.empty(2 * m, dtype=np.int64)
        arr = np.asarray(self.edges, dtype=np.int64)
        rows[:m], cols[:m] = arr[:, 0], arr[:, 1]
        rows[m:], cols[m:] = arr[:, 1], arr[:, 0]
        data = np.ones(2 * m, dtype=np.float64)
        return sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


class Matching:
    """A set of pairwise disjoint edges, stored as sorted (u, v) pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Edge]):
        norm = []
        seen: set[int] = set()
        for u, v in pairs:
            if u == v:
                raise ValidationError(f"matching pair ({u}, {v}) is a loop")
            a, b = (u, v) if u < v else (v, u)
            if a in seen or b in seen:
                raise ValidationError(f"vertex reused in matching at ({u}, {v})")
            seen.add(a)
            seen.add(b)
            norm.append((a, b))
        self.pairs: tuple[Edge, ...] = tuple(sorted(norm))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Matching(size={len(self.pairs)})"

    def is_perfect(self, n: int) -> bool:
        return 2 * len(self.pairs) == n

    def to_text(self) -> str:
        """One 'u v' line per pair, ascending; embedded in certificates."""
        return "".join(f"{u} {v}\n" for u, v in self.pairs)


def _canonical(n: int, raw: Iterable[Edge]) -> tuple[Edge, ...]:
    out = []
    for u, v in raw:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValidationError(f"loop at vertex {u} rejected")
        out.append((u, v) if u < v else (v, u))
    out.sort()
    return tuple(out)


def from_edge_list(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a graph from (u, v) pairs; duplicates become parallel edges."""
    if n < 0:
        raise ValidationError(f"vertex count must be >= 0, got {n}")
    return Graph(n, _canonical(n, edges))


def regularity(x: Graph) -> int | None:
    """Common degree if x is regular, else None."""
    if x.n == 0:
        return None
    deg = x.degrees()
    k = deg[0]
    return k if all(d == k for d in deg) else None


def is_connected(x: Graph) -> bool:
    if x.n == 0:
        return False
    adj = x.neighbor_lists()
    seen = bytearray(x.n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == x.n


def is_bipartite(x: Graph) -> bool:
    """Two-colorability; parallel edges are irrelevant, loops never occur."""
    adj = x.neighbor_lists()
    color = [-1] * x.n
    for s in range(x.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def cartesian_k2(x: Graph) -> Graph:
    """Cartesian product with a single edge: two copies plus a cross matching.

    Vertex i of the second copy is n + i.  Doubles the vertex count, raises
    regularity by one, preserves connectivity (for n >= 1) and bipartiteness.
    """
    if x.n == 0:
        raise ValidationError("cartesian product with K2 needs n >= 1")
    n = x.n
    raw: list[Edge] = []
    for u, v in x.edges:
        raw.append((u, v))
        raw.append((n + u, n + v))
    for i in range(n):
        raw.append((i, n + i))
    return Graph(2 * n, _canonical(2 * n, raw))


def add_matching(x: Graph, m: Matching) -> Graph:
    """Union with a perfect matching disjoint from the current edge set."""
    if not m.is_perfect(x.n):
        raise ValidationError(
            f"matching covers {2 * len(m)} of {x.n} vertices, not perfect")
    present = set(x.edges)
    for pair in m:
        if pair in present:
            raise ValidationError(f"matching pair {pair} already an edge")
    return Graph(x.n, _canonical(x.n, list(x.edges) + list(m.pairs)))


# -- serialization ---------------------------------------------------------


def graph_to_text(x: Graph) -> str:
    """Edge-list text: header 'n m', then one 'u v' line per edge.

    Edges appear in canonical order with u < v; duplicate lines encode
    parallel edges.  The output is newline-terminated and byte-stable.
    """
    lines = [f"{x.n} {len(x.edges)}\n"]
    lines.extend(f"{u} {v}\n" for u, v in x.edges)
    return "".join(lines)


def graph_from_text(text: str) -> Graph:
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
    raw: list[Edge] = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ValidationError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValidationError(f"bad edge line {ln!r}") from exc
        if not u < v:
            raise ValidationError(f"edge line {ln!r} must satisfy u < v")
        raw.append((u, v))
    return from_edge_list(n, raw)


def save_graph(x: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(graph_to_text(x))


def load_graph(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return graph_from_text(fh.read())
