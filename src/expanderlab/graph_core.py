"""Undirected multigraphs on vertex set {0..n-1} with a canonical edge order.

Graphs are immutable: edges are a read-only (m, 2) int64 array with u < v
per row and rows sorted lexicographically, so two graphs built from the
same edge multiset compare equal and serialize byte-identically.  The rest
derives from one cached CSR adjacency.  Loops are rejected everywhere;
parallel edges are allowed and carry multiplicity in degrees, adjacency
matrices and boundary counts.  Connectivity and the 2-colouring come from
one breadth-first search, cached beside the adjacency.

Every edge array is checked by whole-array passes: the range by its
minimum and maximum, loops, row order and repeats by comparing the two
columns or neighbouring rows column by column.  An (m, 2) reduction along
rows costs several times as much, so the row-wise mask is built only on
failure, to name the first bad edge.  Ids must be integers; unsigned and
oversized ids are kept as given until they are checked against n.  The
canonical rows are the CSR of the upper triangle as they stand, so the
CSR adjacency is that triangle plus its transpose, with no COO copy and
no sort, summed on integer multiplicities and made float64 once.

Edge codes u*n + v sort like canonical rows, so adding a matching inserts
its pairs at their searchsorted positions among the edge codes instead of
sorting the union.  Edge-list text comes from one numpy writer that
fills a byte buffer per block of rows: save_graph writes each block to
its file as it is made, and graph_to_text and Matching.to_text join the
blocks and decode the text once.  The reader holds a file's bytes alone
and checks the ids numpy reads from them by the writer's digit rule.

scipy is imported on first use, when a graph's CSR adjacency or colouring
is first built, so parsing, serializing, building edge arrays and adding
matchings need numpy alone.
"""

from __future__ import annotations

import numbers
import re
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .errors import ValidationError, _shown

if TYPE_CHECKING:
    from scipy import sparse

Edge = tuple[int, int]


class Graph:
    """Immutable undirected loop-free multigraph."""

    __slots__ = ("n", "edges", "_csr", "_colouring")

    def __init__(self, n: int, edges: np.ndarray):
        # Internal constructor: edges must already be canonical.
        self.n = n
        self.edges = edges
        self._csr: sparse.csr_matrix | None = None
        self._colouring: tuple[np.ndarray | None, bool] | None = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def is_simple(self) -> bool:
        # Sorted rows put parallel edges next to each other.
        u, v = self.edges[:, 0], self.edges[:, 1]
        return not ((u[1:] == u[:-1]) & (v[1:] == v[:-1])).any()

    def adjacency_sparse(self) -> sparse.csr_matrix:
        """CSR adjacency (multiplicities, sorted columns), shared: do not modify.

        The canonical rows are already the upper triangle in CSR order:
        row u holds u's neighbours above u, ascending, parallel edges
        side by side.  Summing those and adding the transpose gives every
        row its neighbours below it, then those above it, with no sort.
        The sum counts multiplicities in the narrowest unsigned type that
        holds m, which no entry exceeds, and its data becomes float64 once,
        at the end, with the triangle already freed.
        """
        if self._csr is None:
            from scipy import sparse

            u, v = self.edges[:, 0], self.edges[:, 1]
            # The index type scipy's own conversion would pick.
            idx = np.int32 if max(self.n, 2 * len(v)) < 2**31 else np.int64
            indptr = np.zeros(self.n + 1, dtype=idx)
            np.cumsum(np.bincount(u, minlength=self.n), out=indptr[1:])
            # No entry exceeds m, so the counts cannot overflow.
            count = np.min_scalar_type(len(v))
            upper = sparse.csr_matrix(
                (np.ones(len(v), dtype=count), v.astype(idx), indptr),
                shape=(self.n, self.n))
            upper.sum_duplicates()
            a = upper.T.tocsr() + upper
            del upper
            a.data = a.data.astype(np.float64)
            self._csr = a
        return self._csr

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.edges, other.edges))

    def __hash__(self) -> int:
        return hash((self.n, self.edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


class Matching:
    """Pairwise disjoint edges between vertex ids in [0, 2**63), the ids an
    edge array can hold.  rows holds them as a canonical edge array:
    read-only, (k, 2) int64, u < v per row, rows ascending."""

    __slots__ = ("rows",)

    def __init__(self, pairs: Iterable[Edge] | np.ndarray):
        self.rows = _canonical(2**63, pairs)
        ids = np.sort(self.rows, axis=None)
        reused = ids[1:] == ids[:-1]
        if reused.any():
            raise ValidationError(
                f"vertex {ids[reused.argmax()]} reused in matching")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Edge]:
        return map(tuple, self.rows.tolist())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matching)
                and np.array_equal(self.rows, other.rows))

    def __hash__(self) -> int:
        return hash(self.rows.tobytes())

    def __repr__(self) -> str:
        return f"Matching(size={len(self.rows)})"

    def is_perfect(self, n: int) -> bool:
        return 2 * len(self.rows) == n

    def to_text(self) -> str:
        """One 'u v' line per pair, ascending; embedded in certificates."""
        return _lines(self.rows)


def _canonical(n: int, raw) -> np.ndarray:
    """(u, v) pairs, or the same ids flattened, as a canonical edge array.

    Ids are compared with n before they are narrowed to int64, so the first
    bad edge in input order is reported, however large its ids; the module
    docstring gives the whole-array tests.
    """
    if n < 0:
        raise ValidationError(f"vertex count must be >= 0, got {_shown(n)}")
    raw = raw if isinstance(raw, np.ndarray) else list(raw)
    e = _id_rows(raw)
    u, v = e[:, 0], e[:, 1]
    if len(e) and (e.min() < 0 or e.max() >= n or (u == v).any()):
        bad = ((e < 0) | (e >= n)).any(axis=1) | (u == v)
        u, v = e[bad.argmax()].tolist()
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({_shown(u)}, {_shown(v)}) out of "
                                  f"range for n={_shown(n)}")
        raise ValidationError(f"loop at vertex {_shown(u)} rejected")
    if e.dtype == object:
        try:
            e = e.astype(np.int64)
        except OverflowError:
            raise ValidationError(f"vertex ids beyond int64 are unsupported "
                                  f"(n={_shown(n)})") from None
    # Rows with u < v and rows already in order, as graph_to_text and
    # build_lps emit them, skip the row sort and the lexsort.
    if not (e[:, 0] < e[:, 1]).all():
        e = np.sort(e, axis=1)
    elif isinstance(raw, np.ndarray) and np.may_share_memory(e, raw):
        e = e.copy()                # the caller's array stays its own
    return _sorted_rows(e)


def _sorted_rows(e: np.ndarray) -> np.ndarray:
    """e, int64 rows u < v that no caller keeps, with its rows ascending
    and read-only: e itself when they are in order already."""
    # Rows are in order when u never falls and v falls only where u rises.
    u, v = e[:, 0], e[:, 1]
    if not ((u[1:] >= u[:-1]).all()
            and ((v[1:] >= v[:-1]) | (u[1:] > u[:-1])).all()):
        e = e[np.lexsort((v, u))]
    e.flags.writeable = False
    return e


def _id_rows(raw: list | np.ndarray) -> np.ndarray:
    """The ids of raw as (m, 2) rows: int64 when numpy reads them as signed
    integers or booleans, else the ids as given, in an object array.

    numpy reads an unsigned array as given, and a list holding an id of
    2**63 or more as floats or objects; both take the object array, so an
    out-of-range id is reported as given.  A non-integer id raises
    ValidationError naming its edge, and empty input is accepted.
    """
    e = np.asarray(raw)
    if e.dtype.kind in "ib" or e.size == 0:
        return e.astype(np.int64, copy=False).reshape(-1, 2)
    e = np.array(raw, dtype=object).reshape(-1, 2)
    whole = np.array([isinstance(i, numbers.Integral) for i in e.flat])
    if not whole.all():
        u, v = e[whole.argmin() // 2].tolist()
        raise ValidationError(f"edge ({_shown(u)}, {_shown(v)}) has a "
                              f"non-integer vertex id")
    return e


def from_edge_list(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a graph from (u, v) pairs; duplicates become parallel edges."""
    return Graph(n, _canonical(n, edges))


def regularity(x: Graph) -> int | None:
    """Common degree if x is regular, else None."""
    if x.n == 0:
        return None
    deg = x.degrees()
    return int(deg[0]) if (deg == deg[0]).all() else None


def _depth_parity(pred: np.ndarray) -> np.ndarray:
    """Depth mod 2 of every vertex of a forest given by parent pointers.

    Roots are their own parents.  Pointer doubling keeps, for each vertex,
    an ancestor and the parity of the path to it, and halves the remaining
    depth per pass, so a forest of depth d takes about log2(d) passes.
    """
    anc = pred
    parity = (pred != np.arange(len(pred))).astype(np.int8)
    while True:
        up = anc[anc]
        if np.array_equal(up, anc):
            return parity
        parity ^= parity[anc]
        anc = up


def _colouring(x: Graph) -> tuple[np.ndarray | None, bool]:
    """(sides, connected), cached on x.

    One breadth-first search from vertex 0 colours each vertex by the
    parity of its depth.  If it misses a vertex, a second search runs from
    a virtual vertex n joined to the first vertex of every component, so
    each component is coloured from its own root.  sides is that colouring
    when every edge joins two colours, and None when x has an odd cycle.
    """
    if x._colouring is None:
        from scipy import sparse
        from scipy.sparse.csgraph import breadth_first_order, connected_components

        a = x.adjacency_sparse()
        sides, connected = np.zeros(0, dtype=np.int8), False
        if x.n:
            # a is symmetric, so the directed search follows every edge
            # both ways without scipy building a symmetrized copy.
            order, pred = breadth_first_order(a, 0, directed=True,
                                              return_predecessors=True)
            roots = np.zeros(1, dtype=np.int64)
            connected = len(order) == x.n
            if not connected:
                _, labels = connected_components(a, directed=False)
                roots = np.unique(labels, return_index=True)[1]
                fan = sparse.csr_matrix(
                    (np.ones(a.nnz + len(roots)),
                     np.concatenate([a.indices, roots]),
                     np.append(a.indptr, a.nnz + len(roots))),
                    shape=(x.n + 1, x.n + 1))
                _, pred = breadth_first_order(fan, x.n, directed=True,
                                              return_predecessors=True)
                pred = pred[:x.n]
            pred[roots] = roots
            sides = _depth_parity(pred)
        u, v = x.edges[:, 0], x.edges[:, 1]
        if (sides[u] == sides[v]).any():
            sides = None
        else:
            sides.flags.writeable = False
        x._colouring = (sides, connected)
    return x._colouring


def is_connected(x: Graph) -> bool:
    return _colouring(x)[1]


def bipartition(x: Graph) -> np.ndarray | None:
    """Side (0 or 1) of every vertex in a proper 2-colouring of x, or None
    when x has an odd cycle.  Vertex 0 and every component's lowest vertex
    are on side 0.  Shared and read-only."""
    return _colouring(x)[0]


def is_bipartite(x: Graph) -> bool:
    return bipartition(x) is not None


def cartesian_k2(x: Graph) -> Graph:
    """Cartesian product with a single edge: two copies plus a cross matching.

    Vertex i of the second copy is n + i.  Doubles the vertex count, raises
    regularity by one, preserves connectivity (for n >= 1) and bipartiteness.
    """
    if x.n == 0:
        raise ValidationError("cartesian product with K2 needs n >= 1")
    n = x.n
    i = np.arange(n)
    raw = np.concatenate([x.edges, x.edges + n, np.column_stack([i, i + n])])
    return Graph(2 * n, _canonical(2 * n, raw))


def add_matching(x: Graph, m: Matching) -> Graph:
    """Union with a perfect matching disjoint from the current edge set.

    The pairs, in canonical order already, go into x's edges at their
    searchsorted positions instead of a sort of the union.  Each pair has
    0 <= u < v, so only v is checked against x.n.
    """
    if not m.is_perfect(x.n):
        raise ValidationError(
            f"matching covers {2 * len(m)} of {x.n} vertices, not perfect")
    pairs = m.rows
    if len(pairs) and pairs[:, 1].max() >= x.n:
        u, v = pairs[(pairs[:, 1] >= x.n).argmax()].tolist()
        raise ValidationError(f"edge ({u}, {v}) out of range for n={x.n}")
    at, present = _edge_search(x, pairs)
    if present.any():
        u, v = pairs[present.argmax()].tolist()
        raise ValidationError(f"matching pair ({u}, {v}) already an edge")
    e = np.insert(x.edges, at, pairs, axis=0)
    e.flags.writeable = False
    return Graph(x.n, e)


def _codes(n: int, e: np.ndarray) -> np.ndarray:
    """u*n + v for each row (u, v) of e; ascending when e is canonical."""
    return e[:, 0] * n + e[:, 1]


def _edge_search(x: Graph, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(where each canonical pair sorts among x's edges, whether it is one).

    Canonical rows sort like their codes, so both come from a binary search
    of the pairs' codes among x's edge codes.
    """
    codes, key = _codes(x.n, x.edges), _codes(x.n, pairs)
    at = np.searchsorted(codes, key)
    return at, np.searchsorted(codes, key, side="right") > at


# -- serialization ---------------------------------------------------------


def graph_to_text(x: Graph) -> str:
    """Edge-list text: header 'n m', then one 'u v' line per edge.

    Edges appear in canonical order with u < v; duplicate lines encode
    parallel edges.  The output is newline-terminated and byte-stable.
    """
    return f"{x.n} {len(x.edges)}\n" + _lines(x.edges)


# Rows the line writer formats at a time.  A block's int64 arrays then hold
# 128 KiB each and its bytes at most 320 KiB, so save_graph's peak does not
# grow with the graph, and the next block reuses what the last one freed.
# On the benchmark's k8 construct, 2**12 and 2**13 rows peaked 1.3 MB lower
# than 2**15, at the same speed.
_BLOCK_ROWS = 1 << 13


def _lines(e: np.ndarray) -> str:
    """'u v' and a newline per row of an (m, 2) array of ids in [0, 2**63)."""
    return b"".join(_line_blocks(e)).decode("ascii")


def _line_blocks(e: np.ndarray) -> Iterator[np.ndarray]:
    """The ASCII bytes of _lines(e), as one uint8 array per block of rows.

    Each block of rows is written into one byte buffer: every id ends at
    the sum of the widths before it, its digits are written from the
    highest place down, and the space or newline after it last.  An id
    narrower than a place writes a stray zero in front of itself, inside
    the ids before it or a pad in front of the block, and the ids before
    it overwrite it at a lower place.  Digits go in as 0-9 and the whole
    buffer becomes ASCII by one addition, before the separators.
    """
    for lo in range(0, len(e), _BLOCK_ROWS):
        ids = e[lo:lo + _BLOCK_ROWS].ravel()
        top = int(ids.max())
        pad = len(str(top)) - 1
        # Each id's width and separator, summed and moved back two: the
        # place of each id's last digit.
        last = _widths(ids, top, np.int64)
        last += 1
        np.cumsum(last, out=last)
        last += pad - 2
        buf = np.empty(int(last[-1]) + 2, dtype=np.uint8)
        digit = np.empty_like(ids)
        for j in range(pad, -1, -1):
            np.floor_divide(ids, 10**j, out=digit)
            digit %= 10
            buf[last - j] = digit
        buf += ord("0")
        buf[last[0::2] + 1] = ord(" ")
        buf[last[1::2] + 1] = ord("\n")
        yield buf[pad:]


def _widths(ids: np.ndarray, top: int, dtype) -> np.ndarray:
    """The decimal digit count of each id in [0, top], as dtype: the rule
    the line writer places ids by and the byte parser checks them by."""
    width = np.ones(len(ids), dtype=dtype)
    place = 10
    while place <= top:
        width += ids >= place
        place *= 10
    return width


def graph_from_text(text: str) -> Graph:
    """Parse edge-list text: ASCII text as load_graph reads a file's bytes,
    any other by the line parser, which owns every error message."""
    return _read(text.encode()) if text.isascii() else _parse_lines(text)


def _read(data: bytes) -> Graph:
    """The graph of data: canonical bytes' rows become its edges as they
    are; other bytes are decoded as ASCII for the line parser."""
    if (parsed := _parse_canonical(data)) is None:
        return _parse_lines(data.decode("ascii"))
    return Graph(parsed[0], _sorted_rows(parsed[1]))


_HEADER = re.compile(rb"([0-9]{1,18}) ([0-9]{1,18})\n")


def _parse_canonical(data: bytes) -> tuple[int, np.ndarray] | None:
    """(n, edges as an (m, 2) int64 array) of canonical bytes, else None:
    an 'n m' header, each below 10**18, then m lines 'u v', u < v < n, as
    the writer prints them.  Once the separators are checked numpy reads
    the ids: an empty token leaves it short of 2m + 2, and a leading zero,
    or an id past 2**63 - 1 it saturates, leaves the widths short of the
    body's digits or the id at n or more."""
    if (head := _HEADER.match(data)) is None:
        return None
    n, m = int(head[1]), int(head[2])
    body = np.frombuffer(data, dtype=np.uint8, offset=head.end())
    seps = body[body < ord("0")]
    if not (len(seps) == 2 * m and data.endswith(b"\n")
            and body.max(initial=0) <= ord("9")
            and (seps[0::2] == ord(" ")).all()
            and (seps[1::2] == ord("\n")).all()):
        return None
    del seps
    ids = np.fromstring(data, dtype=np.int64, sep=" ")[2:]
    if (len(ids) != 2 * m
            or _widths(ids, n, np.uint8).sum() != len(body) - 2 * m):
        return None
    u, v = ids[0::2], ids[1::2]
    return (n, ids.reshape(m, 2)) if (u < v).all() and (v < n).all() else None


def _parse_lines(text: str) -> Graph:
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
    return Graph(n, _canonical(n, ids))


def save_graph(x: Graph, path) -> None:
    """Write graph_to_text(x) to path, block by block, as its ASCII bytes."""
    with open(path, "wb") as fh:
        fh.write(f"{x.n} {len(x.edges)}\n".encode("ascii"))
        for block in _line_blocks(x.edges):
            fh.write(block)


def load_graph(path) -> Graph:
    """Read a graph file as graph_from_text reads text, holding its bytes
    and no str unless the line parser takes them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _read(data)
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: byte {exc.start} is not ASCII") from None
