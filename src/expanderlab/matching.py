"""Regularity increments by a perfect matching of the complement.

A k-regular graph on n >= 2k + 2 vertices has a complement of minimum
degree n - 1 - k >= n/2, so by Dirac's theorem (1952) the complement has a
Hamiltonian cycle and hence a perfect matching when n is even.  No general
matching search is needed to find one:

1. a greedy pass pairs each unmatched vertex v, in ascending order, with
   the smallest unmatched complement neighbour u > v.  The result is
   maximal, so any two vertices it leaves exposed are adjacent in the graph;
2. an exchange pass repairs the exposed ones.  For the smallest exposed u,
   walk the complement neighbours a of u in ascending order with
   b = mate[a]; at the first b with an exposed complement neighbour w != u,
   take the smallest such w and replace (a, b) by (u, a) and (w, b).  An
   exchange always exists: two exposed vertices have complement degrees
   summing to at least n > 2|M|, so some matched pair sees both of them.

Both passes scan in ascending order, so a given graph always yields the
same matching.  The exchange order is the order in which the Edmonds
blossom search used by earlier releases found its augmenting paths from
the same greedy seed, so increments, and the matchings recorded in their
certificates, are unchanged.

Adjacency is read from x's canonical rows: row v of x.edges lists v's
neighbours above v, ascending.  Those neighbours, the row offsets, mate and
the free pointers are held in array('q') buffers, 8 bytes an entry with no
Python object behind it.  The greedy pass walks v's row beside its rising
candidates; the exchange pass finds a pair by bisection in the lower
vertex's row.  The result is re-verified from its pairs alone before it is
applied: Matching refuses a vertex used twice, and add_matching refuses a
matching that is not perfect, an id outside [0, n) and a pair that is
already an edge.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

import numpy as np

from .errors import ValidationError, _shown
from .graph_core import (
    Graph,
    Matching,
    add_matching,
    regularity,
)


def increment_regularity(x: Graph) -> tuple[Graph, Matching]:
    """Raise regularity by one by adding a perfect matching of the complement.

    The complement is never materialized: both passes test candidates
    against x's canonical rows, held in flat int64 buffers, which keeps the
    memory footprint linear in x with no Python object per edge.
    """
    k = regularity(x)
    if k is None:
        raise ValidationError("increment requires a regular graph")
    n = x.n
    if (fault := _increment_fault(k, n)) is not None:
        raise ValidationError(fault)
    if not x.is_simple():
        raise ValidationError("increment requires a simple graph")
    # v's neighbours above v, ascending, are above[start[v]:start[v + 1]].
    start = _buffer(np.searchsorted(x.edges[:, 0], np.arange(n + 1)))
    above = _buffer(x.edges[:, 1])

    def adjacent(a: int, b: int) -> bool:
        if a > b:
            a, b = b, a
        i = bisect_left(above, b, start[a], start[a + 1])
        return i < start[a + 1] and above[i] == b

    mate = array("q", [-1]) * n
    # free[i] leads, by path halving, to the smallest unmatched vertex >= i.
    free = _buffer(np.arange(n + 1))

    def first_free(i: int) -> int:
        while free[i] != i:
            free[i] = free[free[i]]
            i = free[i]
        return i

    for v in range(n):
        if mate[v] != -1:
            continue
        # Candidates u rise, so one pointer walks v's row beside them.
        i, end = start[v], start[v + 1]
        u = first_free(v + 1)
        while u < n:
            while i < end and above[i] < u:
                i += 1
            if i == end or above[i] != u:
                break
            u = first_free(u + 1)
        if u < n:
            mate[v], mate[u] = u, v
            free[v], free[u] = v + 1, u + 1

    mates = np.frombuffer(mate, dtype=np.int64)
    exposed = np.flatnonzero(mates == -1).tolist()
    while exposed:
        u = exposed[0]
        a, w = next((a, w) for a in range(n) if a != u and not adjacent(a, u)
                    for w in exposed if w != u and not adjacent(w, mate[a]))
        b = mate[a]
        mate[u], mate[a], mate[w], mate[b] = a, u, b, w
        exposed.remove(u)
        exposed.remove(w)

    del start, above, free          # before add_matching allocates
    low = np.flatnonzero(np.arange(n) < mates)
    m = Matching(np.column_stack([low, mates[low]]))
    return add_matching(x, m), m


def _increment_fault(k: int, n: int) -> str | None:
    """Why a simple k-regular graph on n vertices takes no increment."""
    if n % 2 == 1:
        return f"odd vertex count {_shown(n)}: no perfect matching exists"
    if n < 2 * k + 2:
        return f"cannot increment: n={_shown(n)} < 2k+2={_shown(2 * k + 2)}"
    return None


def _buffer(ids: np.ndarray) -> array:
    """ids as an array('q'): 8 bytes an entry, read as Python ints."""
    buf = array("q", [0]) * len(ids)
    np.frombuffer(buf, dtype=np.int64)[:] = ids
    return buf
