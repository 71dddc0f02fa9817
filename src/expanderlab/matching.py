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

Adjacency is read from one set of x's edge codes u*n + v (u < v), with no
per-vertex neighbour sets and no sparse adjacency.  The result is
re-verified from its pairs alone before it is applied: Matching refuses a
vertex used twice, and add_matching refuses a matching that is not perfect,
an id outside [0, n) and a pair that is already an edge.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .graph_core import (
    Graph,
    Matching,
    _codes,
    add_matching,
    regularity,
)


def increment_regularity(x: Graph) -> tuple[Graph, Matching]:
    """Raise regularity by one by adding a perfect matching of the complement.

    The complement is never materialized: both passes test candidates
    against one set of x's edge codes u*n + v (u < v), which keeps the
    memory footprint linear in x.
    """
    k = regularity(x)
    if k is None:
        raise ValidationError("increment requires a regular graph")
    n = x.n
    if n % 2 == 1:
        raise ValidationError(f"odd vertex count {n}: no perfect matching exists")
    if not x.is_simple():
        raise ValidationError("increment requires a simple graph")
    if n < 2 * k + 2:
        raise ValidationError(f"cannot increment: n={n} < 2k+2={2 * k + 2}")
    edge = set(_codes(n, x.edges).tolist())

    def adjacent(a: int, b: int) -> bool:
        return (a * n + b if a < b else b * n + a) in edge

    mate = [-1] * n
    # free[i] leads, by path halving, to the smallest unmatched vertex >= i.
    free = list(range(n + 1))

    def first_free(i: int) -> int:
        while free[i] != i:
            free[i] = free[free[i]]
            i = free[i]
        return i

    for v in range(n):
        if mate[v] != -1:
            continue
        u = first_free(v + 1)
        while u < n and v * n + u in edge:
            u = first_free(u + 1)
        if u < n:
            mate[v], mate[u] = u, v
            free[v], free[u] = v + 1, u + 1

    exposed = [v for v in range(n) if mate[v] == -1]
    while exposed:
        u = exposed[0]
        a, w = next((a, w) for a in range(n) if a != u and not adjacent(a, u)
                    for w in exposed if w != u and not adjacent(w, mate[a]))
        b = mate[a]
        mate[u], mate[a], mate[w], mate[b] = a, u, b, w
        exposed.remove(u)
        exposed.remove(w)

    mates = np.array(mate, dtype=np.int64)
    low = np.flatnonzero(np.arange(n) < mates)
    m = Matching(np.column_stack([low, mates[low]]))
    return add_matching(x, m), m
