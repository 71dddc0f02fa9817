import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expanderlab import (
    build_lps,
    cartesian_k2,
    increment_regularity,
    is_connected,
    regularity,
)
from expanderlab import graph_core
from expanderlab.errors import ValidationError
from expanderlab.graph_core import Matching, from_edge_list
from helpers import (
    adjacency_matrix,
    blossom_increment_matching,
    cycle,
    decrement_regularity,
    edge_pairs,
    exhaustive_max_matching_size,
    fstring_lines,
    k4,
    maximum_matching,
    neighbor_lists,
    nx_max_matching_size,
    path,
    perfect_matching,
    petersen,
    random_gnp,
    random_regular,
    remove_matching,
    to_graph,
)


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs))) if pairs else []
    return from_edge_list(n, edges)


def _assert_valid_matching(x, m):
    present = set(edge_pairs(x))
    for u, v in m:
        assert (u, v) in present


# -- the blossom reference (tests/helpers.py) vs oracles ------------------------


@given(small_graphs())
def test_maximum_matching_vs_exhaustive(x):
    m = maximum_matching(x)
    _assert_valid_matching(x, m)
    assert len(m) == exhaustive_max_matching_size(x)


def test_maximum_matching_vs_networkx_random():
    rng = np.random.default_rng(31)
    for seed in range(30):
        n = int(rng.integers(5, 60))
        x = random_gnp(n, float(rng.uniform(0.05, 0.5)), seed)
        m = maximum_matching(x)
        _assert_valid_matching(x, m)
        assert len(m) == nx_max_matching_size(x)


def test_maximum_matching_tricky_blossoms():
    # Odd cycles force contractions; these shapes historically break
    # buggy blossom implementations.
    cases = [
        cycle(5),
        cycle(7),
        from_edge_list(9, [(0, 1), (1, 2), (2, 0),      # triangle
                           (3, 4), (4, 5), (5, 3),      # triangle
                           (2, 3), (5, 6), (6, 7), (7, 8)]),
        from_edge_list(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                           (0, 2), (4, 5), (5, 6), (6, 4), (3, 4), (6, 7)]),
    ]
    for x in cases:
        m = maximum_matching(x)
        _assert_valid_matching(x, m)
        assert len(m) == exhaustive_max_matching_size(x)


def test_maximum_matching_deterministic():
    x = random_gnp(40, 0.2, 7)
    assert maximum_matching(x) == maximum_matching(x)


# -- perfect_matching (networkx, tests/helpers.py) ------------------------------


def test_perfect_matching_c4():
    m = perfect_matching(cycle(4))
    assert m.is_perfect(4)
    _assert_valid_matching(cycle(4), m)


def test_perfect_matching_k4_minus_edge():
    x = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    m = perfect_matching(x)
    assert m.is_perfect(4)
    _assert_valid_matching(x, m)


def test_perfect_matching_star_fails_with_payload():
    star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValidationError, match="size 1,"):
        perfect_matching(star)


def test_perfect_matching_odd_n():
    with pytest.raises(ValidationError):
        perfect_matching(cycle(5))


def test_perfect_matching_petersen():
    m = perfect_matching(petersen())
    assert m.is_perfect(10)


# -- increment_regularity -----------------------------------------------------------


def test_increment_c6():
    x, m = increment_regularity(cycle(6))
    assert regularity(x) == 3
    assert x.is_simple()
    assert m.is_perfect(6)
    # the matching lives in the complement
    for pair in m:
        assert pair not in set(edge_pairs(cycle(6)))
    # n = 2k+2, the tight case: greedy pairs (0, 2) and (1, 3) and leaves
    # {4, 5} exposed; the exchange swaps (0, 2) for (4, 0) and (5, 2).
    assert tuple(m) == ((0, 4), (1, 3), (2, 5))


def test_increment_c4_gives_k4():
    # C4 plus its complement would be K4, but n = 4 < 2k+2 = 6 is outside
    # the range where a complement matching is guaranteed.
    with pytest.raises(ValidationError, match="n=4 < 2k\\+2=6"):
        increment_regularity(cycle(4))


def test_increment_petersen():
    x, _ = increment_regularity(petersen())
    assert regularity(x) == 4
    assert x.is_simple()


def test_increment_k4_fails():
    with pytest.raises(ValidationError, match="n=4 < 2k\\+2=8"):
        increment_regularity(k4())


def test_increment_preconditions():
    with pytest.raises(ValidationError):
        increment_regularity(path(3))
    with pytest.raises(ValidationError):
        increment_regularity(cycle(5))
    with pytest.raises(ValidationError):
        increment_regularity(from_edge_list(4, [(0, 1), (0, 1), (2, 3), (2, 3)]))


def test_increment_deterministic():
    x = random_regular(3, 20, 3)
    a1, m1 = increment_regularity(x)
    a2, m2 = increment_regularity(x)
    assert a1 == a2 and m1 == m2


def test_increment_matching_equals_validated_matching(x513):
    # The increment builds its Matching from an int64 array; the same pairs
    # as Python tuples must give an indistinguishable one.
    for x in (cycle(6), petersen(), random_regular(5, 40, 2), x513):
        _, m = increment_regularity(x)
        pairs = tuple(m)
        again = Matching(pairs)
        assert m == again and hash(m) == hash(again) and len(m) == x.n // 2
        assert m.to_text() == again.to_text() == fstring_lines(pairs)
        assert all(type(i) is int for pair in pairs for i in pair)


def test_increment_canonicalizes_its_matching_once(monkeypatch):
    # Matching makes its rows canonical; add_matching only range-checks
    # them, so the rows pass through _canonical once per increment.
    x = build_lps(5, 29)
    calls = []

    def counting(n, raw):
        calls.append(n)
        return canonical(n, raw)

    canonical = graph_core._canonical
    monkeypatch.setattr(graph_core, "_canonical", counting)
    y, m = increment_regularity(x)
    assert len(calls) == 1
    assert y.num_edges == x.num_edges + x.n // 2 and m.is_perfect(x.n)


def _greedy_leaves_exposed(x):
    adj = [set(nbrs) for nbrs in neighbor_lists(x)]
    free = set(range(x.n))
    for v in range(x.n):
        if v in free:
            u = min((u for u in free if u > v and u not in adj[v]), default=None)
            if u is not None:
                free -= {u, v}
    return bool(free)


def test_increment_matches_blossom_reference():
    # Certificates record the matching of every increment and replay
    # recomputes it, so the matchings must stay those of the blossom search
    # that earlier releases ran.  Graphs need not be connected, and each is
    # incremented for as long as n >= 2k+2 holds.
    rng = np.random.default_rng(43)
    steps = exchanged = 0
    for seed in range(150):
        n = 2 * int(rng.integers(3, 26))
        k = int(rng.integers(0, n // 2))
        x = to_graph(nx.random_regular_graph(k, n, seed=seed))
        while x.n >= 2 * regularity(x) + 2:
            exchanged += _greedy_leaves_exposed(x)
            expected = blossom_increment_matching(x)
            x, m = increment_regularity(x)
            assert m == expected
            steps += 1
    assert steps > 1000 and exchanged > 500


def test_increment_weyl_bound_random():
    # Adding a perfect matching perturbs every eigenvalue by at most 1.
    rng = np.random.default_rng(37)
    for seed in range(40):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k + 1, 41))
        if n % 2 == 1:
            n += 1
        if n <= k:
            continue
        x = random_regular(k, n, seed)
        if x.n < 2 * k + 2:
            continue
        y, _ = increment_regularity(x)
        w_x = np.sort(np.linalg.eigvalsh(adjacency_matrix(x)))
        w_y = np.sort(np.linalg.eigvalsh(adjacency_matrix(y)))
        assert np.abs(w_y - w_x).max() <= 1 + 1e-9


# -- decrement_regularity (networkx, tests/helpers.py) ------------------------------


def test_decrement_k4():
    x, m = decrement_regularity(k4())
    assert regularity(x) == 2
    assert m.is_perfect(4)


def test_decrement_petersen():
    x, _ = decrement_regularity(petersen())
    assert regularity(x) == 2


def test_decrement_c6():
    x, _ = decrement_regularity(cycle(6))
    assert regularity(x) == 1


def test_decrement_multigraph():
    x = from_edge_list(2, [(0, 1), (0, 1), (0, 1)])
    y, _ = decrement_regularity(x)
    assert edge_pairs(y) == ((0, 1), (0, 1))


def test_decrement_preconditions():
    with pytest.raises(ValidationError):
        decrement_regularity(path(3))
    with pytest.raises(ValidationError):
        decrement_regularity(cycle(5))
    with pytest.raises(ValidationError):
        decrement_regularity(from_edge_list(2, []))


def test_decrement_disconnection_is_legal():
    # Q3 minus its cross matching is two 4-cycles.
    q3 = cartesian_k2(cycle(4))
    rest = remove_matching(q3, Matching([(i, i + 4) for i in range(4)]))
    assert regularity(rest) == 2 and not is_connected(rest)
