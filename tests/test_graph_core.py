import re
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import (
    cartesian_k2,
    graph_core,
    graph_from_text,
    graph_to_text,
    is_bipartite,
    is_connected,
    load_graph,
    regularity,
    save_graph,
)
from expanderlab.errors import ValidationError
from expanderlab.graph_core import (
    _BLOCK_ROWS,
    Matching,
    _parse_canonical,
    add_matching,
    bipartition,
    from_edge_list,
)
from helpers import (
    adjacency_matrix,
    brute_force_bipartite,
    complement,
    coo_adjacency,
    cycle,
    double_cover,
    double_cover_is_bipartite,
    edge_pairs,
    fstring_graph_text,
    fstring_lines,
    k4,
    line_parse_graph,
    parallel_k2,
    path,
    petersen,
    random_gnp,
    random_regular,
    remove_matching,
    to_graph,
    two_triangles,
)


# Random simple graph strategy: vertex count plus an edge subset.
@st.composite
def simple_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                 ) if pairs else []
    return from_edge_list(n, edges)


# Random multigraph strategy: sparse, so many draws are disconnected or have
# isolated vertices.
@st.composite
def multigraphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)
                 ) if pairs else []
    return from_edge_list(n, edges)


# -- construction and canonical form ------------------------------------------


def test_from_edge_list_canonicalizes():
    x = from_edge_list(4, [(2, 0), (3, 1), (0, 1)])
    assert edge_pairs(x) == ((0, 1), (0, 2), (1, 3))


def test_from_edge_list_multiedge():
    x = from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
    assert edge_pairs(x) == ((0, 1), (0, 1), (1, 2))
    assert x.degrees().tolist() == [2, 3, 1]
    assert not x.is_simple()
    # A repeat of any row, first, inner or last, is found.
    rows = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert from_edge_list(4, rows).is_simple()
    for pair in rows:
        assert not from_edge_list(4, rows + [pair]).is_simple()


def test_from_edge_list_rejects_loops_and_range():
    with pytest.raises(ValidationError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(ValidationError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValidationError):
        from_edge_list(-1, [])
    # Non-integer ids are refused, not truncated; empty input is no edges.
    with pytest.raises(ValidationError, match=(
            r"^edge \(0, 1\.7\) has a non-integer vertex id$")):
        from_edge_list(3, [(0, 1.7)])
    with pytest.raises(ValidationError, match="non-integer"):
        from_edge_list(3, np.array([[0.0, 1.0]]))
    for empty in ([], np.zeros((0, 2))):
        assert from_edge_list(3, empty).num_edges == 0
    assert from_edge_list(3, np.array([[2, 0]], dtype=np.uint64)) == (
        from_edge_list(3, [(0, 2)]))


def test_from_edge_list_reports_first_bad_edge():
    with pytest.raises(ValidationError, match=r"^loop at vertex 1 rejected$"):
        from_edge_list(3, [(0, 1), (1, 1), (0, 5)])
    with pytest.raises(ValidationError,
                       match=r"^edge \(0, 5\) out of range for n=3$"):
        from_edge_list(3, [(0, 1), (0, 5), (1, 1)])
    with pytest.raises(ValidationError,
                       match=r"^edge \(-1, 2\) out of range for n=3$"):
        from_edge_list(3, [(-1, 2)])


def test_vertex_ids_beyond_int64_rejected_cleanly():
    huge = 99999999999999999999
    with pytest.raises(ValidationError,
                       match=rf"^edge \(0, {huge}\) out of range for n=3$"):
        graph_from_text(f"3 1\n0 {huge}\n")
    with pytest.raises(ValidationError, match=r"^loop at vertex 2 rejected$"):
        from_edge_list(3, [(2, 2), (0, -huge)])
    # A vertex count beyond int64 is kept as given, and so is the text.
    text = f"{huge} 1\n0 1\n"
    x = graph_from_text(text)
    assert x.n == huge and x.num_edges == 1
    assert graph_to_text(x) == text


def test_in_range_vertex_ids_beyond_int64_unsupported():
    huge = 99999999999999999999
    with pytest.raises(ValidationError, match="beyond int64"):
        from_edge_list(huge * huge, [(0, huge)])


def test_edges_are_a_read_only_sorted_array():
    x = from_edge_list(4, [(3, 1), (2, 0), (0, 1), (2, 0)])
    assert x.edges.dtype == np.int64 and x.edges.shape == (4, 2)
    assert edge_pairs(x) == ((0, 1), (0, 2), (0, 2), (1, 3))
    with pytest.raises(ValueError):
        x.edges[0, 0] = 3


def test_graph_equality_and_hash():
    a = from_edge_list(3, [(0, 1), (1, 2)])
    b = from_edge_list(3, [(2, 1), (1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != from_edge_list(3, [(0, 1)])
    assert a != from_edge_list(4, [(0, 1), (1, 2)])


def _reference_canonical(edges: np.ndarray) -> np.ndarray:
    e = np.sort(edges.reshape(-1, 2), axis=1)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


# Edge lists on up to 12 vertices, drawn as loop-free pairs in four shapes:
# mixed orientation and order, all u < v but out of order, canonical rows
# with one of them reversed, and mixed rows with one bad row, a loop or an
# out-of-range id, put in at a drawn position.  A case is (n, edges, the
# message the bad row must raise, or None).
@st.composite
def edge_arrays(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    e = np.array(draw(st.lists(st.sampled_from(pairs), max_size=40)),
                 dtype=np.int64).reshape(-1, 2)
    shape = draw(st.sampled_from(["mixed", "ordered rows", "one reversed",
                                  "one bad row"]))
    if shape in ("ordered rows", "one reversed"):
        e = np.sort(e, axis=1)
    if shape == "one reversed" and len(e):
        e = _reference_canonical(e)
        i = draw(st.integers(min_value=0, max_value=len(e) - 1))
        e[i] = e[i, ::-1]
    error = None
    if shape == "one bad row":
        w = draw(st.integers(min_value=0, max_value=n - 1))
        far = draw(st.one_of(st.integers(min_value=n, max_value=2**62),
                             st.integers(min_value=-2**62, max_value=-1),
                             st.just(w)))
        row = draw(st.permutations([w, far]))
        error = (f"loop at vertex {w} rejected" if far == w else
                 f"edge ({row[0]}, {row[1]}) out of range for n={n}")
        i = draw(st.integers(min_value=0, max_value=len(e)))
        e = np.insert(e, i, row, axis=0)
    return n, e, error


@settings(max_examples=300)
@given(edge_arrays())
@example((5, np.array([[0, 1], [0, 1], [1, 4], [2, 3]]), None))
@example((5, np.array([[1, 4], [0, 1], [2, 3]]), None))
@example((5, np.array([[0, 1], [4, 1], [2, 3]]), None))
@example((5, np.array([[1, 0], [3, 3], [9, 2]]), "loop at vertex 3 rejected"))
def test_from_edge_list_matches_reference_canonical_form(case):
    n, e, error = case
    if error is not None:
        # The first bad row in input order is named, from an array or a
        # list alike.
        for edges in (e, e.tolist()):
            with pytest.raises(ValidationError, match=f"^{re.escape(error)}$"):
                from_edge_list(n, edges)
        return
    given_edges = e.copy()
    x = from_edge_list(n, e)
    assert x.edges.dtype == np.int64
    assert np.array_equal(x.edges, _reference_canonical(e))
    assert from_edge_list(n, e.tolist()) == x
    assert not x.edges.flags.writeable
    with pytest.raises(ValueError):
        x.edges[...] = 0
    # The input is neither changed nor shared: writing to it leaves x as is.
    assert np.array_equal(e, given_edges) and e.flags.writeable
    if len(e):
        e[:] = 0
        assert np.array_equal(x.edges, _reference_canonical(given_edges))


@given(multigraphs())
@example(from_edge_list(3, []))
@example(from_edge_list(4, [(0, 3), (1, 2), (0, 3), (0, 1), (0, 1), (0, 1)]))
@example(parallel_k2(1))
@example(parallel_k2(2))
@example(parallel_k2(7))
@example(parallel_k2(255))
@example(parallel_k2(256))
@example(from_edge_list(4, [(1, 2)] * 300 + [(0, 1), (0, 3), (2, 3)] * 2))
def test_adjacency_sparse_is_born_sorted(x):
    # The upper triangle read off the canonical rows plus its transpose is
    # the CSR that scipy's COO conversion built, array for array and dtype
    # for dtype: parallel edges summed into multiplicities.  The sum counts
    # in the narrowest type that holds m, so 255 and 256 parallel edges sit
    # on either side of one byte's range.
    a = x.adjacency_sparse()
    assert a.has_sorted_indices and a.has_canonical_format
    want = coo_adjacency(x)
    assert a.shape == want.shape
    for name in ("indptr", "indices", "data"):
        got, wanted = getattr(a, name), getattr(want, name)
        assert got.dtype == wanted.dtype and np.array_equal(got, wanted), name


# -- regularity / connectivity / bipartiteness ---------------------------------


def test_regularity_examples():
    assert regularity(k4()) == 3
    assert regularity(cycle(6)) == 2
    assert regularity(path(3)) is None
    assert regularity(from_edge_list(1, [])) == 0


def test_is_connected_examples():
    assert is_connected(cycle(6))
    assert not is_connected(two_triangles())
    assert is_connected(from_edge_list(1, []))
    assert not is_connected(from_edge_list(0, []))
    assert not is_connected(from_edge_list(2, []))


def test_is_bipartite_examples():
    assert is_bipartite(cycle(4))
    assert is_bipartite(cycle(6))
    assert not is_bipartite(cycle(5))
    assert not is_bipartite(k4())
    assert not is_bipartite(petersen())


def test_is_bipartite_prism_vs_brute_force():
    prism = cartesian_k2(cycle(6))
    assert prism.n == 12
    assert is_bipartite(prism) == brute_force_bipartite(prism) is True


def _check_bipartition(x):
    """bipartition against the double cover, and a proper colouring."""
    sides = bipartition(x)
    assert (sides is not None) == is_bipartite(x) == double_cover_is_bipartite(x)
    if sides is not None:
        assert sides.shape == (x.n,) and set(sides.tolist()) <= {0, 1}
        assert (sides[x.edges[:, 0]] != sides[x.edges[:, 1]]).all()
        assert x.n == 0 or sides[0] == 0


@given(st.one_of(simple_graphs(), multigraphs()))
@example(from_edge_list(0, []))
@example(from_edge_list(7, [(1, 2), (1, 2), (4, 6), (5, 6)]))
def test_is_bipartite_vs_brute_force(x):
    assert is_bipartite(x) == brute_force_bipartite(x)
    _check_bipartition(x)


def test_bipartition_vs_double_cover_random():
    # Sparse G(n, p) draws are mostly disconnected; their double covers are
    # bipartite, and doubling every edge makes multigraphs of both kinds.
    rng = np.random.default_rng(61)
    for seed in range(40):
        n = int(rng.integers(1, 300))
        x = random_gnp(n, float(rng.choice([0.002, 0.008, 0.03])), seed)
        doubled = from_edge_list(n, np.concatenate([x.edges, x.edges]))
        for y in (x, double_cover(x), doubled, double_cover(doubled)):
            _check_bipartition(y)
            g = nx.MultiGraph()
            g.add_nodes_from(range(y.n))
            g.add_edges_from(edge_pairs(y))
            assert is_connected(y) == nx.is_connected(g)


def test_bipartition_of_deep_graphs():
    # Depth about n: the parity is found by pointer doubling, not a loop
    # over the search order.
    x = path(5000)
    assert is_connected(x)
    assert bipartition(x).tolist() == [v % 2 for v in range(5000)]
    assert is_bipartite(cycle(5000)) and not is_bipartite(cycle(5001))
    y = from_edge_list(4001, np.concatenate([cycle(4000).edges,
                                             [[3999, 4000]]]))
    assert is_connected(y) and is_bipartite(y)
    assert not is_connected(from_edge_list(5000, path(4999).edges))


def test_bipartition_is_read_only_and_cached():
    x = double_cover(random_regular(3, 40, 2))
    sides = bipartition(x)
    assert sides is bipartition(x)
    with pytest.raises(ValueError):
        sides[0] = 1


@given(st.one_of(simple_graphs(), multigraphs()))
@example(from_edge_list(1, []))
@example(from_edge_list(5, [(0, 1), (0, 1), (2, 3)]))
@example(from_edge_list(4, [(0, 1), (1, 2), (1, 2), (0, 2)]))
def test_is_connected_vs_networkx(x):
    g = nx.MultiGraph()
    g.add_nodes_from(range(x.n))
    g.add_edges_from(edge_pairs(x))
    assert is_connected(x) == nx.is_connected(g)


# -- cartesian product ----------------------------------------------------------


def test_cartesian_k2_of_k2_is_c4():
    x = cartesian_k2(from_edge_list(2, [(0, 1)]))
    assert x.n == 4
    assert edge_pairs(x) == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_cartesian_k2_of_c4_is_q3():
    got = cartesian_k2(cycle(4))
    q3 = nx.hypercube_graph(3)
    g = nx.Graph()
    g.add_edges_from(edge_pairs(got))
    assert nx.is_isomorphic(g, q3)


def test_cartesian_k2_spectrum_shift():
    x = cartesian_k2(k4())
    w = np.sort(np.linalg.eigvalsh(adjacency_matrix(x)))
    want = np.sort([4, 2, 0, 0, 0, -2, -2, -2]).astype(float)
    assert np.allclose(w, want, atol=1e-9)


def test_cartesian_k2_degree_and_bipartite():
    x = cycle(6)
    prod = cartesian_k2(x)
    assert regularity(prod) == regularity(x) + 1
    assert is_bipartite(prod)
    assert is_connected(prod)


def test_cartesian_k2_multigraph():
    x = from_edge_list(2, [(0, 1), (0, 1)])
    prod = cartesian_k2(x)
    assert prod.degrees().tolist() == [3, 3, 3, 3]
    assert Counter(edge_pairs(prod))[(0, 1)] == 2


# -- complement -------------------------------------------------------------------


def test_complement_examples():
    assert complement(k4()).num_edges == 0
    assert edge_pairs(complement(cycle(4))) == ((0, 2), (1, 3))
    c6c = complement(cycle(6))
    assert regularity(c6c) == 3


def test_complement_rejects_multigraph():
    with pytest.raises(ValidationError):
        complement(from_edge_list(2, [(0, 1), (0, 1)]))


@given(simple_graphs())
def test_complement_involution(x):
    assert complement(complement(x)) == x


@given(simple_graphs())
def test_complement_edge_count(x):
    assert x.num_edges + complement(x).num_edges == x.n * (x.n - 1) // 2


# -- matchings ----------------------------------------------------------------------


def test_matching_validation():
    # Unsorted input, as pairs and as an array, comes out as sorted rows.
    m = Matching([(3, 0), (1, 2)])
    assert tuple(m) == ((0, 3), (1, 2)) and len(m) == 2
    assert m.rows.dtype == np.int64 and not m.rows.flags.writeable
    assert m == Matching(np.array([[2, 1], [0, 3]])) == Matching(m.rows)
    assert m.is_perfect(4) and not m.is_perfect(6)
    assert m.to_text() == "0 3\n1 2\n"
    with pytest.raises(ValidationError, match="vertex 1 reused"):
        Matching([(0, 1), (1, 2)])
    with pytest.raises(ValidationError, match="loop at vertex 2"):
        Matching([(2, 2)])
    for pair in ((3, -1), (0, 2**63)):
        with pytest.raises(ValidationError, match="out of range"):
            Matching([pair])
    assert Matching([(0, 2**63 - 1)]).to_text() == f"0 {2**63 - 1}\n"
    # Non-integer ids are refused, and an unsigned id past int64 is named
    # as given.
    with pytest.raises(ValidationError, match=(
            r"^edge \(0\.5, 2\.0\) has a non-integer vertex id$")):
        Matching(np.array([[0.5, 2]]))
    with pytest.raises(ValidationError, match=(
            rf"^edge \(0, {2**63}\) out of range for n={2**63}$")):
        Matching(np.array([[0, 2**63]], dtype=np.uint64))
    assert Matching(np.array([[3, 0]], dtype=np.uint8)) == Matching([(0, 3)])
    # The caller's array stays writeable and its own.
    a = np.array([[0, 1], [2, 3]])
    Matching(a)
    assert a.flags.writeable


def test_add_matching_c6_diagonals():
    x = add_matching(cycle(6), Matching([(0, 3), (1, 4), (2, 5)]))
    assert regularity(x) == 3
    assert x.is_simple()


def test_add_matching_errors():
    with pytest.raises(ValidationError, match="covers 2 of 6 vertices"):
        add_matching(cycle(6), Matching([(0, 3)]))
    with pytest.raises(ValidationError, match=r"pair \(0, 1\) already an edge"):
        add_matching(cycle(6), Matching([(0, 1), (2, 3), (4, 5)]))
    # (0, 6) has the code 0*4 + 6 of the edge (1, 2): the range is checked first.
    with pytest.raises(ValidationError, match=r"edge \(0, 6\) out of range for n=4"):
        add_matching(cycle(4), Matching([(0, 6), (1, 3)]))


def test_add_matching_inserts_like_a_sort():
    # The pairs go in at their searchsorted positions; the oracle sorts the
    # union from scratch.  Graphs carry parallel edges, and matchings that
    # meet an edge must name the first such pair.
    rng = np.random.default_rng(71)
    added = refused = 0
    for seed in range(300):
        n = 2 * int(rng.integers(1, 12))
        edges = edge_pairs(random_gnp(n, float(rng.uniform(0, 0.5)), seed))
        edges += edges[:int(rng.integers(0, len(edges) + 1))]
        x = from_edge_list(n, edges)
        m = Matching(rng.permutation(n).reshape(-1, 2).tolist())
        present = [pair for pair in m if pair in set(edges)]
        if present:
            with pytest.raises(ValidationError,
                               match=re.escape(f"pair {present[0]} already")):
                add_matching(x, m)
            refused += 1
        else:
            y = add_matching(x, m)
            assert y == from_edge_list(n, edges + tuple(m))
            assert not y.edges.flags.writeable
            added += 1
    assert added > 50 and refused > 50


# remove_matching is the test oracle (tests/helpers.py) behind the down half
# of acceptance criterion 4; the package only ever adds matchings.


def test_remove_matching_q3_cross():
    q3 = cartesian_k2(cycle(4))
    m = Matching([(i, i + 4) for i in range(4)])
    rest = remove_matching(q3, m)
    assert regularity(rest) == 2
    assert not is_connected(rest)


def test_remove_matching_multigraph_one_copy():
    x = from_edge_list(2, [(0, 1), (0, 1)])
    rest = remove_matching(x, Matching([(0, 1)]))
    assert edge_pairs(rest) == ((0, 1),)


def test_remove_matching_missing_pair():
    with pytest.raises(ValidationError):
        remove_matching(cycle(4), Matching([(0, 2), (1, 3)]))


def test_add_remove_roundtrip():
    # The union holds x's edges plus m's pairs, each exactly once.
    x = cycle(6)
    m = Matching([(0, 3), (1, 4), (2, 5)])
    y = add_matching(x, m)
    assert Counter(edge_pairs(y)) - Counter(m) == Counter(edge_pairs(x))
    assert y.num_edges == x.num_edges + len(m)


# -- degree sum -----------------------------------------------------------------------


@given(simple_graphs())
def test_degree_sum(x):
    assert sum(x.degrees()) == 2 * x.num_edges


# -- serialization -----------------------------------------------------------------------


def test_graph_to_text_golden():
    assert graph_to_text(cycle(4)) == "4 4\n0 1\n0 3\n1 2\n2 3\n"


def test_graph_to_text_multiedge_lines():
    x = from_edge_list(2, [(0, 1), (0, 1)])
    assert graph_to_text(x) == "2 2\n0 1\n0 1\n"


# The blocked byte writer against the f-string writer it replaced
# (tests/helpers.py): every id width, the largest int64 id, the block edges.


def _widest_ids() -> list[int]:
    ids = {0, 2**63 - 2, 2**63 - 1}
    for d in range(1, 19):
        ids |= {10**d - 1, 10**d}
    return sorted(ids)


def _assert_written_as_text(x, tmp_path) -> None:
    """graph_to_text(x) is the f-string text, and save_graph writes its bytes."""
    text = graph_to_text(x)
    assert text == fstring_graph_text(x)
    p = tmp_path / "g.txt"
    save_graph(x, p)
    assert p.read_bytes() == text.encode()


def test_text_writer_digit_width_boundaries(tmp_path):
    ids = _widest_ids()
    x = from_edge_list(2**63, [(u, v) for i, u in enumerate(ids)
                               for v in ids[i + 1:]])
    assert x.num_edges == len(ids) * (len(ids) - 1) // 2
    _assert_written_as_text(x, tmp_path)
    # Each width next to every other, in both orders.
    m = Matching(zip(ids[0::2], ids[1::2]))
    assert m.to_text() == fstring_lines(tuple(m))
    m = Matching(zip(ids[1::2], ids[2::2]))
    assert m.to_text() == fstring_lines(tuple(m))


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_text_writer_block_boundaries(extra, tmp_path):
    m = _BLOCK_ROWS + extra
    rng = np.random.default_rng(m)
    u = rng.integers(0, 10 ** rng.integers(1, 19, size=m))
    v = u + 1 + rng.integers(0, 10 ** rng.integers(0, 18, size=m))
    chain = np.arange(m)
    for x in (from_edge_list(2**63, np.column_stack([u, v])),
              from_edge_list(m + 1, np.column_stack([chain, chain + 1])),
              from_edge_list(2, [(0, 1)] * m)):
        assert x.num_edges == m
        _assert_written_as_text(x, tmp_path)
    pairs = Matching((2 * i, 2 * i + 1) for i in range(m))
    assert pairs.to_text() == fstring_lines(tuple(pairs))


def test_text_writer_empty_and_parallel(tmp_path):
    for x in (from_edge_list(0, []), from_edge_list(5, []),
              from_edge_list(3, [(0, 1), (1, 2), (0, 1), (0, 1)]),
              from_edge_list(2**63, [(7, 2**63 - 1)] * 3 + [(0, 10)] * 2)):
        _assert_written_as_text(x, tmp_path)
    assert graph_to_text(from_edge_list(0, [])) == "0 0\n"
    assert Matching([]).to_text() == ""


def test_text_roundtrip_random():
    rng = np.random.default_rng(29)
    for seed in range(20):
        x = random_gnp(int(rng.integers(1, 12)), 0.4, seed)
        assert graph_from_text(graph_to_text(x)) == x


def test_graph_from_text_errors():
    for bad in ["", "1\n", "2 1\n", "2 1\n0 0\n", "2 1\n1 0\n",
                "2 1\n0 2\n", "2 2\n0 1\n", "x y\n", "2 1\na b\n"]:
        with pytest.raises(ValidationError):
            graph_from_text(bad)


# Tokens the byte parser must refuse, so the line parser decides them.
_ODD_TOKENS = ("a", "", "1.0", "+3", "-2", "1_0", "\u0663", "0x1", "007",
               "99999999999999999999", "1e3", "9" * 19, " 4")


@st.composite
def mutated_texts(draw):
    """graph_to_text output with up to three edits of kinds the canonical
    form excludes, or that a parser must reject."""
    x = draw(multigraphs())
    lines = graph_to_text(x).split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split(" ")
        j = draw(st.integers(0, len(toks) - 1))
        kind = draw(st.sampled_from(
            ["token", "swap", "equal", "count", "range", "blank", "crlf",
             "sign", "underscore", "spaces", "join", "drop", "extra"]))
        if kind == "token":
            toks[j] = draw(st.sampled_from(_ODD_TOKENS))
        elif kind == "swap":
            toks.reverse()
        elif kind == "equal":
            toks = [toks[0]] * len(toks)
        elif kind == "count":
            lines[0] = f"{x.n} {x.num_edges + draw(st.integers(-1, 2))}"
        elif kind == "range":
            toks[j] = str(x.n + draw(st.integers(0, 3)))
        elif kind == "blank":
            lines.insert(i + 1, draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "crlf":
            toks[-1] += "\r"
        elif kind == "sign":
            toks[j] = draw(st.sampled_from("+-")) + toks[j]
        elif kind == "underscore":
            toks[j] = toks[j][:1] + "_" + toks[j][1:]
        elif kind == "spaces":
            toks = [" ".join(toks)]
        elif kind == "join" and i + 1 < len(lines):
            toks.append(lines.pop(i + 1))
        elif kind == "drop":
            toks = [] if i else toks
        else:
            toks.append(draw(st.sampled_from(["0", "1"])))
        lines[i] = " ".join(toks)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def _parse_outcome(parse, text):
    try:
        x = parse(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return x.n, edge_pairs(x)


@settings(max_examples=300)
@given(mutated_texts())
@example("")
@example("4 2\n0 3 1 2\n")
@example("3 1\n0 99999999999999999999\n")
@example(f"{10 ** 20} 1\n0 1\n")
@example(f"{'9' * 5000} 0\n")
@example("4 2\n0 3\n1 2")
@example("4 2\n0 3\r\n1 2\n")
@example("4 2\n2 3\n1 1\n")
@example("4 2\n0 9\n2 1\n")
def test_graph_from_text_matches_line_parser(text):
    assert _parse_outcome(graph_from_text, text) == _parse_outcome(
        line_parse_graph, text)


def test_canonical_text_takes_the_byte_parser():
    x = random_regular(5, 300, 3)
    n, ids = _parse_canonical(graph_to_text(x).encode())
    assert n == 300 and np.array_equal(ids, x.edges)
    assert _parse_canonical(b"5 0\n")[1].shape == (0, 2)
    # "00" is not how the writer prints 0, so the line parser reads it.
    for odd in ("4 2\n0 3\n1 2", "4 2\n0 3\r\n1 2\n", "4 2\n0 3\n\n1 2\n",
                "4 2\n2 0\n1 2\n", "4  2\n0 3\n1 2\n", "4 2\n+0 3\n1 2\n",
                "4 1\n0 3\n1 2\n", f"4 1\n0 {'1' * 19}\n", "4 0\n\n",
                "4 2\n0 3\n1 4\n", "4 2\n00 3\n1 2\n"):
        assert _parse_canonical(odd.encode()) is None, odd


# Texts that look canonical to a check short of the writer's digit rule:
# numpy's scanner saturates an id past 2**63 - 1 to that value, silently.
_SATURATED = 2**63 - 1


@pytest.mark.parametrize("text, outcome", [
    ("0 0\nx", (ValidationError, "header promises 0 edges, found 1")),
    (f"4 1\n0 {'9' * 19}\n",
     (ValidationError, f"edge (0, {'9' * 19}) out of range for n=4")),
    (f"4 1\n0 {'1' * 25}\n",
     (ValidationError, f"edge (0, {'1' * 25}) out of range for n=4")),
    (f"{10**18 - 1} 1\n0 {'9' * 19}\n",
     (ValidationError, f"edge (0, {'9' * 19}) out of range for n={10**18 - 1}")),
    (f"{_SATURATED} 1\n0 {'9' * 19}\n",
     (ValidationError, f"edge (0, {'9' * 19}) out of range for n={_SATURATED}")),
    (f"{10**19} 1\n0 {_SATURATED}\n", (10**19, ((0, _SATURATED),))),
    ("4 2\n00 3\n1 2\n", (4, ((0, 3), (1, 2)))),
    # 2m separators, but not in turn, or around empty tokens.
    ("4 2\n0\n3\n1 2\n", (ValidationError, "header promises 2 edges, found 3")),
    ("4 2\n \n1 3\n", (ValidationError, "header promises 2 edges, found 1")),
    ("4 1\n 0\n3", (ValidationError, "header promises 1 edges, found 2")),
    ("4 1\n 0\n3 \n", (ValidationError, "header promises 1 edges, found 2")),
], ids=["m0-body-x", "19-nines", "25-digits", "18-digit-n", "19-digit-n",
        "20-digit-n", "leading-zero", "newline-for-space", "empty-line",
        "token-after-last-line", "lines-past-m"])
def test_reader_edge_cases_go_to_the_line_parser(text, outcome, tmp_path):
    assert _parse_canonical(text.encode()) is None
    p = tmp_path / "g.txt"
    p.write_bytes(text.encode())
    for parse in (graph_from_text, lambda _: load_graph(p), line_parse_graph):
        assert _parse_outcome(parse, text) == outcome


def test_load_graph_names_a_non_ascii_byte(tmp_path):
    # Canonical but for one byte: the file is refused at that byte, while
    # a str holding the same digit goes to the line parser, as int() reads it.
    text = "4 2\n0 3\n1 \u0662\n"
    p = tmp_path / "g.txt"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValidationError,
                       match=rf"^{re.escape(str(p))}: byte 10 is not ASCII$"):
        load_graph(p)
    p.write_bytes(b"4 2\n0 3\n1 \xb2\n")
    with pytest.raises(ValidationError,
                       match=rf"^{re.escape(str(p))}: byte 10 is not ASCII$"):
        load_graph(p)
    assert edge_pairs(graph_from_text(text)) == ((0, 3), (1, 2))


def test_canonical_text_keeps_its_parsed_rows(monkeypatch):
    # The byte parser has checked every id, u < v < n, so its array
    # becomes the graph's edges as it is: no copy, and no second pass of
    # _canonical over the rows.  Rows out of order are sorted, not kept.
    parsed = []

    def recording(text):
        parsed.append(_parse_canonical(text))
        return parsed[-1]

    def never(*args):
        raise AssertionError("canonical text went through _canonical")

    x = random_regular(5, 300, 3)
    monkeypatch.setattr(graph_core, "_parse_canonical", recording)
    monkeypatch.setattr(graph_core, "_canonical", never)
    y = graph_from_text(graph_to_text(x))
    assert y == x and y.edges is parsed[-1][1]
    assert not y.edges.flags.writeable
    y = graph_from_text("4 2\n1 2\n0 3\n")
    assert y.edges.tolist() == [[0, 3], [1, 2]] and not y.edges.flags.writeable


def test_save_load_roundtrip(tmp_path):
    x = petersen()
    p = tmp_path / "g.txt"
    save_graph(x, p)
    assert load_graph(p) == x


def test_to_graph_helper_matches_networkx():
    g = nx.petersen_graph()
    assert to_graph(g) == petersen() or nx.is_isomorphic(
        g, nx.Graph(list(edge_pairs(petersen()))))
