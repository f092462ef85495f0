import random
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from boxprime import graphs as graphs_module
from boxprime.errors import CapacityError, DomainError
from boxprime.graph6 import encode_graph6, parse_graph6
from boxprime.graphs import (Graph, canonical_form, canonical_key,
                             cartesian_product, complement,
                             complete_graph, cycle_graph, disjoint_union,
                             empty_graph, enumerate_connected,
                             enumerate_graphs,
                             from_edges, induced_subgraph, is_connected,
                             path_graph, relabel)
from _oracles import (_distances_by_bfs, canonical_bits_eager,
                      cartesian_product_by_edges,
                      disjoint_union_by_edges, edges_by_pair_bits,
                      enumerate_by_all_subsets, exhaustive_minimum_bits,
                      from_edges_by_pair_bits, induced_subgraph_by_edges,
                      relabel_by_edges)

TOTAL_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


def _star(n):
    return from_edges(n, ((0, i) for i in range(1, n)))


def _row_edges(g):
    """Edge pairs read off the neighbour rows, in row-major order."""
    return [(i, j) for i, row in enumerate(g.rows)
            for j in range(i + 1, g.n) if row >> j & 1]


def _degrees(g):
    return sorted(row.bit_count() for row in g.rows)


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    return Graph(n, draw(st.integers(0, (1 << m) - 1)))


@st.composite
def graph_with_permutation(draw, min_n=1, max_n=8):
    g = draw(graphs(min_n, max_n))
    perm = draw(st.permutations(range(g.n)))
    return g, tuple(perm)


def test_validation_rejects_bad_inputs():
    with pytest.raises(DomainError):
        Graph(-1)
    with pytest.raises(DomainError):
        Graph(3, 8)
    with pytest.raises(DomainError):
        from_edges(3, [(0, 0)])
    with pytest.raises(DomainError):
        from_edges(3, [(0, 3)])
    with pytest.raises(DomainError):
        cycle_graph(2)
    with pytest.raises(DomainError):
        relabel(complete_graph(3), (0, 1, 1))
    with pytest.raises(DomainError, match="self loops"):
        from_edges(3, [(1, 1)])
    with pytest.raises(DomainError, match=r"pair \(1, 3\) out of range"):
        from_edges(3, [(3, 1)])


def test_constructor_shapes():
    assert complete_graph(5).edge_count == 10
    assert path_graph(5).edge_count == 4
    assert cycle_graph(5).edge_count == 5
    assert _star(5).edge_count == 4
    assert empty_graph(5).edge_count == 0
    assert _degrees(complete_graph(4)) == [3, 3, 3, 3]
    assert _degrees(_star(4)) == [1, 1, 1, 3]
    assert path_graph(2).bits == complete_graph(2).bits


def test_edges_round_trip():
    g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert _row_edges(g) == [(0, 1), (1, 2), (3, 4)]
    assert from_edges(5, _row_edges(g)) == g
    assert from_edges(5, [(1, 0), (2, 1), (4, 3), (0, 1)]) == g


@given(graphs())
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g
    assert g.edge_count + complement(g).edge_count == g.n * (g.n - 1) // 2


@given(graph_with_permutation())
def test_relabel_preserves_structure(gp):
    g, perm = gp
    h = relabel(g, perm)
    assert h.edge_count == g.edge_count
    assert _degrees(h) == _degrees(g)


def test_relabel_reads_any_iterable_once():
    g = path_graph(4)
    expected = relabel(g, (1, 0, 3, 2))
    assert expected == from_edges(4, [(1, 0), (0, 3), (3, 2)])
    assert relabel(g, iter((1, 0, 3, 2))) == expected
    assert relabel(g, (v ^ 1 for v in range(4))) == expected
    with pytest.raises(DomainError):
        relabel(g, iter((1, 0, 3, 3)))
    with pytest.raises(DomainError):
        relabel(g, iter((1, 0, 3)))


def test_canonical_form_matches_exhaustive_search_everywhere_small():
    for n in range(1, 6):
        m = n * (n - 1) // 2
        for bits in range(1 << m):
            g = Graph(n, bits)
            assert canonical_form(g).bits == exhaustive_minimum_bits(g)


@given(graphs(min_n=6, max_n=7))
def test_canonical_form_matches_exhaustive_search_sampled(g):
    assert canonical_form(g).bits == exhaustive_minimum_bits(g)


@given(graph_with_permutation())
def test_canonical_form_is_relabeling_invariant(gp):
    g, perm = gp
    assert canonical_form(g) == canonical_form(relabel(g, perm))


def test_canonical_form_is_idempotent_on_census():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert canonical_form(g) == g


def test_canonical_form_of_a_parsed_graph_decodes_no_rows(monkeypatch):
    # graph6 parsing yields neighbor rows; canonicalizing must not rebuild
    # them from the packed vector
    g = parse_graph6(encode_graph6(relabel(path_graph(6), (3, 0, 5, 1, 4, 2))))
    expected = canonical_form(path_graph(6))

    def forbidden(*args, **kwargs):
        raise AssertionError("rows were decoded again")

    monkeypatch.setattr(graphs_module, "_rows_from_text", forbidden)
    graphs_module._canonical_bits_for.cache_clear()
    assert canonical_form(g) == expected


def test_canonical_cap():
    with pytest.raises(CapacityError):
        canonical_form(empty_graph(25))


def test_graph_is_an_ordered_immutable_value():
    a, c = Graph(3, 5), Graph(3, 6)
    assert a == Graph(3, 5) and hash(a) == hash(Graph(3, 5)) and a != c
    assert a != (3, 5) and len({a, Graph(3, 5), c}) == 2
    assert sorted([Graph(4, 0), c, a, Graph(2, 1)]) == \
        [Graph(2, 1), a, c, Graph(4, 0)]
    assert a < c <= Graph(3, 6) and Graph(4, 0) > c >= a
    with pytest.raises(TypeError):
        a < (3, 6)
    assert repr(a) == "Graph(n=3, bits=5)" and repr(Graph(2)) == "Graph(n=2, bits=0)"
    for field in ("n", "bits", "rows"):
        with pytest.raises(AttributeError):
            setattr(a, field, 1)
    with pytest.raises(AttributeError):
        del a.n
    assert (a.n, a.bits) == (3, 5)
    assert a.rows is a.rows


def test_graph_from_rows_keeps_its_rows(monkeypatch):
    rows = path_graph(4).rows
    monkeypatch.setattr(graphs_module, "_rows_from_text", None)
    g = graphs_module._graph_from_rows(4, rows)
    assert g == path_graph(4) and g.rows is rows


@given(graph_with_permutation(max_n=7))
def test_isomorphism_accepts_relabelings(gp):
    g, perm = gp
    assert canonical_key(g) == canonical_key(relabel(g, perm))


def test_isomorphism_rejects_distinct_classes():
    assert canonical_key(path_graph(4)) != canonical_key(_star(4))
    assert canonical_key(cycle_graph(5)) != canonical_key(path_graph(5))
    assert canonical_key(complete_graph(3)) != canonical_key(empty_graph(3))


def test_enumeration_counts():
    for n, expect in enumerate(TOTAL_COUNTS):
        assert len(enumerate_graphs(n)) == expect, n
    for n, expect in enumerate(CONNECTED_COUNTS, start=1):
        assert len(enumerate_connected(n)) == expect, n
    with pytest.raises(DomainError):
        enumerate_connected(0)


def test_least_degree_extensions_match_all_subsets():
    for n in range(8):
        assert enumerate_graphs(n) == enumerate_by_all_subsets(n), n


def test_enumeration_canonicalizes_only_least_degree_extensions(monkeypatch):
    added_is_least = []
    canonical_bits = graphs_module._canonical_bits

    def recorded(n, rows):
        degrees = [row.bit_count() for row in rows]
        added_is_least.append(degrees[-1] == min(degrees))
        return canonical_bits(n, rows)

    monkeypatch.setattr(graphs_module, "_canonical_bits", recorded)
    assert graphs_module._enumerate.__wrapped__(7) == enumerate_by_all_subsets(7)
    assert added_is_least and all(added_is_least)


def test_enumeration_is_sorted_and_canonical():
    for n in range(7):
        graphs_n = enumerate_graphs(n)
        assert list(graphs_n) == sorted(graphs_n)
        assert len(set(graphs_n)) == len(graphs_n)


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        enumerate_graphs(9)
    with pytest.raises(CapacityError):
        enumerate_connected(9)


@given(graphs(max_n=3), graphs(max_n=3))
def test_product_order_and_edge_counts(g1, g2):
    prod = cartesian_product(g1, g2)
    assert prod.n == g1.n * g2.n
    assert prod.edge_count == g1.n * g2.edge_count + g2.n * g1.edge_count


@given(graphs(max_n=3), graphs(max_n=3))
def test_product_commutes_up_to_isomorphism(g1, g2):
    assert canonical_key(cartesian_product(g1, g2)) == \
        canonical_key(cartesian_product(g2, g1))


@given(graphs(max_n=2), graphs(max_n=2), graphs(max_n=2))
def test_product_associates_up_to_isomorphism(a, b, c):
    left = cartesian_product(cartesian_product(a, b), c)
    right = cartesian_product(a, cartesian_product(b, c))
    assert canonical_key(left) == canonical_key(right)


def test_product_unit_and_known_shapes():
    k2 = complete_graph(2)
    assert canonical_key(cartesian_product(empty_graph(1), cycle_graph(5))) \
        == canonical_key(cycle_graph(5))
    assert canonical_key(cartesian_product(k2, k2)) == \
        canonical_key(cycle_graph(4))
    q3 = cartesian_product(cartesian_product(k2, k2), k2)
    assert q3.n == 8 and q3.edge_count == 12 and is_connected(q3)


@given(graphs(max_n=4), graphs(max_n=4))
def test_union_splits_into_components(g1, g2):
    u = disjoint_union(g1, g2)
    assert u.n == g1.n + g2.n
    assert u.edge_count == g1.edge_count + g2.edge_count
    assert not is_connected(u)


def test_connectivity():
    assert is_connected(path_graph(6))
    assert is_connected(empty_graph(1))
    assert not is_connected(empty_graph(2))
    masks = graphs_module._component_masks(
        disjoint_union(cycle_graph(3), path_graph(2)))
    assert masks == [0b00111, 0b11000]
    assert sorted(m.bit_count() for m in masks) == [2, 3]


def test_induced_subgraph():
    g = cycle_graph(5)
    sub = induced_subgraph(g, 0b00111)
    assert sub.n == 3 and sub.edge_count == 2
    assert induced_subgraph(g, 0b11111) == g


@given(graphs(max_n=12))
def test_rows_match_the_packed_pairs(g):
    # the pair bits are read off the packed vector at their row-major ranks
    assert len(g.rows) == g.n
    assert _row_edges(g) == edges_by_pair_bits(g)
    for i in range(g.n):
        assert not (g.rows[i] >> i) & 1
        for j in range(g.n):
            assert (g.rows[i] >> j) & 1 == (g.rows[j] >> i) & 1


@given(graphs(max_n=12), st.integers(0, (1 << 12) - 1))
def test_induced_subgraph_matches_edge_construction(g, mask):
    mask &= (1 << g.n) - 1
    sub = induced_subgraph(g, mask)
    assert sub == induced_subgraph_by_edges(g, mask)
    assert sub.rows == Graph(sub.n, sub.bits).rows


def test_canonical_key_is_hashable_identity():
    g = cycle_graph(4)
    h = relabel(g, (2, 0, 3, 1))
    assert canonical_key(g) == canonical_key(h)
    assert canonical_key(g) != canonical_key(path_graph(4))


@given(graph_with_permutation(), graphs(max_n=4), graphs(max_n=4))
def test_row_constructors_match_the_pair_bit_oracles(gp, g1, g2):
    g, perm = gp
    edges = edges_by_pair_bits(g)
    assert _row_edges(g) == edges
    built = [
        (from_edges(g.n, edges), from_edges_by_pair_bits(g.n, edges)),
        (relabel(g, perm), relabel_by_edges(g, perm)),
        (disjoint_union(g1, g2), disjoint_union_by_edges(g1, g2)),
        (cartesian_product(g1, g2), cartesian_product_by_edges(g1, g2)),
        (cartesian_product(g, g1, cap=32), cartesian_product_by_edges(g, g1)),
    ]
    for fast, slow in built:
        assert fast == slow
        assert "rows" in fast.__dict__
        assert fast.rows == Graph(fast.n, fast.bits).rows


def test_relabel_matches_the_pair_bit_oracle_on_large_random_graphs():
    rng = random.Random(25)
    for _ in range(12):
        n = rng.randint(25, 128)
        density = rng.uniform(0.02, 0.5)
        g = Graph(n, sum(1 << k for k in range(n * (n - 1) // 2)
                         if rng.random() < density))
        perm = rng.sample(range(n), n)
        assert relabel(g, perm) == relabel_by_edges(g, perm)


def test_complete_graph_is_refused_past_the_order_limit():
    # the C(n, 2)-bit vector is refused before it is built
    limit = graphs_module.ORDER_LIMIT
    with pytest.raises(CapacityError, match=f"order {limit + 1} exceeds"):
        complete_graph(limit + 1)
    assert complete_graph(limit).edge_count == limit * (limit - 1) // 2


def test_complement_is_refused_past_the_order_limit():
    limit = graphs_module.ORDER_LIMIT
    with pytest.raises(CapacityError, match=f"order {limit + 1} exceeds"):
        complement(empty_graph(limit + 1))
    assert complement(empty_graph(limit)) == complete_graph(limit)


@given(graphs(max_n=12))
def test_layers_are_the_breadth_first_distance_classes(g):
    rows = g.rows
    for u, dist in enumerate(_distances_by_bfs(rows)):
        classes = [0] * (max(dist) + 1)
        for v, d in enumerate(dist):
            if d >= 0:
                classes[d] |= 1 << v
        assert graphs_module._layers(rows, u) == classes


def _paley(q):
    squares = {i * i % q for i in range(1, q)}
    return from_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q)
                          if (j - i) % q in squares])


def _tie_heavy_graphs():
    """Vertex-transitive and twin-rich graphs: their branch nodes hold many
    candidates of equal row, and twins among them."""
    k2 = complete_graph(2)
    q4 = cartesian_product(cartesian_product(k2, k2), cartesian_product(k2, k2))
    petersen = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)])
    k57 = from_edges(12, [(i, j) for i in range(5) for j in range(5, 12)])
    return [cycle_graph(n) for n in range(9, 25)] + [
        _paley(13), _paley(17), q4, petersen, k57,
        cartesian_product(cycle_graph(8), cycle_graph(3))]


def _assert_lazy_matches_eager(g, rng):
    n = g.n
    perm = list(range(n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    expected = canonical_bits_eager(n, g.rows)
    assert graphs_module._canonical_bits(n, g.rows) == expected
    assert graphs_module._canonical_bits(n, h.rows) == expected
    assert canonical_bits_eager(n, h.rows) == expected


def test_lazy_search_matches_the_eager_search_on_random_graphs():
    rng = random.Random(14)
    for _ in range(24):
        n = rng.randint(9, 24)
        density = rng.uniform(0.2, 0.8)
        g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < density])
        _assert_lazy_matches_eager(g, rng)
    for g in _tie_heavy_graphs():
        _assert_lazy_matches_eager(g, rng)


def test_lazy_search_matches_the_eager_search_on_every_order_7_graph():
    rng = random.Random(7)
    for g in enumerate_graphs(7):
        h = relabel(g, rng.sample(range(7), 7))
        assert graphs_module._canonical_bits(7, g.rows) == g.bits
        assert graphs_module._canonical_bits(7, h.rows) == g.bits
        assert canonical_bits_eager(7, h.rows) == g.bits
