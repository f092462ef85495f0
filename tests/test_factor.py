import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from boxprime import factor
from boxprime.errors import CapacityError, DomainError
from boxprime.factor import (ORDER_LIMIT, factor_layers, factorize,
                             is_cartesian_prime)
from boxprime.graph6 import parse_graph6
from boxprime.graphs import (Graph, _layers, canonical_form, canonical_key,
                             cartesian_product, complete_graph, cycle_graph,
                             disjoint_union, empty_graph, enumerate_connected,
                             from_edges, is_connected, path_graph, relabel)
from _oracles import (composite_count_by_multisets, composite_map,
                      composite_set, count_composites, count_primes, divisors,
                      factorize_by_table, layer_masks_full_theta, product_of)

PRIME_COUNTS = {2: 1, 3: 2, 4: 5, 5: 21, 6: 110, 7: 853, 8: 11111}

K2 = complete_graph(2)
K3 = complete_graph(3)
C4 = cycle_graph(4)
PRISM = cartesian_product(K3, K2)
Q3 = cartesian_product(cartesian_product(K2, K2), K2)


def test_prime_counts():
    assert count_primes(1) == 0
    for n, expect in PRIME_COUNTS.items():
        assert count_primes(n) == expect, n


def test_composite_counts_match_multiset_oracle():
    for n in (4, 6, 8, 9, 10, 12):
        got = count_composites(n)
        expect = composite_count_by_multisets(n, count_primes)
        assert got == expect, n


def test_composite_map_witnesses_realize_their_keys():
    for n in (4, 6, 8):
        for key, (a, b) in composite_map(n).items():
            assert canonical_key(cartesian_product(a, b)) == key


def test_composite_map_keys_are_feder_composites():
    for n in (4, 6, 8, 9, 10, 12):
        for key, (a, b) in composite_map(n).items():
            g = Graph(*key)
            assert not is_cartesian_prime(g)
            assert factorize(g) == tuple(sorted(factorize(a) + factorize(b),
                                                key=canonical_key))
    for n in (4, 6, 8):
        feder = {canonical_key(g) for g in enumerate_connected(n)
                 if not is_cartesian_prime(g)}
        assert feder == set(composite_map(n)), n


def test_composite_map_capacity():
    # an order-22 composite can need an order-11 factor, beyond the cap
    with pytest.raises(CapacityError):
        composite_map(22)


def test_primality_points():
    assert is_cartesian_prime(K2)
    assert is_cartesian_prime(K3)
    assert is_cartesian_prime(path_graph(3))
    assert is_cartesian_prime(from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    assert not is_cartesian_prime(C4)
    assert not is_cartesian_prime(PRISM)
    assert not is_cartesian_prime(Q3)


def test_primality_guards():
    with pytest.raises(DomainError):
        is_cartesian_prime(empty_graph(1))
    with pytest.raises(DomainError):
        is_cartesian_prime(disjoint_union(K2, K2))
    with pytest.raises(DomainError):
        factorize(disjoint_union(K2, K2))


def test_factorize_known_products():
    assert factorize(C4) == (K2, K2)
    assert factorize(Q3) == (K2, K2, K2)
    assert factorize(PRISM) == (K2, canonical_form(K3))
    assert factorize(K2) == (K2,)
    assert factorize(empty_graph(1)) == ()


def test_factorize_matches_table_oracle_small():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            assert factorize(g) == factorize_by_table(g)


def test_refactoring_reproduces_input_small():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            assert product_of(factorize(g)) == g


@given(st.integers(0, 10**9))
def test_factorization_round_trip_sampled_order_eight(seed):
    pool = enumerate_connected(8)
    g = pool[seed % len(pool)]
    factors = factorize(g)
    assert product_of(factors) == g
    assert factors == factorize_by_table(g)
    assert all(is_cartesian_prime(f) for f in factors)


def test_factor_multiset_is_sorted_canonical():
    factors = factorize(cartesian_product(K3, cartesian_product(K2, K2)))
    assert list(factors) == sorted(factors, key=canonical_key)
    assert all(canonical_form(f) == f for f in factors)


def test_product_of_builds_canonical_products():
    assert product_of(()) == empty_graph(1)
    assert product_of((K2,)) == K2
    assert product_of((K2, K2)) == canonical_form(C4)


def test_divisors_of_known_graphs():
    k1 = empty_graph(1)
    assert set(divisors(C4)) == {k1, K2, canonical_form(C4)}
    assert len(divisors(Q3)) == 4
    assert set(divisors(PRISM)) == {k1, K2, canonical_form(K3),
                                    canonical_form(PRISM)}
    assert divisors(k1) == (k1,)


def test_divisor_multisets_multiply_back():
    for g in (C4, PRISM, Q3):
        for d in divisors(g):
            # every divisor pairs with a complementary divisor
            rest = list(factorize(g))
            for f in factorize(d):
                rest.remove(f)
            assert canonical_key(cartesian_product(d, product_of(rest))) == \
                canonical_key(g)


def test_composite_set_is_subset_of_connected_census():
    keys = {canonical_key(g) for g in enumerate_connected(6)}
    assert composite_set(6) <= keys


def _random_connected(rng: random.Random, n: int) -> Graph:
    # a random spanning tree plus random extra edges
    density = rng.uniform(0.15, 0.6)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < density}
    return from_edges(n, pairs)


def _random_table_prime(rng: random.Random, n: int) -> Graph:
    """A random connected graph of order n that the composite table does
    not list."""
    while True:
        g = _random_connected(rng, n)
        if canonical_key(g) not in composite_map(n):
            return g


@pytest.mark.parametrize("seed", range(8))
def test_relabelled_products_with_factors_past_the_old_cap(seed):
    rng = random.Random(seed)
    primes = [_random_table_prime(rng, rng.randint(9, 12))]
    primes += [_random_table_prime(rng, rng.choice((2, 3, 4)))
               for _ in range(rng.randint(1, 2))]
    g = primes[0]
    for p in primes[1:]:
        g = cartesian_product(g, p)
    perm = list(range(g.n))
    rng.shuffle(perm)
    expected = sorted(canonical_key(p) for p in primes)
    assert [canonical_key(f) for f in factorize(relabel(g, perm))] == expected


def test_hypercubes_up_to_the_order_limit():
    cube = K2
    for dim in range(2, 9):
        cube = cartesian_product(cube, K2)
        if dim == 6:
            assert factorize(cube) == (K2,) * 6
    assert cube.n == ORDER_LIMIT
    assert [f.n for f in factor_layers(cube)] == [2] * 8


def test_order_limit_is_checked_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("factorization work started")

    big = path_graph(ORDER_LIMIT + 2)
    monkeypatch.setattr(factor, "_layers", forbidden)
    with pytest.raises(CapacityError):
        factorize(big)
    with pytest.raises(CapacityError):
        is_cartesian_prime(big)



def _closure_masks(g: Graph) -> list[int]:
    return factor._closure_layer_masks(g.n, g.rows, _layers(g.rows, 0))


def _layer_masks(g: Graph) -> list[int]:
    return factor._layer_masks(g.n, g.rows)


def test_tree_theta_matches_full_theta_on_every_small_graph():
    for n in range(2, 9):
        for g in enumerate_connected(n):
            expected = layer_masks_full_theta(g)
            assert set(_closure_masks(g)) == expected, (n, g.bits)
            assert set(_layer_masks(g)) == expected, (n, g.bits)


@pytest.mark.parametrize("seed", range(12))
def test_tree_theta_matches_full_theta_on_products_and_random_graphs(seed):
    rng = random.Random(1000 + seed)
    # a product of two or three random connected factors, order <= 64
    g = _random_connected(rng, rng.randint(2, 8))
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(2, min(4, 64 // g.n))
        g = cartesian_product(g, _random_connected(rng, k))
    perm = list(range(g.n))
    rng.shuffle(perm)
    for h in (relabel(g, perm), _random_connected(rng, rng.randint(9, 64))):
        expected = layer_masks_full_theta(h)
        assert set(_closure_masks(h)) == expected
        assert set(_layer_masks(h)) == expected


def _eight_cube() -> Graph:
    cube = K2
    for _ in range(7):
        cube = cartesian_product(cube, K2)
    return cube


def test_tree_theta_matches_full_theta_on_the_eight_cube():
    cube = _eight_cube()
    closure, masks = _closure_masks(cube), _layer_masks(cube)
    assert len(closure) == len(masks) == 8
    assert set(closure) == set(masks) == layer_masks_full_theta(cube)


def _relabelled(rng: random.Random, g: Graph) -> Graph:
    return relabel(g, rng.sample(range(g.n), g.n))


@pytest.mark.parametrize("seed", range(4))
def test_layer_masks_match_the_closure_on_products_up_to_the_order_limit(seed):
    rng = random.Random(2400 + seed)
    pair = cartesian_product(_random_connected(rng, 16),
                             _random_connected(rng, 16))
    tori = cartesian_product(cartesian_product(cycle_graph(8), cycle_graph(8)),
                             C4)
    for g in (pair, tori):
        h = _relabelled(rng, g)
        assert _layer_masks(h) == _closure_masks(h)


def _sparse_prime_with_bridges(seed: int) -> Graph:
    """A connected G(256, 0.02) with a vertex of degree 1, so a bridge."""
    rng = random.Random(seed)
    while True:
        g = from_edges(ORDER_LIMIT, [
            (i, j) for i in range(ORDER_LIMIT)
            for j in range(i + 1, ORDER_LIMIT) if rng.random() < 0.02])
        if is_connected(g) and any(row.bit_count() == 1 for row in g.rows):
            return g


@pytest.mark.parametrize("seed", range(3))
def test_layer_masks_match_the_closure_on_sparse_primes_with_bridges(seed):
    g = _sparse_prime_with_bridges(seed)
    assert _layer_masks(g) == _closure_masks(g) == [(1 << g.n) - 1]


def test_layer_masks_reach_the_closure_only_when_the_certificate_fails(
        monkeypatch):
    calls = Counter()
    closure, walk = factor._closure_layer_masks, factor._layers

    def counted_closure(*args):
        calls["closure"] += 1
        return closure(*args)

    def counted_walk(*args):
        calls["walk"] += 1
        return walk(*args)

    def counted_masks(g: Graph) -> tuple[list[int], Counter]:
        calls.clear()
        masks = _layer_masks(g)
        seen = calls.copy()
        assert masks == _closure_masks(g)
        return masks, seen

    monkeypatch.setattr(factor, "_closure_layer_masks", counted_closure)
    monkeypatch.setattr(factor, "_layers", counted_walk)
    k23 = from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    # two edges at vertex 0 of one prime that span one chordless square
    for g in (cartesian_product(k23, K2), parse_graph6("G@Umf?")):
        assert counted_masks(g)[1]["closure"] == 1
    for g in (cartesian_product(cycle_graph(6), K2), cartesian_product(C4, C4),
              _relabelled(random.Random(8), _eight_cube())):
        assert counted_masks(g)[1]["closure"] == 0
    petersen = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)])
    for g in (petersen, _sparse_prime_with_bridges(0)):
        masks, seen = counted_masks(g)
        assert masks == [(1 << g.n) - 1]
        # the connectivity check is the only walk
        assert seen == Counter(walk=1)


def test_the_certificate_refuses_graphs_that_only_look_like_products():
    cube = _eight_cube()
    # every square of Q8 completes and every product edge is present, but
    # one edge more joins vertex 3 to its antipode's neighbour 255
    longer = from_edges(ORDER_LIMIT, [
        (u, v) for u in range(ORDER_LIMIT)
        for v in range(u + 1, ORDER_LIMIT) if cube.rows[u] >> v & 1]
        + [(3, 255)])
    # layers 1-0-2 and 0-3-6 and as many edges as P3 x P3, but the square
    # completion reaches vertex 8 twice
    twice = from_edges(9, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 4),
                           (3, 5), (3, 6), (4, 7), (4, 8), (5, 8), (6, 8)])
    for g in (longer, twice):
        assert _layer_masks(g) == _closure_masks(g) == [(1 << g.n) - 1]


def test_factor_layers_follow_the_smallest_neighbour_of_vertex_zero():
    p5 = from_edges(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 4),
                        (3, 4)])
    g = cartesian_product(cartesian_product(p5, K2), K3)
    perm = [23, 8, 17, 11, 26, 5, 2, 0, 24, 1, 13, 9, 25, 19, 6, 15, 29, 12,
            20, 27, 28, 10, 3, 4, 7, 14, 21, 18, 16, 22]
    h = relabel(g, perm)
    # vertex 0 has neighbours 2, 24 in its K3 layer, 8, 19, 27 in its p5
    # layer and 13 in its K2 layer; chosen so that ordering the classes
    # by union-find root gives K3, K2, p5 instead
    assert factor._layer_masks(h.n, h.rows) == [
        (1 << 0) | (1 << 2) | (1 << 24),
        (1 << 0) | (1 << 8) | (1 << 14) | (1 << 19) | (1 << 27),
        (1 << 0) | (1 << 13)]
    assert factor_layers(h) == (
        K3,
        from_edges(5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3),
                       (2, 4)]),
        K2)
