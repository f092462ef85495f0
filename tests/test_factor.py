import random

import pytest
from hypothesis import given, strategies as st

from boxprime import factor
from boxprime.errors import CapacityError, DomainError
from boxprime.factor import (ORDER_LIMIT, factor_layers, factorize,
                             is_cartesian_prime)
from boxprime.graphs import (Graph, canonical_form, canonical_key,
                             cartesian_product, complete_graph, cycle_graph,
                             disjoint_union, empty_graph, enumerate_connected,
                             from_edges, path_graph, relabel)
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
        g = cartesian_product(g, p, cap=ORDER_LIMIT)
    perm = list(range(g.n))
    rng.shuffle(perm)
    expected = sorted(canonical_key(p) for p in primes)
    assert [canonical_key(f) for f in factorize(relabel(g, perm))] == expected


def test_hypercubes_up_to_the_order_limit():
    cube = K2
    for dim in range(2, 9):
        cube = cartesian_product(cube, K2, cap=ORDER_LIMIT)
        if dim == 6:
            assert factorize(cube) == (K2,) * 6
    assert cube.n == ORDER_LIMIT
    assert [f.n for f in factor_layers(cube)] == [2] * 8


def test_order_limit_is_checked_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("factorization work started")

    big = cartesian_product(K2, path_graph(ORDER_LIMIT // 2 + 1),
                            cap=ORDER_LIMIT + 2)
    monkeypatch.setattr(factor, "_layers", forbidden)
    with pytest.raises(CapacityError):
        factorize(big)
    with pytest.raises(CapacityError):
        is_cartesian_prime(big)



def test_tree_theta_matches_full_theta_on_every_small_graph():
    for n in range(2, 9):
        for g in enumerate_connected(n):
            masks = factor._layer_masks(g.n, g.rows)
            assert set(masks) == layer_masks_full_theta(g), (n, g.bits)


@pytest.mark.parametrize("seed", range(12))
def test_tree_theta_matches_full_theta_on_products_and_random_graphs(seed):
    rng = random.Random(1000 + seed)
    # a product of two or three random connected factors, order <= 64
    g = _random_connected(rng, rng.randint(2, 8))
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(2, min(4, 64 // g.n))
        g = cartesian_product(g, _random_connected(rng, k), cap=64)
    perm = list(range(g.n))
    rng.shuffle(perm)
    for h in (relabel(g, perm), _random_connected(rng, rng.randint(9, 64))):
        assert set(factor._layer_masks(h.n, h.rows)) == layer_masks_full_theta(h)


def test_tree_theta_matches_full_theta_on_the_eight_cube():
    cube = K2
    for _ in range(7):
        cube = cartesian_product(cube, K2, cap=ORDER_LIMIT)
    masks = factor._layer_masks(cube.n, cube.rows)
    assert len(masks) == 8
    assert set(masks) == layer_masks_full_theta(cube)


def test_factor_layers_follow_the_smallest_neighbour_of_vertex_zero():
    p5 = from_edges(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 4),
                        (3, 4)])
    g = cartesian_product(cartesian_product(p5, K2), K3, cap=30)
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
