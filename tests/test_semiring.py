from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from boxprime import counting, factor, graphs, semiring
from boxprime.counting import (POLYA_CAP, CountSequence, euler_transform,
                               graph_totals)
from boxprime.errors import CapacityError, DomainError
from boxprime.factor import is_cartesian_prime
from boxprime.graphs import (Graph, canonical_form, cartesian_product,
                             complete_graph, cycle_graph, disjoint_union,
                             empty_graph, enumerate_connected, path_graph)
from boxprime.semiring import (INSTANCE_BUILDERS, build_instance,
                               closure_check, instance_all_graphs,
                               monotonicity_report, self_complementary_count,
                               self_complementary_identity)
from _oracles import (composite_count_by_multisets, composite_set,
                      count_composites, count_graphs_by_cycle_types,
                      euler_inverse_by_mobius,
                      euler_transform_by_divisor_sums, even_member_composites,
                      multiplicative_partition_count)

GRAPH_TOTALS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
GRAPH_CONNECTED = (1, 1, 2, 6, 21, 112, 853, 11117)
GRAPH_PRIMES = (1, 2, 5, 21, 110, 853, 11111)
EVEN_TOTALS = (1, 1, 1, 2, 6, 18, 78, 522, 6178)
EVEN_CONNECTED = (1, 0, 1, 3, 11, 55, 427, 5561)
SELF_COMPLEMENTARY = (1, 0, 0, 1, 2, 0, 0, 10)


def test_graphs_instance_sequences(graphs_instance):
    inst = graphs_instance
    assert tuple(inst.S(n) for n in range(9)) == GRAPH_TOTALS
    assert tuple(inst.S_plus(n) for n in range(1, 9)) == GRAPH_CONNECTED
    assert tuple(inst.S_box(n) for n in range(2, 9)) == GRAPH_PRIMES
    assert inst.p == 2


def test_graphs_prime_counts_match_composite_tables(graphs_instance):
    inst = graphs_instance
    for n in range(2, 17):
        assert inst.S_box(n) == inst.S_plus(n) - count_composites(n), n


def test_graphs_counts_to_the_horizon_match_independent_oracles(
        graphs_instance):
    # the last window, 25..32, which the composite tables do not reach
    inst, top = graphs_instance, POLYA_CAP
    assert inst.add_horizon == top
    degrees = range(25, top + 1)
    assert [inst.S(n) for n in degrees] == \
        [count_graphs_by_cycle_types(n) for n in degrees]
    totals = CountSequence.totals([inst.S(n) for n in range(top + 1)])
    connected = euler_inverse_by_mobius(totals, top)
    assert [inst.S_plus(n) for n in degrees] == [connected.at(n) for n in degrees]
    assert [inst.S_plus(n) - inst.S_box(n) for n in degrees] == \
        [composite_count_by_multisets(n, inst.S_box) for n in degrees]


def test_graphs_prime_counts_build_no_graph(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("prime counting built a graph")

    monkeypatch.setattr(factor, "factor_layers", forbidden)
    monkeypatch.setattr(semiring, "factor_layers", forbidden)
    monkeypatch.setattr(graphs, "_canonical_bits", forbidden)
    monkeypatch.setattr(semiring, "cartesian_product", forbidden)
    inst = instance_all_graphs()
    assert all(inst.S_box(n) > 0 for n in range(2, 25))


def test_even_instance_sequences(even_instance):
    inst = even_instance
    assert tuple(inst.S(n) for n in range(9)) == EVEN_TOTALS
    assert tuple(inst.S_plus(n) for n in range(1, 9)) == EVEN_CONNECTED
    # no even-member product has degree below 9, so every connected
    # member of degree 2..8 counts as prime
    assert tuple(inst.S_box(n) for n in range(2, 9)) == EVEN_CONNECTED[1:]
    assert inst.p == 3
    assert closure_check(inst, 8)["closed"] is True


def test_even_primality_matches_member_products(even_instance):
    # the prime-multiset rule against every product of two connected
    # even-edge graphs, on the even ambient composites of orders 9 and 12
    checked = composites = 0
    for n in (9, 12):
        table = even_member_composites(n)
        for key in composite_set(n):
            g = Graph(*key)
            if g.edge_count % 2 == 0:
                prime = even_instance.is_instance_prime(g)
                assert prime == (key not in table), key
                checked += 1
                composites += not prime
    assert (checked, composites) == (118, 4)
    p3, k3 = path_graph(3), complete_graph(3)
    assert not even_instance.is_instance_prime(cartesian_product(p3, p3))
    # K3 has 3 edges, so K3 x K3 (18 edges) is a member but no member product
    assert even_instance.is_instance_prime(cartesian_product(k3, k3))


def test_even_primes_below_order_9_need_no_factorization(monkeypatch):
    # a member product needs two members of order >= 3, so no order 1..8
    # has one and every connected member there is prime without factoring
    def forbidden(*args, **kwargs):
        raise AssertionError("an even member was factorized")

    monkeypatch.setattr(semiring, "factor_layers", forbidden)
    inst = semiring.instance_even_edge()
    assert tuple(inst.S_box(n) for n in range(1, 9)) == (0,) + EVEN_CONNECTED[1:]


def test_hamming_instance_sequences(hamming_instance):
    inst = hamming_instance
    for n in range(1, 65):
        assert inst.S_plus(n) == multiplicative_partition_count(n), n
    # one prime per order, read back out of the connected counts
    assert tuple(inst.S_box(n) for n in range(2, 65)) == (1,) * 63
    connected = CountSequence.primes(
        [multiplicative_partition_count(n) for n in range(1, 65)])
    assert [inst.S(n) for n in range(65)] == \
        list(euler_transform_by_divisor_sums(connected, 64).values)
    assert inst.S(10) == 67
    assert inst.p == 2


def test_totals_are_transform_of_connected_counts(graphs_instance,
                                                  hamming_instance):
    for inst, top in ((graphs_instance, 12), (hamming_instance, 12)):
        connected = CountSequence.primes(
            tuple(inst.S_plus(n) for n in range(1, top + 1)))
        transformed = euler_transform(connected, top)
        assert transformed.values == tuple(inst.S(n) for n in range(top + 1))
    # the builder's totals for graphs are the transform of the Euler inverse
    # of the cycle-index totals, so that round trip must be exact at every
    # window top of its census
    for top in (8, 16, 24, 32):
        connected = CountSequence.primes(
            tuple(graphs_instance.S_plus(n) for n in range(1, top + 1)))
        assert euler_transform(connected, top) == graph_totals(top)
        assert tuple(graphs_instance.S(n) for n in range(top + 1)) == \
            graph_totals(top).values


def test_even_totals_are_not_transform_of_connected_counts(even_instance):
    # two disjoint odd-size halves can pair into an even total, so additive
    # unique factorization fails for this family; the transform undercounts
    connected = CountSequence.primes(
        tuple(even_instance.S_plus(n) for n in range(1, 9)))
    transformed = euler_transform(connected, 8)
    assert transformed.at(4) == 5
    assert even_instance.S(4) == 6


def test_sequence_access_conventions(graphs_instance):
    inst = graphs_instance
    assert inst.S(0) == 1
    assert inst.S_plus(0) == 0
    assert inst.S_box(0) == 0
    assert inst.S_box(1) == 0
    assert inst.S(Fraction(7, 2)) == 0
    assert inst.S_plus(Fraction(7, 2)) == 0
    assert inst.S_box(6.5) == 0
    assert inst.S(6.0) == 156
    with pytest.raises(DomainError):
        inst.S(-1)
    with pytest.raises(CapacityError):
        inst.S(33)
    with pytest.raises(CapacityError):
        inst.S_box(33)


def test_membership(graphs_instance, even_instance, hamming_instance):
    k2, k3, c4 = complete_graph(2), complete_graph(3), cycle_graph(4)
    p4 = path_graph(4)
    assert graphs_instance.is_member(p4)
    assert even_instance.is_member(path_graph(3))
    assert not even_instance.is_member(k2)
    assert even_instance.is_member(c4)
    assert hamming_instance.is_member(k2)
    assert hamming_instance.is_member(cartesian_product(k2, k3))
    assert not hamming_instance.is_member(p4)
    assert hamming_instance.is_member(disjoint_union(k2, c4))
    assert not hamming_instance.is_member(disjoint_union(k2, p4))


def test_instance_primality(graphs_instance, even_instance, hamming_instance):
    c4 = canonical_form(cycle_graph(4))
    assert graphs_instance.is_instance_prime(path_graph(3))
    assert not graphs_instance.is_instance_prime(c4)
    assert even_instance.is_instance_prime(c4)  # no even factor pair exists
    assert hamming_instance.is_instance_prime(complete_graph(4))
    assert not hamming_instance.is_instance_prime(c4)
    with pytest.raises(DomainError):
        graphs_instance.is_instance_prime(empty_graph(1))
    with pytest.raises(DomainError):
        even_instance.is_instance_prime(complete_graph(2))
    with pytest.raises(DomainError):
        graphs_instance.is_instance_prime(disjoint_union(
            complete_graph(2), complete_graph(2)))


@given(st.integers(0, 10**9))
def test_instance_primality_matches_ambient_for_graphs(graphs_instance, seed):
    pool = enumerate_connected(6)
    g = pool[seed % len(pool)]
    assert graphs_instance.is_instance_prime(g) == is_cartesian_prime(g)


def test_members_listing(graphs_instance, even_instance):
    assert len(graphs_instance.members(4)) == 11
    assert len(graphs_instance.connected_members(4)) == 6
    assert len(even_instance.members(4)) == 6
    assert len(even_instance.connected_members(4)) == 3
    with pytest.raises(CapacityError):
        graphs_instance.members(9)


def test_closure(even_instance, hamming_instance):
    result = closure_check(even_instance, 7)
    assert result["closed"] is True
    result = closure_check(hamming_instance, 6)
    assert result["closed"] is True


def test_closure_check_skips_products_with_the_unit(monkeypatch):
    # K1 box G is G, so no product pair needs the members of order n_max
    walked = []
    enumerate_order = graphs._enumerate

    def recorded(n):
        walked.append(n)
        return enumerate_order(n)

    monkeypatch.setattr(graphs, "_enumerate", recorded)
    assert closure_check(build_instance("graphs"), 8)["closed"] is True
    assert walked and max(walked) <= 7


def test_hamming_membership_canonicalizes_no_component(hamming_instance,
                                                       monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a component was canonicalized")

    k2, k3 = complete_graph(2), complete_graph(3)
    rook = cartesian_product(k3, k3)
    member = disjoint_union(disjoint_union(rook, empty_graph(1)),
                            cartesian_product(k2, k3))
    outsider = disjoint_union(rook, cycle_graph(5))
    graphs._canonical_bits_for.cache_clear()
    monkeypatch.setattr(graphs, "_canonical_bits", forbidden)
    assert hamming_instance.is_member(member)
    assert not hamming_instance.is_member(outsider)


def _record_cycle_index_walks(monkeypatch) -> list:
    """Clear the count windows and record the order of every later walk."""
    walked = []
    walk = counting._cycle_index_sums

    def recorded(max_degree):
        walked.append(max_degree)
        return walk(max_degree)

    monkeypatch.setattr(counting, "_cycle_index_sums", recorded)
    for cached in (counting.graph_totals, counting.graph_connected_totals,
                   semiring._free_census):
        cached.cache_clear()
    return walked


def test_graphs_instance_counts_only_as_far_as_asked(monkeypatch):
    walked = _record_cycle_index_walks(monkeypatch)
    inst = instance_all_graphs()
    assert walked == []
    rows = [(inst.S(n), inst.S_plus(n), inst.S_box(n)) for n in range(2, 16)]
    assert walked and max(walked) <= 16
    assert rows[:7] == list(zip(GRAPH_TOTALS[2:], GRAPH_CONNECTED[1:],
                                GRAPH_PRIMES))


def test_graphs_instance_sweep_walks_each_window_once(monkeypatch):
    walked = _record_cycle_index_walks(monkeypatch)
    inst = instance_all_graphs()
    for n in range(1, 33):
        inst.S(n), inst.S_plus(n), inst.S_box(n)
    assert walked == [8, 16, 24, 32]
    with pytest.raises(CapacityError):
        inst.S_box(33)


def _record_hamming_windows(monkeypatch) -> list:
    """Clear the count windows and record the top of every later hamming
    window built."""
    built = []
    transform = semiring.multiplicative_transform

    def recorded(primes, top):
        built.append(top)
        return transform(primes, top)

    monkeypatch.setattr(semiring, "multiplicative_transform", recorded)
    semiring._free_census.cache_clear()
    return built


def test_hamming_instance_counts_only_as_far_as_asked(monkeypatch):
    built = _record_hamming_windows(monkeypatch)
    inst = semiring.instance_hamming()
    assert built == []
    with pytest.raises(CapacityError):
        inst.S_box(65)
    assert built == []
    assert inst.S(1) == 1
    assert built == [8]


def test_hamming_instance_sweep_builds_each_window_once(monkeypatch):
    built = _record_hamming_windows(monkeypatch)
    inst = semiring.instance_hamming()
    for n in range(1, 65):
        inst.S(n), inst.S_plus(n), inst.S_box(n)
    assert built == [8, 16, 24, 32, 40, 48, 56, 64]
    with pytest.raises(CapacityError):
        inst.S_box(65)
    assert built == [8, 16, 24, 32, 40, 48, 56, 64]


def test_instance_fields_are_read_only(graphs_instance):
    with pytest.raises(AttributeError):
        graphs_instance.name = "other"
    assert graphs_instance.unique_factorization is True
    assert build_instance("even").unique_factorization is False


def test_build_instance_rejects_unknown_name():
    with pytest.raises(DomainError):
        build_instance("rings")


def test_even_instance_walks_only_the_orders_asked_for(monkeypatch):
    # an instance built eagerly to its horizon would enumerate order 8
    walked = []
    enumerate_order = graphs._enumerate

    def recorded(n):
        walked.append(n)
        return enumerate_order(n)

    monkeypatch.setattr(graphs, "_enumerate", recorded)
    semiring._even_census.cache_clear()
    inst = build_instance("even")
    assert inst.S_box(4) == EVEN_CONNECTED[3]
    assert inst.p == 3
    assert walked and max(walked) == 4


@pytest.mark.parametrize("cap", [5, 8])
@pytest.mark.parametrize("name", sorted(INSTANCE_BUILDERS))
def test_build_instance_matches_the_builder(name, cap):
    built = build_instance(name, enum_cap=cap)
    direct = INSTANCE_BUILDERS[name](enum_cap=cap)
    assert (built.name, built.add_horizon, built.enum_horizon,
            built.unique_factorization) == \
        (direct.name, direct.add_horizon, direct.enum_horizon,
         direct.unique_factorization)
    for n in range(built.add_horizon + 1):
        assert (built.S(n), built.S_plus(n), built.S_box(n)) == \
            (direct.S(n), direct.S_plus(n), direct.S_box(n)), (name, n)
    assert built.p == direct.p


@pytest.mark.parametrize("name", sorted(INSTANCE_BUILDERS))
def test_p_is_the_least_prime_degree(name):
    inst = build_instance(name)
    assert [inst.S_box(k) for k in range(2, inst.p)] == [0] * (inst.p - 2)
    assert inst.S_box(inst.p) > 0


def test_self_complementary_count_searches_only_half_the_edges(monkeypatch):
    # a complement has the edges its graph lacks, so only a graph with half
    # of the C(n, 2) possible edges can match it, and none when that is odd
    searched = []
    key = semiring.canonical_key

    def recorded(g):
        searched.append((g.n, g.edge_count))
        return key(g)

    monkeypatch.setattr(semiring, "canonical_key", recorded)
    counts = tuple(self_complementary_count(n) for n in range(1, 9))
    assert counts == SELF_COMPLEMENTARY
    assert searched and all(2 * e == comb(n, 2) for n, e in searched)


def test_self_complementary_counts():
    for n, expect in enumerate(SELF_COMPLEMENTARY, start=1):
        lhs, rhs, equal = self_complementary_identity(n)
        assert equal and rhs == expect, n
    assert self_complementary_count(5) == 2


def test_monotonicity_report(graphs_instance, hamming_instance):
    assert monotonicity_report(graphs_instance, 8) == []
    rows = monotonicity_report(hamming_instance, 12)
    assert [row["n"] for row in rows] == [4, 6, 8, 10]
    assert rows[1] == {"n": 6, "S_plus": 2, "S_plus_next": 1}
