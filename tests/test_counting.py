from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from boxprime import counting
from boxprime.counting import (POLYA_CAP, CountSequence, SignedSequence,
                               euler_inverse, euler_transform,
                               graph_connected_totals, graph_totals,
                               inversion_coefficients,
                               multiplicative_transform,
                               prime_counts_by_factorization)
from boxprime.errors import CapacityError, DomainError
from boxprime.graphs import enumerate_connected, enumerate_graphs
from _oracles import (composite_count_by_multisets,
                      count_graphs_by_cycle_types,
                      euler_inverse_by_mobius,
                      euler_transform_by_divisor_sums,
                      fixed_point_free_sums_by_partitions,
                      multiplicative_partition_count)

TOTALS_THROUGH_12 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668,
                     12005168, 1018997864, 165091172592)
CONNECTED_THROUGH_12 = (1, 1, 2, 6, 21, 112, 853, 11117, 261080,
                        11716571, 1006700565, 164059830476)


def test_polya_counts_match_enumeration():
    for n in range(9):
        assert graph_totals(n).at(n) == len(enumerate_graphs(n))


def test_polya_counts_regression():
    assert tuple(graph_totals(12).values) == TOTALS_THROUGH_12


def test_polya_totals_match_cycle_type_oracle():
    totals = graph_totals(POLYA_CAP)
    for n in range(POLYA_CAP + 1):
        assert totals.at(n) == count_graphs_by_cycle_types(n), n


def test_fixed_point_free_table_matches_partition_oracle():
    table = counting._fixed_point_free_sums(16)
    for j in range(17):
        assert list(table[j]) == fixed_point_free_sums_by_partitions(j), j
    # a row does not depend on the top order of its table
    assert counting._fixed_point_free_sums(9) == table[:10]


def test_polya_totals_are_prefixes_of_the_largest_window():
    full = graph_totals(POLYA_CAP).values
    for k in range(POLYA_CAP + 1):
        assert graph_totals(k).values == full[:k + 1], k


def test_polya_cap(monkeypatch):
    # the order is checked before the cycle-index walk starts
    def forbidden(*args, **kwargs):
        raise AssertionError("the cycle-index walk started")

    monkeypatch.setattr(counting, "_cycle_index_sums", forbidden)
    with pytest.raises(CapacityError, match=f"cycle-index count of order "
                       f"{POLYA_CAP + 1} exceeds cap {POLYA_CAP}"):
        graph_totals(POLYA_CAP + 1)
    with pytest.raises(DomainError, match="order must be nonnegative"):
        graph_totals(-1)


def test_connected_totals_match_enumeration():
    connected = graph_connected_totals(8)
    for n in range(1, 9):
        assert connected.at(n) == len(enumerate_connected(n))


def test_connected_totals_regression():
    got = tuple(graph_connected_totals(12).values)
    assert got == CONNECTED_THROUGH_12


def test_transform_inverse_round_trip_on_graph_counts():
    totals = graph_totals(24)
    primes = euler_inverse(totals, 24)
    assert euler_transform(primes, 24).values == totals.values


@given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_transform_then_inverse_is_identity(prime_counts):
    primes = CountSequence.primes(prime_counts)
    n = len(prime_counts)
    assert euler_inverse(euler_transform(primes, n), n).values == primes.values


def test_walk_matches_divisor_sums_and_mobius_on_graph_counts():
    totals = graph_totals(POLYA_CAP)
    primes = euler_inverse(totals, POLYA_CAP)
    assert primes == euler_inverse_by_mobius(totals, POLYA_CAP)
    assert euler_transform(primes, POLYA_CAP) == \
        euler_transform_by_divisor_sums(primes, POLYA_CAP)


@given(st.lists(st.integers(0, 40), min_size=1, max_size=16))
def test_walk_matches_divisor_sums_and_mobius(prime_counts):
    primes = CountSequence.primes(prime_counts)
    n = len(prime_counts)
    totals = euler_transform_by_divisor_sums(primes, n)
    assert euler_transform(primes, n) == totals
    assert euler_inverse(totals, n) == primes


@given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
def test_multiplicative_transform_counts_prime_multisets(prime_counts):
    # degree 1 is the unit whatever count is given there
    primes = CountSequence.primes(prime_counts)
    n = len(prime_counts)
    connected = multiplicative_transform(primes, n)
    assert connected.at(1) == 1
    for k in range(2, n + 1):
        composites = composite_count_by_multisets(k, primes.at)
        assert connected.at(k) == primes.at(k) + composites, k
    assert prime_counts_by_factorization(connected, n).values[1:] == \
        primes.values[1:]


def test_walks_reject_degrees_below_the_unit():
    # the box product's unit has degree 1, the union's degree 0
    with pytest.raises(DomainError):
        multiplicative_transform(CountSequence.primes(()), 0)
    with pytest.raises(DomainError):
        prime_counts_by_factorization(CountSequence.primes((1,)), 0)
    with pytest.raises(DomainError):
        euler_transform(CountSequence.primes(()), -1)
    assert euler_inverse(CountSequence.totals((1,)), 0).values == ()
    with pytest.raises(DomainError):
        multiplicative_transform(CountSequence.primes((0, 1)), 3)


def test_transform_small_hand_values():
    # two primes of degree 1: degree-2 multisets are the three pairs
    totals = euler_transform(CountSequence.primes((2, 0)), 2)
    assert totals.values == (1, 2, 3)
    # one prime each at degrees 1 and 2
    totals = euler_transform(CountSequence.primes((1, 1, 0)), 3)
    assert totals.values == (1, 1, 2, 2)


def test_inverse_rejects_impossible_totals():
    # a degree-1 object forces at least one degree-2 multiset
    with pytest.raises(DomainError):
        euler_inverse(CountSequence.totals((1, 1, 0)), 2)


def test_prime_counts_by_factorization_match_multiset_oracle():
    connected = graph_connected_totals(24)
    primes = prime_counts_by_factorization(connected, 24)
    assert primes.offset == 1
    assert primes.values[:8] == (0, 1, 2, 5, 21, 110, 853, 11111)
    for n in range(2, 25):
        composites = composite_count_by_multisets(n, primes.at)
        assert primes.at(n) == connected.at(n) - composites, n


def test_prime_counts_by_factorization_of_hamming_counts():
    # products of complete graphs: exactly one prime, K_n, at each order
    connected = CountSequence.primes(
        [multiplicative_partition_count(n) for n in range(1, 65)])
    primes = prime_counts_by_factorization(connected, 64)
    assert [primes.at(n) for n in range(2, 65)] == [1] * 63


def test_prime_counts_by_factorization_rejects_bad_input():
    with pytest.raises(DomainError):
        prime_counts_by_factorization(CountSequence.primes([1, 1, 2]), 4)
    with pytest.raises(DomainError):
        prime_counts_by_factorization(CountSequence((1, 2, 6), offset=2), 4)
    # one prime of order 2 makes one composite of order 4, but none exists
    with pytest.raises(DomainError):
        prime_counts_by_factorization(CountSequence.primes([1, 1, 0, 0]), 4)


def test_inversion_coefficients_for_graph_counts():
    b = inversion_coefficients(graph_totals(8), 4)
    assert b.values == (-1, -1, -1, -4)


def test_inversion_coefficients_for_even_edge_counts():
    even_totals = CountSequence.totals((1, 1, 1, 2, 6, 18, 78, 522, 6178))
    b = inversion_coefficients(even_totals, 4)
    assert b.values == (-1, 0, -1, -3)


def test_inversion_coefficients_reciprocal_identity():
    # the defining recurrence makes sum_{s=0}^{n} B(s) S(n-s) vanish, B(0)=1
    totals = graph_totals(10)
    b = inversion_coefficients(totals, 10)
    for n in range(1, 11):
        acc = totals.at(n) + sum(b.at(s) * totals.at(n - s)
                                 for s in range(1, n + 1))
        assert acc == 0


def test_count_sequence_access_conventions():
    seq = CountSequence.totals((1, 3, 5))
    assert seq.at(Fraction(5, 2)) == 0
    assert seq.at(2.0) == 5
    assert seq.at(Fraction(4, 2)) == 5
    with pytest.raises(DomainError):
        seq.at(-1)
    with pytest.raises(DomainError):
        seq.at(3)
    with pytest.raises(DomainError):
        seq.at(True)
    assert (seq.offset, seq.values) == (0, (1, 3, 5))


def test_count_sequence_validation():
    with pytest.raises(DomainError):
        CountSequence.totals((2, 1))
    with pytest.raises(DomainError):
        CountSequence.totals((1, -1))


def test_sequences_are_immutable_values():
    a = CountSequence.totals((1, Fraction(3), 5.0))
    assert a.values == (1, 3, 5)
    assert all(type(v) is int for v in a.values)
    assert a == CountSequence((1, 3, 5)) and hash(a) == hash(CountSequence((1, 3, 5)))
    assert a != CountSequence((1, 3, 5), 1) and a != CountSequence((1, 3))
    assert repr(a) == "CountSequence(values=(1, 3, 5), offset=0)"
    b = SignedSequence([-1, 0, 2])
    assert b == SignedSequence((-1, 0, 2), 1) and hash(b) == hash(SignedSequence((-1, 0, 2)))
    assert b != SignedSequence((-1, 0, 2), 0)
    assert repr(b) == "SignedSequence(values=(-1, 0, 2), offset=1)"
    # equal windows of different types are different values
    assert CountSequence((1, 3), 1) != SignedSequence((1, 3), 1)
    assert a != (1, 3, 5)
    for seq in (a, b):
        for field in ("values", "offset"):
            with pytest.raises(AttributeError):
                setattr(seq, field, ())
            with pytest.raises(AttributeError):
                delattr(seq, field)


def test_signed_sequence_window():
    b = SignedSequence((-1, 0, 2))
    assert b.at(1) == -1 and b.at(3) == 2
    with pytest.raises(DomainError):
        b.at(0)
    with pytest.raises(DomainError):
        b.at(4)
