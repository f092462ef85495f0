from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from boxprime.counting import (CountSequence, graph_connected_totals,
                               graph_totals, inversion_coefficients)
from boxprime.errors import DomainError
from boxprime.expansion import (RationalPolynomial,
                                connected_series_polynomial,
                                expansion_error_bound, expansion_error_report,
                                expansion_partial_sum, expansion_term_weight,
                                total_series_polynomial)
from _oracles import count_graphs_by_cycle_types

EVEN_TOTALS = CountSequence.totals((1, 1, 1, 2, 6, 18, 78, 522, 6178))
EVEN_CONNECTED = CountSequence.primes((1, 0, 1, 3, 11, 55, 427, 5561))


def poly(nums, den=1):
    return RationalPolynomial(tuple(Fraction(c, den) for c in nums))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coeff_lists = st.lists(rationals, min_size=0, max_size=5)


@given(coeff_lists, coeff_lists, rationals)
def test_polynomial_ring_operations_agree_with_evaluation(a, b, x):
    p, q = RationalPolynomial(a), RationalPolynomial(b)
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p * 3)(x) == 3 * p(x)


def test_polynomial_normalization():
    assert RationalPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert RationalPolynomial((0,)).coeffs == ()
    assert RationalPolynomial.constant(5).coeffs == (5,)
    assert poly([1, 2, 3]).coeffs == (1, 2, 3)


def test_polynomial_is_an_immutable_value():
    p = RationalPolynomial((1, Fraction(1, 2), 0))
    assert p == poly([2, 1], 2) and hash(p) == hash(poly([2, 1], 2))
    assert p != poly([1]) and p != (Fraction(1), Fraction(1, 2))
    assert repr(p) == "RationalPolynomial(coeffs=(Fraction(1, 1), Fraction(1, 2)))"
    assert 3 * p == p * 3 == poly([6, 3], 2)
    # no tuple arithmetic behind the polynomial's back
    with pytest.raises((AttributeError, TypeError)):
        p + ()
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_total_series_table():
    assert total_series_polynomial(0) == poly([1])
    assert total_series_polynomial(1) == poly([-1, 1])
    assert total_series_polynomial(2) == poly([14, -13, 3], 3)
    assert total_series_polynomial(3) == poly([-225, 177, -46, 4], 3)
    assert total_series_polynomial(4) == poly(
        [99656, -75474, 21160, -2610, 120], 45)


def test_total_series_guards():
    with pytest.raises(DomainError):
        total_series_polynomial(-1)
    with pytest.raises(DomainError):
        connected_series_polynomial(-1, inversion_coefficients(graph_totals(4), 4))


def test_total_polynomials_sum_to_the_cycle_type_totals():
    # the expansion is exact once every term down to weight 2^0 / 1! is in
    polys = [total_series_polynomial(s) for s in range(16)]
    for n in range(1, 17):
        total = sum(polys[s](n) * expansion_term_weight(n, s) for s in range(n))
        assert total == count_graphs_by_cycle_types(n), n


def test_connected_remainder_is_the_first_omitted_term():
    # the remainder after R terms is the next term to within one percent,
    # once n is 15 past 2R; the worst case, R = 1 at n = 17, is 0.0067
    connected = graph_connected_totals(32)
    b = inversion_coefficients(graph_totals(32), 8)
    polys = [connected_series_polynomial(s, b) for s in range(9)]
    for order in range(1, 9):
        for n in range(2 * order + 15, 33):
            remainder = connected.at(n) - expansion_partial_sum(n, order, polys)
            omitted = polys[order](n) * expansion_term_weight(n, order)
            assert abs(remainder / omitted - 1) < Fraction(1, 100), (order, n)


def test_connected_series_for_graph_counts():
    b = inversion_coefficients(graph_totals(8), 4)
    assert connected_series_polynomial(0, b) == poly([1])
    assert connected_series_polynomial(1, b) == poly([-2, 1])
    assert connected_series_polynomial(2, b) == poly([17, -16, 3], 3)
    assert connected_series_polynomial(3, b) == poly([-249, 193, -49, 4], 3)
    assert connected_series_polynomial(4, b) == poly(
        [105656, -79359, 21985, -2670, 120], 45)


def test_connected_series_for_even_edge_counts():
    b = inversion_coefficients(EVEN_TOTALS, 4)
    assert connected_series_polynomial(1, b) == poly([-2, 1])
    assert connected_series_polynomial(2, b) == poly([20, -16, 3], 3)
    assert connected_series_polynomial(3, b) == poly([-258, 196, -49, 4], 3)
    assert connected_series_polynomial(4, b) == poly(
        [106481, -79734, 22030, -2670, 120], 45)


def test_term_weight_and_single_term_sum():
    assert expansion_term_weight(5, 0) == Fraction(1 << 10, 120)
    b = inversion_coefficients(graph_totals(4), 2)
    polys = [connected_series_polynomial(0, b)]
    assert expansion_partial_sum(5, 1, polys) == Fraction(1 << 10, 120)
    assert expansion_partial_sum(5, 1, polys, scale=Fraction(1, 2)) == \
        Fraction(1 << 10, 240)


def test_partial_sum_guards():
    b = inversion_coefficients(graph_totals(8), 4)
    polys = [connected_series_polynomial(s, b) for s in range(3)]
    with pytest.raises(DomainError):
        expansion_partial_sum(6, 3, polys)  # needs n > 2R
    with pytest.raises(DomainError):
        expansion_partial_sum(10, 4, polys)  # not enough polynomials
    with pytest.raises(DomainError):
        expansion_partial_sum(10, 0, polys)
    with pytest.raises(DomainError):
        expansion_partial_sum(10, 2, [polys[1], polys[0]])  # must start at 1


def test_error_bound_values():
    assert expansion_error_bound(8, 3) == 512
    assert expansion_error_bound(10, 2) == Fraction(1 << 28, 720)
    with pytest.raises(DomainError):
        expansion_error_bound(6, 3)


def test_error_report_graph_row():
    totals = graph_totals(8)
    b = inversion_coefficients(totals, 3)
    polys = [connected_series_polynomial(s, b) for s in range(3)]
    rows = expansion_error_report(graph_connected_totals(8), polys, [8], 3)
    row = rows[0]
    assert row["truncated"] == Fraction(3270656, 315)
    assert row["true"] == 11117
    assert row["remainder"] == Fraction(231199, 315)
    assert row["bound"] == 512
    assert row["ratio"] == Fraction(231199, 161280)


def test_error_ratios_stay_small_for_graph_counts():
    totals = graph_totals(24)
    connected = graph_connected_totals(24)
    b = inversion_coefficients(totals, 4)
    for order in (2, 3, 4):
        polys = [connected_series_polynomial(s, b) for s in range(order)]
        rows = expansion_error_report(connected, polys,
                                      range(2 * order + 2, 25), order)
        for row in rows:
            assert row["ratio"] <= 10, (order, row["n"])


def test_error_report_even_rows():
    b = inversion_coefficients(EVEN_TOTALS, 3)
    polys = [connected_series_polynomial(s, b) for s in range(2)]
    rows = expansion_error_report(EVEN_CONNECTED, polys, [6, 7, 8], 2,
                                  scale=Fraction(1, 2))
    assert rows[0]["truncated"] == Fraction(1792, 45)
    assert rows[0]["remainder"] == Fraction(683, 45)
    assert rows[0]["bound"] == 32
    for row in rows:
        assert row["ratio"] < 1
