from fractions import Fraction

import pytest

from boxprime.bounds import (additive_gap_sandwich, cut_bound,
                             growth_ratio_diagnostics, leading_term_check,
                             multiplicative_gap_sandwich, prime_gap_bound)
from boxprime.errors import BoxprimeError, DomainError
from _oracles import (additive_gap_sandwich_written_out,
                      multiplicative_gap_sandwich_written_out)

ADDITIVE_MIDDLES = (0, 2, 4, 13, 41, 191, 1208, 13588, 288366)
MULTIPLICATIVE_MIDDLES = (0, 0, 2, 0, 6, 0, 21, 0, 122)
HORIZONS = (("graphs_instance", 32), ("hamming_instance", 64),
            ("even_instance", 8))
FOLDS = ((additive_gap_sandwich, additive_gap_sandwich_written_out, 1),
         (multiplicative_gap_sandwich, multiplicative_gap_sandwich_written_out,
          2))


def _outcome(check, inst, n):
    """The row, or the kind and message of the refusal."""
    try:
        return check(inst, n)
    except BoxprimeError as exc:
        return type(exc), str(exc)


class _Reads:
    """Delegates to an instance and logs each (accessor, degree) read."""

    def __init__(self, inst):
        self.inst = inst
        self.log = []

    def __getattr__(self, name):
        read = getattr(self.inst, name)

        def logged(x):
            self.log.append((name, x))
            return read(x)
        return logged


def test_additive_sandwich_holds_through_ten(graphs_instance):
    rows = [additive_gap_sandwich(graphs_instance, n) for n in range(2, 11)]
    assert all(row["holds"] for row in rows)
    assert tuple(row["middle"] for row in rows) == ADDITIVE_MIDDLES


def test_additive_sandwich_needs_the_diagonal_correction(graphs_instance):
    # counting same-half pairs with plain C(m,2) undercounts the repeated
    # half, pushing the disconnected count past the upper bound at n=4
    row = additive_gap_sandwich(graphs_instance, 4)
    assert row["middle_plain"] == 5
    assert row["upper"] == 4
    assert row["middle"] == 4


def test_multiplicative_sandwich_holds_through_twelve(graphs_instance):
    rows = [multiplicative_gap_sandwich(graphs_instance, n)
            for n in range(4, 13)]
    assert all(row["holds"] for row in rows)
    assert tuple(row["middle"] for row in rows) == MULTIPLICATIVE_MIDDLES


def test_multiplicative_sandwich_row_twelve(graphs_instance):
    row = multiplicative_gap_sandwich(graphs_instance, 12)
    assert (row["lower"], row["middle"], row["upper"]) == (120, 122, 124)


@pytest.mark.parametrize("fixture, horizon", HORIZONS)
def test_sandwiches_match_the_written_out_references(fixture, horizon,
                                                     request):
    # equal rows and refusals, and the first read of each degree in the same
    # order, since the dry run must refuse a bad degree where the rows would
    inst = request.getfixturevalue(fixture)
    for fold, reference, least in FOLDS:
        for n in range(least - 1, horizon + 2):
            got, want = _Reads(inst), _Reads(inst)
            outcome = _outcome(fold, got, n)
            assert outcome == _outcome(reference, want, n)
            assert isinstance(outcome, tuple) == (n in (least - 1, horizon + 1))
            assert list(dict.fromkeys(got.log)) == list(dict.fromkeys(want.log))


def test_cut_bound_values(graphs_instance):
    row = cut_bound(graphs_instance, 4, depth=3)
    assert (row["middle"], row["upper"], row["holds"]) == (0, 5, True)
    row = cut_bound(graphs_instance, 12, depth=3)
    assert (row["middle"], row["upper"], row["holds"]) == (10, 191, True)


def test_cut_bound_rejects_shallow_depth(graphs_instance):
    with pytest.raises(DomainError):
        cut_bound(graphs_instance, 12, depth=2)


def test_prime_gap_bound_holds_through_sixteen(graphs_instance):
    rows = [prime_gap_bound(graphs_instance, n) for n in range(4, 17)]
    assert all(row["holds"] for row in rows)
    by_n = {row["n"]: row for row in rows}
    assert (by_n[6]["lhs"], by_n[6]["rhs"]) == (2, 38)
    assert (by_n[16]["lhs"], by_n[16]["rhs"]) == (11132, 24692)


def test_leading_term_residuals(graphs_instance):
    assert leading_term_check(graphs_instance, 2)["residual"] == 0
    assert leading_term_check(graphs_instance, 3)["residual"] == 0
    row = leading_term_check(graphs_instance, 6)
    assert row["pn"] == 12
    assert row["gap"] == 122
    assert row["leading"] == 112
    assert row["residual"] == 10


def test_growth_ratio_diagnostics(graphs_instance):
    rows = growth_ratio_diagnostics(graphs_instance, 8)
    assert [row["n"] for row in rows] == list(range(1, 9))
    last = rows[-1]
    assert last["connected_over_total"] == Fraction(11117, 12346)
    assert last["prime_over_connected"] == Fraction(11111, 11117)
    assert last["connected_step"] == Fraction(853, 11117)
    assert last["prime_half_step"] == Fraction(5, 11111)
    assert last["gap_over_prev_connected"] == Fraction(1229, 853)
    assert last["prime_gap_over_half"] == Fraction(6, 5)
    first = rows[0]
    assert first["prime_half_step"] is None
    assert first["gap_over_prev_connected"] is None
    assert first["prime_gap_over_half"] is None
    assert first["connected_step"] == 0
