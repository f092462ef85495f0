"""Asymptotic expansion polynomials for graph counts, in exact rationals.

The count of unlabeled graphs of order n expands as a series whose s-th term
is a polynomial in n times 2^C(n-s,2) / (n-s)!.  The polynomials for the
total count are fixed constants; the ones for the connected count follow
from them and the inversion coefficients of the totals sequence.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .counting import SignedSequence
from .errors import CapacityError, DomainError, read_only


def _normalize(coeffs) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class RationalPolynomial:
    """Polynomial with Fraction coefficients, ascending by degree."""

    __slots__ = ("coeffs",)
    __setattr__ = __delattr__ = read_only

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"RationalPolynomial(coeffs={self.coeffs!r})"

    @classmethod
    def constant(cls, c) -> "RationalPolynomial":
        return cls((Fraction(c),))

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return RationalPolynomial(tuple(merged))

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPolynomial(tuple(out))
        c = Fraction(other)
        return RationalPolynomial(tuple(a * c for a in self.coeffs))

    __rmul__ = __mul__

    def shift(self, c) -> "RationalPolynomial":
        """The polynomial x -> self(x + c), by Horner composition."""
        linear = RationalPolynomial((Fraction(c), Fraction(1)))
        acc = RationalPolynomial((Fraction(0),))
        for k in range(len(self.coeffs) - 1, -1, -1):
            acc = acc * linear + RationalPolynomial.constant(self.coeffs[k])
        return acc


# Ascending numerators over a common denominator for the total-count series.
_TOTAL_SERIES = {
    0: ((1,), 1),
    1: ((-1, 1), 1),
    2: ((14, -13, 3), 3),
    3: ((-225, 177, -46, 4), 3),
    4: ((99656, -75474, 21160, -2610, 120), 45),
}

SERIES_CAP = max(_TOTAL_SERIES)


def total_series_polynomial(s: int) -> RationalPolynomial:
    """Coefficient polynomial of the s-th total-count expansion term."""
    if s < 0:
        raise DomainError("series index must be nonnegative")
    if s not in _TOTAL_SERIES:
        raise CapacityError(f"series term {s} exceeds cap {SERIES_CAP}")
    nums, den = _TOTAL_SERIES[s]
    return RationalPolynomial(tuple(Fraction(a, den) for a in nums))


def connected_series_polynomial(s: int, coeffs: SignedSequence) -> RationalPolynomial:
    """Coefficient polynomial of the s-th connected-count expansion term.

    Combines the total-count polynomials with the inversion coefficients of
    the totals sequence: term s is the total polynomial plus B(s) plus the
    lower total polynomials re-centered by their index gap.
    """
    if s == 0:
        return RationalPolynomial.constant(1)
    p = total_series_polynomial(s) + RationalPolynomial.constant(coeffs.at(s))
    for r in range(1, s):
        p = p + coeffs.at(r) * total_series_polynomial(s - r).shift(-r)
    return p


def expansion_term_weight(n: int, s: int) -> Fraction:
    """The weight 2^C(n-s,2) / (n-s)! multiplying the s-th polynomial."""
    if s > n:
        raise DomainError("term index exceeds order")
    return Fraction(1 << comb(n - s, 2), factorial(n - s))


def expansion_partial_sum(n: int, order: int, polys, scale=1) -> Fraction:
    """Sum of the first `order` expansion terms at n, times a constant scale.

    Requires n > 2 * order so the companion error bound below is defined.
    """
    if order < 1:
        raise DomainError("truncation order must be positive")
    if len(polys) < order:
        raise DomainError(f"need {order} polynomials, got {len(polys)}")
    if polys[0].coeffs != (Fraction(1),):
        raise DomainError("leading polynomial must be the constant 1")
    if n <= 2 * order:
        raise DomainError("order must exceed twice the truncation order")
    total = Fraction(0)
    for s in range(order):
        total += polys[s](n) * expansion_term_weight(n, s)
    return total * Fraction(scale)


def expansion_error_bound(n: int, order: int) -> Fraction:
    """The remainder envelope 2^C(n-R,2) / (n-2R)! for truncation order R."""
    if n <= 2 * order:
        raise DomainError("order must exceed twice the truncation order")
    return Fraction(1 << comb(n - order, 2), factorial(n - 2 * order))


def expansion_error_report(true_counts, polys, orders, truncation: int,
                           scale=1) -> list[dict]:
    """Rows comparing truncated expansion sums against exact counts.

    Each row carries the truncated value, the exact count, their difference,
    the remainder envelope, and the difference-to-envelope ratio.
    """
    rows = []
    for n in orders:
        truncated = expansion_partial_sum(n, truncation, polys, scale)
        true = true_counts.at(n)
        remainder = abs(true - truncated)
        bound = expansion_error_bound(n, truncation)
        rows.append({
            "n": n,
            "R": truncation,
            "truncated": truncated,
            "true": true,
            "remainder": remainder,
            "bound": bound,
            "ratio": remainder / bound,
        })
    return rows
