"""Asymptotic expansion polynomials for graph counts, in exact rationals.

The count of unlabeled graphs of order n expands as a series whose s-th term
is a polynomial in n times 2^C(n-s,2) / (n-s)!.  The polynomials for the
total count sum over the cycle types without fixed points that the
cycle-index count walks; the ones for the connected count follow from them
and the inversion coefficients of the totals sequence.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .counting import SignedSequence, _fixed_point_free_sums
from .errors import DomainError, read_only


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


def _falling_coefficients(s: int) -> list[list[Fraction]]:
    """a[t][c], c <= t <= s, with T_t(n) = sum_c a[t][c] (n-t)...(n-t-c+1).

    A fixed-point-free type of j = t + c points in c cycles adds W[j][c]
    / (j! 2^C(c,2)) (n-t)!/(n-j)! times the weight of term t to S(n), as
    counting._cycle_index_sums shows; c <= t, so W up to 2s suffices.
    """
    if s < 0:
        raise DomainError("series index must be nonnegative")
    table = _fixed_point_free_sums(2 * s)
    return [[Fraction(table[t + c][c], factorial(t + c) << comb(c, 2))
             for c in range(t + 1)] for t in range(s + 1)]


def _in_falling_factorials(s: int, coeffs) -> RationalPolynomial:
    """sum_c coeffs[c] (n-s)(n-s-1)...(n-s-c+1) in n, by Horner's rule."""
    acc = RationalPolynomial(())
    for c in range(len(coeffs) - 1, -1, -1):
        acc = (acc * RationalPolynomial((-s - c, 1))
               + RationalPolynomial.constant(coeffs[c]))
    return acc


def total_series_polynomial(s: int) -> RationalPolynomial:
    """Coefficient polynomial of the s-th total-count expansion term."""
    return _in_falling_factorials(s, _falling_coefficients(s)[s])


def connected_series_polynomial(s: int, coeffs: SignedSequence) -> RationalPolynomial:
    """Coefficient polynomial of the s-th connected-count expansion term.

    Combines the total-count polynomials T with the inversion coefficients
    B of the totals sequence, B(0) = 1: term s is sum_r B(r) T_{s-r}(n-r),
    and every T_{s-r}(n-r) is a sum on the falling factorials of n - s.
    """
    a = _falling_coefficients(s)
    b = [1] + [coeffs.at(r) for r in range(1, s + 1)]
    return _in_falling_factorials(s, [
        sum(b[r] * a[s - r][c] for r in range(s - c + 1))
        for c in range(s + 1)])


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
