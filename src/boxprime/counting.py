"""Exact count sequences and the transforms connecting totals to primes.

Everything here is integer or Fraction arithmetic; no floats.  Sequences are
dense windows of degrees: absent degrees raise rather than defaulting to
zero, while evaluation at a non-integer argument returns 0 (the convention
used throughout the bound computations).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from operator import add, mul

from .errors import CapacityError, DomainError, read_only

POLYA_CAP = 32


def _as_integer(x):
    """The integer value of x, or None when x is a non-integral number."""
    if isinstance(x, bool):
        raise DomainError("degree must be a number, not bool")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else None
    if isinstance(x, float):
        return int(x) if x.is_integer() else None
    raise DomainError(f"unsupported degree type {type(x).__name__}")


class _Window:
    """Integer values on the dense degree window offset..offset+len-1; an
    immutable value, equal and hashed by type, values and offset."""

    __slots__ = ("values", "offset")
    __setattr__ = __delattr__ = read_only

    def __init__(self, values, offset: int) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in values))
        object.__setattr__(self, "offset", offset)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.values, self.offset) == (other.values, other.offset)

    def __hash__(self) -> int:
        return hash((self.values, self.offset))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(values={self.values!r}, "
                f"offset={self.offset!r})")

    @property
    def max_degree(self) -> int:
        return self.offset + len(self.values) - 1

    def at(self, k: int) -> int:
        if not self.offset <= k <= self.max_degree:
            raise DomainError(
                f"degree {k} absent (window {self.offset}..{self.max_degree})")
        return self.values[k - self.offset]


class CountSequence(_Window):
    """Nonnegative integer counts on the dense degree window offset..offset+len-1."""

    __slots__ = ()

    def __init__(self, values: tuple[int, ...], offset: int = 0) -> None:
        super().__init__(values, offset)
        if any(v < 0 for v in self.values):
            raise DomainError("counts must be nonnegative")
        if offset == 0 and self.values and self.values[0] != 1:
            raise DomainError("a totals sequence must count exactly one object of degree 0")

    @classmethod
    def totals(cls, values) -> "CountSequence":
        return cls(tuple(values), 0)

    @classmethod
    def primes(cls, values) -> "CountSequence":
        """Prime counts for degrees 1..len(values)."""
        return cls(tuple(values), 1)

    def at(self, x) -> int:
        """Value at degree x; 0 for non-integer x, error outside the window."""
        k = _as_integer(x)
        return 0 if k is None else super().at(k)


class SignedSequence(_Window):
    """Signed integer coefficients on the dense degree window starting at offset."""

    __slots__ = ()

    def __init__(self, values: tuple[int, ...], offset: int = 1) -> None:
        super().__init__(values, offset)


@lru_cache(maxsize=None)
def _fixed_point_free_sums(top: int) -> tuple:
    """W[j][c] = sum of (j!/z) 2^e over the fixed-point-free cycle types
    of j <= top points in c cycles, e the pair orbits among the moved points.

    One depth-first walk visits every partition of every j <= top into parts
    >= 2 once: a node is a partition with distinct parts in descending
    order, and its children append copies of a smaller part, updating e and
    z by the increments given in graph_totals.  W[j] does not depend on top.
    """
    facts = [factorial(k) for k in range(top + 1)]
    gcds = [[gcd(p, q) for q in range(top + 1)] for p in range(top + 1)]
    table = [[1]] + [[0] * (j // 2 + 1) for j in range(1, top + 1)]

    def visit(s: int, e: int, z: int, chosen: tuple, largest: int,
              cycles: int) -> None:
        for p in range(min(largest, top - s), 1, -1):
            # each copy of p gains cross, plus p per copy already chosen
            row = gcds[p]
            cross = p // 2
            for q, mq in chosen:
                cross += mq * row[q]
            m, sp, ep, zp = 0, s, e, z
            while sp + p <= top:
                m += 1
                sp += p
                ep += cross + p * (m - 1)
                zp *= p * m
                table[sp][cycles + m] += (facts[sp] // zp) << ep
                if p > 2 and sp + 2 <= top:
                    visit(sp, ep, zp, chosen + ((p, m),), p - 1, cycles + m)

    visit(0, 0, 1, (), top, 0)
    return tuple(tuple(row) for row in table)


def _cycle_index_sums(max_degree: int) -> list[int]:
    """sums[n] = sum over cycle types of n of (n!/z) 2^e, for n <= max_degree.

    A type of n with f fixed points is a fixed-point-free type on one of
    C(n, f) sets of n - f points.  A fixed point shares one pair orbit with
    each of its c cycles, as gcd(1, q) = 1, and one with each other fixed
    point: sums[n] = sum_{f, c} C(n, f) W[n-f][c] 2^(f c + C(f, 2)).
    """
    table = _fixed_point_free_sums(max_degree)
    return [sum(comb(n, f) * sum(w << f * c for c, w in enumerate(table[n - f]))
                << comb(f, 2) for f in range(n + 1))
            for n in range(max_degree + 1)]


@lru_cache(maxsize=None)
def graph_totals(max_degree: int) -> CountSequence:
    """All-graph counts 0..max_degree by cycle-index counting.

    Order n sums 2^e over permutation cycle types.  A type with m_p cycles
    of each distinct length p fixes 2^e edge subsets, where
    e = sum_p m_p floor(p/2) + sum_p p C(m_p, 2) + sum_{p<q} m_p m_q gcd(p, q),
    and n!/z permutations share the type, z = prod_p p^m_p m_p!.  Adding
    the m-th cycle of length p to a type raises e by
    floor(p/2) + p (m-1) + sum_q m_q gcd(p, q) over the other lengths q and
    multiplies z by p m, so one walk over the fixed-point-free types updates
    e and z instead of recomputing them, and fixed points join in closed
    form (_cycle_index_sums).
    """
    if max_degree < 0:
        raise DomainError("order must be nonnegative")
    if max_degree > POLYA_CAP:
        raise CapacityError(
            f"cycle-index count of order {max_degree} exceeds cap {POLYA_CAP}")
    quotients = [divmod(total, factorial(n))
                 for n, total in enumerate(_cycle_index_sums(max_degree))]
    assert all(r == 0 for _, r in quotients)
    return CountSequence.totals(q for q, _ in quotients)


@lru_cache(maxsize=None)
def graph_connected_totals(max_degree: int) -> CountSequence:
    """Connected-graph counts 1..max_degree, inverted from the totals."""
    return euler_inverse(graph_totals(max_degree), max_degree)


def _require_window(seq, lo: int, hi: int) -> None:
    if seq.offset > lo or seq.max_degree < hi:
        raise DomainError(
            f"sequence window {seq.offset}..{seq.max_degree} does not cover {lo}..{hi}")


def multiply_factor(series: list, k: int, coeffs, times=add, plus=add) -> None:
    """Multiply series in place by sum_m coeffs[m] y^m, y of degree k.

    series[i] is the coefficient of degree i.  Under disjoint union
    (times=add) y is x^k, so the term y^m carries degree i to i + m k;
    under the box product (times=mul) y is k^-s and carries i to i k^m.
    plus combines the terms of one degree: add, or max for a maximum over
    nonnegative values, where 0 stands for no term.  i runs downward, so
    each entry is read before any lower entry adds to it.
    """
    top = len(series) - 1
    first, rest = coeffs[0], coeffs[1:]
    for i in range(top, -1, -1):
        here = series[i]
        if not here:
            continue
        series[i] = first * here
        j = i
        for c in rest:
            j = times(j, k)
            if j > top:
                break
            series[j] = plus(series[j], c * here)


def _euler_walk(top: int, times, primes_at=None, target=None) -> tuple:
    """Expand prod_k (1 - y_k)^-p(k) over k ascending, to degree top.

    Under union (times=add) y_k = x^k, k >= 1, and the series counts
    multisets by degree sum from the empty multiset at 0; under the box
    product (times=mul) y_k = k^-s, k >= 2, and it counts them by degree
    product from the unit at 1.  Each p(k) is primes_at(k) (a transform),
    or target(k) minus the multisets of smaller primes already formed at
    degree k (an inverse).  The free factor (1 - y)^-p has coefficient
    C(p+m-1, m) at y^m.  Returns the series and the prime counts p[0..top].

    Raises DomainError when top is below the unit's degree, or when an
    inverse finds a negative prime count.
    """
    unit = 0 if times is add else 1
    if top < unit:
        raise DomainError(f"maximum degree must be at least {unit}")
    series = [0] * (top + 1)
    series[unit] = 1
    primes = [0] * (top + 1)
    for k in range(unit + 1, top + 1):
        if target is None:
            count = primes_at(k)
        else:
            count = target(k) - series[k]
            if count < 0:
                raise DomainError(
                    f"counts admit no nonnegative prime counts: degree {k} "
                    f"has {series[k]} multisets of smaller primes but "
                    f"{target(k)} in all")
        primes[k] = count
        factor, degree = [1], k
        while degree <= top:
            m = len(factor)
            factor.append(comb(count + m - 1, m))
            degree = times(degree, k)
        multiply_factor(series, k, factor, times)
    return series, primes


def prime_counts_by_factorization(connected: CountSequence,
                                  max_degree: int) -> CountSequence:
    """Prime counts 1..max_degree of a family with unique factorization.

    When every connected member factors uniquely into primes, the connected
    members of degree n are the multisets of primes whose degrees multiply
    to n, so sum_n S_plus(n) n^-s = prod_{k>=2} (1 - k^-s)^-p(k).  Expanding
    the factors k < n of that product counts the composites of degree n;
    the rest of S_plus(n) are primes.  Degree 1 is the unit, not a prime.

    Raises DomainError when no nonnegative prime sequence exists.
    """
    _require_window(connected, 1, max_degree)
    _, primes = _euler_walk(max_degree, mul, target=connected.at)
    return CountSequence.primes(primes[1:])


def multiplicative_transform(primes: CountSequence,
                             max_degree: int) -> CountSequence:
    """Connected counts 1..max_degree of the multisets of primes whose
    degrees multiply to each degree, given the prime counts; degree 1 is
    the unit (the empty multiset) and prime counts at degree 1 are ignored.
    """
    _require_window(primes, 1, max_degree)
    series, _ = _euler_walk(max_degree, mul, primes_at=primes.at)
    return CountSequence.primes(series[1:])


def euler_transform(primes: CountSequence, max_degree: int) -> CountSequence:
    """Totals whose multisets are built freely from the given prime counts."""
    _require_window(primes, 1, max_degree)
    series, _ = _euler_walk(max_degree, add, primes_at=primes.at)
    return CountSequence.totals(series)


def euler_inverse(totals: CountSequence, max_degree: int) -> CountSequence:
    """Prime counts whose Euler transform reproduces the given totals.

    Every integer sequence starting with 1 is the transform of exactly one
    integer prime sequence, which the walk reads off degree by degree.
    Raises DomainError when that sequence has a negative count.
    """
    _require_window(totals, 0, max_degree)
    _, primes = _euler_walk(max_degree, add, target=totals.at)
    return CountSequence.primes(primes[1:])


def inversion_coefficients(totals: CountSequence, max_degree: int) -> SignedSequence:
    """Coefficients of the reciprocal of the totals generating function.

    B(n) = -S(n) - sum_{s=1}^{n-1} B(s) S(n-s); B(1) = -S(1) always, so any
    family with one object of degree 1 has B(1) = -1.
    """
    _require_window(totals, 0, max_degree)
    b = [0] * (max_degree + 1)
    for n in range(1, max_degree + 1):
        b[n] = -totals.at(n) - sum(b[s] * totals.at(n - s) for s in range(1, n))
    return SignedSequence(tuple(b[1:]), 1)
