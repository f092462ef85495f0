"""Exact finite-degree verification of the count inequalities.

Every check returns a row dict with the exact quantities and a `holds`
flag; nothing here asserts.  All terms indexed by a possibly-fractional
degree (n/2, n/r, sqrt n) use the sequence convention that non-integer
degrees contribute 0, so vacuous terms vanish without special cases.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

from .errors import DomainError
from .semiring import SemiringInstance


def _gap_sandwich(n: int, whole, part, pairs, middle_kinds: int) -> dict:
    """Two-sided bound on whole(n) - part(n), the degree-n elements of a
    monoid that its part does not hold, from its ordered pairs (r, rest).

    lower = sum part(r) part(rest), upper = sum part(r) whole(rest), and
    middle = whole(n) - part(n) less the unordered pairs with repetition
    of the middle_kinds kinds of the middle degree.  The strict binomial
    variant, middle_plain, is carried for comparison: the two differ
    exactly on the diagonal (A + A, A box A), and only the multiset form
    verifies exhaustively.
    """
    lower = 0
    upper = 0
    for r, rest in pairs:
        here = part(r)
        lower += here * part(rest)
        upper += here * whole(rest)
    gap = whole(n) - part(n)
    middle = gap - comb(middle_kinds + 1, 2)
    return {
        "n": n,
        "lower": lower,
        "middle": middle,
        "upper": upper,
        "holds": lower <= middle <= upper,
        "middle_plain": gap - comb(middle_kinds, 2),
    }


def additive_gap_sandwich(inst: SemiringInstance, n: int) -> dict:
    """Two-sided bound on the disconnected count S(n) - S_plus(n).

    lower = sum_{r=1}^{ceil(n/2)-1} S_plus(r) S_plus(n-r),
    upper = same sum with the right factor S(n-r), and the middle is
    S(n) - S_plus(n) - T(n) with T(n) the degree-n/2 pair correction.
    """
    if n < 1:
        raise DomainError("degree must be positive")
    pairs = ((r, n - r) for r in range(1, (n + 1) // 2))
    return _gap_sandwich(n, inst.S, inst.S_plus, pairs,
                         inst.S_plus(Fraction(n, 2)))


def multiplicative_gap_sandwich(inst: SemiringInstance, n: int) -> dict:
    """Two-sided bound on the composite count S_plus(n) - S_box(n).

    lower = sum_{r=2}^{ceil(sqrt n)-1} S_box(r) S_box(n/r), upper = same
    with S_plus(n/r), middle = S_plus(n) - S_box(n) - T_box(n) with the
    degree-sqrt(n) pair correction.
    """
    if n < 2:
        raise DomainError("degree must be at least 2")
    rt = isqrt(n)
    pairs = ((r, Fraction(n, r)) for r in range(2, isqrt(n - 1) + 1))
    return _gap_sandwich(n, inst.S_plus, inst.S_box, pairs,
                         inst.S_box(rt) if rt * rt == n else 0)


def cut_bound(inst: SemiringInstance, n: int, depth: int = 3) -> dict:
    """Composite count minus its small-factor main terms, against a cut tail.

    middle = S_plus(n) - S_box(n) - sum_{r=2}^{depth-1} S_box(r) S_plus(n/r)
    is checked against 0 <= middle <= S(n//depth + depth) - S_plus(same).
    Holds only for large enough n, so rows report rather than promise.
    Degrees below 2, where the unit would count as a composite, are refused.
    """
    if n < 2:
        raise DomainError("degree must be at least 2")
    if depth <= 2:
        raise DomainError("cut depth must exceed 2")
    main = sum(inst.S_box(r) * inst.S_plus(Fraction(n, r))
               for r in range(2, depth))
    middle = inst.S_plus(n) - inst.S_box(n) - main
    arg = n // depth + depth
    upper = inst.S(arg) - inst.S_plus(arg)
    return {
        "n": n,
        "depth": depth,
        "middle": middle,
        "upper": upper,
        "holds": 0 <= middle <= upper,
    }


def prime_gap_bound(inst: SemiringInstance, n: int) -> dict:
    """The composite count against its least-prime-degree envelope.

    S_plus(n) - S_box(n) <= S_box(p) S(n//p) + S(n//(p+1) + p + 1), where
    p is the least prime degree of the instance.
    """
    p = inst.p
    lhs = inst.S_plus(n) - inst.S_box(n)
    rhs = inst.S_box(p) * inst.S(n // p) + inst.S(n // (p + 1) + p + 1)
    return {"n": n, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}


def leading_term_check(inst: SemiringInstance, n: int) -> dict:
    """Composite count at degree p*n versus its leading term.

    gap = S_plus(p n) - S_box(p n); leading = S_box(p) S_plus(n); residual
    is their signed difference, zero exactly when every composite of degree
    p*n has a degree-p prime factor.  Degrees below 2 are refused: at 1 the
    cofactor is the unit, and the degree-p primes would count as composites.
    """
    if n < 2:
        raise DomainError("degree must be at least 2")
    p = inst.p
    pn = p * n
    gap = inst.S_plus(pn) - inst.S_box(pn)
    leading = inst.S_box(p) * inst.S_plus(n)
    return {"n": n, "pn": pn, "gap": gap, "leading": leading,
            "residual": gap - leading}


_RATIOS = (
    ("connected_over_total", lambda i, n: (i.S_plus(n), i.S(n))),
    ("prime_over_connected", lambda i, n: (i.S_box(n), i.S_plus(n))),
    ("connected_step", lambda i, n: (i.S_plus(n - 1), i.S_plus(n))),
    ("prime_half_step", lambda i, n: (i.S_box(n // 2), i.S_box(n))),
    ("gap_over_prev_connected", lambda i, n: (i.S(n) - i.S_plus(n), i.S_plus(n - 1))),
    ("prime_gap_over_half", lambda i, n: (i.S_plus(n) - i.S_box(n), i.S_box(n // 2))),
)


def growth_ratio_diagnostics(inst: SemiringInstance, n_max: int) -> list[dict]:
    """Exact ratio table tracking how the three sequences grow together.

    Six ratios per degree; a zero denominator yields None for that cell
    rather than an error.  No limit is asserted, only the exact values.
    """
    rows = []
    for n in range(1, n_max + 1):
        row = {"n": n}
        for name, pair in _RATIOS:
            num, den = pair(inst, n)
            row[name] = Fraction(num, den) if den else None
        rows.append(row)
    return rows
