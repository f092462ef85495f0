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


def _ceil_sqrt(n: int) -> int:
    return isqrt(n - 1) + 1 if n > 0 else 0


def _pair_correction(count: int) -> tuple[int, int]:
    """Unordered pairs from `count` kinds: with repetition, and without.

    The middle terms below subtract the with-repetition value; the strict
    binomial variant is carried in reports for comparison, since the two
    differ exactly on the diagonal (A + A, A box A) and only the multiset
    form verifies exhaustively.
    """
    return comb(count + 1, 2), comb(count, 2)


def additive_gap_sandwich(inst: SemiringInstance, n: int) -> dict:
    """Two-sided bound on the disconnected count S(n) - S_plus(n).

    lower = sum_{r=1}^{ceil(n/2)-1} S_plus(r) S_plus(n-r),
    upper = same sum with the right factor S(n-r), and the middle is
    S(n) - S_plus(n) - T(n) with T(n) the degree-n/2 pair correction.
    """
    if n < 1:
        raise DomainError("degree must be positive")
    t, t_plain = _pair_correction(inst.S_plus(Fraction(n, 2)))
    lower = 0
    upper = 0
    for r in range(1, (n + 1) // 2):
        lower += inst.S_plus(r) * inst.S_plus(n - r)
        upper += inst.S_plus(r) * inst.S(n - r)
    gap = inst.S(n) - inst.S_plus(n)
    middle = gap - t
    return {
        "n": n,
        "lower": lower,
        "middle": middle,
        "upper": upper,
        "holds": lower <= middle <= upper,
        "middle_plain": gap - t_plain,
    }


def multiplicative_gap_sandwich(inst: SemiringInstance, n: int) -> dict:
    """Two-sided bound on the composite count S_plus(n) - S_box(n).

    lower = sum_{r=2}^{ceil(sqrt n)-1} S_box(r) S_box(n/r), upper = same
    with S_plus(n/r), middle = S_plus(n) - S_box(n) - T_box(n) with the
    degree-sqrt(n) pair correction.
    """
    if n < 2:
        raise DomainError("degree must be at least 2")
    rt = isqrt(n)
    t, t_plain = _pair_correction(inst.S_box(rt) if rt * rt == n else 0)
    lower = 0
    upper = 0
    for r in range(2, _ceil_sqrt(n)):
        here = inst.S_box(r)
        lower += here * inst.S_box(Fraction(n, r))
        upper += here * inst.S_plus(Fraction(n, r))
    gap = inst.S_plus(n) - inst.S_box(n)
    middle = gap - t
    return {
        "n": n,
        "lower": lower,
        "middle": middle,
        "upper": upper,
        "holds": lower <= middle <= upper,
        "middle_plain": gap - t_plain,
    }


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
