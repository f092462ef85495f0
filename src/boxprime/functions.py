"""Divisor-style arithmetic functions on connected graphs.

Values come from the prime factorization under the cartesian product:
exponent patterns drive the counting functions, divisor enumeration drives
the degree sum, and coprimality (no shared prime factor) drives the
Euler-style count.  Populations are connected members or multiplicative
primes of a family instance, with exact rational statistics.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import CapacityError, DomainError
from .factor import composite_set, divisors, factorize
from .graphs import (DEFAULT_ENUM_CAP, Graph, canonical_key,
                     cartesian_product, enumerate_connected)
from .graph6 import encode_graph6
from .semiring import SemiringInstance, instance_all_graphs


def _exponents(g: Graph, cap: int) -> Counter:
    return Counter(canonical_key(f) for f in factorize(g, cap))


def divisor_count(g: Graph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of distinct divisors: product of (exponent + 1)."""
    out = 1
    for a in _exponents(g, cap).values():
        out *= a + 1
    return out


def unitary_divisor_count(g: Graph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of coprime splits g = D box D': 2 to the distinct-prime count."""
    return 1 << len(_exponents(g, cap))


def exponent_product(g: Graph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Product of the prime exponents; 1 on the unit."""
    out = 1
    for a in _exponents(g, cap).values():
        out *= a
    return out


def divisor_sum(g: Graph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Sum of the orders of all distinct divisors, unit and graph included."""
    return sum(d.n for d in divisors(g, cap))


def _prime_factor_keys(g: Graph, inst: SemiringInstance, cap: int) -> frozenset:
    """Canonical keys of the instance-prime factors of a connected member."""
    if g.n == 1:
        return frozenset()
    if inst.name == "graphs":
        return frozenset(canonical_key(f) for f in factorize(g, cap))
    if inst.name == "hamming":
        # products of completes factor into completes, all members
        return frozenset(canonical_key(f) for f in factorize(g, cap))
    if inst.is_instance_prime(g):
        return frozenset((canonical_key(g),))
    raise CapacityError(
        f"{inst.name}: no factorization table for composite members")


def _composite_keys(inst: SemiringInstance, n: int, cap: int):
    """Canonical keys of the instance-composite connected members of degree n."""
    if n < 2:
        return frozenset()
    if inst.name == "graphs":
        return composite_set(n, cap)
    return frozenset(canonical_key(h) for h in inst.connected_members(n)
                     if not inst.is_instance_prime(h))


def coprime_count(g: Graph, inst: SemiringInstance | None = None,
                  cap: int = DEFAULT_ENUM_CAP) -> int:
    """Connected members of the same degree sharing no prime factor with g.

    Counted without enumerating the population: primes of the degree are
    all coprime to g unless g is that prime, and the few composites are
    checked factor set against factor set.  For the all-graphs family this
    works beyond the enumeration cap, for every order n up to the instance
    horizon whose composite table can be built: each proper divisor of n
    at most the cap.
    """
    if inst is None:
        inst = instance_all_graphs()
    n = g.n
    if n == 1:
        return 1 if inst.S_plus(1) else 0
    factors = _prime_factor_keys(g, inst, cap)
    own_prime = sum(1 for k in factors if k[0] == n)
    count = inst.S_box(n) - own_prime
    for key in sorted(_composite_keys(inst, n, cap)):
        if _prime_factor_keys(Graph(*key), inst, cap).isdisjoint(factors):
            count += 1
    return count


REGISTRY = {
    "d": lambda g, inst, cap: divisor_count(g, cap),
    "dstar": lambda g, inst, cap: unitary_divisor_count(g, cap),
    "beta": lambda g, inst, cap: exponent_product(g, cap),
    "sigmastar": lambda g, inst, cap: divisor_sum(g, cap),
    "phistar": lambda g, inst, cap: coprime_count(g, inst, cap),
}


def evaluate(name: str, g: Graph, inst: SemiringInstance,
             cap: int = DEFAULT_ENUM_CAP) -> int:
    if name not in REGISTRY:
        raise DomainError(f"unknown function {name!r}; "
                          f"choose from {sorted(REGISTRY)}")
    return REGISTRY[name](g, inst, cap)


def _population(inst: SemiringInstance, n: int, population: str) -> list[Graph]:
    if population == "add":
        return list(inst.connected_members(n))
    if population == "mult":
        return [h for h in inst.connected_members(n)
                if inst.is_instance_prime(h)]
    raise DomainError(f"unknown population {population!r}; use 'add' or 'mult'")


def population_stats(name: str, inst: SemiringInstance, n: int,
                     population: str, cap: int = DEFAULT_ENUM_CAP) -> dict:
    """Exact sum, mean, variance, and maximum of a function over a prime
    population of degree n.  An empty population flags the moment columns
    as None instead of failing."""
    values = [evaluate(name, h, inst, cap)
              for h in _population(inst, n, population)]
    count = len(values)
    total = sum(values)
    row = {"n": n, "population": population, "count": count, "sum": total,
           "mean": None, "variance": None, "max": None}
    if count:
        mean = Fraction(total, count)
        row["mean"] = mean
        row["variance"] = Fraction(sum(v * v for v in values), count) - mean * mean
        row["max"] = max(values)
    return row


def submultiplicativity_check(name: str, n_max: int,
                              inst: SemiringInstance | None = None,
                              cap: int = DEFAULT_ENUM_CAP) -> list[dict]:
    """All violations of f(A box B) <= f(A) f(B) over connected member pairs
    with product degree at most n_max.  Empty means the law held."""
    if inst is None:
        inst = instance_all_graphs()
    violations = []
    values: dict[int, list] = {}
    for a in range(1, n_max + 1):
        for b in range(a, n_max + 1):
            if a * b > n_max:
                break
            lefts = inst.connected_members(a)
            if a not in values:
                values[a] = [evaluate(name, g, inst, cap) for g in lefts]
            if b not in values:
                values[b] = [evaluate(name, g, inst, cap)
                             for g in inst.connected_members(b)]
            for i, g1 in enumerate(lefts):
                if b == a:
                    rights = zip(lefts[i:], values[a][i:])
                else:
                    rights = zip(inst.connected_members(b), values[b])
                for g2, f2 in rights:
                    product = evaluate(name, cartesian_product(g1, g2), inst, cap)
                    split = values[a][i] * f2
                    if product > split:
                        violations.append({
                            "left": encode_graph6(g1),
                            "right": encode_graph6(g2),
                            "f_product": product,
                            "f_split": split,
                        })
    return violations


def function_gap_report(name: str, inst: SemiringInstance, orders,
                        cap: int = DEFAULT_ENUM_CAP) -> list[dict]:
    """Per-degree totals of a function over connected members versus primes.

    Columns: the two totals, their gap, the disconnected count
    S(n) - S_plus(n) it is compared against, the exact ratio (None when the
    comparison count is 0), and the two population means.
    """
    rows = []
    for n in orders:
        f_plus = 0
        f_box = 0
        for h in inst.connected_members(n):
            v = evaluate(name, h, inst, cap)
            f_plus += v
            if inst.is_instance_prime(h):
                f_box += v
        gap = f_plus - f_box
        against = inst.S(n) - inst.S_plus(n)
        s_plus = inst.S_plus(n)
        s_box = inst.S_box(n)
        rows.append({
            "n": n,
            "f_plus": f_plus,
            "f_box": f_box,
            "gap": gap,
            "disconnected": against,
            "ratio": Fraction(gap, against) if against else None,
            "mean_add": Fraction(f_plus, s_plus) if s_plus else None,
            "mean_mult": Fraction(f_box, s_box) if s_box else None,
        })
    return rows
