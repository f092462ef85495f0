"""Divisor-style arithmetic functions on connected graphs.

Values come from the prime factorization under the cartesian product.  Four
of the functions are multiplicative over distinct primes: each is the
product, over the distinct prime factors, of a local rule f(k, a) of the
prime's order k and its exponent a.  The fifth, the Euler-style count, goes
by coprimality (no shared prime factor).  Populations are connected members
or multiplicative primes of a family instance, with exact rational
statistics.  On a family with unique factorization the statistics of the
multiplicative functions are Dirichlet convolutions over the prime counts,
so no graph is built, and the coprimality count is one coefficient of an
Euler product over those counts.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb
from operator import add, mul

from .counting import CountSequence, multiply_factor, multiplicative_transform
from .errors import CapacityError, DomainError
from .factor import factorize
from .graphs import Graph, cartesian_product
from .graph6 import encode_graph6
from .semiring import SemiringInstance

# local rule f(k, a): the factor contributed by one distinct prime of order
# k that appears with exponent a; None marks the coprimality count, which
# is not a product of local factors
REGISTRY = {
    "d": lambda k, a: a + 1,
    "dstar": lambda k, a: 2,
    "beta": lambda k, a: a,
    "sigmastar": lambda k, a: (k ** (a + 1) - 1) // (k - 1),
    "phistar": None,
}


def _rule(name: str):
    if name not in REGISTRY:
        raise DomainError(f"unknown function {name!r}; "
                          f"choose from {sorted(REGISTRY)}")
    return REGISTRY[name]


def _multiplicative_value(rule, g: Graph) -> int:
    out = 1
    for prime, a in Counter(factorize(g)).items():
        out *= rule(prime.n, a)
    return out


def coprime_count(g: Graph, inst: SemiringInstance) -> int:
    """Connected members of the same degree sharing no prime factor with g.

    With unique factorization the coprime members are the prime multisets
    of product degree n that avoid g's primes: the coefficient of n^-s in
    prod_k (1 - k^-s)^-(S_box(k) - c_k), c_k the number of distinct primes
    of degree k dividing g.  That reaches the instance horizon.  Other
    families are counted only where every connected member is prime, so
    that g shares a factor with itself alone.
    """
    if not inst.is_member(g):
        raise DomainError(f"{inst.name}: graph is not a member")
    n = g.n
    if inst.unique_factorization:
        own = Counter(p.n for p in set(factorize(g)))
        primes = CountSequence.primes(
            [inst.S_box(k) - own[k] for k in range(1, n + 1)])
        return multiplicative_transform(primes, n).at(n)
    if n == 1:
        return 1 if inst.S_plus(1) else 0
    if not inst.is_instance_prime(g) or inst.S_plus(n) != inst.S_box(n):
        raise CapacityError(
            f"{inst.name}: no factorization table for composite members")
    return inst.S_box(n) - 1


def evaluate(name: str, g: Graph, inst: SemiringInstance) -> int:
    rule = _rule(name)
    if rule is None:
        return coprime_count(g, inst)
    return _multiplicative_value(rule, g)


def _population(inst: SemiringInstance, n: int, population: str) -> list[Graph]:
    if population == "add":
        return list(inst.connected_members(n))
    return [h for h in inst.connected_members(n) if inst.is_instance_prime(h)]


def _over_members(rule, inst: SemiringInstance, n: int, plus, weight):
    """Combine rule-products over the connected members of degree n.

    Unique factorization makes the members the multisets of primes whose
    orders multiply to n, so the Dirichlet series of the members is the
    product over prime orders k of (1 + sum_a f(k, a) k^-as)^p, p = S_box(k).
    Each factor is expanded as sum_j weight(p, j) h^j, h its a >= 1 part:
    weight comb and plus add give the sum of the rule-products, weight
    j <= p and plus max their maximum (j parts, one distinct prime each).
    0 when the degree has no member.
    """
    if n < 1:
        return 0
    series = [0] * (n + 1)
    series[1] = 1
    for k in range(2, n + 1):
        if n % k:
            continue
        p, top = inst.S_box(k), 1
        while n % k ** (top + 1) == 0:
            top += 1
        # coefficients in y = k^-s: h, its powers, and the local factor
        h = [0] + [rule(k, a) for a in range(1, top + 1)]
        power = [1] + [0] * top
        local = power[:]
        for j in range(1, top + 1):
            multiply_factor(power, 1, h, add, plus)
            local = [plus(c, weight(p, j) * d) for c, d in zip(local, power)]
        multiply_factor(series, k, local, mul, plus)
    return series[n]


def _moments_by_factorization(rule, inst: SemiringInstance, n: int,
                              population: str) -> tuple:
    """count, sum, sum of squares and maximum from the prime counts alone;
    the maximum is meaningless when the count is 0."""
    if population == "mult":
        # a prime of degree n is its own factorization, exponent 1
        count = inst.S_box(n)
        value = inst.S_plus(n) - 1 if rule is None else rule(n, 1)
        return count, count * value, count * value * value, value
    return (inst.S_plus(n),
            _over_members(rule, inst, n, add, comb),
            _over_members(lambda k, a: rule(k, a) ** 2, inst, n, add, comb),
            _over_members(rule, inst, n, max, lambda p, j: j <= p))


def population_stats(name: str, inst: SemiringInstance, n: int,
                     population: str) -> dict:
    """Exact sum, mean, variance, and maximum of a function over a prime
    population of degree n.  An empty population flags the moment columns
    as None instead of failing.

    On a family with unique factorization, multiplicative functions and
    the coprimality count over the primes are computed from the prime
    counts, to the instance horizon; the coprimality count over connected
    members and the other families enumerate the population.
    """
    rule = _rule(name)
    if population not in ("add", "mult"):
        raise DomainError(
            f"unknown population {population!r}; use 'add' or 'mult'")
    # refused before a path is chosen: a population without members, as in
    # a dry run, would otherwise never meet it
    if population == "mult" and n == 1:
        raise DomainError("the one-vertex unit is neither prime nor composite")
    # unique factorization gives every multiplicative function from the
    # prime counts, and a prime shares a factor only with itself
    if inst.unique_factorization and (rule is not None or population == "mult"):
        count, total, squares, top = _moments_by_factorization(
            rule, inst, n, population)
    else:
        values = [evaluate(name, h, inst)
                  for h in _population(inst, n, population)]
        count, total = len(values), sum(values)
        squares, top = sum(v * v for v in values), max(values, default=None)
    row = {"n": n, "population": population, "count": count, "sum": total,
           "mean": None, "variance": None, "max": None}
    if count:
        mean = Fraction(total, count)
        row["mean"] = mean
        row["variance"] = Fraction(squares, count) - mean * mean
        row["max"] = top
    return row


def submultiplicativity_check(name: str, n_max: int,
                              inst: SemiringInstance) -> list[dict]:
    """All violations of f(A box B) <= f(A) f(B) over connected member pairs
    with product degree at most n_max.  Empty means the law held.

    Every member is evaluated once, in ascending order of degree; K1 box B
    is B itself, rows and bits, so a product with the unit reads B's value.
    """
    table = [[]] + [[(g, evaluate(name, g, inst))
                     for g in inst.connected_members(k)]
                    for k in range(1, n_max + 1)]
    violations = []
    for a in range(1, n_max + 1):
        for b in range(a, n_max // a + 1):
            for i, (g1, f1) in enumerate(table[a]):
                for g2, f2 in table[b][i:] if b == a else table[b]:
                    product = f2 if a == 1 else evaluate(
                        name, cartesian_product(g1, g2), inst)
                    split = f1 * f2
                    if product > split:
                        violations.append({
                            "left": encode_graph6(g1),
                            "right": encode_graph6(g2),
                            "f_product": product,
                            "f_split": split,
                        })
    return violations
