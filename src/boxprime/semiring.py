"""Graph families as semirings: count sequences, membership, and diagnostics.

A family instance is data, in the manner of an arithmetical semigroup: its
census by degree (members, connected members, primes), its least prime
degree, membership and instance-prime rules, and the horizons up to which
every value is exactly computable.  Three instances are provided.  All
graphs and the family generated by complete graphs are free, and one
builder counts both from their connected counts; graphs with an even
number of edges are not free and are counted by enumeration.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import comb

from .counting import (POLYA_CAP, CountSequence, _as_integer,
                       euler_transform, graph_connected_totals, graph_totals,
                       multiplicative_transform,
                       prime_counts_by_factorization)
from .errors import CapacityError, DomainError
from .factor import factor_layers, is_cartesian_prime
from .graphs import (DEFAULT_ENUM_CAP, Graph, _component_masks, canonical_key,
                     cartesian_product, complement, disjoint_union,
                     enumerate_graphs, induced_subgraph, is_connected)

EVEN_HORIZON = 8
HAMMING_HORIZON = 64


class SemiringInstance(namedtuple(
        "SemiringInstance",
        "name add_horizon enum_horizon p census member_rule prime_rule "
        "unique_factorization",
        defaults=(False,))):
    """One graph family with exact count sequences and membership.

    The fields are name, add_horizon and enum_horizon; p, the least degree
    with a prime; census, mapping a degree k >= 1 within the horizon to the
    members, connected members and primes (read for k >= 2) of degree k;
    member_rule and prime_rule, deciding membership of a nonempty graph and
    primality of a connected member of order >= 2; and
    unique_factorization, False by default.

    Sequence accessors follow a shared convention: non-integer degrees give
    0 (so vacuous terms in inequality sums vanish), negative degrees are
    domain errors, degrees beyond the configured horizon are capacity
    errors.  Degree 0 is the empty graph: one member, zero connected
    members, zero primes.

    unique_factorization states that every connected member is a unique
    multiset of instance primes, and that these are the cartesian primes
    `factorize` returns; statistics over connected members may then be
    computed from the prime counts alone.
    """

    __slots__ = ()

    def _degree(self, x):
        k = _as_integer(x)
        if k is None:
            return None
        if k < 0:
            raise DomainError("degree must be nonnegative")
        if k > self.add_horizon:
            raise CapacityError(
                f"{self.name}: degree {k} beyond horizon {self.add_horizon}")
        return k

    def S(self, x) -> int:
        """Members of degree x; 0 at non-integer x."""
        k = self._degree(x)
        if k is None:
            return 0
        return 1 if k == 0 else self.census(k)[0]

    def S_plus(self, x) -> int:
        """Connected members of degree x; 0 at non-integer x."""
        k = self._degree(x)
        if k is None or k == 0:
            return 0
        return self.census(k)[1]

    def S_box(self, x) -> int:
        """Multiplicative primes of degree x; 0 at non-integer x."""
        k = self._degree(x)
        if k is None or k <= 1:
            return 0
        return self.census(k)[2]

    def is_member(self, g: Graph) -> bool:
        if g.n == 0:
            return True
        return self.member_rule(g)

    def check_members(self, n: int) -> None:
        """Refuse member enumeration at degree n beyond the horizon."""
        if n > self.enum_horizon:
            raise CapacityError(
                f"{self.name}: member enumeration at {n} beyond horizon "
                f"{self.enum_horizon}")

    def members(self, n: int) -> tuple[Graph, ...]:
        """All members of degree n, canonical and sorted."""
        self.check_members(n)
        return self._members(n)

    @cache
    def _members(self, n: int) -> tuple[Graph, ...]:
        return tuple(g for g in enumerate_graphs(n, self.enum_horizon)
                     if self.is_member(g))

    def connected_members(self, n: int) -> tuple[Graph, ...]:
        if n < 1:
            return ()
        return tuple(g for g in self.members(n) if is_connected(g))

    def is_instance_prime(self, g: Graph) -> bool:
        """Primality of a connected member relative to this family.

        Rejects non-members, disconnected graphs, and the degree-1 unit.
        """
        if not self.is_member(g):
            raise DomainError(f"{self.name}: graph is not a member")
        if not is_connected(g):
            raise DomainError("primality is defined for connected members only")
        if g.n < 2:
            raise DomainError("the one-vertex unit is neither prime nor composite")
        return self.prime_rule(g)


class DryRun(SemiringInstance):
    """An instance with every count 1 and no members, that counts and
    enumerates nothing: it keeps the family's horizons and p, so a report
    run on DryRun(inst) meets every refusal of a degree the run on inst
    would meet, and meets it first."""

    __slots__ = ()

    def __new__(cls, inst: SemiringInstance):
        return cls._make(inst._replace(census=lambda n: (1, 1, 1)))

    def members(self, n: int) -> tuple[Graph, ...]:
        self.check_members(n)
        return ()


def is_complete(g: Graph) -> bool:
    return g.edge_count == comb(g.n, 2)


def _is_hamming_member(g: Graph) -> bool:
    """Whether every component is a product of complete graphs."""
    return all(is_complete(f) for m in _component_masks(g)
               for f in factor_layers(induced_subgraph(g, m)))


@cache
def _free_census(connected, top: int) -> tuple[CountSequence, ...]:
    """Totals, connected counts and primes of a free family to top: the
    Euler transform of the connected counts, the counts, and their inverse
    under the box product."""
    con = connected(top)
    return (euler_transform(con, top), con,
            prime_counts_by_factorization(con, top))


def _free_family(name, horizon, enum_cap, member_rule, prime_rule,
                 connected) -> SemiringInstance:
    """A family with unique factorization and p = 2, counted from its
    connected counts in windows of 8: a degree's census is built to the
    least multiple of 8 covering it, when first asked for."""
    def census(n):
        top = max(8, -(-n // 8) * 8)
        return tuple(s.at(n) for s in _free_census(connected, top))
    return SemiringInstance(
        name=name, add_horizon=horizon, enum_horizon=enum_cap, p=2,
        census=census, member_rule=member_rule, prime_rule=prime_rule,
        unique_factorization=True)


def instance_all_graphs(enum_cap: int = DEFAULT_ENUM_CAP) -> SemiringInstance:
    """The semiring of all graphs under disjoint union and cartesian product.

    Counting is arithmetic: connected counts by the Euler inverse of the
    cycle-index totals (whose exact Euler transform gives the totals back),
    and prime counts by unique factorization.  No graph is built to count
    anything, and each count window is built when a degree in it is first
    asked for.
    """
    return _free_family("graphs", POLYA_CAP, enum_cap, lambda g: True,
                        is_cartesian_prime, graph_connected_totals)


def _even_member(g: Graph) -> bool:
    return g.edge_count % 2 == 0


def _is_even_prime(g: Graph) -> bool:
    """Whether a connected even-edge graph is no product of two members.

    |E(G box H)| = |V(G)||E(H)| + |V(H)||E(G)|, so by unique factorization
    g is a product of two members exactly when its prime factors split into
    two nonempty parts whose products both have an even number of edges.
    Both parts are connected members of order at least 3, since the one-edge
    graph is no member, so g is prime without factoring unless its order has
    a divisor a with 3 <= a <= n/3.
    """
    if all(g.n % a for a in range(3, g.n // 3 + 1)):
        return True
    primes = [(f.n, f.edge_count) for f in factor_layers(g)]
    first, rest = primes[0], primes[1:]
    # every split into two nonempty parts, the first prime on the left
    for mask in range((1 << len(rest)) - 1):
        left = [first] + [p for i, p in enumerate(rest) if mask >> i & 1]
        right = [p for i, p in enumerate(rest) if not mask >> i & 1]
        if _product_edges(left) % 2 == 0 and _product_edges(right) % 2 == 0:
            return False
    return True


def _product_edges(primes) -> int:
    """Edge count of the product of graphs given as (order, edges) pairs."""
    n, e = 1, 0
    for k, m in primes:
        n, e = n * k, n * m + k * e
    return e


@cache
def _even_census(n: int) -> tuple[int, int, int]:
    """Members, connected members and instance primes of order n, counted
    in one walk over the graphs of that order."""
    members = connected = primes = 0
    for g in enumerate_graphs(n, EVEN_HORIZON):
        if _even_member(g):
            members += 1
            if is_connected(g):
                connected += 1
                primes += _is_even_prime(g)
    return members, connected, primes


def instance_even_edge(enum_cap: int = DEFAULT_ENUM_CAP) -> SemiringInstance:
    """The subfamily of graphs with an even number of edges.

    All sequences are enumeration-backed, so the horizon is the enumeration
    cap, and at most 8; each order is walked only when first asked for.
    Primality is relative to the family: a connected member is composite
    only if it is a product of two members, each on at least two vertices,
    which its cartesian prime factors decide.  The one-edge graph is not a
    member, so the least prime degree is 3 and no member composite exists
    below degree 9.
    """
    horizon = min(EVEN_HORIZON, enum_cap)
    return SemiringInstance(
        name="even",
        add_horizon=horizon,
        enum_horizon=horizon,
        p=3,
        census=_even_census,
        member_rule=_even_member,
        prime_rule=_is_even_prime,
    )


def _hamming_connected(top: int) -> CountSequence:
    """Connected hamming counts 1..top, from one prime per order >= 2."""
    return multiplicative_transform(
        CountSequence.primes([0] + [1] * (top - 1)), top)


def instance_hamming(enum_cap: int = DEFAULT_ENUM_CAP) -> SemiringInstance:
    """The family generated by complete graphs.

    Counting is purely arithmetic, in the same windows as all graphs: the
    only prime of each degree >= 2 is the complete graph, so connected
    members of degree n are the multisets of integers >= 2 with product n
    (the multiplicative transform of one prime per order); the totals
    follow by the Euler transform, and the primes by unique factorization.
    No graph is materialized for counting; membership and enumeration go
    through factorization and are capped at the enumeration horizon.
    """
    return _free_family("hamming", HAMMING_HORIZON, enum_cap,
                        _is_hamming_member, is_complete, _hamming_connected)


INSTANCE_BUILDERS = {
    "graphs": instance_all_graphs,
    "even": instance_even_edge,
    "hamming": instance_hamming,
}


def build_instance(name: str, enum_cap: int = DEFAULT_ENUM_CAP) -> SemiringInstance:
    if name not in INSTANCE_BUILDERS:
        raise DomainError(f"unknown instance {name!r}; "
                          f"choose from {sorted(INSTANCE_BUILDERS)}")
    return INSTANCE_BUILDERS[name](enum_cap=enum_cap)


def closure_check(inst: SemiringInstance, n_max: int) -> dict:
    """Exhaustive closure of membership under union and product.

    Checks every member pair whose union degree (or product degree) is at
    most n_max; reports the first counterexample found, scanning degrees in
    ascending order.  Products with the one-vertex unit are skipped: K1 box
    G is G itself, so they cannot leave a family.  Unions with K1 reach
    every degree below n_max, so the first one beyond the enumeration
    horizon is refused before any member is enumerated.
    """
    for n in range(1, n_max):
        inst.check_members(n)
    for a in range(1, n_max):
        for b in range(a, n_max + 1):
            union_ok = a + b <= n_max
            product_ok = a >= 2 and a * b <= n_max
            if not union_ok and not product_ok:
                continue
            for g1 in inst.members(a):
                for g2 in inst.members(b):
                    if union_ok and not inst.is_member(disjoint_union(g1, g2)):
                        return {"instance": inst.name, "n_max": n_max,
                                "closed": False, "operation": "union",
                                "left": g1, "right": g2}
                    if product_ok and not inst.is_member(cartesian_product(g1, g2)):
                        return {"instance": inst.name, "n_max": n_max,
                                "closed": False, "operation": "product",
                                "left": g1, "right": g2}
    return {"instance": inst.name, "n_max": n_max, "closed": True,
            "operation": None, "left": None, "right": None}


def self_complementary_count(n: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Graphs of order n isomorphic to their complement, by enumeration;
    the enumerated graphs are canonical, so only complements are searched,
    and only those with half of the C(n, 2) possible edges."""
    return sum(1 for g in enumerate_graphs(n, cap)
               if 2 * g.edge_count == comb(n, 2)
               and canonical_key(complement(g)) == (g.n, g.bits))


def self_complementary_identity(n: int, cap: int = DEFAULT_ENUM_CAP) -> tuple:
    """Check 2 * (even-edge count) - (all count) against the enumerated
    self-complementary count at order n."""
    even = sum(1 for g in enumerate_graphs(n, cap) if _even_member(g))
    lhs = 2 * even - graph_totals(n).at(n)
    rhs = self_complementary_count(n, cap)
    return lhs, rhs, lhs == rhs


def monotonicity_report(inst: SemiringInstance, n_max: int) -> list[dict]:
    """All degrees n < n_max where the connected count strictly drops."""
    rows = []
    for n in range(1, n_max):
        here, there = inst.S_plus(n), inst.S_plus(n + 1)
        if here > there:
            rows.append({"n": n, "S_plus": here, "S_plus_next": there})
    return rows
