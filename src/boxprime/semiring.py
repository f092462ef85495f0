"""Graph families as semirings: count sequences, membership, and diagnostics.

A family instance bundles three exact count sequences (all members, connected
members, multiplicative primes) with membership and enumeration, behind
horizons that keep every value exactly computable.  Three instances are
provided: all graphs, graphs with an even number of edges, and the family
generated by complete graphs under disjoint union and cartesian product.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import comb

from .counting import (CountSequence, _as_integer, count_graphs_polya,
                       euler_transform, graph_connected_totals, graph_totals,
                       prime_counts_by_factorization)
from .errors import CapacityError, DomainError
from .factor import factor_layers, is_cartesian_prime
from .graphs import (DEFAULT_ENUM_CAP, Graph, canonical_form, canonical_key,
                     cartesian_product, complement, connected_components,
                     disjoint_union, empty_graph, enumerate_graphs,
                     induced_subgraph, is_connected)


@dataclass(frozen=True)
class SemiringElement:
    """Formal sum of connected graphs: the general element of the semiring.

    Components are canonical and sorted; the empty sum is the additive
    identity, and the one-vertex graph alone is the multiplicative identity.
    """

    components: tuple[Graph, ...]

    def __post_init__(self) -> None:
        comps = tuple(sorted((canonical_form(c) for c in self.components),
                             key=canonical_key))
        if any(c.n < 1 for c in comps):
            raise DomainError("components must be nonempty graphs")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_graph(cls, g: Graph) -> "SemiringElement":
        return cls(connected_components(g))

    def to_graph(self, cap: int = 64) -> Graph:
        acc = empty_graph(0)
        for c in self.components:
            acc = disjoint_union(acc, c, cap)
        return acc

    @property
    def degree(self) -> int:
        return sum(c.n for c in self.components)

    def __add__(self, other: "SemiringElement") -> "SemiringElement":
        return SemiringElement(self.components + other.components)

    def __mul__(self, other: "SemiringElement") -> "SemiringElement":
        # products distribute over the formal sum; each pairwise product of
        # connected graphs is connected
        parts = []
        for a in self.components:
            for b in other.components:
                parts.append(cartesian_product(a, b))
        return SemiringElement(tuple(parts))


ADDITIVE_IDENTITY = SemiringElement(())
MULTIPLICATIVE_IDENTITY = SemiringElement((empty_graph(1),))


class SemiringInstance:
    """One graph family with exact count sequences and membership.

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

    def __init__(self, name: str, add_horizon: int, enum_horizon: int,
                 totals_fn, connected_fn, box_fn, member_fn,
                 prime_fn, unique_factorization: bool = False) -> None:
        self.name = name
        self.unique_factorization = unique_factorization
        self.add_horizon = add_horizon
        self.enum_horizon = enum_horizon
        self._totals_fn = totals_fn
        self._connected_fn = connected_fn
        self._box_fn = box_fn
        self._member_fn = member_fn
        self._prime_fn = prime_fn
        self._lock = threading.Lock()
        self._members: dict[int, tuple[Graph, ...]] = {}
        self.p = self._least_prime_degree()

    def _least_prime_degree(self) -> int:
        for n in range(2, self.add_horizon + 1):
            if self._box_fn(n) > 0:
                return n
        raise DomainError(f"{self.name}: no prime degree within horizon")

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
        return 1 if k == 0 else self._totals_fn(k)

    def S_plus(self, x) -> int:
        """Connected members of degree x; 0 at non-integer x."""
        k = self._degree(x)
        if k is None or k == 0:
            return 0
        return self._connected_fn(k)

    def S_box(self, x) -> int:
        """Multiplicative primes of degree x; 0 at non-integer x."""
        k = self._degree(x)
        if k is None or k <= 1:
            return 0
        return self._box_fn(k)

    def is_member(self, g: Graph) -> bool:
        if g.n == 0:
            return True
        return self._member_fn(g)

    def members(self, n: int) -> tuple[Graph, ...]:
        """All members of degree n, canonical and sorted."""
        if n > self.enum_horizon:
            raise CapacityError(
                f"{self.name}: member enumeration at {n} beyond horizon "
                f"{self.enum_horizon}")
        with self._lock:
            got = self._members.get(n)
        if got is None:
            got = tuple(g for g in enumerate_graphs(n, self.enum_horizon)
                        if self.is_member(g))
            with self._lock:
                self._members.setdefault(n, got)
        return got

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
        return self._prime_fn(g)


def _hamming_connected_count(n: int) -> int:
    """Multisets of integers >= 2 with product n; 1 at n = 1 (the unit)."""

    def count(m: int, largest: int) -> int:
        if m == 1:
            return 1
        total = 0
        d = 2
        while d <= largest and d <= m:
            if m % d == 0:
                total += count(m // d, d)
            d += 1
        return total

    if n < 1:
        raise DomainError("degree must be positive")
    return count(n, n)


def is_complete(g: Graph) -> bool:
    return g.edge_count == comb(g.n, 2)


def _is_connected_hamming(g: Graph) -> bool:
    """Whether a connected graph is a product of complete graphs."""
    return all(is_complete(f) for f in factor_layers(g))


def _is_hamming_member(g: Graph) -> bool:
    return all(_is_connected_hamming(c) for c in connected_components(g))


def instance_all_graphs(horizon: int = 24,
                        enum_cap: int = DEFAULT_ENUM_CAP) -> SemiringInstance:
    """The semiring of all graphs under disjoint union and cartesian product.

    Counting is arithmetic: totals by cycle index, connected counts by the
    Euler inverse, and prime counts from the connected counts by unique
    factorization.  No graph is built to count anything.
    """
    if horizon > 24:
        raise CapacityError("all-graphs horizon is limited to 24")
    connected = graph_connected_totals(horizon)
    primes = prime_counts_by_factorization(connected, horizon)

    return SemiringInstance(
        name="graphs",
        add_horizon=horizon,
        enum_horizon=enum_cap,
        totals_fn=graph_totals(horizon).at,
        connected_fn=connected.at,
        box_fn=primes.at,
        member_fn=lambda g: True,
        prime_fn=is_cartesian_prime,
        unique_factorization=True,
    )


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


def instance_even_edge(horizon: int = 8,
                       enum_cap: int = DEFAULT_ENUM_CAP) -> SemiringInstance:
    """The subfamily of graphs with an even number of edges.

    All sequences are enumeration-backed, so the horizon is the enumeration
    cap.  Primality is relative to the family: a connected member is
    composite only if it is a product of two members, each on at least two
    vertices, which its cartesian prime factors decide.  The one-edge graph
    is not a member, so the least prime degree is 3 and no member composite
    exists below degree 9.
    """
    if horizon > enum_cap:
        raise CapacityError(
            f"even-edge sequences are enumeration-backed; horizon {horizon} "
            f"exceeds cap {enum_cap}")

    def members(n: int):
        return tuple(g for g in enumerate_graphs(n, enum_cap) if _even_member(g))

    def connected_fn(n: int) -> int:
        return sum(1 for g in members(n) if is_connected(g))

    def box_fn(n: int) -> int:
        return sum(1 for g in members(n)
                   if is_connected(g) and _is_even_prime(g))

    return SemiringInstance(
        name="even",
        add_horizon=horizon,
        enum_horizon=horizon,
        totals_fn=lambda n: len(members(n)),
        connected_fn=connected_fn,
        box_fn=box_fn,
        member_fn=_even_member,
        prime_fn=_is_even_prime,
    )


def instance_hamming(horizon: int = 64,
                     enum_cap: int = DEFAULT_ENUM_CAP) -> SemiringInstance:
    """The family generated by complete graphs.

    Counting is purely arithmetic: connected members of degree n correspond
    to multisets of integers >= 2 with product n, totals follow by the Euler
    transform, and the only prime of each degree >= 2 is the complete graph.
    No graph is materialized for counting; membership and enumeration go
    through factorization and are capped at the enumeration horizon.
    """
    if horizon > 64:
        raise CapacityError("hamming horizon is limited to 64")
    connected = CountSequence.primes(
        [_hamming_connected_count(n) for n in range(1, horizon + 1)])
    totals = euler_transform(connected, horizon)

    return SemiringInstance(
        name="hamming",
        add_horizon=horizon,
        enum_horizon=enum_cap,
        totals_fn=totals.at,
        connected_fn=connected.at,
        box_fn=lambda n: 1,
        member_fn=_is_hamming_member,
        prime_fn=is_complete,
        unique_factorization=True,
    )


INSTANCE_BUILDERS = {
    "graphs": instance_all_graphs,
    "even": instance_even_edge,
    "hamming": instance_hamming,
}


def build_instance(name: str, enum_cap: int = DEFAULT_ENUM_CAP) -> SemiringInstance:
    if name not in INSTANCE_BUILDERS:
        raise DomainError(f"unknown instance {name!r}; "
                          f"choose from {sorted(INSTANCE_BUILDERS)}")
    if name == "graphs":
        return instance_all_graphs(enum_cap=enum_cap)
    if name == "even":
        return instance_even_edge(horizon=min(8, enum_cap), enum_cap=enum_cap)
    return instance_hamming(enum_cap=enum_cap)


def closure_check(inst: SemiringInstance, n_max: int) -> dict:
    """Exhaustive closure of membership under union and product.

    Checks every member pair whose union degree (or product degree) is at
    most n_max; reports the first counterexample found, scanning degrees in
    ascending order.
    """
    for a in range(1, n_max):
        for b in range(a, n_max + 1):
            union_ok = a + b <= n_max
            product_ok = a * b <= n_max
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
    """Graphs of order n isomorphic to their complement, by enumeration."""
    return sum(1 for g in enumerate_graphs(n, cap)
               if canonical_key(complement(g)) == canonical_key(g))


def self_complementary_identity(n: int, cap: int = DEFAULT_ENUM_CAP) -> tuple:
    """Check 2 * (even-edge count) - (all count) against the enumerated
    self-complementary count at order n."""
    even = sum(1 for g in enumerate_graphs(n, cap) if _even_member(g))
    lhs = 2 * even - count_graphs_polya(n)
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


def hamming_polynomial(g: Graph, cap: int = DEFAULT_ENUM_CAP) -> dict[Graph, int]:
    """Census of connected induced subgraphs that are products of completes.

    Maps the canonical form of each such subgraph to the number of vertex
    subsets inducing it.  Single vertices count; the empty subset does not.
    """
    if g.n > cap:
        raise CapacityError(f"order {g.n} exceeds cap {cap}")
    counts: dict[Graph, int] = {}
    for mask in range(1, 1 << g.n):
        h = induced_subgraph(g, mask)
        if not is_connected(h):
            continue
        ch = canonical_form(h)
        if _is_connected_hamming(ch):
            counts[ch] = counts.get(ch, 0) + 1
    return counts


def hamming_degree(g: Graph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Total weight of the census: sum of multiplicity times subgraph order.

    Always at least the order of the graph itself, since every vertex
    contributes a one-vertex term.
    """
    return sum(mult * h.n for h, mult in hamming_polynomial(g, cap).items())
