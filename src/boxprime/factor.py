"""Prime factorization of connected graphs under the cartesian product.

Connected graphs factor uniquely into primes under the cartesian product,
with the one-vertex graph as the unit.  The factors are read off the
labelled graph by Feder's product relation: the equivalence classes of
(Theta_T u tau)* on the edges are the classes of the product relation, so
each class spans the layers of one prime factor (Feder, "Product graph
representations", J. Graph Theory 1992; Imrich and Klavzar, Product
Graphs, 2000).  Theta is the Djokovic-Winkler distance relation, and
Theta_T relates each edge of a spanning tree T to the edges in Theta with
it; here T is the breadth-first tree at vertex 0, so Theta is computed for
n - 1 edges instead of all of them.  tau joins two edges that meet at a
vertex but lie on no common chordless square.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .errors import CapacityError, DomainError
from .graphs import (Graph, _layers, canonical_form, canonical_key,
                     cartesian_product, empty_graph, induced_subgraph,
                     is_connected)

# largest order factorized; the 8-cube has 256 vertices
ORDER_LIMIT = 256


def _is_prime_number(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _bits_of(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _distance_layers(rows) -> list[list[int]]:
    """Breadth-first layers from every vertex: entry [u][k] masks the
    vertices at distance k from u."""
    return [_layers(rows, u) for u in range(len(rows))]


def _layer_masks(g: Graph) -> list[int]:
    """Vertex masks of the layers through vertex 0, one per prime factor,
    ordered by the smallest neighbour of vertex 0 that each contains.

    A single mask (all vertices) means g is prime.  g must be connected
    with at least two vertices and at most ORDER_LIMIT.
    """
    n = g.n
    full = (1 << n) - 1
    if _is_prime_number(n):
        # the order of a product is the product of the factor orders
        return [full]
    rows = g.rows
    edges = [(u, v) for u in range(n) for v in _bits_of(rows[u] >> u << u)]
    eid = {}
    for e, (u, v) in enumerate(edges):
        eid[u * n + v] = eid[v * n + u] = e
    parent = list(range(len(edges)))
    classes = len(edges)

    def find(e: int) -> int:
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def join(e: int, f: int) -> bool:
        nonlocal classes
        re, rf = find(e), find(f)
        if re != rf:
            parent[rf] = re
            classes -= 1
        return classes == 1

    # tau: edges xu, xv with u ~ v, or with no w ~ u, v outside N[x]
    for x in range(n):
        nx = rows[x]
        closed = nx | (1 << x)
        nbrs = list(_bits_of(nx))
        for i, u in enumerate(nbrs):
            ru = rows[u]
            for v in nbrs[i + 1:]:
                if (ru >> v) & 1 or not (ru & rows[v] & ~closed):
                    if join(eid[x * n + u], eid[x * n + v]):
                        return [full]

    # Theta from the edges of the breadth-first tree at vertex 0 only: each
    # vertex at distance k + 1 hangs on its smallest neighbour at distance k.
    # xy Theta uv iff d(u,x) - d(v,x) != d(u,y) - d(v,y); the three values
    # -1, 0, 1 split the vertices, and uv joins every crossing edge
    layers = _distance_layers(rows)
    for above, level in zip(layers[0], layers[0][1:]):
        for v in _bits_of(level):
            up = rows[v] & above
            u = (up & -up).bit_length() - 1
            lu, lv = layers[u], layers[v]
            near_u = near_v = 0
            for a, b in zip(lu, lv[1:]):
                near_u |= a & b
            for a, b in zip(lv, lu[1:]):
                near_v |= a & b
            middle = full ^ near_u ^ near_v
            root = find(eid[u * n + v])
            # crossing edges leave the vertices nearer u, or join the
            # equidistant vertices to those nearer v
            for side, across in ((near_u, ~near_u), (middle, near_v)):
                while side:
                    low = side & -side
                    side ^= low
                    x = low.bit_length() - 1
                    base = x * n
                    cross = rows[x] & across
                    while cross:
                        low = cross & -cross
                        cross ^= low
                        other = find(eid[base + low.bit_length() - 1])
                        if other != root:
                            parent[other] = root
                            classes -= 1
            if classes == 1:
                return [full]

    # every class has edges at vertex 0: its layer through vertex 0 is
    # reached along the class's edges, and the classes are ordered by the
    # smallest neighbour of vertex 0 in each
    class_rows = {}
    for w in _bits_of(rows[0]):
        class_rows.setdefault(find(eid[w]), [0] * n)
    for e, (u, v) in enumerate(edges):
        cr = class_rows[find(e)]
        cr[u] |= 1 << v
        cr[v] |= 1 << u
    return [sum(_layers(cr, 0)) for cr in class_rows.values()]


def check_order(n: int) -> None:
    """Refuse a factorization of order above ORDER_LIMIT."""
    if n > ORDER_LIMIT:
        raise CapacityError(
            f"factorization of order {n} exceeds the limit {ORDER_LIMIT}")


@lru_cache(maxsize=1 << 16)
def factor_layers(g: Graph) -> tuple[Graph, ...]:
    """The prime factors of a connected graph as its layers through vertex 0.

    Each layer is an induced subgraph relabelled in increasing vertex
    order, isomorphic to its factor but not canonical; the unit gives an
    empty tuple.  The layers are ordered by the smallest neighbour of
    vertex 0 that each contains.  Orders above ORDER_LIMIT are refused
    before any work.  Results are memoized per labelled graph.
    """
    check_order(g.n)
    if not is_connected(g):
        raise DomainError("factorization is defined for connected graphs only")
    if g.n == 1:
        return ()
    masks = _layer_masks(g)
    if len(masks) == 1:
        return (g,)
    return tuple(induced_subgraph(g, m) for m in masks)


def is_cartesian_prime(g: Graph) -> bool:
    """Whether a connected graph of order >= 2 is prime.

    The one-vertex graph is the unit of the product, neither prime nor
    composite, and is rejected.
    """
    if g.n == 1:
        raise DomainError("the one-vertex unit is neither prime nor composite")
    return len(factor_layers(g)) == 1


def factorize(g: Graph) -> tuple[Graph, ...]:
    """Prime factors of a connected graph, canonical and sorted, with repeats.

    The unit gives an empty tuple; a prime gives its canonical form.
    Canonical graphs order by their canonical keys.
    """
    return tuple(sorted(canonical_form(f) for f in factor_layers(g)))


def product_of(factors) -> Graph:
    """Canonical cartesian product of the given graphs; empty input is the unit."""
    acc = empty_graph(1)
    for g in factors:
        acc = cartesian_product(acc, g)
    return canonical_form(acc)


def divisors(g: Graph) -> tuple[Graph, ...]:
    """Distinct divisors of a connected graph, unit and graph included.

    A divisor is the product of any sub-multiset of the prime factors;
    results are canonical and sorted by order then packed edges.
    """
    primes = factorize(g)
    seen: dict[tuple[int, int], Graph] = {}
    subsets = [()]
    for p in primes:
        subsets = subsets + [s + (p,) for s in subsets]
    for sub in subsets:
        d = product_of(sub)
        seen.setdefault(canonical_key(d), d)
    return tuple(sorted(seen.values(), key=canonical_key))
