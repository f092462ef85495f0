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
from operator import and_

from .errors import CapacityError, DomainError
from .graphs import (Graph, _canonical_bits, _graph_from_rows, _induced_rows,
                     _layers, check_canonical_order, is_connected)

# largest order factorized; the 8-cube has 256 vertices
ORDER_LIMIT = 256


def _is_prime_number(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _bits_of(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _cut(vertices: int, incidence) -> int:
    """Edge mask of the edges with exactly one end among the vertices."""
    edges = 0
    while vertices:
        low = vertices & -vertices
        vertices ^= low
        edges ^= incidence[low.bit_length() - 1]
    return edges


def _merge(classes: list[int], edges: int) -> list[int]:
    """The disjoint edge classes after joining those that meet edges."""
    kept = []
    for c in classes:
        if c & edges:
            edges |= c
        else:
            kept.append(c)
    kept.append(edges)
    return kept


def _layer_masks(g: Graph) -> list[int]:
    """Vertex masks of the layers through vertex 0, one per prime factor,
    ordered by the smallest neighbour of vertex 0 that each contains.

    A single mask (all vertices) means g is prime, and none that g is the
    unit.  g must be connected with at most ORDER_LIMIT vertices.
    """
    n = g.n
    full = (1 << n) - 1
    if _is_prime_number(n):
        # the order of a product is the product of the factor orders
        return [full]
    rows = g.rows
    # edges numbered from their lower ends up, so vertex 0's come first
    incidence = [0] * n
    ends = []
    for u in range(n):
        for v in _bits_of(rows[u] >> u << u):
            incidence[u] |= 1 << len(ends)
            incidence[v] |= 1 << len(ends)
            ends.append(1 << u | 1 << v)

    # Theta from the edges of the breadth-first tree at vertex 0 only, each
    # vertex at distance k + 1 hung on its smallest neighbour at distance k.
    # xy Theta uv iff d(u,x) - d(v,x) != d(u,y) - d(v,y): uv joins the edges
    # with one end nearer u or one end nearer v.  An edge is in Theta with
    # some edge of every path between its ends, so the classes cover them all
    layers = [_layers(rows, u) for u in range(n)]
    classes = []
    for above, level in zip(layers[0], layers[0][1:]):
        for v in _bits_of(level):
            up = rows[v] & above
            u = (up & -up).bit_length() - 1
            lu, lv = layers[u], layers[v]
            near_u = sum(map(and_, lu, lv[1:]))
            near_v = sum(map(and_, lv, lu[1:]))
            classes = _merge(classes, _cut(near_u, incidence) | _cut(near_v, incidence))
            if classes[-1] == (1 << len(ends)) - 1:
                return [full]

    # tau: edges xu, xv with u ~ v, or with no w ~ u, v outside N[x]
    for x in range(n):
        closed = rows[x] | (1 << x)
        later = rows[x]
        while later:
            low = later & -later
            later ^= low
            ru = rows[low.bit_length() - 1]
            linked = later & ru
            apart = later ^ linked
            while apart:
                bit = apart & -apart
                apart ^= bit
                if not ru & rows[bit.bit_length() - 1] & ~closed:
                    linked |= bit
            if linked:
                classes = _merge(classes, incidence[x] & _cut(linked | low, incidence))
                if len(classes) == 1:
                    return [full]

    # every class has edges at vertex 0, and those edges are numbered first
    # in order of their other end; a class's layer through vertex 0 grows by
    # the ends of the class's edges that leave it
    masks = []
    for c in sorted(classes, key=lambda c: c & -c):
        layer = 1
        leaving = c & incidence[0]
        while leaving:
            for e in _bits_of(leaving):
                layer |= ends[e]
            leaving = c & _cut(layer, incidence)
        masks.append(layer)
    return masks


def check_order(n: int) -> None:
    """Refuse a factorization of order above ORDER_LIMIT."""
    if n > ORDER_LIMIT:
        raise CapacityError(
            f"factorization of order {n} exceeds the limit {ORDER_LIMIT}")


def _factor_rows(g: Graph) -> list[tuple[int, ...]]:
    """Neighbour rows of g's layers through vertex 0, one per prime factor,
    in _layer_masks order; the order limit is checked before any work."""
    check_order(g.n)
    if not is_connected(g):
        raise DomainError("factorization is defined for connected graphs only")
    masks = _layer_masks(g)
    if len(masks) == 1:
        return [g.rows]
    return [_induced_rows(g.rows, m) for m in masks]


@lru_cache(maxsize=1 << 16)
def factor_layers(g: Graph) -> tuple[Graph, ...]:
    """The prime factors of a connected graph as its layers through vertex 0.

    Each layer is an induced subgraph relabelled in increasing vertex
    order, isomorphic to its factor but not canonical; the unit gives an
    empty tuple.  The layers are ordered by the smallest neighbour of
    vertex 0 that each contains.  Orders above ORDER_LIMIT are refused
    before any work.  Results are memoized per labelled graph.
    """
    return tuple(_graph_from_rows(len(rows), rows) for rows in _factor_rows(g))


def is_cartesian_prime(g: Graph) -> bool:
    """Whether a connected graph of order >= 2 is prime.

    The one-vertex graph is the unit of the product, neither prime nor
    composite, and is rejected.
    """
    if g.n == 1:
        raise DomainError("the one-vertex unit is neither prime nor composite")
    return len(factor_layers(g)) == 1


def factor_keys(g: Graph) -> list[tuple[int, int]]:
    """Sorted (order, canonical bits) of the prime factors of a connected
    graph, with repeats; every order is checked against the canonical cap first."""
    layers = _factor_rows(g)
    for rows in layers:
        check_canonical_order(len(rows))
    return sorted((len(rows), _canonical_bits(len(rows), rows))
                  for rows in layers)


@lru_cache(maxsize=1 << 16)
def factorize(g: Graph) -> tuple[Graph, ...]:
    """Prime factors of a connected graph, canonical and sorted, with repeats.

    The unit gives an empty tuple; a prime gives its canonical form.
    Canonical graphs order by their canonical keys.  Results are memoized
    per labelled graph.
    """
    return tuple(Graph(n, bits) for n, bits in factor_keys(g))

