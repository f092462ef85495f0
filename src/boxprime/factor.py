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
from .graphs import (ORDER_LIMIT, Graph, _bits_of, _canonical_bits_for,
                     _graph_from_rows, _induced_rows, _layers,
                     check_canonical_order)


def _is_prime_number(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _cut(vertices: int, incidence, full: int) -> int:
    """Edge mask of the edges with exactly one end among the vertices,
    read from the smaller of the vertex set and its complement."""
    if 2 * vertices.bit_count() > full.bit_length():
        vertices ^= full
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


def _layer_masks(n: int, rows) -> list[int]:
    """Vertex masks of the layers through vertex 0, one per prime factor,
    ordered by the smallest neighbour of vertex 0 that each contains.

    A single mask (all vertices) means the graph with these neighbour rows
    is prime, and none that it is the unit.  Orders above ORDER_LIMIT must
    be refused first; the empty and disconnected graphs are refused here.
    """
    if n == 0:
        raise DomainError("connectivity is undefined for the empty graph")
    full = (1 << n) - 1
    first = _layers(rows, 0)
    if sum(first) != full:
        raise DomainError("factorization is defined for connected graphs only")
    if _is_prime_number(n):
        # the order of a product is the product of the factor orders
        return [full]
    # edges numbered from their lower ends up, so vertex 0's come first
    incidence = [0] * n
    ends = []
    for u in range(n):
        for v in _bits_of(rows[u] >> u << u):
            incidence[u] |= 1 << len(ends)
            incidence[v] |= 1 << len(ends)
            ends.append(1 << u | 1 << v)
    every_edge = (1 << len(ends)) - 1

    # Theta from the edges of the breadth-first tree at vertex 0 only, each
    # vertex at distance k + 1 hung on its smallest neighbour at distance k.
    # xy Theta uv iff d(u,x) - d(v,x) != d(u,y) - d(v,y): uv joins the edges
    # with one end nearer u or one end nearer v.  An edge is in Theta with
    # some edge of every path between its ends, so the classes cover them
    # all.  A vertex's walk runs when the tree reaches it, after its
    # parent's, so a prime graph shown early skips the remaining walks
    layers = [first] + [None] * (n - 1)
    classes = []
    for above, level in zip(first, first[1:]):
        for v in _bits_of(level):
            up = rows[v] & above
            lu = layers[(up & -up).bit_length() - 1]
            lv = layers[v] = _layers(rows, v)
            near_u = sum(map(and_, lu, lv[1:]))
            near_v = sum(map(and_, lv, lu[1:]))
            edges = _cut(near_u, incidence, full)
            if near_u | near_v != full:
                # some vertex is as near u as v: its edges cut either side
                edges |= _cut(near_v, incidence, full)
            classes = _merge(classes, edges)
            if classes[-1] == every_edge:
                return [full]

    # tau: edges xu, xv with u ~ v, or with no w ~ u, v outside N[x]
    for x in range(n):
        later = rows[x]
        outside = full ^ later ^ (1 << x)
        while later:
            low = later & -later
            later ^= low
            ru = rows[low.bit_length() - 1]
            linked = later & ru
            apart = later ^ linked
            ru &= outside
            while apart:
                bit = apart & -apart
                apart ^= bit
                if not ru & rows[bit.bit_length() - 1]:
                    linked |= bit
            if linked:
                classes = _merge(classes,
                                 incidence[x] & _cut(linked | low, incidence, full))
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
            leaving = c & _cut(layer, incidence, full)
        masks.append(layer)
    return masks


def check_order(n: int) -> None:
    """Refuse a factorization of order above ORDER_LIMIT."""
    if n > ORDER_LIMIT:
        raise CapacityError(
            f"factorization of order {n} exceeds the limit {ORDER_LIMIT}")


def _checked_rows(g: Graph) -> tuple[int, ...]:
    """g's neighbour rows, read only once its order is within ORDER_LIMIT."""
    check_order(g.n)
    return g.rows


def _factor_rows(rows) -> list[tuple[int, ...]]:
    """Neighbour rows of the layers through vertex 0, one per prime factor,
    in _layer_masks order."""
    masks = _layer_masks(len(rows), rows)
    if len(masks) == 1:
        return [rows]
    return [_induced_rows(rows, _bits_of(m)) for m in masks]


@lru_cache(maxsize=1 << 16)
def factor_layers(g: Graph) -> tuple[Graph, ...]:
    """The prime factors of a connected graph as its layers through vertex 0.

    Each layer is an induced subgraph relabelled in increasing vertex
    order, isomorphic to its factor but not canonical; the unit gives an
    empty tuple.  The layers are ordered by the smallest neighbour of
    vertex 0 that each contains.  Orders above ORDER_LIMIT are refused
    before any work.  Results are memoized per labelled graph.
    """
    return tuple(_graph_from_rows(len(rows), rows)
                 for rows in _factor_rows(_checked_rows(g)))


def is_cartesian_prime(g: Graph) -> bool:
    """Whether a connected graph of order >= 2 is prime.

    The one-vertex graph is the unit of the product, neither prime nor
    composite, and is rejected.
    """
    if g.n == 1:
        raise DomainError("the one-vertex unit is neither prime nor composite")
    return len(factor_layers(g)) == 1


def factor_keys(rows) -> list[tuple[int, int]]:
    """Sorted (order, canonical bits) of the prime factors of the connected
    graph with these neighbour rows, with repeats; its order must be within
    ORDER_LIMIT, and every factor order is checked against the canonical cap
    first."""
    layers = _factor_rows(rows)
    for layer in layers:
        check_canonical_order(len(layer))
    return sorted((len(layer), _canonical_bits_for(layer)) for layer in layers)


@lru_cache(maxsize=1 << 16)
def factorize(g: Graph) -> tuple[Graph, ...]:
    """Prime factors of a connected graph, canonical and sorted, with repeats.

    The unit gives an empty tuple; a prime gives its canonical form.
    Canonical graphs order by their canonical keys.  Orders above
    ORDER_LIMIT are refused before any work.  Results are memoized per
    labelled graph.
    """
    return tuple(Graph(n, bits) for n, bits in factor_keys(_checked_rows(g)))
