"""Prime factorization of connected graphs under the cartesian product.

Connected graphs factor uniquely into primes under the cartesian product,
with the one-vertex graph as the unit.  Each prime factor is read off the
labelled graph as its layer through vertex 0.

The layers are first read off vertex 0's neighbourhood (the square
property; Imrich and Klavzar, Product Graphs, 2000; Imrich and Peterin,
"Recognizing Cartesian products in linear time", Discrete Math. 2007).
Two neighbours u, v of vertex 0 are joined when u ~ v, or when
N(u) & N(v) - {0} is empty, has two or more vertices, or is one neighbour
of 0.  A triangle lies in one factor, and two edges at a vertex from
different factors span exactly one square, which is chordless, so no join
crosses factors; one class means the graph is prime.  A class's layer holds
the vertices all of whose shortest paths from 0 begin in the class.  These
layers are proved by rebuilding the product from vertex 0 by square
completion and requiring a bijection onto the vertices that carries the
product's edges onto the graph's.  A proved decomposition splits the edges
at 0 exactly by the classes; the prime factorization splits them at least
as finely, and the classes no more finely than it, so each class is the
edges at 0 of one prime factor and each layer is that factor.

When the proof fails, the factors come from Feder's product relation: the
equivalence classes of (Theta_T u tau)* on the edges are the classes of the
product relation, so each class spans the layers of one prime factor
(Feder, "Product graph representations", J. Graph Theory 1992).  Theta is
the Djokovic-Winkler distance relation, and Theta_T relates each edge of a
spanning tree T to the edges in Theta with it; here T is the breadth-first
tree at vertex 0, so Theta is computed for n - 1 edges instead of all of
them.  tau joins two edges that meet at a vertex but lie on no common
chordless square.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import and_

from .errors import DomainError
from .graphs import (ORDER_LIMIT, Graph, _bits_of, _canonical_bits_for,
                     _graph_from_rows, _induced_rows, _layers,
                     check_canonical_order, check_order)


@lru_cache(maxsize=ORDER_LIMIT + 1)
def _is_prime_number(n: int) -> bool:
    # each factor line asks twice, once in cli and once in _layer_masks
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


def _merge(classes: list[int], joined: int) -> list[int]:
    """The disjoint bit-mask classes after joining joined and those that
    meet it into one."""
    kept = []
    for c in classes:
        if c & joined:
            joined |= c
        else:
            kept.append(c)
    kept.append(joined)
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
    masks = _certified_layer_masks(n, rows, first)
    if masks is None:
        return _closure_layer_masks(n, rows, first)
    return masks


def _certified_layer_masks(n: int, rows, first: list[int]) -> list[int] | None:
    """The layer masks read off vertex 0's neighbourhood, or None when the
    graph is not the product of the layers they give.

    first holds the breadth-first levels from vertex 0 of the connected
    graph with these rows.
    """
    # neighbours u, v of vertex 0 are joined when 0u and 0v span no
    # chordless square by themselves: u ~ v, or N(u) & N(v) - {0} is empty,
    # has two or more vertices, or is one neighbour of 0
    around = rows[0]
    classes = []
    for u in _bits_of(around):
        ru = rows[u]
        later = around >> u + 1 << u + 1
        linked = later & ru
        apart = later ^ linked
        ru &= ~1
        while apart:
            bit = apart & -apart
            apart ^= bit
            common = ru & rows[bit.bit_length() - 1]
            if not common or common & (common - 1) or common & around:
                linked |= bit
        classes = _merge(classes, linked | 1 << u)
    if len(classes) == 1:
        return [(1 << n) - 1]
    classes.sort(key=lambda c: c & -c)

    # a class's layer holds the vertices all of whose shortest paths from 0
    # begin inside the class: those whose every neighbour one level nearer
    # 0 is in it.  Each layer lists its vertices level by level with the
    # position of a neighbour one level nearer, and its edges as position
    # pairs
    depth = len(first)
    position = [0] * n
    layers = []
    size = 1
    edges = 0
    for c in classes:
        members = [0]
        up = [0]
        mask = 1
        level = c
        k = 1
        while True:
            above = first[k - 1]
            reach = 0
            for v in _bits_of(level):
                near = rows[v] & above
                position[v] = len(members)
                members.append(v)
                up.append(position[(near & -near).bit_length() - 1])
                reach |= rows[v]
            mask |= level
            k += 1
            if k == depth:
                break
            outside = first[k - 1] ^ level
            level = 0
            for x in _bits_of(reach & first[k]):
                if not rows[x] & outside:
                    level |= 1 << x
            if not level:
                break
        pairs = [(i, position[w]) for i, v in enumerate(members)
                 for w in _bits_of(rows[v] & mask >> v + 1 << v + 1)]
        layers.append((members, up, pairs, mask))
        size *= len(members)
        edges += len(pairs) * (n // len(members))
    if size != n or 2 * edges != sum(map(int.bit_count, rows)):
        return None

    # the product rebuilt from vertex 0 by square completion: phi[j * m + k]
    # pairs product vertex j of the layers so far with position k of the
    # next layer, and is the one common neighbour of phi(j's parent, k) and
    # phi(j, k's parent) other than phi(j's parent, k's parent)
    phi = [0]
    parent = [0]
    used = 1
    for members, up, _, mask in layers:
        m = len(members)
        used |= mask
        grown = list(members)
        grown_parent = list(up)
        for j in range(1, len(phi)):
            base = j * m
            back = parent[j] * m
            grown.append(phi[j])
            grown_parent.append(back)
            for k in range(1, m):
                a = up[k]
                w = (rows[grown[back + k]] & rows[grown[base + a]]
                     & ~(1 << grown[back + a]))
                if not w or w & (w - 1) or w & used:
                    return None
                used |= w
                grown.append(w.bit_length() - 1)
                grown_parent.append(base + a)
        phi = grown
        parent = grown_parent

    # phi takes n distinct values, so it is a bijection; with as many edges
    # on both sides, it is an isomorphism once every product edge is an
    # edge of the graph
    stride = n
    for members, _, pairs, _ in layers:
        m = len(members)
        stride //= m
        for a, b in pairs:
            shift = (b - a) * stride
            for start in range(a * stride, n, m * stride):
                for i in range(start, start + stride):
                    if not rows[phi[i]] >> phi[i + shift] & 1:
                        return None
    return [mask for _, _, _, mask in layers]


def _closure_layer_masks(n: int, rows, first: list[int]) -> list[int]:
    """The layer masks by Feder's closure (Theta_T u tau)*, for the
    connected graph with these rows whose breadth-first levels from vertex
    0 are first."""
    full = (1 << n) - 1
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


def _checked_rows(g: Graph) -> tuple[int, ...]:
    """g's neighbour rows, read only once its order is within ORDER_LIMIT."""
    check_order(g.n, "factorization")
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
