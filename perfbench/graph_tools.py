"""Small graph helpers for the benchmark, independent of boxprime.

The benchmark builds its inputs and checks the program's answers with this
code, so none of it may import the package under test.  A graph here is an
order ``n`` and a tuple of neighbour bitmasks, one per vertex.
"""

from __future__ import annotations

from collections import Counter


def encode_graph6(n: int, rows) -> str:
    """graph6 text of a graph with fewer than 63 vertices."""
    if not 0 <= n <= 62:
        raise ValueError(f"order {n} outside the short graph6 form")
    bits = [(rows[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    bits.extend([0] * (-len(bits) % 6))
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return chr(63 + n) + body


def parse_graph6(text: str) -> tuple[int, tuple[int, ...]]:
    """Order and neighbour masks of a short-form graph6 string."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"bad graph6 header in {text!r}")
    pairs = n * (n - 1) // 2
    body = text[1:]
    if len(body) != -(-pairs // 6):
        raise ValueError(f"bad graph6 length in {text!r}")
    bits = []
    for ch in body:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise ValueError(f"bad graph6 byte in {text!r}")
        bits.extend((v >> s) & 1 for s in range(5, -1, -1))
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return n, tuple(rows)


def edges(n: int, rows) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if (rows[i] >> j) & 1]


def from_edges(n: int, pairs) -> tuple[int, ...]:
    rows = [0] * n
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def box_product(g, h) -> tuple[int, tuple[int, ...]]:
    """Cartesian product; vertex (u, v) is u * |h| + v."""
    (n1, r1), (n2, r2) = g, h
    pairs = [(u * n2 + a, u * n2 + b) for u in range(n1) for a, b in edges(n2, r2)]
    pairs += [(a * n2 + v, b * n2 + v) for a, b in edges(n1, r1) for v in range(n2)]
    return n1 * n2, from_edges(n1 * n2, pairs)


def relabel(n: int, rows, perm) -> tuple[int, ...]:
    """Move vertex v to perm[v]."""
    return from_edges(n, ((perm[i], perm[j]) for i, j in edges(n, rows)))


def is_connected(n: int, rows) -> bool:
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rows[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << n) - 1


def invariant(n: int, rows) -> tuple:
    """Isomorphism invariant: order and the multiset of colours after three
    rounds of colour refinement started from the degrees."""
    colours = [m.bit_count() for m in rows]
    for _ in range(3):
        signature = [(colours[v], tuple(sorted(colours[w] for w in range(n)
                                                if (rows[v] >> w) & 1)))
                     for v in range(n)]
        names = {s: k for k, s in enumerate(sorted(set(signature)))}
        colours = [names[s] for s in signature]
    return n, tuple(sorted(Counter(signature).items()))
