"""Seeded input for the factor-stream workload.

Each line is a randomly relabelled connected graph in graph6.  Lines are
either products of 2-3 connected factors of prime order 2, 3, 5 or 7 (product
order at most 15) or random connected graphs of prime order 5..23; about half
of the lines are fresh relabellings of an earlier line's graph, so inputs
share work the way repeated queries do.  A connected graph of prime order is
prime, so every line's factor orders are known from how it was built.

Product factors are drawn from ``data/connected.g6``, the canonical connected
graphs of orders 2, 3, 5 and 7 as the program printed them at the commit that
defined this benchmark, in its sort order.  So for a product line the exact
expected output line is known too.

Run ``python3 perfbench/factor_stream.py SEED OUT_PREFIX`` to write
``OUT_PREFIX.g6`` (the input) and ``OUT_PREFIX.expected.jsonl`` (one object
per line: ``orders``, the prime-order factor multiset, and ``line``, the exact
expected output or null).
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

from graph_tools import box_product, encode_graph6, from_edges, parse_graph6, relabel

LINES = 5000
REPEAT_SHARE = 0.5
PRODUCT_SHARE = 0.7
PRODUCT_ORDERS = [(2, 2), (2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (2, 2, 2), (2, 2, 3)]
PRIME_ORDERS = [5, 7, 11, 13, 17, 19, 23]
TABLE = Path(__file__).resolve().parent / "data" / "connected.g6"


def load_factor_table() -> dict[int, list[str]]:
    """Canonical graph6 strings by order, in the program's sort order."""
    table: dict[int, list[str]] = {}
    for text in TABLE.read_text(encoding="ascii").split():
        table.setdefault(ord(text[0]) - 63, []).append(text)
    return table


def _random_connected(rng: random.Random, n: int) -> tuple[int, ...]:
    density = rng.uniform(0.15, 0.6)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}  # random spanning tree
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < density}
    return from_edges(n, pairs)


def _product_case(rng: random.Random, table) -> tuple:
    orders = rng.choice(PRODUCT_ORDERS)
    picks = [(k, rng.randrange(len(table[k]))) for k in orders]
    graph = (1, (0,))
    for k, i in picks:
        graph = box_product(graph, parse_graph6(table[k][i]))
    counts = Counter(sorted(picks))
    answer = ", ".join(f"{table[k][i]} x {c}" for (k, i), c in counts.items())
    return graph, sorted(orders), answer


def generate(seed: int):
    """(graph6 line, expected record) pairs for one seed."""
    rng = random.Random(seed)
    table = load_factor_table()
    bases = []
    out = []
    for _ in range(LINES):
        if bases and rng.random() < REPEAT_SHARE:
            base = rng.choice(bases)
        else:
            if rng.random() < PRODUCT_SHARE:
                base = _product_case(rng, table)
            else:
                n = rng.choice(PRIME_ORDERS)
                base = ((n, _random_connected(rng, n)), [n], None)
            bases.append(base)
        (n, rows), orders, answer = base
        perm = list(range(n))
        rng.shuffle(perm)
        text = encode_graph6(n, relabel(n, rows, perm))
        line = None if answer is None else f"{text}: {answer}"
        out.append((text, {"orders": orders, "line": line}))
    return out


def write(seed: int, prefix: str) -> None:
    cases = generate(seed)
    Path(prefix + ".g6").write_text(
        "".join(text + "\n" for text, _ in cases), encoding="ascii")
    Path(prefix + ".expected.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for _, record in cases),
        encoding="ascii")


if __name__ == "__main__":
    write(int(sys.argv[1]), sys.argv[2])
