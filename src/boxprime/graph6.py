"""Encoder and parser for the graph6 text format.

graph6 packs the upper triangle of the adjacency matrix column by column
(column j lists rows 0..j-1) into 6-bit groups, each printed as one ASCII
character offset by 63.  A header encodes the order: one character for
n <= 62, or '~' followed by three characters for n up to 258047.
"""

from __future__ import annotations

from .errors import CapacityError, ParseError
from .graphs import Graph, _column_major_ranks, _graph_from_rows, _pair_count

GRAPH6_MAX_ORDER = 258047
_PREFIX = ">>graph6<<"
# each body character to its six bits; any other character stays one long
_SIXBITS = str.maketrans({chr(v + 63): format(v, "06b") for v in range(64)})
_SIXCHARS = {format(v, "06b"): chr(v + 63) for v in range(64)}


def encode_graph6(g: Graph) -> str:
    """graph6 string for a graph; orders above 258047 are rejected."""
    n = g.n
    if n > GRAPH6_MAX_ORDER:
        raise CapacityError(f"graph6 supports orders up to {GRAPH6_MAX_ORDER}, got {n}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    m = _pair_count(n)
    # the packed vector's bit string holds the pair of rank r at index r
    text = format(g.bits, f"0{m}b")
    bits = "".join(map(text.__getitem__, _column_major_ranks(n)))
    bits += "0" * (-m % 6)
    return head + "".join(_SIXCHARS[bits[k:k + 6]] for k in range(0, m, 6))


def _read_order(text: str) -> tuple[int, int]:
    """Order and the index where the bit body starts."""
    if not text:
        raise ParseError("empty graph6 string")
    c = ord(text[0])
    if text[0] != "~":
        if not 63 <= c <= 126:
            raise ParseError(f"invalid graph6 header byte {c}")
        return c - 63, 1
    if len(text) < 4:
        raise ParseError("truncated graph6 long-form header")
    if text[1] == "~":
        raise ParseError("graph6 very-long form (n > 258047) is not supported")
    n = 0
    for ch in text[1:4]:
        v = ord(ch)
        if not 63 <= v <= 126:
            raise ParseError(f"invalid graph6 header byte {v}")
        n = (n << 6) | (v - 63)
    if n <= 62:
        raise ParseError("graph6 long-form header used for an order below 63")
    return n, 4


def _strip(text: str) -> str:
    if text.startswith(_PREFIX):
        text = text[len(_PREFIX):]
    return text.strip()


def split_graph6(text: str) -> tuple[int, str]:
    """Order of a graph6 string, read from its header alone, and its body;
    the standard '>>graph6<<' prefix is allowed."""
    text = _strip(text)
    n, start = _read_order(text)
    return n, text[start:]


def _decode_rows(body: str, n: int) -> tuple[int, ...]:
    """Neighbour rows of the order-n graph with this graph6 body."""
    m = _pair_count(n)
    groups = -(-m // 6)
    if len(body) != groups:
        raise ParseError(
            f"graph6 body for order {n} needs {groups} characters, got {len(body)}")
    bits = body.translate(_SIXBITS)
    if len(bits) != 6 * groups:
        bad = next(ch for ch in body if not 63 <= ord(ch) <= 126)
        raise ParseError(f"invalid graph6 body byte {ord(bad)}")
    if "1" in bits[m:]:
        raise ParseError("nonzero padding bits in graph6 body")
    # column j is bits[s:s + j] for s = C(j, 2), lowest row first, so the
    # reversed string holds it as one slice, ready to read as row j's lower
    # part; each of its set bits is then copied into the other end's row
    backwards = bits[:m][::-1]
    rows = [0] * n
    end = m
    for j in range(1, n):
        low = int(backwards[end - j:end], 2)
        end -= j
        rows[j] = low
        bit = 1 << j
        while low:
            one = low & -low
            low ^= one
            rows[one.bit_length() - 1] |= bit
    return tuple(rows)


def parse_graph6(text: str) -> Graph:
    """Graph from a graph6 string; the standard '>>graph6<<' prefix is allowed."""
    n, body = split_graph6(text)
    return _graph_from_rows(n, _decode_rows(body, n))
