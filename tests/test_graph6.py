import random

import pytest
from hypothesis import given, strategies as st

from boxprime import graph6, graphs as graphs_module
from boxprime.errors import CapacityError, ParseError
from boxprime.graph6 import encode_graph6, parse_graph6
from boxprime.graphs import (Graph, canonical_form, complete_graph,
                             cycle_graph, empty_graph, enumerate_graphs,
                             path_graph, relabel)
from _oracles import decode_graph6_body_by_columns, encode_graph6_by_bit_list


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    return Graph(n, draw(st.integers(0, (1 << m) - 1)))


def test_known_encodings():
    assert encode_graph6(complete_graph(2)) == "A_"
    assert encode_graph6(complete_graph(3)) == "Bw"
    assert encode_graph6(canonical_form(cycle_graph(4))) == "C]"
    assert encode_graph6(empty_graph(0)) == "?"
    assert encode_graph6(empty_graph(1)) == "@"
    assert parse_graph6("A_") == complete_graph(2)
    assert parse_graph6("Bw") == complete_graph(3)


def test_round_trip_exhaustive_small():
    for n in range(7):
        for g in enumerate_graphs(n):
            assert parse_graph6(encode_graph6(g)) == g


@given(graphs())
def test_round_trip_random(g):
    assert parse_graph6(encode_graph6(g)) == g


@given(graphs(max_n=16))
def test_parsed_rows_match_the_packed_vector(g):
    assert parse_graph6(encode_graph6(g)).rows == Graph(g.n, g.bits).rows


@given(st.integers(63, 90), st.integers(0, 1 << 64))
def test_long_form_rows_match_the_packed_vector(n, seed):
    rng = random.Random(seed)
    g = Graph(n, rng.getrandbits(n * (n - 1) // 2))
    parsed = parse_graph6(encode_graph6(g))
    assert parsed == g
    assert parsed.rows == Graph(n, g.bits).rows


@given(st.integers(2, 8), st.integers(0, 1 << 28))
def test_encoding_is_injective_per_order(n, seed):
    m = n * (n - 1) // 2
    g1 = Graph(n, seed % (1 << m))
    g2 = Graph(n, (seed * 31 + 7) % (1 << m))
    assert (encode_graph6(g1) == encode_graph6(g2)) == (g1 == g2)


@given(st.integers(0, 90), st.integers(0, 1 << 64))
def test_encoding_matches_the_bit_list_encoder(n, seed):
    g = Graph(n, random.Random(seed).getrandbits(n * (n - 1) // 2))
    expected = encode_graph6_by_bit_list(Graph(n, g.bits))
    assert encode_graph6(g) == expected
    # a graph that already holds its rows encodes the same
    with_rows = graphs_module._graph_from_rows(n, Graph(n, g.bits).rows)
    assert encode_graph6(with_rows) == expected


def test_encoding_a_canonical_form_decodes_no_rows(monkeypatch):
    # a canonical form carries only its packed vector
    g = relabel(cycle_graph(7), (3, 6, 0, 5, 1, 4, 2))
    expected = encode_graph6_by_bit_list(canonical_form(g))

    def forbidden(*args, **kwargs):
        raise AssertionError("rows were decoded")

    graphs_module._canonical_bits_for.cache_clear()
    canonical = canonical_form(g)
    monkeypatch.setattr(graphs_module, "_rows_from_text", forbidden)
    assert encode_graph6(canonical) == expected


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<A_") == complete_graph(2)


def test_long_form_orders():
    for n in (63, 100):
        g = path_graph(n)
        text = encode_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g


def test_order_cap():
    with pytest.raises(CapacityError):
        encode_graph6(empty_graph(258048))


@pytest.mark.parametrize("text", [
    "",
    "A",          # missing body character
    "A_X",        # trailing junk
    "A\x1f",      # character below the printable range
    "A\x7f",      # character above the printable range
    "Aw",         # nonzero padding bits
    "~?",         # truncated long-form order
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_graph6(text)


def test_parse_rejects_long_form_for_small_order():
    # orders below 63 must use the single-character header
    with pytest.raises(ParseError):
        parse_graph6("~??@")


@pytest.mark.parametrize("seed", range(4))
def test_decode_matches_the_column_oracle(seed):
    # sparse to dense graphs of orders 0..70, the long form included
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(0, 70)
        m = n * (n - 1) // 2
        bits = rng.getrandbits(m)
        for _ in range(rng.randint(0, 2)):
            bits &= rng.getrandbits(m)
        text = encode_graph6(Graph(n, bits))
        body = text[4:] if text.startswith("~") else text[1:]
        rows = graph6._decode_rows(body, n)
        assert decode_graph6_body_by_columns(body, n) == (
            n, graphs_module._pack_rows(n, rows), rows)
        g = parse_graph6(text)
        assert (g.bits, g.rows) == (bits, rows)


@pytest.mark.parametrize("body, n", [
    ("", 2), ("??", 2),   # wrong lengths
    ("\x1f", 2), ("?\x7f", 5), ("\x80?", 5),   # bytes out of range
    ("w", 2), ("?A", 5), ("?" * 9 + "@", 11),   # nonzero padding
])
def test_decode_errors_match_the_column_oracle(body, n):
    with pytest.raises(ParseError) as new:
        graph6._decode_rows(body, n)
    with pytest.raises(ParseError) as old:
        decode_graph6_body_by_columns(body, n)
    assert str(new.value) == str(old.value)
