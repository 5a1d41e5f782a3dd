import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gturan.graphs import (
    Graph,
    complete_graph,
    empty_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    read_g6,
)
from gturan.families import turan


def test_k4_encodes_to_known_string():
    # n=4 -> 'C'; the six upper-triangle bits are all 1 -> '~'
    assert graph6_encode(complete_graph(4)) == "C~"


def test_turan_round_trip():
    t = turan(4, 6)
    assert graph6_decode(graph6_encode(t)) == t


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        graph6_decode("")


def test_malformed_inputs_rejected():
    with pytest.raises(ValueError):
        graph6_decode("C")  # truncated bit vector
    with pytest.raises(ValueError):
        graph6_decode("C~~")  # trailing garbage
    with pytest.raises(ValueError):
        graph6_decode("C~\x05")  # byte outside printable range
    with pytest.raises(ValueError):
        graph6_decode("~")  # truncated long-form header


def test_nonzero_padding_rejected():
    # K_2 is 'A_' (bit 1, then 5 zero padding bits); flip a padding bit
    assert graph6_encode(complete_graph(2)) == "A_"
    with pytest.raises(ValueError):
        graph6_decode("A`")


def test_zero_and_one_vertex():
    assert graph6_encode(empty_graph(0)) == "?"
    assert graph6_decode("?") == empty_graph(0)
    assert graph6_decode(graph6_encode(empty_graph(1))) == empty_graph(1)


def test_long_form_header():
    g = empty_graph(63)
    s = graph6_encode(g)
    assert s.startswith("~")
    assert graph6_decode(s) == g


def test_header_prefix_accepted():
    assert graph6_decode(">>graph6<<C~") == complete_graph(4)


def test_round_trip_corpus(corpus):
    for g in corpus:
        assert graph6_decode(graph6_encode(g)) == g


def test_g6_file_round_trip(tmp_path):
    graphs = [complete_graph(4), turan(3, 5), empty_graph(2)]
    path = tmp_path / "corpus.g6"
    path.write_text("C~\nD]{\n\nA?\n", encoding="ascii")  # blank lines are skipped
    assert read_g6(str(path)) == graphs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.randoms(use_true_random=False))
def test_round_trip_random(n, rnd):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if rnd.random() < 0.4]
    g = from_edge_list(n, edges)
    assert graph6_decode(graph6_encode(g)) == g


def test_decode_builds_valid_graphs_from_random_strings():
    # the decoder builds its rows unchecked: each decoded graph passes the
    # checking constructor and encodes back to the string it came from,
    # long headers (n >= 63) included
    rng = random.Random(6)
    for n in [0, 1, 2, 7, 62, 63, 64, 100, 255, 256] + [rng.randint(0, 256) for _ in range(20)]:
        nbits = n * (n - 1) // 2
        groups = [rng.getrandbits(6) for _ in range((nbits + 5) // 6)]
        if nbits % 6:  # zero padding
            groups[-1] &= ~((1 << (6 - nbits % 6)) - 1)
        header = chr(n + 63) if n <= 62 else "~" + "".join(
            chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
        s = header + "".join(chr(x + 63) for x in groups)
        g = graph6_decode(s)
        assert g.n == n and Graph(g.n, g.adj) == g
        assert graph6_encode(g) == s


def test_first_bad_byte_named():
    with pytest.raises(ValueError, match="byte 32 outside printable range"):
        graph6_decode("C~ \x05")
