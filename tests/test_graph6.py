import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gturan.graphs import (
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
