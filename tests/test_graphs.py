import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gturan.graphs import (
    Graph,
    add_vertex,
    canonical_code,
    common_neighborhood,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    induced_subgraph,
    is_connected,
    iter_bits,
    join,
    mask_of,
    path_graph,
    random_graph,
    relabel,
    set_of,
    twin_classes,
    twin_quotient,
    union_of,
)
from gturan.families import turan


@st.composite
def graphs(draw, max_n: int = 9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return from_edge_list(n, edges)


def test_from_edge_list_examples():
    k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert k3 == complete_graph(3)
    assert from_edge_list(2, []).edge_count == 0
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.degree_sequence() == (2, 2, 2, 2)


def test_from_edge_list_errors():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(300, (0,) * 300)


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_disjoint_union_examples():
    g = disjoint_union([(complete_graph(3), 2)])
    assert (g.n, g.edge_count) == (6, 6)
    from gturan.counting import count_cliques

    assert count_cliques(g, 3) == 2
    g2 = disjoint_union([(complete_graph(3), 1), (complete_graph(1), 1)])
    assert (g2.n, g2.edge_count) == (4, 3)
    g3 = disjoint_union([(turan(4, 6), 7)])
    assert (g3.n, g3.edge_count) == (42, 91)


def test_disjoint_union_cap():
    with pytest.raises(ValueError):
        disjoint_union([(complete_graph(20), 20)])


def test_join_examples():
    star = join(complete_graph(1), empty_graph(3))
    assert star.degree_sequence() == (3, 1, 1, 1)
    split = join(complete_graph(2), empty_graph(2))
    assert (split.n, split.edge_count) == (4, 5)
    assert join(complete_graph(2), complete_graph(2)) == complete_graph(4)


def test_join_edge_count_formula():
    g1, g2 = cycle_graph(4), path_graph(3)
    j = join(g1, g2)
    assert j.edge_count == g1.edge_count + g2.edge_count + g1.n * g2.n


def test_induced_subgraph_examples():
    assert induced_subgraph(complete_graph(4), mask_of([0, 1, 2])) == complete_graph(3)
    c4 = cycle_graph(4)
    assert induced_subgraph(c4, mask_of([0, 2])).edge_count == 0
    assert induced_subgraph(c4, mask_of([0, 1])) == complete_graph(2)
    with pytest.raises(ValueError):
        induced_subgraph(c4, mask_of([5]))


def test_common_neighborhood_examples():
    assert common_neighborhood(complete_graph(4), mask_of([0, 1])) == mask_of([2, 3])
    c4 = cycle_graph(4)
    assert common_neighborhood(c4, mask_of([0, 2])) == mask_of([1, 3])
    g = union_of(complete_graph(3), complete_graph(1))
    assert common_neighborhood(g, mask_of([0, 1])) == mask_of([2])
    with pytest.raises(ValueError):
        common_neighborhood(c4, 0)


def test_common_neighborhood_disjoint_from_set():
    g = complete_graph(5)
    nb = common_neighborhood(g, mask_of([0, 1]))
    assert nb & mask_of([0, 1]) == 0


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_constructed_graphs_are_symmetric_and_loopless(g):
    for i in range(g.n):
        assert not g.adj[i] >> i & 1
        for j in iter_bits(g.adj[i]):
            assert g.adj[j] >> i & 1


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_join_with_nothing_and_single_union_are_identity(g):
    assert canonical_code(join(g, empty_graph(0))) == canonical_code(g)
    assert canonical_code(disjoint_union([(g, 1)])) == canonical_code(g)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_relabel_preserves_structure(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    assert h.degree_sequence() == g.degree_sequence()
    assert h.edge_count == g.edge_count


def test_trusted_builders_give_valid_graphs():
    # add_vertex, induced_subgraph and relabel skip Graph validation; full
    # validation of their output must pass and rebuild an equal graph
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(0, 14)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        for h in (
            add_vertex(g, rng.getrandbits(n)),
            induced_subgraph(g, rng.getrandbits(n)),
            relabel(g, perm),
        ):
            assert Graph(h.n, h.adj) == h
    with pytest.raises(ValueError):
        relabel(path_graph(3), [0, 0, 1])
    with pytest.raises(ValueError):
        add_vertex(path_graph(3), 1 << 3)
    with pytest.raises(ValueError):
        add_vertex(empty_graph(256), 0)


@pytest.mark.parametrize("build, n", [
    (empty_graph, 200_000),
    (complete_graph, 20_000),
    (path_graph, 20_000),
    (cycle_graph, 20_000),
    (lambda n: from_edge_list(n, ((i, i + 1) for i in range(n - 1))), 20_000),
    (lambda n: random_graph(random.Random(0), n, 0.5), 1_000),
], ids=["empty", "complete", "path", "cycle", "edge_list", "random"])
def test_vertex_cap_checked_before_building(build, n):
    # each of these took 1.5-52 MiB to build rows or edges it then rejected
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^vertex count {n} outside \[0, 256\]$"):
            build(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_connected_components():
    g = union_of(complete_graph(3), path_graph(2), empty_graph(1))
    comps = connected_components(g)
    assert [c.bit_count() for c in comps] == [3, 2, 1]
    assert is_connected(complete_graph(4))
    assert not is_connected(empty_graph(2))


def test_set_helpers():
    assert set_of(mask_of([5, 2, 7])) == (2, 5, 7)
    assert list(iter_bits(0)) == []


def _reference_bits(mask):
    out = []
    i = 0
    while mask >> i:
        if mask >> i & 1:
            out.append(i)
        i += 1
    return out


def test_bit_iteration_matches_a_reference_loop():
    # the table below 256 and the loop above it, on each side of the seam
    rng = random.Random(29)
    masks = list(range(1024))
    masks += [rng.getrandbits(rng.randint(1, 256)) for _ in range(2000)]
    masks += [(1 << 256) - 1, 1 << 255, (1 << 256) - 256, 255 | 1 << 200]
    for mask in masks:
        expected = _reference_bits(mask)
        assert list(iter_bits(mask)) == expected
        assert set_of(mask) == tuple(expected)
    assert set_of(0) == () and list(iter_bits(0)) == []
    assert set_of(255) == tuple(range(8))
    assert set_of(256) == (8,)
    assert set_of(257) == (0, 8)


def test_str_is_one_indexed():
    assert "1-2" in str(complete_graph(2))


def test_twin_quotient_blows_up_to_the_graph(twin_grid, small_corpus):
    # the host is the blow-up of its quotient: two vertices of one class
    # are adjacent exactly for true twins, of two classes exactly when
    # the classes' leads are, and are no twins; a twin-free graph is its
    # own quotient, and the representatives keep one vertex per false-twin class
    hosts = [g for *_, g in twin_grid] + small_corpus[:200] + [turan(3, 4), turan(8, 256)]
    for g in hosts:
        q = twin_quotient(g.adj)
        classes = twin_classes(g.adj)
        assert sum(classes) == g.vertex_mask and q.leads == sum(c & -c for c in classes)
        assert q.twins == [c for c in classes if c & (c - 1)]
        if not q.twins:
            assert q.classes == tuple(1 << v for v in range(g.n))
        assert q.reps == sum(c if q.true_twins & c else c & -c for c in classes)
        lead = {v: c & -c for c in classes for v in iter_bits(c)}
        for v in range(g.n):
            assert q.classes[v] == next(c for c in classes if c >> v & 1)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                x, y = lead[a], lead[b]
                want = bool(q.true_twins & x) if x == y else bool(g.adj[x.bit_length() - 1] & y)
                assert g.has_edge(a, b) == want
                if x != y:  # the classes are maximal
                    ra, rb = g.adj[a], g.adj[b]
                    assert ra != rb and ra | 1 << a != rb | 1 << b
