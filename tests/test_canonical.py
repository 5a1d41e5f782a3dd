"""Canonical code: brute-force agreement, relabel invariance, and class
separation."""

import hashlib
import random
from collections import Counter
from itertools import combinations
from math import factorial, prod

import pytest

from gturan import graphs
from gturan.counting import automorphism_count
from gturan.graphs import (
    Graph,
    automorphism_generators,
    canonical_code,
    canonical_search,
    complete_graph,
    empty_graph,
    from_edge_list,
    graph6_encode,
    induced_subgraph,
    isomorphic,
    iter_bits,
    path_graph,
    cycle_graph,
    random_graph,
    relabel,
    union_of,
)
from gturan.families import turan
from gturan.search import nonisomorphic_graphs_upto

from oracles import (
    brute_automorphism_count,
    brute_canonical,
    brute_orbits,
    reference_refine,
)


def test_separates_all_classes_on_four_vertices():
    pairs = list(combinations(range(4), 2))
    codes = set()
    brute = set()
    for bits in range(1 << 6):
        g = from_edge_list(4, [e for i, e in enumerate(pairs) if bits >> i & 1])
        codes.add(canonical_code(g))
        brute.add(brute_canonical(g))
    assert len(codes) == len(brute) == 11


def test_partition_agrees_with_brute_force_on_five_vertices():
    pairs = list(combinations(range(5), 2))
    rng = random.Random(11)
    by_code: dict = {}
    by_brute: dict = {}
    for _ in range(400):
        bits = rng.getrandbits(10)
        g = from_edge_list(5, [e for i, e in enumerate(pairs) if bits >> i & 1])
        by_code.setdefault(canonical_code(g), set()).add(bits)
        by_brute.setdefault(brute_canonical(g), set()).add(bits)
    assert sorted(map(sorted, by_code.values())) == sorted(map(sorted, by_brute.values()))


def test_known_distinctions():
    assert canonical_code(path_graph(4)) != canonical_code(
        from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    )
    c4 = cycle_graph(4)
    assert canonical_code(c4) == canonical_code(relabel(c4, [2, 0, 3, 1]))


def test_invariant_under_relabeling_on_corpus(corpus):
    rng = random.Random(99)
    for g in corpus:
        code = canonical_code(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_code(relabel(g, perm)) == code


def _turan_with_aut(r, n):
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    aut = prod(factorial(s) for s in sizes)
    aut *= prod(factorial(m) for m in Counter(sizes).values())
    return turan(r, n), aut


def _paley_with_aut(q):
    squares = {x * x % q for x in range(1, q)}
    edges = [(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in squares]
    return from_edge_list(q, edges), q * (q - 1) // 2


def _co_cliques_with_aut(k, t):
    """Complement of k disjoint copies of K_t."""
    g = union_of(*[complete_graph(t)] * k)
    full = (1 << g.n) - 1
    co = Graph(g.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.adj)))
    return co, factorial(t) ** k * factorial(k)


def test_highly_symmetric_graphs():
    turans = [(5, 10), (4, 8), (2, 12), (3, 10), (5, 20), (6, 27), (8, 64)]
    cases = [_turan_with_aut(r, n) for r, n in turans]
    cases += [_paley_with_aut(q) for q in (13, 29, 37)]
    cases += [_co_cliques_with_aut(k, t) for k, t in [(3, 4), (4, 3), (2, 6), (5, 2)]]
    cases += [(cycle_graph(n), 2 * n) for n in (3, 8, 17, 40)]
    for g, aut in cases:
        assert automorphism_count(g) == aut
        perm = list(range(g.n))
        random.Random(g.n * aut).shuffle(perm)
        assert canonical_code(relabel(g, perm)) == canonical_code(g)


@pytest.mark.parametrize("r", [2, 16, 64, 100])
def test_turan_at_the_vertex_cap(r):
    g, aut = _turan_with_aut(r, 256)
    assert automorphism_count(g) == aut
    perm = list(range(g.n))
    random.Random(r).shuffle(perm)
    assert canonical_code(relabel(g, perm)) == canonical_code(g)


def _blow_up(rng, base):
    """``base`` with each vertex replaced by a class of 1 to 3 true or
    false twins, randomly relabeled.  Half the time every class has the
    same size and kind, so a regular base gives a regular blow-up."""
    if rng.random() < 0.5:
        sizes, cliques = [rng.randint(1, 3)] * base.n, [rng.random() < 0.5] * base.n
    else:
        sizes = [rng.randint(1, 3) for _ in range(base.n)]
        cliques = [rng.random() < 0.5 for _ in range(base.n)]
    owner = [i for i, s in enumerate(sizes) for _ in range(s)]
    edges = [
        (a, b)
        for a, b in combinations(range(len(owner)), 2)
        if base.has_edge(owner[a], owner[b]) or owner[a] == owner[b] and cliques[owner[a]]
    ]
    perm = list(range(len(owner)))
    rng.shuffle(perm)
    return from_edge_list(len(owner), [(perm[a], perm[b]) for a, b in edges])


def _blow_ups(seed, count, max_base):
    """Blow-ups of random graphs, cycles and paths on at most ``max_base``
    vertices."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, max_base)
        base = rng.choice([
            random_graph(rng, k, rng.choice([0.3, 0.5, 0.7])),
            cycle_graph(max(k, 3)),
            path_graph(k),
        ])
        out.append(_blow_up(rng, base))
    return out


def test_blow_ups_against_brute_force(monkeypatch, cold_labels):
    quotiented = []
    real = graphs._quotient_search

    def spy(adj, quotient):
        quotiented.append(tuple(adj))
        return real(adj, quotient)

    monkeypatch.setattr(graphs, "_quotient_search", spy)
    small = [g for g in _blow_ups(31, 400, 4) if g.n <= 8][:50]
    by_code: dict = {}
    by_brute: dict = {}
    for i, g in enumerate(small):
        by_code.setdefault(canonical_code(g), set()).add(i)
        by_brute.setdefault((g.n, brute_canonical(g)), set()).add(i)
        assert canonical_search(g).aut == brute_automorphism_count(g)
        order, gens = automorphism_generators(g)
        assert _orbits_of(g.n, gens) == brute_orbits(g)
        pos = [0] * g.n
        for j, v in enumerate(order):
            pos[v] = j
        assert relabel(g, pos).adj == canonical_search(g).rows
    assert sorted(map(sorted, by_code.values())) == sorted(map(sorted, by_brute.values()))
    assert len(by_brute) < len(small)  # some blow-ups are isomorphic
    assert len(set(quotiented)) >= 10  # the quotient pre-pass ran


def test_blow_ups_invariant_under_relabeling():
    rng = random.Random(47)
    for g in _blow_ups(46, 60, 7):
        code = canonical_code(g)
        aut = automorphism_count(g)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert canonical_code(h) == code
            assert automorphism_count(h) == aut


def test_quotient_rows_are_the_relabeled_rows():
    # the rows built from class blocks are the graph relabeled by the
    # canonical order, as one step per edge end (``_leaf``) gives them
    cases = [g for g in _blow_ups(53, 120, 6) if g.n and graphs.is_connected(g)]
    cases += [turan(r, 256) for r in (2, 3, 8, 256)]
    kinds = set()
    for g in cases:
        quotient = graphs.twin_quotient(g.adj)
        form = graphs._quotient_search(g.adj, quotient)
        assert form.rows == graphs._leaf(g.adj, [1 << v for v in form.order])[1]
        for cls in quotient.twins:
            kinds.add(bool(g.adj[(cls & -cls).bit_length() - 1] & cls))
    assert kinds == {False, True}


def test_isomorphic_shortcut():
    assert isomorphic(cycle_graph(5), relabel(cycle_graph(5), [3, 1, 4, 0, 2]))
    assert not isomorphic(path_graph(4), cycle_graph(4))
    assert not isomorphic(complete_graph(3), complete_graph(4))


def _orbits_of(n, gens):
    orbits = set()
    for v in range(n):
        orbit = [v]
        for x in orbit:
            for perm in gens:
                if perm[x] not in orbit:
                    orbit.append(perm[x])
        orbits.add(tuple(sorted(orbit)))
    return sorted(orbits)


def test_generators_against_brute_orbits():
    rng = random.Random(2718)
    graphs = [
        random_graph(rng, rng.randint(0, 7), rng.choice([0.2, 0.4, 0.6, 0.8]))
        for _ in range(60)
    ]
    for _ in range(25):
        part = random_graph(rng, rng.randint(1, 3), 0.5)
        graphs.append(union_of(part, random_graph(rng, rng.randint(0, 1), 0.5), part))
    graphs += [empty_graph(n) for n in (0, 1, 6)] + [complete_graph(n) for n in (2, 7)]
    graphs += [turan(r, n) for r, n in [(2, 5), (3, 7), (2, 6), (4, 7)]]
    graphs += [union_of(path_graph(2), path_graph(2), complete_graph(1), complete_graph(1))]
    for g in graphs:
        order, gens = automorphism_generators(g)
        edges = {(i, j) for i in range(g.n) for j in iter_bits(g.adj[i])}
        for perm in gens:
            assert sorted(perm) == list(range(g.n))
            assert {(perm[i], perm[j]) for i, j in edges} == edges
        assert _orbits_of(g.n, gens) == brute_orbits(g)
        # the order is the labeling that gives the canonical rows
        assert sorted(order) == list(range(g.n))
        pos = [0] * g.n
        for i, v in enumerate(order):
            pos[v] = i
        assert relabel(g, pos).adj == canonical_search(g).rows


def _pinned_graphs():
    """Seeded, randomly relabeled symmetric graphs: Turán and Paley
    graphs, complements of clique unions, cycle unions and blow-ups."""
    rng = random.Random(1848)
    gs = [turan(r, n) for r, n in [(2, 7), (3, 10), (4, 12), (5, 23), (7, 64), (16, 256)]]
    gs += [_paley_with_aut(q)[0] for q in (13, 17, 29)]
    gs += [_co_cliques_with_aut(k, t)[0] for k, t in [(3, 4), (4, 3)]]
    gs += [
        union_of(cycle_graph(5), cycle_graph(5), cycle_graph(7)),
        union_of(*[cycle_graph(4)] * 3),
        union_of(cycle_graph(6), path_graph(3), cycle_graph(6)),
    ]
    gs += _blow_ups(61, 30, 6)
    out = []
    for g in gs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(relabel(g, perm))
    return out


# SHA-256 of the forms below when this pin was set.  Search argmax strings
# and the reproduced examples are written in these forms, so a change of
# any canonical form must show here first.
PINNED_DIGEST = "49efa2931af72d40c41c87fc68ef4a1f3b19a3ecb90009e413cba485129439d5"


def test_canonical_forms_are_pinned():
    digest = hashlib.sha256()
    for level in nonisomorphic_graphs_upto(7):
        for g in level:
            digest.update(graph6_encode(g).encode("ascii") + b"\n")
    for g in _pinned_graphs():
        digest.update(canonical_code(g))
    assert digest.hexdigest() == PINNED_DIGEST


def _code_of_rows(n, rows):
    """Canonical-code bytes of adjacency rows, bit by bit: n in two bytes,
    then the upper triangle column by column (graph6 order), eight bits a
    byte, zero-padded."""
    bits = [rows[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 8)
    body = bytes(int("".join(map(str, bits[k : k + 8])), 2) for k in range(0, len(bits), 8))
    return bytes([n >> 8, n & 0xFF]) + body


def test_each_graph_is_labeled_once(monkeypatch, cold_labels):
    searched = []
    real = graphs.canonical_search

    def spy(g):
        searched.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "canonical_search", spy)
    g, aut = _paley_with_aut(13)
    h = relabel(g, [(5 * v + 3) % 13 for v in range(13)])
    assert g != h
    assert isomorphic(g, h)
    assert canonical_code(h) == canonical_code(g)
    assert automorphism_count(h) == aut
    assert isomorphic(g, Graph(h.n, tuple(h.adj)))  # equal to h, built apart
    assert searched == [g, h]


def test_cached_labeling_matches_a_fresh_search(small_corpus, cold_labels):
    rng = random.Random(1849)
    for g in small_corpus:
        for _ in range(3):  # g, then two relabelings
            form = canonical_search(g)
            assert canonical_code(g) == _code_of_rows(g.n, form.rows)
            assert automorphism_count(g) == form.aut
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = relabel(g, perm)


def _disconnected_cases():
    """Seeded disconnected graphs: unions with repeated components, with
    isolated vertices, and unions of blow-ups and their relabelings,
    each also relabeled as a whole."""
    rng = random.Random(1861)
    c5, k3, p3 = cycle_graph(5), complete_graph(3), path_graph(3)
    cases = [
        union_of(c5, c5, p3, c5),
        union_of(turan(3, 6), complete_graph(4), turan(3, 6), turan(3, 6)),
        union_of(k3, empty_graph(3)),
        union_of(empty_graph(2), p3, empty_graph(1), p3),
        empty_graph(5),
    ]
    for base in _blow_ups(1867, 12, 4):
        perm = list(range(base.n))
        rng.shuffle(perm)
        cases.append(union_of(base, relabel(base, perm), base, empty_graph(rng.randint(0, 2))))
    for _ in range(8):
        cases.append(union_of(*(random_graph(rng, rng.randint(1, 5), 0.6)
                                for _ in range(rng.randint(2, 4)))))
    for g in cases[:]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        cases.append(relabel(g, perm))
    return cases


def _labelings(g):
    order, gens = automorphism_generators(g)
    return canonical_search(g), order, gens, canonical_code(g), automorphism_count(g)


def test_component_memo_matches_fresh_searches(monkeypatch, cold_labels):
    cases = _disconnected_cases()
    assert all(len(graphs.connected_components(g)) > 1 for g in cases)
    cold = [_labelings(g) for g in cases]
    warm = [_labelings(g) for g in cases]
    info = graphs._labeling.cache_info()
    assert info.hits > 0
    for g, (form, *_) in zip(cases, warm):
        for verts, part in form.parts:
            # a connected graph's search reads no memo
            fresh = canonical_search(induced_subgraph(g, verts))
            assert (part.rows, part.aut, list(part.order), list(part.twins)) == (
                fresh.rows, fresh.aut, fresh.order, fresh.twins)
            assert list(map(list, part.gens)) == fresh.gens
    # the labeling function without its cache
    monkeypatch.setattr(graphs, "_labeling", graphs._labeling.__wrapped__)
    assert cold == warm == [_labelings(g) for g in cases]


def test_cached_forms_are_read_only(cold_labels):
    # a cached form is immutable, and every list a caller gets is its own
    g = union_of(cycle_graph(5), cycle_graph(5), path_graph(3))
    form = canonical_search(g)
    parts = list(form.parts)
    for _, part in parts:
        assert isinstance(part.order, bytes) and isinstance(part.twins, tuple)
        assert isinstance(part.gens, tuple) and all(isinstance(p, bytes) for p in part.gens)
    order, gens = automorphism_generators(g)
    expected = (list(order), [list(perm) for perm in gens])
    order.reverse()
    gens[0][0] = -1
    gens.clear()
    form.parts.clear()
    assert automorphism_generators(g) == expected
    assert canonical_search(g).parts == parts


def test_enumeration_reads_component_forms_from_the_memo(cold_labels, cold_search):
    nonisomorphic_graphs_upto(7)
    info = graphs._labeling.cache_info()
    assert info.hits > 0
    assert info.currsize <= info.maxsize


def _refine_cases(rng, g):
    """(cells, queue) pairs on ``g`` shaped like the searches' calls: the
    whole vertex set, colour classes with every class queued (as in
    ``_quotient_search``), one vertex individualized from the refined
    root (as in ``_search``), and random ordered partitions with partial
    queues, some holding an empty splitter."""
    n = g.n
    full = g.vertex_mask
    cases = [([full], [full])]
    colour = [rng.randrange(rng.randint(1, 4)) for _ in range(n)]
    classes = [sum(1 << v for v in range(n) if colour[v] == c) for c in sorted(set(colour))]
    cases.append((classes, list(classes)))
    root = reference_refine(g.adj, [full], [full])
    target = next((i for i, c in enumerate(root) if c & (c - 1)), None)
    if target is not None:
        cell = root[target]
        v = rng.choice(list(iter_bits(cell)))
        cases.append((root[:target] + [1 << v, cell ^ 1 << v] + root[target + 1 :], [1 << v]))
    for _ in range(3):
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 8))))
        cells = [sum(1 << v for v in order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        queue = rng.sample(cells, rng.randint(0, len(cells)))
        if rng.random() < 0.3:
            queue.insert(rng.randint(0, len(queue)), 0)
        cases.append((cells, queue))
    return cases


def test_bit_plane_refinement_matches_per_vertex_reference():
    rng = random.Random(2029)
    gs = [
        random_graph(rng, n, p)
        for n in (1, 2, 7, 31, 63, 64, 65, 129, 256)
        for p in (0.1, 0.5, 0.9)
    ]
    gs += [turan(r, 256) for r in (2, 7, 64)]
    gs += [_paley_with_aut(q)[0] for q in (13, 37, 101)]
    gs += _blow_ups(83, 12, 40)  # twin-heavy, up to 120 vertices
    for g in gs:
        for cells, queue in _refine_cases(rng, g):
            ours, theirs = list(queue), list(queue)
            assert graphs._refine(g.adj, list(cells), ours) == reference_refine(
                g.adj, list(cells), theirs
            )
            assert ours == theirs  # the same parts were queued
