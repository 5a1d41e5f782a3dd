import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gturan import counting, search
from gturan.graphs import (
    canonical_code,
    common_neighborhood,
    complete_graph,
    cycle_graph,
    delete_vertices,
    empty_graph,
    from_edge_list,
    induced_subgraph,
    iter_bits,
    join,
    mask_of,
    path_graph,
    random_graph,
    relabel,
    twin_quotient,
    union_of,
)
from gturan.families import complete_split, turan
from gturan.acceptance import _pattern_grid
from gturan.counting import (
    _clique_count,
    _count_copies,
    _max_clique,
    _independent_partitions,
    automorphism_count,
    blowup_copy_count,
    clique_number,
    copies_through,
    count_cliques,
    count_copies_rooted,
    count_embeddings,
    count_subgraph_copies,
    delete_dominating,
    dominating_vertices,
    enumerate_cliques,
    enumerate_copies,
    has_clique,
    pattern_spec,
    turan_copy_count,
)
from gturan.freeness import contains_subgraph
from gturan.localization import clique_weights

from oracles import (
    brute_automorphism_count,
    copies_via_table,
    set_partition_profile,
    spanning_copy_table,
    subset_cliques,
    subset_copies,
    subset_copy_count,
    subset_max_clique,
    turan_part_count,
    turan_part_sizes,
)


class TestCliques:
    def test_examples(self):
        assert count_cliques(complete_graph(5), 3) == 10
        assert count_cliques(turan(4, 6), 3) == 12
        assert count_cliques(cycle_graph(4), 3) == 0
        assert count_cliques(empty_graph(3), 0) == 1
        assert count_cliques(path_graph(4), 1) == 4
        assert count_cliques(turan(3, 6), 2) == turan(3, 6).edge_count

    def test_enumerate_examples(self):
        assert [set_bits(c) for c in enumerate_cliques(complete_graph(3), 2)] == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]
        assert len(list(enumerate_cliques(turan(4, 6), 4))) == 4
        assert list(enumerate_cliques(empty_graph(5), 2)) == []

    def test_against_subset_oracle(self, small_corpus):
        for g in small_corpus[:120]:
            for t in range(7):  # past the clique number of most corpus graphs
                want = subset_cliques(g, t)
                assert count_cliques(g, t) == len(want)
                assert has_clique(g, t) == bool(want)
                if t:
                    assert list(enumerate_cliques(g, t)) == [mask_of(c) for c in want]

    def test_clique_number(self):
        assert clique_number(turan(4, 8)) == 4
        assert clique_number(empty_graph(6)) == 1
        assert clique_number(empty_graph(0)) == 0
        assert clique_number(union_of(complete_graph(3), complete_graph(5))) == 5

    def test_clique_sizes_against_subset_oracle(self, small_corpus):
        rng = random.Random(11)
        for g in small_corpus:
            omega = clique_number(g)
            assert omega == subset_max_clique(g)
            if omega == 0:
                continue
            c = rng.choice(list(enumerate_cliques(g, rng.randint(1, omega))))
            assert clique_weights(g, c, c.bit_count())[0] == subset_max_clique(g, set_bits(c))

    def test_clique_sizes_on_false_twin_blow_ups(self):
        # each vertex of a small base becomes a class of up to five false
        # twins, randomly relabeled: the shape on which a clique search
        # without the one-vertex-per-class cut never prunes
        rng = random.Random(23)
        for _ in range(60):
            g = blow_up(rng, random_graph(rng, rng.randint(1, 5), rng.choice([0.5, 0.8, 1.0])), 5)
            assert clique_number(g) == subset_max_clique(g)
            for u in (1, 2):
                for c in list(enumerate_cliques(g, u))[:6]:
                    assert clique_weights(g, c, u)[0] == subset_max_clique(g, set_bits(c))

    def test_seeded_search_against_subset_oracle(self):
        # the localized report searches from each u-subset c of a d-clique
        # C with C's size d known, so it looks only for larger cliques
        rng = random.Random(41)
        hosts = [random_graph(rng, rng.randint(1, 9), rng.choice([0.4, 0.7, 0.9]))
                 for _ in range(25)]
        hosts += [blow_up(rng, random_graph(rng, rng.randint(1, 5), rng.choice([0.6, 1.0])), 3)
                  for _ in range(15)]
        largest = 0
        for g in hosts:
            reps = twin_quotient(g.adj).reps
            want: dict[tuple[int, ...], int] = {}
            for d in range(1, 5):
                for clique in enumerate_cliques(g, d):
                    for u in range(1, d + 1):
                        for c in combinations(set_bits(clique), u):
                            if c not in want:
                                want[c] = subset_max_clique(g, c)
                            common = common_neighborhood(g, c)
                            assert _max_clique(g.adj, u, common & reps, d) == want[c]
            largest = max([largest, *want.values()])
        assert largest >= 5

    def test_clique_number_of_turan_at_the_vertex_cap(self):
        assert clique_number(turan(8, 256)) == 8

    def test_no_clique_above_turan_clique_number(self):
        # answered by the clique number, without walking the r-cliques
        for r, n in [(1, 5), (2, 7), (3, 3), (4, 20), (6, 96), (8, 256)]:
            assert count_cliques(turan(r, n), r + 1) == 0
            assert count_cliques(turan(r, n), r + 2) == 0
        assert count_cliques(turan(4, 20), 4) == turan_copy_count(complete_graph(4), 4, 20)


def blow_up(rng, base, most):
    """Each vertex of ``base`` a class of 1 to ``most`` false twins,
    randomly relabeled."""
    owner = [v for v in range(base.n) for _ in range(rng.randint(1, most))]
    perm = list(range(len(owner)))
    rng.shuffle(perm)
    return from_edge_list(len(owner), [
        (perm[a], perm[b])
        for a, b in combinations(range(len(owner)), 2)
        if base.has_edge(owner[a], owner[b])
    ])


def set_bits(mask):
    from gturan.graphs import set_of

    return set_of(mask)


class TestDominating:
    def test_examples(self):
        assert dominating_vertices(complete_graph(4)).bit_count() == 4
        star = complete_split(1, 3)
        assert set_bits(dominating_vertices(star)) == (0,)
        assert dominating_vertices(cycle_graph(4)) == 0

    def test_delete_examples(self):
        assert delete_dominating(complete_graph(5), 2) == complete_graph(3)
        assert delete_dominating(complete_split(2, 2), 2) == empty_graph(2)
        with pytest.raises(ValueError):
            delete_dominating(cycle_graph(4), 1)

    def test_book_equals_k1_join_p3(self):
        # two names for the same 4-vertex pattern
        from gturan.graphs import isomorphic

        assert isomorphic(complete_split(2, 2), join(complete_graph(1), path_graph(3)))

    def test_pattern_spec_fields(self):
        spec = pattern_spec(complete_split(2, 2))
        assert spec.dom_count == 2
        assert spec.aut_count == 4
        assert spec.down(1).degree_sequence() == (2, 1, 1)  # triangle with a tail? no: P_3 plus nothing
        assert spec.down(2) == empty_graph(2)

    def test_pattern_spec_derived_independence(self):
        spec = pattern_spec(complete_graph(5))
        for u in range(1, 6):
            assert spec.down(u) == complete_graph(5 - u)
        # dominating vertices are true twins, so deleting any u of them
        # leaves one isomorphism class: the one pattern_spec keeps
        rng = random.Random(19)
        patterns = [h for _, h in _pattern_grid()]
        patterns += [complete_graph(5), complete_split(2, 3)]
        for u in range(4):
            for _ in range(6):
                j = random_graph(rng, rng.randint(0, 5), 0.5)
                patterns.append(join(complete_graph(u), j))
        for h in patterns:
            spec = pattern_spec(h)
            dom = list(iter_bits(dominating_vertices(h)))
            for u in range(1, spec.dom_count + 1):
                codes = {
                    canonical_code(delete_vertices(h, mask_of(pick)))
                    for pick in combinations(dom, u)
                }
                assert codes == {canonical_code(spec.down(u))}


class TestCopyCounts:
    def test_examples(self):
        assert count_subgraph_copies(complete_graph(3), complete_graph(4)) == 4
        assert count_subgraph_copies(path_graph(3), complete_graph(3)) == 3
        book = complete_split(2, 2)
        assert count_subgraph_copies(book, complete_graph(4)) == 6 * 1  # C(4,2) edges... 6 copies

    def test_edges_count_as_k2(self, small_corpus):
        for g in small_corpus[:40]:
            assert count_subgraph_copies(complete_graph(2), g) == g.edge_count

    def test_empty_pattern_copies(self):
        assert count_subgraph_copies(empty_graph(2), complete_graph(2)) == 1
        assert count_subgraph_copies(empty_graph(0), complete_graph(3)) == 1
        assert count_subgraph_copies(empty_graph(3), empty_graph(5)) == 10

    def test_automorphism_examples(self):
        assert automorphism_count(complete_graph(4)) == 24
        assert automorphism_count(cycle_graph(4)) == 8
        assert automorphism_count(path_graph(3)) == 2
        assert automorphism_count(cycle_graph(5)) == 10
        # components: |Aut| of each, times m! per m equal components
        assert automorphism_count(empty_graph(5)) == 120
        k3, p3 = complete_graph(3), path_graph(3)
        assert automorphism_count(union_of(k3, k3, p3)) == 6**2 * 2 * 2
        c4 = cycle_graph(4)
        assert automorphism_count(union_of(c4, p3, c4, p3)) == 8**2 * 2 * 2**2 * 2

    def test_automorphisms_against_brute(self):
        rng = random.Random(4)
        graphs = [
            random_graph(rng, rng.randint(0, 7), rng.choice([0.3, 0.5, 0.7]))
            for _ in range(60)
        ]
        for _ in range(25):
            part = random_graph(rng, rng.randint(1, 3), 0.5)
            graphs.append(union_of(part, random_graph(rng, rng.randint(0, 1), 0.5), part))
        graphs += [empty_graph(5), union_of(complete_graph(2), complete_graph(2), path_graph(3))]
        for g in graphs:
            assert automorphism_count(g) == brute_automorphism_count(g)

    def test_embeddings_vs_cliques_dual_route(self, small_corpus):
        # the embedding path (no complete-pattern shortcut) against the
        # bitset clique counter, over the whole 500-graph corpus
        for g in small_corpus:
            for t in (2, 3, 4, 5):
                kt = complete_graph(t)
                emb = count_embeddings(kt, g)
                aut = automorphism_count(kt)
                assert emb % aut == 0
                assert emb // aut == count_cliques(g, t)

    def test_against_subset_oracle_small(self):
        rng = random.Random(9)
        patterns = [
            complete_graph(3),
            complete_graph(4),
            path_graph(3),
            cycle_graph(4),
            complete_split(2, 2),
            union_of(complete_graph(2), complete_graph(1)),
            empty_graph(2),
            complete_graph(1),
        ]
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 7), rng.choice([0.3, 0.6]))
            for h in patterns:
                want = subset_copy_count(h, g)
                assert count_subgraph_copies(h, g) == want
                copies = subset_copies(h, g)
                assert len(copies) == want
                assert enumerate_copies(h, g) == copies
                assert contains_subgraph(g, h)[0] == (want > 0)

    def test_against_spanning_tables_all_graphs_to_seven(self):
        # independent dual route on every isomorphism class with n <= 7
        from gturan.search import nonisomorphic_graphs_upto

        patterns = [
            complete_graph(3),
            complete_graph(4),
            path_graph(3),
            cycle_graph(4),
            complete_split(2, 2),
            path_graph(4),
        ]
        tables = [(h, spanning_copy_table(h)) for h in patterns]
        levels = nonisomorphic_graphs_upto(7)
        for reps in levels[1:]:
            for g in reps:
                for h, table in tables:
                    assert count_subgraph_copies(h, g) == copies_via_table(h, table, g)

    def test_against_spanning_tables_eight_vertices(self):
        # every class on 8 vertices for the 3-vertex patterns; a seeded
        # sample of classes for the larger ones (the full cross product is
        # a multi-minute soak)
        from gturan.search import nonisomorphic_graphs_upto

        reps = nonisomorphic_graphs_upto(8)[8]
        small = [(h, spanning_copy_table(h)) for h in (complete_graph(3), path_graph(3))]
        for g in reps:
            for h, table in small:
                assert count_subgraph_copies(h, g) == copies_via_table(h, table, g)
        big = [
            (h, spanning_copy_table(h))
            for h in (complete_graph(4), cycle_graph(4), complete_split(2, 2),
                      complete_graph(5))
        ]
        sample = random.Random(2).sample(range(len(reps)), 400)
        for idx in sample:
            for h, table in big:
                assert count_subgraph_copies(h, reps[idx]) == copies_via_table(
                    h, table, reps[idx]
                )

    def test_edgeless_patterns_against_embeddings(self):
        # I_r (r >= 2) is counted as a binomial of the mask's popcount; the
        # embedding search in the induced sub-host, over |Aut|, is the
        # independent route
        rng = random.Random(21)
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 9), rng.choice([0.3, 0.6]))
            masks = [g.vertex_mask] + [rng.getrandbits(g.n) for _ in range(3)]
            for r in (2, 3, 4):
                h = empty_graph(r)
                for mask in masks:
                    want = count_embeddings(h, induced_subgraph(g, mask)) // automorphism_count(h)
                    assert _count_copies(pattern_spec(h), g.adj, mask) == want

    # (pattern, edges of H - Dom H): H - Dom H with edges is counted by the
    # embedding search inside each N(C), an edgeless one by a binomial
    DOMINATING_ROUTES = [
        (join(complete_graph(1), cycle_graph(4)), True),  # wheel W4
        (join(complete_graph(1), path_graph(4)), True),
        (join(complete_graph(1), union_of(complete_graph(2), complete_graph(1))), True),  # paw
        (complete_split(1, 3), False),  # star K_{1,3}
        (complete_split(2, 3), False),
        (join(complete_graph(2), path_graph(3)), False),  # dom = 3, rest I2
        (complete_split(2, 2), False),
        (complete_graph(3), False),
        (complete_graph(1), False),
        (complete_graph(0), False),
    ]

    def test_dominating_clique_route_against_subset_oracle(self):
        # N(H, G) = sum over dom(H)-cliques C of N(H - Dom H, G[N(C)]) inside
        # random masks, against brute force on the induced sub-host; the
        # hosts are random graphs and randomly relabeled false-twin
        # blow-ups (each vertex of a small base a class of up to three)
        rng = random.Random(31)
        hosts = [random_graph(rng, rng.randint(0, 8), rng.choice([0.4, 0.7, 0.9]))
                 for _ in range(20)]
        for _ in range(12):
            hosts.append(blow_up(rng, random_graph(rng, rng.randint(1, 4), rng.choice([0.6, 1.0])), 3))
        for h, rest_has_edges in self.DOMINATING_ROUTES:
            spec = pattern_spec(h)
            if spec.dom_count and spec.dom_count < h.n:
                rest = spec.down(spec.dom_count)
                assert dominating_vertices(rest) == 0
                assert bool(rest.edge_count) == rest_has_edges
            for g in hosts:
                for mask in (g.vertex_mask, rng.getrandbits(g.n)):
                    want = subset_copy_count(h, induced_subgraph(g, mask))
                    assert _count_copies(spec, g.adj, mask) == want

    def test_no_copy_above_the_clique_number(self):
        # every copy holds a dom(H)-clique, so the count is 0 from the
        # clique number, without walking the 6-cliques of the host
        k7 = complete_graph(7)
        assert count_subgraph_copies(k7, turan(6, 96)) == turan_copy_count(k7, 6, 96) == 0

    def test_clique_number_cut_against_subset_oracle(self):
        # the cut for dom(H) >= 3 never zeroes a nonzero count
        rng = random.Random(43)
        patterns = [complete_graph(3), complete_graph(4), complete_split(3, 2),
                    join(complete_graph(2), path_graph(3))]
        cut = counted = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 7), rng.choice([0.3, 0.5, 0.7, 0.9]))
            for h in patterns:
                d = pattern_spec(h).dom_count
                want = subset_copy_count(h, g)
                assert count_subgraph_copies(h, g) == want
                cut += clique_number(g) < d
                counted += want > 0
        assert cut and counted

    def test_turan_hosts_at_the_vertex_cap(self):
        # a sum of binomials over the edges (K2vI2) or vertices (K1vI3) of
        # turan(8, 256), against the closed form
        g = turan(8, 256)
        for h, want in ((complete_split(2, 2), 525729792), (complete_split(1, 3), 473145344)):
            assert count_subgraph_copies(h, g) == turan_copy_count(h, 8, 256) == want

    def test_enumerate_copies_properties(self):
        g = complete_graph(4)
        copies = enumerate_copies(path_graph(3), g)
        assert copies == subset_copies(path_graph(3), g)
        assert len(copies) == count_subgraph_copies(path_graph(3), g) == 12
        for verts, edges in copies:
            assert verts.bit_count() == 3
            assert len(edges) == 2


def patterns_upto_five():
    """One graph per isomorphism class on 1 to 5 vertices (52 of them)."""
    return [g for n in range(1, 6) for g in search.enumerate_graphs(n)]


class TestTwinQuotientCounts:
    def test_blow_up_grid(self, twin_grid):
        # counted through the quotient, against the embedding search on
        # the built host; the template count builds no host
        patterns = patterns_upto_five()
        assert len(patterns) == 52
        for template, sizes, true_twins, g in twin_grid:
            assert twin_quotient(g.adj).twins
            for h in patterns:
                want = count_embeddings(h, g) // automorphism_count(h)
                assert count_subgraph_copies(h, g) == want, (template, sizes, true_twins, h)
                assert blowup_copy_count(h, template, list(sizes), true_twins) == want
            for t in range(7):
                assert count_cliques(g, t) == _clique_count(g.adj, g.vertex_mask, t)

    def test_blow_up_grid_against_subset_oracle(self, twin_grid):
        # the subset oracle takes seconds per dense 10-vertex host, so the
        # hosts here are the sparser ones
        patterns = patterns_upto_five()
        small = [g for *_, g in twin_grid if g.n <= 10 and g.edge_count <= 17]
        assert len(small) >= 8
        for g in small:
            for h in patterns:
                assert count_subgraph_copies(h, g) == subset_copy_count(h, g), (g, h)

    def test_turan_hosts_through_the_routes(self, monkeypatch):
        # complete multipartite hosts with unbalanced parts skip the Turán
        # shortcut, and so does turan(3, 4), whose two parts of one vertex
        # are a class of true twins beside a class of false ones: each
        # count takes the dominating cliques or the embeddings over |Aut|
        shortcut = []
        real = counting.turan_copy_count
        monkeypatch.setattr(counting, "turan_copy_count",
                            lambda *args: shortcut.append(args[0]) or real(*args))
        hosts = [turan(3, 4)]
        for sizes in [(1, 3), (1, 3, 3), (2, 2, 4), (1, 1, 3, 4)]:
            g = empty_graph(0)
            for m in sizes:
                g = join(g, empty_graph(m))
            hosts.append(g)
        patterns = [h for h in patterns_upto_five() if h.edge_count]
        for g in hosts:
            for h in patterns:
                want = count_embeddings(h, g) // automorphism_count(h)
                assert count_subgraph_copies(h, g) == want, (g, h)
                assert h not in shortcut
                shortcut.clear()

    def test_quotient_route_taken(self, monkeypatch, twin_grid):
        # hosts with twins count through the quotient, a twin-free host
        # keeps the plain kernels
        taken = []
        real = counting._blowup_count
        monkeypatch.setattr(counting, "_blowup_count",
                            lambda *args: taken.append(args[0].pattern.n) or real(*args))
        twin_free = random_graph(random.Random(3), 30, 0.5)
        assert not twin_quotient(twin_free.adj).twins
        w4 = join(complete_graph(1), cycle_graph(4))
        count_subgraph_copies(w4, twin_free)
        count_cliques(twin_free, 2)
        assert taken == []
        hosts = [turan(6, 96), turan(3, 4), twin_grid[0][3], twin_grid[-1][3]]
        for g in hosts:
            taken.clear()
            count_subgraph_copies(w4, g)
            count_cliques(g, 2)
            assert taken[0] == 5 and taken[-1] == 2

    def test_turan_hosts_that_hung(self):
        # each count walked every host clique or embedding before the
        # quotient; each value is the closed form's
        k1 = complete_graph(1)
        assert count_cliques(turan(8, 256), 8) == 32 ** 8 == 1099511627776
        cases = [
            (turan(3, 6), turan(8, 128), 15297515520),
            (join(k1, cycle_graph(4)), turan(6, 96), 196669440),
            (join(k1, path_graph(4)), turan(6, 96), 963624960),
            (join(k1, cycle_graph(5)), turan(6, 96), 9524477952),
        ]
        for h, g, want in cases:
            assert count_subgraph_copies(h, g) == want

    def test_blowup_copy_count_rejects_bad_templates(self):
        with pytest.raises(ValueError):
            blowup_copy_count(complete_graph(2), path_graph(3), [1, 2])
        with pytest.raises(ValueError):
            blowup_copy_count(complete_graph(2), path_graph(3), [1, -1, 2])
        with pytest.raises(ValueError):
            blowup_copy_count(complete_graph(2), path_graph(3), [1, 1, 2], 1 << 3)
        # a class of size 0 drops its template vertex
        assert blowup_copy_count(complete_graph(3), complete_graph(3), [2, 0, 3]) == 0
        assert blowup_copy_count(complete_graph(2), complete_graph(3), [2, 0, 3], 1) == 7


class TestRootedCopies:
    def test_examples(self):
        k4 = complete_graph(4)
        assert count_copies_rooted(complete_graph(3), k4, mask_of([0]), 1) == 3
        book = complete_split(2, 2)
        assert count_copies_rooted(book, k4, mask_of([0, 1]), 2) == 1
        c4 = cycle_graph(4)
        assert count_copies_rooted(complete_graph(3), c4, mask_of([0]), 1) == 0
        # the derived pattern is null: the root triangle is the one copy
        triangle = mask_of([0, 1, 2])
        assert count_copies_rooted(complete_graph(3), complete_graph(5), triangle, 3) == 1

    def test_errors(self):
        k4 = complete_graph(4)
        with pytest.raises(ValueError):
            count_copies_rooted(complete_graph(3), cycle_graph(4), mask_of([0, 2]), 2)
        with pytest.raises(ValueError):
            count_copies_rooted(path_graph(3), k4, mask_of([0, 1]), 2)  # dom(P3)=1 < 2
        # a null derived pattern still needs a clique root
        with pytest.raises(ValueError, match="not a clique"):
            count_copies_rooted(complete_graph(3), path_graph(3), mask_of([0, 1, 2]), 3)

    def test_root_outside_host_rejected(self):
        # the same error as copies_through, not an IndexError from the rows
        k3, k4 = complete_graph(3), complete_graph(4)
        for root in (1 << 99, mask_of([0, 4])):
            with pytest.raises(ValueError, match="^vertex set not contained in the graph$"):
                count_copies_rooted(k3, k4, root, root.bit_count())
            with pytest.raises(ValueError, match="^vertex set not contained in the graph$"):
                copies_through(k3, k4, root)

    def test_rooted_equals_direct_enumeration(self):
        # independent check of the bijection: count copies whose dominating
        # set (inside the copy) contains the root clique
        rng = random.Random(12)
        patterns = [complete_graph(3), complete_split(2, 2)]
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            for h in patterns:
                spec = pattern_spec(h)
                for u in range(1, spec.dom_count + 1):
                    for c in enumerate_cliques(g, u):
                        direct = 0
                        for verts, edges in subset_copies(h, g):
                            if c & ~verts:
                                continue
                            dom = _copy_dominating(verts, edges)
                            if c & ~dom == 0:
                                direct += 1
                        assert direct == count_copies_rooted(h, g, c, u)


def _copy_dominating(verts, edges):
    vs = list(iter_bits(verts))
    deg = {v: 0 for v in vs}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return sum(1 << v for v in vs if deg[v] == len(vs) - 1)


class TestTuranCliqueCount:
    def test_examples(self):
        k3 = complete_graph(3)
        assert turan_copy_count(k3, 4, 6) == 12
        assert turan_copy_count(k3, 3, 6) == 8
        assert turan_copy_count(k3, 2, 5) == 0

    def test_matches_enumeration_full_grid(self):
        for r in range(1, 7):
            for n in range(0, 15):
                g = turan(r, n)
                for s in range(0, 6):
                    assert turan_copy_count(complete_graph(s), r, n) == count_cliques(g, s)


class TestTuranCopyCount:
    def test_null_pattern_counts_one(self):
        null = empty_graph(0)
        assert turan_copy_count(null, 0, 0) == 1
        assert turan_copy_count(null, 3, 7) == 1

    def test_rejects_bad_hosts(self):
        with pytest.raises(ValueError):
            turan_copy_count(complete_graph(1), 0, 0)
        with pytest.raises(ValueError):
            turan_copy_count(complete_graph(2), 3, -1)
        with pytest.raises(ValueError):
            turan_copy_count(empty_graph(0), -1, 0)

    @pytest.mark.parametrize("name, h", [
        ("K1", complete_graph(1)),
        ("K3", complete_graph(3)),
        ("K5", complete_graph(5)),
        ("I2", empty_graph(2)),
        ("K1vI2", path_graph(3)),
        ("K2vI2", complete_split(2, 2)),
    ])
    def test_part_size_oracle_beyond_vertex_cap(self, name, h):
        for r in (1, 2, 5, 7):
            for n in (0, 3, 257, 10**4, 10**6 + 3):
                want = turan_part_count(name, turan_part_sizes(r, n))
                assert turan_copy_count(h, r, n) == want, (name, r, n)


class TestIndependentPartitions:
    """The twin-class profile against the walk over every set partition."""

    def test_every_graph_up_to_six_vertices(self):
        rng = random.Random(606)
        graphs = []
        for v in range(6):
            pairs = list(combinations(range(v), 2))
            graphs += [
                from_edge_list(v, [e for i, e in enumerate(pairs) if bits >> i & 1])
                for bits in range(1 << len(pairs))
            ]
        for g in search.nonisomorphic_graphs_upto(6)[6]:
            perm = list(range(6))
            rng.shuffle(perm)
            graphs += [g, relabel(g, perm)]
        for h in graphs:
            assert dict(_independent_partitions(h)) == set_partition_profile(h), h

    @pytest.mark.parametrize("a", [1, 2])
    def test_stars_and_books(self, a):
        for k in range(10):
            h = join(complete_graph(a), empty_graph(k))
            assert dict(_independent_partitions(h)) == set_partition_profile(h), k


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 6), st.integers(0, (1 << 15) - 1), st.integers(1, 6), st.integers(0, 12)
)
def test_turan_copy_count_matches_enumeration(v, bits, r, n):
    pairs = list(combinations(range(v), 2))
    h = from_edge_list(v, [e for i, e in enumerate(pairs) if bits >> i & 1])
    assert turan_copy_count(h, r, n) == count_subgraph_copies(h, turan(r, n))


class TestCopiesThrough:
    def test_examples(self):
        t24 = turan(2, 4)
        assert copies_through(complete_graph(2), t24, mask_of([0])) == 2
        t34 = turan(3, 4)
        # vertex 3 sits in a smallest part but any size-2-part vertex works
        assert copies_through(complete_graph(3), t34, mask_of([0])) == 1
        assert copies_through(complete_graph(3), t34, 0) == 0

    def test_handshake_identity(self, small_corpus):
        from math import comb

        patterns = [complete_graph(3), complete_split(2, 2)]
        for g in small_corpus[:60]:
            for h in patterns:
                spec = pattern_spec(h)
                for u in range(1, spec.dom_count + 1):
                    lhs = comb(spec.dom_count, u) * count_subgraph_copies(h, g)
                    rhs = sum(
                        count_copies_rooted(h, g, c, u)
                        for c in enumerate_cliques(g, u)
                    )
                    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 12), st.integers(0, 4))
def test_monotone_in_vertices(r, n, s):
    ks = complete_graph(s)
    assert turan_copy_count(ks, r, n + 1) >= turan_copy_count(ks, r, n)
