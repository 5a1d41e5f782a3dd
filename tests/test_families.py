import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gturan.graphs import (
    complete_graph,
    cycle_graph,
    empty_graph,
    graph6_decode,
    isomorphic,
    join,
    set_of,
    union_of,
)
from gturan.bounds import bounds_report
from gturan.families import (
    ParamTriple,
    TuranSpec,
    candidate_extremal_union,
    colex_turan,
    complete_split,
    lower_bound_family,
    lower_bound_graph,
    turan,
)
from gturan.counting import (
    clique_number,
    count_cliques,
    delete_dominating,
    dominating_vertices,
)
from gturan.freeness import ConstraintSet, check_constraints
from gturan.graphs import canonical_code


class TestTuran:
    def test_examples(self):
        assert isomorphic(turan(2, 4), cycle_graph(4))
        t46 = turan(4, 6)
        assert TuranSpec(4, 6).part_sizes == (2, 2, 1, 1)
        assert t46.edge_count == 13
        assert turan(3, 3) == complete_graph(3)

    def test_part_structure(self):
        spec = TuranSpec(5, 13)
        assert sum(spec.part_sizes) == 13
        assert max(spec.part_sizes) - min(spec.part_sizes) <= 1
        assert spec.part_sizes == tuple(sorted(spec.part_sizes, reverse=True))

    def test_labels_run_part_by_part(self):
        # vertex 0 is in a largest part, vertex n-1 in a smallest one
        masks = TuranSpec(4, 6).part_masks()
        assert set_of(masks[0]) == (0, 1)
        assert set_of(masks[3]) == (5,)

    def test_errors(self):
        with pytest.raises(ValueError):
            turan(0, 5)
        with pytest.raises(ValueError):
            TuranSpec(3, -1)
        # the cap is checked before turan() builds any rows
        with pytest.raises(ValueError, match=r"^vertex count 300 outside \[0, 256\]$"):
            TuranSpec(5, 300)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 24))
    def test_clique_free(self, r, n):
        assert clique_number(turan(r, n)) == min(r, n)

    def test_one_part_is_edgeless(self):
        assert turan(1, 5) == empty_graph(5)


class TestColexTuran:
    def test_small_examples(self):
        assert isomorphic(colex_turan(3, 3), complete_graph(3))
        assert isomorphic(colex_turan(2, 4), cycle_graph(4))

    def test_edge_counts_match_m(self):
        for r in (2, 3, 4, 5):
            for m in range(0, 25):
                assert colex_turan(r, m).edge_count == m

    def test_interpolates_turan_graphs(self):
        # n = 1 is excluded: e(T_r(1)) = 0 and trimming leaves no vertex
        for r in range(2, 6):
            for n in [0] + list(range(2, 11)):
                m = turan(r, n).edge_count
                assert isomorphic(colex_turan(r, m), turan(r, n))
                assert isomorphic(
                    colex_turan(r, m, degree_minimal=True), turan(r, n)
                )

    def test_default_order_attaches_colex_least(self):
        # 17 edges at r=4: the 13 edges on six vertices plus a seventh
        # vertex attached to the four colex-least eligible vertices
        g = colex_turan(4, 17)
        assert (g.n, g.edge_count) == (7, 17)
        assert set_of(g.adj[6]) == (0, 1, 3, 4)
        assert count_cliques(g, 3) == 17

    def test_degree_minimal_order_attaches_largest_parts(self):
        # same edge count, but the seventh vertex reaches the two large
        # parts first, keeping the maximum degree at 5
        g = colex_turan(4, 17, degree_minimal=True)
        assert (g.n, g.edge_count) == (7, 17)
        assert set_of(g.adj[6]) == (0, 1, 4, 5)
        assert max(g.degree(v) for v in range(g.n)) == 5
        assert count_cliques(g, 3) == 16
        assert count_cliques(g, 4) == 4

    def test_degree_minimal_is_star_and_clique_free(self):
        g = colex_turan(4, 17, degree_minimal=True)
        assert check_constraints(g, ConstraintSet(u=1, delta=5, omega=4)).passes

    def test_default_order_is_not_degree_safe_at_4_17(self):
        # the two interpolations genuinely differ between Turán numbers
        g = colex_turan(4, 17)
        assert not check_constraints(g, ConstraintSet(u=1, delta=5, omega=4)).passes

    def test_frozen_triangle_counts(self):
        # independently verified against the exhaustive fixed-edge oracle
        # (acceptance criterion 4 recomputes this live)
        want = [0, 0, 1, 1, 2, 2, 3, 4, 4, 5, 6, 8]
        got = [count_cliques(colex_turan(3, m), 3) for m in range(1, 13)]
        assert got == want

    def test_zero_edges(self):
        assert colex_turan(3, 0).n == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            colex_turan(1, 3)
        with pytest.raises(ValueError):
            colex_turan(3, -1)


def small_peak(build):
    """``build()``, which returns or raises ValueError, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        try:
            out = build()
        except ValueError as exc:
            out = exc
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestCapsBeforeWork:
    # each of these built a list as long as r or m before the cap or the
    # result was known: 8-84 MiB
    def test_more_parts_than_vertices(self):
        g, peak = small_peak(lambda: turan(10**6, 5))
        assert g == complete_graph(5) and peak < 1 << 20
        with pytest.raises(ValueError, match="^part count must be at least 1$"):
            turan(0, 5)

    def test_colex_edges_beyond_the_cap(self):
        err, peak = small_peak(lambda: colex_turan(4, 10**6))
        assert str(err) == "1000000 edges need more than 256 vertices" and peak < 1 << 20
        # e(T_4(256)) = 24,576 edges fit, one more does not
        assert colex_turan(4, 24_576).n == 256
        with pytest.raises(ValueError, match="^24577 edges need more than 256 vertices$"):
            colex_turan(4, 24_577)

    def test_colex_with_more_parts_than_vertices(self):
        g, peak = small_peak(lambda: colex_turan(10**6, 5))
        assert g == colex_turan(256, 5) and g.n == 4 and peak < 1 << 20
        assert colex_turan(10**6, 32_640) == complete_graph(256)
        with pytest.raises(ValueError, match="^32641 edges need more than 256 vertices$"):
            colex_turan(10**6, 32_641)


class TestCompleteSplit:
    def test_examples(self):
        star = complete_split(1, 4)
        assert star.degree_sequence() == (4, 1, 1, 1, 1)
        g = complete_split(2, 3)
        assert (g.n, g.edge_count) == (5, 7)
        assert complete_split(3, 0) == complete_graph(3)

    def test_edge_count_formula(self):
        for u in range(4):
            for s in range(4):
                g = complete_split(u, s)
                assert g.edge_count == u * (u - 1) // 2 + u * s


class TestParamTriple:
    def test_decomposition(self):
        p = ParamTriple(1, 5, 4)
        assert (p.a, p.b) == (1, 2)
        assert p.lb_vertex_count == 6
        p2 = ParamTriple(2, 6, 4)
        assert (p2.a, p2.b) == (3, 0)
        assert p2.lb_vertex_count == 12

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ParamTriple(1, 3, 4)  # delta < omega
        with pytest.raises(ValueError):
            ParamTriple(2, 2, 3)  # delta < omega (despite valid-looking example)
        with pytest.raises(ValueError):
            ParamTriple(3, 4, 3)  # omega < u+1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 8), st.integers(0, 18))
    def test_identity(self, u, omega, extra):
        if omega < u + 1:
            omega = u + 1
        delta = omega + extra
        p = ParamTriple(u, delta, omega)
        assert p.delta == p.a * (p.omega - p.u) + p.b
        assert 0 <= p.b <= p.omega - p.u - 1
        assert p.lb_vertex_count == delta + u * (delta // (omega - u))


class TestLowerBoundGraph:
    def test_examples(self):
        assert isomorphic(lower_bound_graph(ParamTriple(1, 5, 4)), turan(4, 6))
        lb = lower_bound_graph(ParamTriple(2, 6, 4))
        assert isomorphic(lb, turan(4, 12))
        # every edge of T_4(12) has exactly 6 common neighbours
        from gturan.graphs import common_neighborhood
        from gturan.counting import enumerate_cliques

        assert all(
            common_neighborhood(lb, c).bit_count() == 6
            for c in enumerate_cliques(lb, 2)
        )
        assert isomorphic(lower_bound_graph(ParamTriple(1, 3, 3)), turan(3, 4))

    def test_vertex_count_identity_on_grid(self):
        for u in (1, 2, 3):
            for omega in range(u + 1, 9):
                for delta in range(omega, 21):
                    p = ParamTriple(u, delta, omega)
                    g = lower_bound_graph(p)
                    assert g.n == delta + u * (delta // (omega - u)) == p.a * omega + p.b

    def test_freeness_on_grid(self):
        for u in (1, 2, 3):
            for omega in range(u + 1, 9):
                for delta in range(omega, 21):
                    p = ParamTriple(u, delta, omega)
                    cs = ConstraintSet(u=u, delta=delta, omega=omega)
                    assert check_constraints(lower_bound_graph(p), cs).passes

    def test_not_the_optimum_off_divisibility(self):
        # omega - u = 2 does not divide delta = 5: I_3 v C_5 is free, 5-regular
        # and K4-free, with 15 triangles on 8 vertices, above the density
        # 12/7 of L = T_3(7) and below the upper bound 2
        params = ParamTriple(1, 5, 3)
        g = graph6_decode("GFzvvW")
        assert isomorphic(g, join(empty_graph(3), cycle_graph(5)))
        assert check_constraints(g, ConstraintSet(u=1, delta=5, omega=3)).passes
        density = Fraction(count_cliques(g, 3), g.n)
        assert density == Fraction(15, 8)
        report = bounds_report(complete_graph(3), params)
        assert isomorphic(lower_bound_graph(params), turan(3, 7))
        assert report.lower == Fraction(12, 7) < density <= report.upper == 2


class TestLowerBoundFamily:
    def test_examples(self):
        # q = 2 blocks of T_3(4) plus r = 2 singleton fillers
        g = lower_bound_family(ParamTriple(1, 3, 3), 10)
        assert g.n == 10
        assert isomorphic(g, union_of(turan(3, 4), turan(3, 4), *[complete_graph(1)] * 2))
        assert isomorphic(lower_bound_family(ParamTriple(1, 5, 4), 6), turan(4, 6))

    def test_remainder_only_case(self):
        # when one block already has more u-cliques than p, the family is
        # a disjoint union of K_u alone
        g = lower_bound_family(ParamTriple(2, 3, 3), 4)
        assert isomorphic(g, union_of(*[complete_graph(2)] * 4))

    def test_clique_count_is_p(self):
        for u in (1, 2):
            for omega in range(u + 1, 5):
                for delta in range(omega, 8):
                    for p in (1, 5, 17, 40):
                        pt = ParamTriple(u, delta, omega)
                        try:
                            g = lower_bound_family(pt, p)
                        except ValueError:
                            continue  # vertex cap
                        assert count_cliques(g, u) == p
                        cs = ConstraintSet(u=u, delta=delta, omega=omega)
                        assert check_constraints(g, cs).passes


class TestJoinWithClique:
    def test_examples(self):
        book = join(empty_graph(2), complete_graph(2))
        assert (book.n, book.edge_count) == (4, 5)
        assert isomorphic(join(complete_graph(2), complete_graph(1)), complete_graph(3))
        wheel = join(cycle_graph(4), complete_graph(1))
        assert dominating_vertices(wheel).bit_count() == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 3))
    def test_round_trips_through_deletion(self, n, u):
        import random

        rng = random.Random(n * 7 + u)
        from gturan.graphs import random_graph

        j = random_graph(rng, n, 0.5)
        h = join(j, complete_graph(u))
        assert dominating_vertices(h).bit_count() >= u
        assert canonical_code(delete_dominating(h, u)) == canonical_code(j)


def test_candidate_extremal_union_shapes():
    g1 = candidate_extremal_union(1, 4, 3, 14)  # blocks of T_3(6), tail T_3(2)
    assert g1.n == 14
    g2 = candidate_extremal_union(2, 4, 4, 30)
    assert g2.edge_count == 30
    with pytest.raises(ValueError):
        candidate_extremal_union(1, 5, 4, 10)  # 3 does not divide 5
