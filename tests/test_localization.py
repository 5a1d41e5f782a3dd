import hashlib
import io
import pickle
import random
import tracemalloc
from contextlib import redirect_stdout
from itertools import combinations
from math import comb
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gturan import cli
from gturan.graphs import (
    complete_graph,
    cycle_graph,
    empty_graph,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    join,
    mask_of,
    path_graph,
    random_graph,
    union_of,
)
from gturan.families import complete_split, turan
from gturan.counting import (
    count_cliques,
    count_copies_rooted,
    delete_dominating,
    pattern_spec,
    turan_copy_count,
)
from gturan.freeness import ConstraintSet, check_constraints
from gturan.localization import (
    DominatingClique,
    HypothesisViolationError,
    clique_weights,
    copy_weights,
    default_threshold,
    equality_family_graph,
    global_recovery_holds,
    localized_report,
)

from oracles import subset_cliques, subset_copies, subset_copy_count, subset_max_clique

K3 = complete_graph(3)
K4 = complete_graph(4)
K5 = complete_graph(5)


class TestCliqueWeights:
    def test_examples(self):
        assert clique_weights(K5, mask_of([2]), 1) == (5, 4)
        assert clique_weights(cycle_graph(4), mask_of([0]), 1) == (2, 2)
        # a vertex, and an edge across the two size-2 parts, of T_4(6)
        t = turan(4, 6)
        assert clique_weights(t, mask_of([0]), 1) == (4, 4)
        assert clique_weights(t, mask_of([0, 2]), 2) == (4, 2)

    def test_not_a_clique_rejected(self):
        with pytest.raises(ValueError, match="not a clique"):
            clique_weights(cycle_graph(4), mask_of([0, 2]), 2)
        with pytest.raises(ValueError, match="not a clique"):
            clique_weights(turan(4, 6), mask_of([0, 1]), 2)  # same part

    def test_relations(self):
        # codegree always at least clique size minus u
        rng = random.Random(5)
        from gturan.counting import enumerate_cliques

        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10), 0.5)
            for u in (1, 2):
                for c in enumerate_cliques(g, u):
                    oc, dc = clique_weights(g, c, u)
                    assert oc >= u
                    assert dc >= oc - u


class TestCopyWeights:
    # every copy's weights are those of its dominating clique's row

    def test_triangle_in_k5(self):
        rows = localized_report(K5, K3, 1, 1).per_clique
        assert len(rows) == 10
        for row in rows:
            assert (row.clique_size, row.codegree, row.copies) == (5, 4, 1)
            assert row.weight == Fraction(1, 6)
        assert copy_weights(K5, subset_copies(K3, K5)[0], K3, 1) == rows[0]

    def test_triangle_in_t48(self):
        t = turan(4, 8)
        rows = localized_report(t, K3, 1, 1).per_clique
        assert len(rows) == count_cliques(t, 3)
        for row in rows:
            assert (row.clique_size, row.codegree) == (4, 6)
            assert row.weight == Fraction(1, 12)

    def test_triangle_in_small_component(self):
        g = union_of(K3, K4)
        row = next(
            r for r in localized_report(g, K3, 1, 1).per_clique
            if r.clique == mask_of([0, 1, 2])
        )
        assert (row.clique_size, row.codegree) == (3, 2)
        assert row.weight == 1

    def test_dominating_set_uses_copy_edges(self):
        # a book copy inside K_4 has only two dominating vertices even
        # though every vertex dominates the host
        book = complete_split(2, 2)
        rep = localized_report(K4, book, 2, 1)
        assert rep.copies == len(subset_copies(book, K4)) == 6
        assert len(rep.per_clique) == 6
        for row in rep.per_clique:
            assert row.clique.bit_count() == 2 and row.copies == 1
            assert (row.clique_size, row.codegree) == (4, 2)
        cw = copy_weights(K4, subset_copies(book, K4)[0], book, 2)
        assert cw.clique.bit_count() == 2
        assert (cw.clique_size, cw.codegree) == (4, 2)

    def test_weight_relations_per_copy(self):
        # copy_weights reads its witnesses through the report's _maxima,
        # from its own memo of clique_weights
        rng = random.Random(77)
        hosts = [random_graph(rng, rng.randint(3, 9), 0.6) for _ in range(30)]
        hosts.append(union_of(turan(3, 6), turan(4, 8)))
        patterns = [
            (K3, (1, 2)),
            (complete_split(2, 2), (1, 2)),  # K2vI2
            (join(complete_graph(1), path_graph(4)), (1,)),  # the fan K1vP4
        ]
        for g in hosts:
            for h, us in patterns:
                for u in us:
                    rows = {r.clique: r for r in localized_report(g, h, u, 1).per_clique}
                    for verts_edges in subset_copies(h, g):
                        cw = copy_weights(g, verts_edges, h, u)
                        assert cw.clique & ~verts_edges[0] == 0
                        assert cw == rows[cw.clique]
                        assert cw.codegree >= cw.clique_size - u

    def test_one_twin_quotient_per_call(self, monkeypatch):
        # the host's quotient is built once per copy, not once per u-subset
        from gturan import localization

        built = []
        real = localization.twin_quotient

        def spy(adj):
            built.append(adj)
            return real(adj)

        monkeypatch.setattr(localization, "twin_quotient", spy)
        g = union_of(turan(3, 6), K4)
        for h, u in [(K3, 1), (K3, 2), (K4, 2), (complete_split(2, 2), 1)]:
            for verts_edges in subset_copies(h, g):
                built.clear()
                copy_weights(g, verts_edges, h, u)
                assert built == [g.adj]


class TestLocalizedReport:
    def test_k5_equality(self):
        rep = localized_report(K5, K3, 1, 1)
        assert rep.weighted_sum == rep.bound == Fraction(5, 3)
        assert rep.holds and rep.equality and rep.hypothesis_ok
        assert rep.copies == 10
        assert len(rep.per_clique) == 10
        assert rep.exempt_cliques == ()

    def test_union_of_balanced_turans(self):
        rep = localized_report(union_of(turan(3, 6), turan(4, 8)), K3, 1, 1)
        assert rep.equality
        assert rep.weighted_sum == Fraction(14, 3)

    def test_edgeless_tail_for_u2(self):
        rep = localized_report(union_of(turan(3, 6), empty_graph(7)), K3, 2, 1)
        assert rep.equality
        assert rep.weighted_sum == 4

    def test_no_copies_is_trivially_within_bound(self):
        rep = localized_report(cycle_graph(4), K3, 1, 1)
        assert rep.weighted_sum == 0
        assert rep.bound == Fraction(4, 3)
        assert rep.holds and not rep.equality

    def test_exempt_cliques_listed(self):
        # the apex edge of a bowtie dominates no triangle... use K3 + K2:
        # the K2 edge and its endpoints dominate no copy
        g = union_of(K3, complete_graph(2))
        rep = localized_report(g, K3, 1, 1)
        assert set(rep.exempt_cliques) == {mask_of([3]), mask_of([4])}

    def test_hypothesis_flag_without_abort(self):
        # threshold too large: flagged, inequality still evaluated
        # (every triangle vertex in K_5 has clique size 5 < 5 + 1)
        rep = localized_report(K5, K3, 1, 5)
        assert not rep.hypothesis_ok
        assert rep.holds

    def test_zero_denominator_aborts(self):
        # the wheel's hub has clique size 3 and codegree 5, and T_2(5)
        # holds no C5; the threshold is blamed only when 3 reaches
        # threshold + u
        wheel5 = join(complete_graph(1), cycle_graph(5))
        for threshold, cause in [
            (1, "threshold parameter 1 is below the pattern's true clique threshold"),
            (3, "its clique size 3 is below threshold + u = 4, outside the hypothesis"),
        ]:
            with pytest.raises(HypothesisViolationError) as err:
                localized_report(wheel5, wheel5, 1, threshold)
            assert (err.value.clique, err.value.clique_size, err.value.codegree) == (1, 3, 5)
            assert str(err.value) == (
                "weight undefined on dominating clique [0]: T_2(5) holds no copy "
                f"of the derived pattern; {cause}")

    def test_inequality_on_all_small_graphs(self):
        from gturan.search import nonisomorphic_graphs_upto

        levels = nonisomorphic_graphs_upto(6)
        for reps in levels[1:]:
            for g in reps:
                for h in (K3, K4):
                    for u in (1, 2):
                        rep = localized_report(g, h, u, 1)
                        assert rep.holds

    def test_non_clique_pattern(self):
        book = complete_split(2, 2)
        rep = localized_report(turan(3, 6), book, 2, 1)
        assert rep.holds

    def test_clique_examples(self):
        rep = localized_report(K5, K3, 1, 1)
        assert rep.weighted_sum == rep.bound == Fraction(5, 3)
        rep2 = localized_report(cycle_graph(4), K3, 1, 1)
        assert rep2.weighted_sum == 0 and rep2.bound == Fraction(4, 3)
        rep3 = localized_report(union_of(turan(4, 8), empty_graph(3)), K4, 2, 1)
        assert rep3.equality

    @pytest.mark.parametrize("g, u", [
        (path_graph(3), 2),  # each edge is a maximal clique
        (empty_graph(2), 1),  # each vertex is a maximal clique
        (union_of(K3, path_graph(3)), 2),  # maximal and non-maximal edges
    ])
    def test_pattern_is_the_root_clique(self, g, u):
        # H = K_u: the derived pattern is null, so every weight is 1 even
        # when the copy's u-clique is maximal (a host with no parts)
        rep = localized_report(g, complete_graph(u), u, 1)
        assert all(row.weight == 1 for row in rep.per_clique)
        assert rep.weighted_sum == rep.bound == count_cliques(g, u)
        assert rep.equality


def _largest_clique_through(g, c):
    """Size of the largest clique of g containing the vertex tuple c, by
    scanning the subsets of c's common neighbours from the largest."""
    common = [v for v in range(g.n) if v not in c and all(g.has_edge(v, w) for w in c)]
    for size in range(len(common), -1, -1):
        for extra in combinations(common, size):
            if all(g.has_edge(a, b) for a, b in combinations(extra, 2)):
                return len(c) + size


def per_copy_oracle(g, h, u, threshold):
    """The localized report summed copy by copy: each copy of h listed by
    ``oracles.subset_copies``, its dominating vertices read from its own
    edge set and its weights maximized over its u-subsets by brute force.
    Returns (copies, weighted sum, hypothesis flag, sorted exempt
    u-cliques), or None where some copy's weight is undefined."""
    derived = delete_dominating(h, u)
    copies = subset_copies(h, g)
    omega: dict[tuple[int, ...], int] = {}
    total = Fraction(0)
    for verts, edges in copies:
        vs = [v for v in range(g.n) if verts >> v & 1]
        dom = [v for v in vs if sum(v in e for e in edges) == len(vs) - 1]
        cs = cd = -1
        for c in combinations(dom, u):
            if c not in omega:
                omega[c] = _largest_clique_through(g, c)
            cs = max(cs, omega[c])
            cd = max(cd, sum(all(g.has_edge(v, w) for w in c) for v in range(g.n)))
        denom = turan_copy_count(derived, cs - u, cd)
        if denom == 0:
            return None
        total += Fraction(1, denom)
    hypothesis_ok = all(oc >= threshold + u for oc in omega.values())
    u_cliques = [
        c for c in combinations(range(g.n), u)
        if all(g.has_edge(a, b) for a, b in combinations(c, 2))
    ]
    exempt = sorted(mask_of(c) for c in u_cliques if c not in omega)
    return len(copies), total, hypothesis_ok, exempt


def _report_or_none(g, h, u, threshold):
    try:
        rep = localized_report(g, h, u, threshold)
    except HypothesisViolationError:
        return None
    # the totals are summed per (clique size, codegree) class, the rows
    # built apart from them when first read
    assert rep.copies == sum(row.copies for row in rep.per_clique)
    assert rep.weighted_sum == sum(
        (row.weight * row.copies for row in rep.per_clique), Fraction(0))
    return rep.copies, rep.weighted_sum, rep.hypothesis_ok, sorted(rep.exempt_cliques)


ORACLE_PATTERNS = [
    (K3, (1, 2)),
    (K4, (1, 2)),
    (complete_split(2, 2), (1, 2)),  # K2vI2
    (join(complete_graph(1), path_graph(4)), (1,)),  # the fan K1vP4
    (complete_split(1, 2), (1,)),  # K1vI2
    (join(complete_graph(1), cycle_graph(5)), (1,)),  # the wheel W5
]


def rebuilt_rows(g, h, u):
    """The report's rows rebuilt clique by clique from the public
    ``count_copies_rooted`` and ``clique_weights``: every dom(H)-clique in
    lexicographic order of its sorted vertex tuple, each statistic
    maximized over the clique's u-subsets in the same order, its first
    maximizer the witness.  Returns (rows, None), or (rows so far, the
    first clique whose weight denominator vanishes)."""
    spec = pattern_spec(h)
    d = spec.dom_count
    rows = []
    for vs in combinations(range(g.n), d):
        if not all(g.has_edge(a, b) for a, b in combinations(vs, 2)):
            continue
        clique = mask_of(vs)
        copies = count_copies_rooted(h, g, clique, d)
        if not copies:
            continue
        cs = cd = -1
        for c in (mask_of(sub) for sub in combinations(vs, u)):
            oc, dc = clique_weights(g, c, u)
            if oc > cs:
                cs, wit_cs = oc, c
            if dc > cd:
                cd, wit_cd = dc, c
        denom = turan_copy_count(spec.down(u), cs - u, cd)
        if denom == 0:
            return rows, clique
        rows.append(DominatingClique(
            clique, cs, cd, Fraction(1, denom), copies, wit_cs, wit_cd))
    return rows, None


def assert_rows_rebuilt(g, h, u):
    """Every row of the report, not only its totals, equals its rebuild,
    or the report raises on the first clique whose rebuild does."""
    rows, violation = rebuilt_rows(g, h, u)
    if violation is None:
        assert list(localized_report(g, h, u, 1).per_clique) == rows
        return
    with pytest.raises(HypothesisViolationError) as err:
        localized_report(g, h, u, 1)
    assert err.value.clique == violation


@pytest.mark.parametrize("g", [turan(5, 20), turan(6, 24)], ids=["T5(20)", "T6(24)"])
@pytest.mark.parametrize("h, us", [
    (K3, (1, 2, 3)), (K4, (1, 2, 3)), (complete_split(2, 2), (1, 2)),
], ids=["K3", "K4", "K2vI2"])
def test_rows_rebuilt_on_turan_hosts(g, h, us):
    # the rows walk the host's own cliques, each part whole, while every
    # largest-clique search keeps to one vertex per part
    for u in us:
        assert_rows_rebuilt(g, h, u)


@pytest.mark.parametrize("g, h, first", [
    # K2vI3, u = 1: the K5 block's edges weigh 1/4 each, and the edges
    # {5, 6} and {10, 11} of both K2vI3 blocks have clique size 3 and
    # codegree 4, where T_2(4) holds no star K1,3
    (union_of(K5, complete_split(2, 3), complete_split(2, 3)),
     complete_split(2, 3), [5, 6]),
    # the wheel W5: the hubs 6 and 12 of the plain wheels have clique
    # size 3, and T_2(5) holds no C5; the hub of K1vK5 weighs 1/12
    (union_of(join(complete_graph(1), K5), join(complete_graph(1), cycle_graph(5)),
              join(complete_graph(1), cycle_graph(5))),
     join(complete_graph(1), cycle_graph(5)), [6]),
])
def test_violation_names_first_zero_clique(g, h, first):
    rows, violation = rebuilt_rows(g, h, 1)
    assert rows and violation == mask_of(first)
    # the report raises before any row is read: the walk checks each
    # (clique size, codegree) class's weight the first time it appears
    assert_rows_rebuilt(g, h, 1)


def clique_by_clique(g, h, u, threshold):
    """The localized report recomputed from the subset oracles, one
    dom(H)-clique C at a time in lexicographic order: the copies of
    H - Dom H in G[N(C)], each statistic maximized over C's u-subsets in
    lexicographic order with ``subset_max_clique`` and codegrees counted
    vertex by vertex, the first maximizer the witness.  Returns (rows,
    hypothesis flag, exempt u-cliques), or (rows so far, the first clique
    whose weight denominator vanishes, None)."""
    d = pattern_spec(h).dom_count
    rest, down = delete_dominating(h, d), delete_dominating(h, u)
    stats = {}
    rows = []
    for clique in subset_cliques(g, d):
        common = [v for v in range(g.n) if all(g.has_edge(v, w) for w in clique)]
        copies = subset_copy_count(rest, induced_subgraph(g, mask_of(common)))
        if not copies:
            continue
        cs = cd = -1
        for c in combinations(clique, u):
            if c not in stats:
                codegree = sum(all(g.has_edge(v, w) for w in c) for v in range(g.n))
                stats[c] = subset_max_clique(g, c), codegree
            oc, dc = stats[c]
            if oc > cs:
                cs, wit_cs = oc, mask_of(c)
            if dc > cd:
                cd, wit_cd = dc, mask_of(c)
        denom = turan_copy_count(down, cs - u, cd)
        if denom == 0:
            return rows, mask_of(clique), None
        rows.append(DominatingClique(
            mask_of(clique), cs, cd, Fraction(1, denom), copies, wit_cs, wit_cd))
    hypothesis_ok = all(oc >= threshold + u for oc, _ in stats.values())
    exempt = [mask_of(c) for c in subset_cliques(g, u) if c not in stats]
    return rows, hypothesis_ok, exempt


BLOW_UP_PATTERNS = [
    (K3, (1, 2)),
    (K4, (1, 2)),
    (complete_split(2, 2), (1, 2)),  # K2vI2
    (complete_split(1, 3), (1,)),  # K1vI3
    (complete_split(2, 3), (1,)),  # K2vI3: T_2(4) holds no star K1,3
    (join(complete_graph(1), path_graph(4)), (1,)),  # the fan K1vP4
    (join(complete_graph(1), cycle_graph(4)), (1,)),  # the wheel W4
]


def test_report_on_blow_ups_clique_by_clique(twin_grid):
    # the report walks one vertex per false-twin class and weights it by
    # its class, and the exempt cliques expand each walked u-clique to the
    # host u-cliques it stands for; the rows walk the host's own cliques.
    # All against the subset oracles, and a vanishing weight names the
    # lexicographically first offending host clique
    outcomes = set()
    for *_, g in twin_grid:
        if g.n > 10:
            continue
        for h, us in BLOW_UP_PATTERNS:
            for u in us:
                for threshold in (1, 2):
                    rows, flag, exempt = clique_by_clique(g, h, u, threshold)
                    if exempt is None:
                        with pytest.raises(HypothesisViolationError) as err:
                            localized_report(g, h, u, threshold)
                        assert err.value.clique == flag
                        outcomes.add("violation")
                        continue
                    rep = localized_report(g, h, u, threshold)
                    assert rep.copies == sum(row.copies for row in rows)
                    assert rep.weighted_sum == sum(
                        (row.weight * row.copies for row in rows), Fraction(0))
                    assert rep.hypothesis_ok == flag
                    assert list(rep.exempt_cliques) == exempt
                    assert list(rep.per_clique) == rows
                    outcomes.add(("hypothesis", flag))
                    outcomes.add(("exempt", bool(exempt)))
    assert outcomes == {"violation", ("hypothesis", True), ("hypothesis", False),
                        ("exempt", True), ("exempt", False)}


@pytest.mark.parametrize("u", [1, 2, 3])
def test_k4_report_at_the_vertex_cap(u):
    # 70 cliques of one vertex per part stand for the 73,400,320 4-cliques,
    # and C(8, u) u-cliques for the host's u-cliques (1,835,008 triangles
    # at u = 3), none of which is listed
    g = turan(8, 256)
    localized_report(g, K4, u, 1)  # warm the pattern caches
    tracemalloc.start()
    try:
        rep = localized_report(g, K4, u, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.copies == 73400320 and rep.equality and rep.hypothesis_ok
    assert rep.exempt_cliques == ()
    assert rep.bound == Fraction(count_cliques(g, u), comb(4, u))
    assert peak < 256 * 1024


# The grid of the pinned-output test: seeded random hosts, a
# Turán union, and K2vI2 + P3, whose prefixes 4 and 5 (the path 4-5-6)
# complete only to edges of codegree 0, so no clique through them
# dominates a K2vI2 copy and their u-cliques stay exempt.  Patterns are
# (name, dominating count), with u running over 1..dominating count.
GRID_HOSTS = [
    random_graph(random.Random(0), 14, 0.5),
    random_graph(random.Random(1), 18, 0.3),
    random_graph(random.Random(2), 22, 0.2),
    union_of(turan(3, 6), turan(4, 8)),
    union_of(complete_split(2, 2), path_graph(3)),
]
GRID_PATTERNS = [("K3", 3), ("K4", 4), ("K2vI2", 2), ("K1vI3", 1), ("K1vP4", 1)]
GRID = [(g, name, u) for g in GRID_HOSTS for name, d in GRID_PATTERNS for u in range(1, d + 1)]

# SHA-256 of every grid point's ``localize --json`` output, in grid order,
# without and then with ``--per-clique``
LOCALIZE_GRID_SHA256 = "ce541d0e98bb6ed95cd42086380fa1d99a1b628b1a91804e5dff18426ab9cd6e"


def test_localize_output_pinned():
    digest = hashlib.sha256()
    for g, name, u in GRID:
        argv = ["localize", "--graph", graph6_encode(g), "--pattern", name,
                "--u", str(u), "--omega0", "1", "--json"]
        for extra in ([], ["--per-clique"]):
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.main(argv + extra) == 0
            digest.update(out.getvalue().encode())
    assert digest.hexdigest() == LOCALIZE_GRID_SHA256


def test_prefix_without_copies_stays_exempt():
    g = GRID_HOSTS[-1]
    h = complete_split(2, 2)
    assert localized_report(g, h, 1, 1).exempt_cliques == tuple(1 << v for v in range(2, 7))
    edges = [mask_of(e) for e in [(0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (5, 6)]]
    assert sorted(localized_report(g, h, 2, 1).exempt_cliques) == sorted(edges)


def test_report_is_plain_data():
    # equal inputs give equal reports, rows included; the rows are built
    # once, and a report pickles with or without them
    g = GRID_HOSTS[0]
    rep = localized_report(g, complete_split(2, 2), 2, 1)
    assert rep == localized_report(g, complete_split(2, 2), 2, 1)
    assert pickle.loads(pickle.dumps(rep)) == rep
    assert rep.per_clique and rep.per_clique is rep.per_clique
    assert pickle.loads(pickle.dumps(rep)).per_clique == rep.per_clique


def test_report_keeps_nothing_per_clique():
    # the totals walk keeps no row per dominating clique (T_5(40) has
    # 5,120 triangles); rows are walked again only when read
    g = turan(5, 40)
    localized_report(g, K3, 1, 1)  # warm the pattern caches
    tracemalloc.start()
    try:
        rep = localized_report(g, K3, 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.equality and rep.copies == 5120
    assert peak < 256 * 1024
    assert len(rep.per_clique) == 5120


class TestPerCopyOracle:
    def test_corpus(self):
        from gturan.search import nonisomorphic_graphs_upto

        hosts = [g for reps in nonisomorphic_graphs_upto(6)[1:] for g in reps]
        hosts += [
            K5,
            turan(4, 8),
            union_of(turan(3, 6), turan(4, 8)),
            union_of(turan(3, 6), empty_graph(7)),
            union_of(K3, complete_graph(2)),
            union_of(K3, K4),
            join(complete_graph(1), cycle_graph(5)),
        ]
        raised = 0
        for g in hosts:
            for h, us in ORACLE_PATTERNS:
                for u in us:
                    assert_rows_rebuilt(g, h, u)
                    for threshold in (1, 3):
                        want = per_copy_oracle(g, h, u, threshold)
                        assert _report_or_none(g, h, u, threshold) == want
                        raised += want is None
        assert raised  # the wheel in itself has an undefined weight

    @settings(max_examples=60, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.integers(0, 12),
        st.sampled_from([0.2, 0.4, 0.6, 0.8]),
        st.sampled_from(
            [(h, u) for h, us in ORACLE_PATTERNS for u in us]
        ),
        st.sampled_from([1, 3]),
    )
    def test_random_graphs(self, rng, n, p, pattern, threshold):
        g = random_graph(rng, n, p)
        h, u = pattern
        assert_rows_rebuilt(g, h, u)
        assert _report_or_none(g, h, u, threshold) == per_copy_oracle(g, h, u, threshold)


def test_bad_u_rejected():
    for u in (0, -1):
        with pytest.raises(ValueError, match=rf"^u={u} outside 1\.\.3, "):
            localized_report(K5, K3, u, 1)
    with pytest.raises(ValueError, match=r"^pattern has 3 dominating vertices, need 4$"):
        localized_report(K5, K3, 4, 1)


def test_threshold_below_one_rejected():
    # with threshold <= 0 every clique passes the hypothesis trivially
    for threshold in (0, -5):
        with pytest.raises(ValueError, match=rf"^threshold={threshold} is below 1, "):
            localized_report(K5, K4, 2, threshold)


class TestEqualityFamilies:
    def test_generated_families_are_exactly_tight(self):
        rng = random.Random(8)
        for _ in range(25):
            t = rng.choice([3, 4])
            u = rng.randint(1, 2)
            blocks = []
            total = 0
            for _ in range(rng.randint(1, 3)):
                w = rng.randint(max(t, u + 1), 5)
                a = rng.randint(1, 2)
                if total + w * a <= 24:
                    blocks.append((w, a))
                    total += w * a
            if not blocks:
                continue
            tail = empty_graph(rng.randint(1, 4)) if u == 2 else None
            g = equality_family_graph(blocks, tail)
            rep = localized_report(g, complete_graph(t), u, 1)
            assert rep.equality, (t, u, blocks)

    def test_large_turan_host_is_tight(self):
        # 16 false twins per part: clique sizes are searched on one vertex
        # per part, or this report does not finish
        rep = localized_report(turan(6, 96), K3, 2, 1)
        assert rep.hypothesis_ok and rep.equality
        assert rep.weighted_sum == rep.bound == Fraction(count_cliques(turan(6, 96), 2), 3)

    def test_equality_beyond_the_family(self):
        # the bowtie (two triangles sharing a vertex) is no union of balanced
        # Turán graphs plus an edgeless tail, yet reaches equality for K3 at
        # u = 2 inside the hypothesis: the family is sufficient, not necessary
        bowtie = graph6_decode("DQ{")
        assert bowtie.edge_count == 6 and count_cliques(bowtie, 3) == 2
        rep = localized_report(bowtie, K3, 2, default_threshold(K3))
        assert rep.hypothesis_ok and rep.equality
        assert rep.weighted_sum == rep.bound == 2

    def test_block_too_small_to_host_breaks_equality(self):
        # a balanced block below the pattern size contributes cliques but
        # no copies; the inequality is then strict
        g = equality_family_graph([(2, 2)])  # T_2(4), no triangles
        rep = localized_report(g, K3, 1, 1)
        assert rep.holds and not rep.equality


def test_weight_monotone_in_both_arguments():
    # closed-form denominators weakly increase in part count and size
    for s in (2, 3):
        ks = complete_graph(s)
        for r in range(s, 9):
            for d in range(r, 21):
                here = turan_copy_count(ks, r, d)
                assert turan_copy_count(ks, r + 1, d) >= here
                assert turan_copy_count(ks, r, d + 1) >= here


def test_global_recovery_on_free_graphs():
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        if not check_constraints(g, ConstraintSet(u=1, delta=4, omega=3)).passes:
            continue
        checked += 1
        assert global_recovery_holds(g, K3, 1, 4, 3)


def test_default_threshold():
    assert default_threshold(K4) == 1
    assert default_threshold(complete_split(2, 2)) == 300 * 4**9
