import warnings
from itertools import combinations

import pytest

from gturan import search
from gturan.graphs import (
    Graph,
    add_vertex,
    canonical_code,
    complete_graph,
    empty_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    isomorphic,
    join,
    path_graph,
    union_of,
)
from gturan.families import colex_turan, turan
from gturan.counting import clique_number, count_cliques, count_subgraph_copies, pattern_spec
from gturan.freeness import ConstraintSet, check_constraints, passes_constraints
from gturan.search import (
    _augmentations,
    _is_canonical_deletion,
    _levels,
    brute_extremal,
    brute_extremal_u,
    empirical_turan_goodness,
    enumerate_graphs,
    levels,
    nonisomorphic_graphs_upto,
)

from oracles import brute_canonical, max_degree_two_class_counts

K3 = complete_graph(3)
K4 = complete_graph(4)


class TestEnumeration:
    def test_class_counts(self):
        assert len(list(enumerate_graphs(3))) == 4
        assert len(list(enumerate_graphs(4))) == 11
        levels = nonisomorphic_graphs_upto(8)
        assert [len(l) for l in levels] == [1, 1, 2, 4, 11, 34, 156, 1044, 12346]

    def test_matches_labeled_dedup_to_six(self):
        # labeled dedup with the brute-force canonical form
        for n in range(0, 6):
            pairs = list(combinations(range(n), 2))
            seen = set()
            for bits in range(1 << len(pairs)):
                g = from_edge_list(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                seen.add(brute_canonical(g))
            assert len(seen) == len(list(enumerate_graphs(n)))

    def test_pruned_enumeration_matches_filtering(self):
        # pruning during generation keeps exactly the classes that filtering
        # the unpruned levels keeps, each once
        def codes(graphs):
            return sorted(canonical_code(g) for g in graphs)

        def edge_budget(g):  # the keep of criterion 4
            return g.edge_count <= 12 and passes_constraints(g, ConstraintSet(omega=3))

        unpruned = nonisomorphic_graphs_upto(7)
        for cs in [
            ConstraintSet(u=1, delta=2),
            ConstraintSet(omega=3),
            ConstraintSet(u=2, delta=1, omega=3),
        ]:
            for n in range(8):
                assert codes(enumerate_graphs(n, prune=cs)) == codes(
                    g for g in unpruned[n] if check_constraints(g, cs).passes
                )
        for n, reps in _levels(7, edge_budget):
            assert codes(reps) == codes(g for g in unpruned[n] if edge_budget(g))

    def test_augmentations_match_child_degrees_and_labeling(self):
        # every mask whose new vertex has the child's largest (degree, sum
        # of neighbour degrees) is admissible (empty gens: no orbit pass),
        # and a child accepted without labeling passes the labeling test
        parents = [g for level in nonisomorphic_graphs_upto(6) for g in level]
        for n in range(7):
            parents += enumerate_graphs(n, prune=ConstraintSet(u=1, delta=2))
        for g in parents:
            admissible = []
            for mask in range(1 << g.n):
                adj = add_vertex(g, mask).adj
                deg = [row.bit_count() for row in adj]
                key = [
                    (deg[v], sum(deg[j] for j in range(len(adj)) if row >> j & 1))
                    for v, row in enumerate(adj)
                ]
                if key[-1] == max(key):
                    admissible.append(mask)
            for s in range(g.n + 1):
                masks, _ = _augmentations(g, s, [])
                assert [mask for mask, _ in masks] == [
                    mask for mask in admissible if mask.bit_count() == s
                ]
                for mask, settled in _augmentations(g, s, None)[0]:
                    if settled:
                        assert _is_canonical_deletion(add_vertex(g, mask)) is not None

    def test_levels_label_each_graph_at_most_once(self, monkeypatch, cold_search):
        labeled = []
        label = search.automorphism_generators

        def record(g):
            labeled.append(g.adj)
            return label(g)

        monkeypatch.setattr(search, "automorphism_generators", record)
        assert [len(reps) for _, reps in _levels(7)] == [1, 1, 2, 4, 11, 34, 156, 1044]
        assert labeled and len(set(labeled)) == len(labeled)

    @pytest.mark.parametrize("call, n, cap", [
        (lambda: levels(9), 9, 8),
        (lambda: levels(19, ConstraintSet(u=1, delta=1), (2, 1)), 19, 18),
        (lambda: enumerate_graphs(19, prune=ConstraintSet(u=1, delta=1)), 19, 18),
        (lambda: levels(13, ConstraintSet(u=1, delta=3)), 13, 12),
        (lambda: levels(9, ConstraintSet(u=1, delta=4)), 9, 8),
        (lambda: levels(9, ConstraintSet(u=2, delta=1)), 9, 8),
        (lambda: nonisomorphic_graphs_upto(9), 9, 8),
        (lambda: brute_extremal(9, K3, ConstraintSet(omega=3)), 9, 8),
        (lambda: brute_extremal_u(3, 2, K3, ConstraintSet(u=2, omega=3), n_cap=9), 9, 8),
        (lambda: empirical_turan_goodness(K3, 3, 9), 9, 8),
    ])
    def test_cap_enforced(self, monkeypatch, call, n, cap):
        # the cap of the walk's constraint shape binds every way into it:
        # rejected before any child is built, with no warning
        calls = count_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^n={n} exceeds enumeration cap {cap}$"):
                call()
        assert calls == []

    def test_degree_two_matches_paths_and_cycles(self):
        # graphs with maximum degree <= 2 are disjoint unions of paths and
        # cycles, counted by an Euler transform
        counts = max_degree_two_class_counts(18)
        assert counts[:7] == [1, 1, 2, 4, 7, 11, 19] and counts[18] == 1894
        cs = ConstraintSet(u=1, delta=2)
        assert [len(reps) for _, reps in levels(14, cs)] == counts[:15]

    def test_representatives_are_pairwise_nonisomorphic(self):
        reps = list(enumerate_graphs(5))
        for a, b in combinations(reps, 2):
            assert not isomorphic(a, b)


def top_level(n, prune=None, cliques=None) -> tuple:
    """The last level of the walk ``levels(n, prune, cliques)``."""
    for _, reps in levels(n, prune, cliques):
        pass
    return tuple(reps)


def count_calls(monkeypatch, fail_at=None) -> list:
    """Replace search.add_vertex by a wrapper that records each call and
    raises RuntimeError once, on call number ``fail_at``."""
    calls = []
    real = search.add_vertex

    def counted(g, mask):
        calls.append(mask)
        if len(calls) == fail_at:
            raise RuntimeError("interrupted build")
        return real(g, mask)

    monkeypatch.setattr(search, "add_vertex", counted)
    return calls


# the constraint sets whose levels criteria 2 and 3 read, n <= 7
CRITERIA_SETS = [ConstraintSet(omega=w) for w in (2, 3, 4)] + [
    ConstraintSet(u=1, delta=d) for d in (2, 3, 4)
]


class TestLevelStore:  # the levels a walk reads through the expansion memo
    def test_second_walk_builds_nothing(self, monkeypatch):
        first = list(enumerate_graphs(6, prune=ConstraintSet(omega=4)))
        unpruned = list(enumerate_graphs(5))
        calls = count_calls(monkeypatch)
        assert list(enumerate_graphs(6, prune=ConstraintSet(omega=4))) == first
        # u only matters beside delta, and no bound at all prunes nothing
        assert list(enumerate_graphs(6, prune=ConstraintSet(u=2, omega=4))) == first
        assert list(enumerate_graphs(5, prune=ConstraintSet(u=3))) == unpruned
        assert calls == []

    @pytest.mark.parametrize("cs", CRITERIA_SETS, ids=str)
    def test_levels_match_a_fresh_walk(self, cs):
        for n, reps in _levels(7, lambda g: passes_constraints(g, cs)):
            assert top_level(n, cs) == tuple(reps)

    def test_edge_budget_filters_the_clique_store(self):
        # criterion 4 reads the K4-free levels up to 8, filtered to <= 12 edges
        cs = ConstraintSet(omega=3)

        def edge_budget(g):
            return g.edge_count <= 12 and passes_constraints(g, cs)

        for n, reps in _levels(8, edge_budget):
            assert [g for g in top_level(n, cs) if g.edge_count <= 12] == reps

    def test_level_past_cap_is_not_kept(self, cold_search):
        # level 9, past the memo's parents, is handed out: the memo keeps
        # no parent on 8 vertices and no child on 9
        cs = ConstraintSet(u=1, delta=2)
        top = list(fresh_levels(9, keep_of(cs, None)))[9]
        for _ in range(2):
            assert top_level(9, cs) == tuple(top)
            assert max(g.n for g in search._expansions) == search.ENUM_CAP - 1
            assert all(
                child is None or child.n <= search.ENUM_CAP
                for _, _, (_, child, _) in memo_entries()
            )

    def test_repeated_u2_call_builds_nothing(self, monkeypatch):
        cs = ConstraintSet(u=2, omega=3)
        first = brute_extremal_u(6, 2, K3, cs, n_cap=7)
        calls = count_calls(monkeypatch)
        assert brute_extremal_u(6, 2, K3, cs, n_cap=7) == first
        assert calls == []

    def test_single_u2_call_walks_only_its_pruned_levels(self, monkeypatch, cold_search):
        calls = count_calls(monkeypatch)
        brute_extremal_u(1, 2, K3, ConstraintSet(u=2), n_cap=8)
        # the parents are the pruned levels 0..7; each is asked only the
        # sizes with room for k^2 <= 1, and each of those children is
        # built once
        keep = keep_of(None, (2, 1))
        parents = [g for reps in fresh_levels(7, keep) for g in reps]
        assert set(search._expansions) == set(parents)
        for g in parents:
            room = range(top_degree(g), min(g.n, 1 - g.edge_count) + 1)
            assert set(search._expansions[g].sizes) == set(room)
        assert len(calls) == sum(
            len(_augmentations(g, s, None)[0])
            for g in parents
            for s in range(min(g.n, 1 - g.edge_count) + 1)
        )
        # a second walk of the same levels builds nothing
        calls.clear()
        list(levels(8, ConstraintSet(u=2), (2, 1)))
        assert calls == []

    def test_failed_build_is_dropped(self, monkeypatch, cold_search):
        cs = ConstraintSet(u=1, delta=3)
        calls = count_calls(monkeypatch, fail_at=100)
        with pytest.raises(RuntimeError, match="interrupted build"):
            top_level(6, cs)
        assert len(calls) == 100
        for n, reps in _levels(6, lambda g: passes_constraints(g, cs)):
            assert top_level(n, cs) == tuple(reps)

    def test_u2_matches_clique_count_pruned_walk(self):
        # reference: the argmax over the walk pruned by k^2 <= p
        cs = ConstraintSet(u=2, omega=3)
        for p in range(13):
            def keep(g):
                return count_cliques(g, 2) <= p and passes_constraints(g, cs)

            best, argmax, examined = 0, [], 0
            for n, reps in _levels(7, keep):
                if not n:
                    continue
                for g in reps:
                    if count_cliques(g, 2) != p:
                        continue
                    examined += 1
                    val = count_subgraph_copies(K3, g)
                    if val > best:
                        best, argmax = val, [g]
                    elif val == best:
                        argmax.append(g)
                out = brute_extremal_u(p, 2, K3, cs, n_cap=n)
                assert out.objective == best
                assert out.argmax == tuple(sorted(graph6_encode(g) for g in argmax))
                assert out.search_space_size == examined

    @pytest.mark.parametrize("call, message", [
        (lambda: enumerate_graphs(-1), "n=-1 is negative"),
        (lambda: brute_extremal(-1, K3, ConstraintSet(omega=3)), "n=-1 is negative"),
        (lambda: brute_extremal_u(-2, 2, K3, ConstraintSet(omega=3)), "p=-2 is negative"),
        (lambda: brute_extremal_u(-1, 1, K3, ConstraintSet(omega=3)), "p=-1 is negative"),
        (lambda: brute_extremal_u(3, 2, K3, ConstraintSet(omega=3), n_cap=-1),
         "n_cap=-1 is negative"),
        (lambda: nonisomorphic_graphs_upto(-1), "n=-1 is negative"),
        (lambda: levels(-1), "n=-1 is negative"),
        (lambda: empirical_turan_goodness(K3, 3, -1), "n=-1 is negative"),
    ])
    def test_negative_inputs_rejected_before_work(self, monkeypatch, call, message):
        calls = count_calls(monkeypatch)
        with pytest.raises(ValueError, match=message):
            call()
        assert calls == []


def fresh_levels(n_max, keep=None):
    """The level walk without the expansion memo and without room: every
    parent is expanded at every neighbourhood size, every child built and
    filtered by ``keep`` alone, and every kept unsettled child labeled
    afresh."""
    reps, known = [Graph(0, ())], [None]
    yield reps
    for _ in range(n_max):
        children, child_gens = [], []
        for g, gens in zip(reps, known):
            augmentations = []
            for s in range(g.n + 1):
                masks, gens = _augmentations(g, s, gens)
                augmentations += masks
            for mask, settled in sorted(augmentations):
                child = add_vertex(g, mask)
                if keep is not None and not keep(child):
                    continue
                found = None if settled else _is_canonical_deletion(child)
                if settled or found is not None:
                    children.append(child)
                    child_gens.append(found)
        reps, known = children, child_gens
        yield reps


def top_degree(g):
    return max((row.bit_count() for row in g.adj), default=0)


def memo_entries():
    """(parent, size, entry) for every entry [mask, child, label] of the
    expansion memo."""
    for g, record in search._expansions.items():
        for s, entries in record.sizes.items():
            for entry in entries:
                yield g, s, entry


def keep_of(cs, cliques):
    """The keep predicate of the walk key (cs, cliques)."""

    def keep(g):
        if cliques is not None and count_cliques(g, cliques[0]) > cliques[1]:
            return False
        return cs is None or passes_constraints(g, cs)

    return keep


# walk keys (prune, cliques): the unpruned key, the sets criteria 2
# and 3 read, and a k^2 <= 6 clique key
STORE_KEYS = (
    [(None, None)]
    + [(cs, None) for cs in CRITERIA_SETS]
    + [(ConstraintSet(u=2, omega=3), (2, 6))]
)


# walk keys with room, and the sets criteria 2 and 3 read: u = 1 degree
# bounds, clique bounds (2, p) alone, and both beside other constraints
ROOM_KEYS = (
    [(cs, None) for cs in CRITERIA_SETS]
    + [(ConstraintSet(u=1, delta=d), None) for d in (1, 5)]
    + [(ConstraintSet(u=1, delta=3, omega=3), None)]
    + [(None, (2, p)) for p in range(11)]
    + [(ConstraintSet(u=1, delta=3), (2, 8)), (ConstraintSet(u=2, omega=3), (2, 10))]
)


class TestExpansionMemo:
    def test_each_class_expanded_and_labeled_once(self, monkeypatch, cold_search):
        # the pruned keys first, so the unpruned walk meets expanded parents
        labeled, expanded = [], []
        label, augment = search.automorphism_generators, search._augmentations

        def record_label(g):
            labeled.append(g)
            return label(g)

        def record_augment(g, s, gens):
            expanded.append((g, s))
            return augment(g, s, gens)

        monkeypatch.setattr(search, "automorphism_generators", record_label)
        monkeypatch.setattr(search, "_augmentations", record_augment)
        for cs, cliques in STORE_KEYS[1:]:
            top_level(7, cs, cliques)
        # a child that no key keeps is never labeled
        assert all(any(keep_of(*key)(g) for key in STORE_KEYS[1:]) for g in labeled)
        top_level(7)
        # each class on <= 6 vertices is expanded exactly once at each size
        # from its top degree up
        classes = [g for reps in nonisomorphic_graphs_upto(6) for g in reps]
        assert len(classes) == 1 + 1 + 2 + 4 + 11 + 34 + 156
        assert len(set(expanded)) == len(expanded)
        assert set(expanded) == {
            (g, s) for g in classes for s in range(top_degree(g), g.n + 1)
        }
        # a second key over parents already expanded expands nothing
        expanded.clear()
        top_level(7, ConstraintSet(u=1, delta=5))
        top_level(7, ConstraintSet(omega=5), (2, 9))
        assert expanded == []
        assert labeled and len(set(labeled)) == len(labeled)

    @pytest.mark.parametrize("cs, cliques", ROOM_KEYS, ids=str)
    def test_room_loses_nothing(self, cs, cliques):
        # the walk with room equals the memo-free walk that builds every
        # child and filters by keep alone, level for level and in order
        degree_bound = cs is not None and cs.u == 1 and cs.delta is not None
        n_max = 8 if degree_bound and cs.delta <= 3 else 7
        for n, reps in enumerate(fresh_levels(n_max, keep_of(cs, cliques))):
            assert top_level(n, cs, cliques) == tuple(reps)

    def test_room_builds_only_children_keep_can_accept(self, monkeypatch, cold_search):
        # under u = 1 with delta every child built has maximum degree <=
        # delta, and under (2, p) at most p edges
        built = []
        real = search.add_vertex

        def record(g, mask):
            built.append(real(g, mask))
            return built[-1]

        monkeypatch.setattr(search, "add_vertex", record)
        top_level(8, ConstraintSet(u=1, delta=3, omega=3))
        assert built and all(top_degree(g) <= 3 for g in built)
        built.clear()
        top_level(7, ConstraintSet(omega=3), (2, 9))
        assert built and all(g.edge_count <= 9 for g in built)

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
    def test_levels_independent_of_walk_order(self, order, cold_search):
        for cs, cliques in STORE_KEYS[::order]:
            for n, reps in enumerate(fresh_levels(7, keep_of(cs, cliques))):
                assert top_level(n, cs, cliques) == tuple(reps)

    def test_memo_holds_only_classes_below_cap(self, cold_search):
        nonisomorphic_graphs_upto(8)
        list(_levels(9, keep_of(ConstraintSet(u=1, delta=2), None)))
        # every class on <= 7 vertices, and nothing else
        assert all(g.n < search.ENUM_CAP for g in search._expansions)
        assert len(search._expansions) == 1 + 1 + 2 + 4 + 11 + 34 + 156 + 1044 == 1253

    @pytest.mark.parametrize("cs", CRITERIA_SETS, ids=str)
    def test_pruned_levels_share_the_unpruned_graphs(self, cs):
        for n in range(8):
            unpruned = {g: g for g in top_level(n)}
            assert all(g is unpruned[g] for g in top_level(n, cs))

    def test_memo_bounded_for_any_number_of_keys(self, cold_search):
        for cs, cliques in STORE_KEYS:
            top_level(7, cs, cliques)
        top_level(8)
        assert len(search._expansions) <= 1253
        rejected = [
            child for _, _, (_, child, label) in memo_entries() if label is search._REJECTED
        ]
        assert rejected and all(child is None for child in rejected)

    def test_failed_labeling_leaves_memo_consistent(self, monkeypatch, cold_search):
        cs = ConstraintSet(u=1, delta=3)
        calls = []
        real = search._is_canonical_deletion

        def flaky(child):
            calls.append(child)
            if len(calls) == 40:
                raise RuntimeError("interrupted labeling")
            return real(child)

        def assert_consistent():
            for g, record in search._expansions.items():
                for s, entries in record.sizes.items():
                    augmentations, _ = _augmentations(g, s, None)
                    assert _augmentations(g, s, record.gens)[0] == augmentations
                    assert [mask for mask, _, _ in entries] == [m for m, _ in augmentations]
                    for (mask, child, label), (_, settled) in zip(entries, augmentations):
                        found = _is_canonical_deletion(add_vertex(g, mask))
                        if label is search._REJECTED:
                            assert child is None and found is None
                            continue
                        assert child is None or child == add_vertex(g, mask)
                        if settled:
                            assert label is None
                        elif label is not search._UNSET:
                            assert label == found

        monkeypatch.setattr(search, "_is_canonical_deletion", flaky)
        with pytest.raises(RuntimeError, match="interrupted labeling"):
            top_level(7, cs)
        assert len(calls) == 40
        assert_consistent()
        for n, reps in enumerate(fresh_levels(7, keep_of(cs, None))):
            assert top_level(n, cs) == tuple(reps)
        assert_consistent()


# walk keys whose candidates the profile table gives: the sets criteria 2
# and 3 read, a codegree bound at u = 2, k^2 = p under K4-freeness, and a
# clique size no class on <= 7 vertices holds
TABLE_KEYS = (
    [(cs, None) for cs in CRITERIA_SETS]
    + [(ConstraintSet(u=2, delta=1, omega=3), None)]
    + [(ConstraintSet(u=2, omega=3), (2, p)) for p in range(9)]
    + [(ConstraintSet(u=9, delta=0), (9, 0))]
)


class TestProfileTable:
    @pytest.mark.parametrize("cs, cliques", TABLE_KEYS, ids=str)
    def test_candidates_are_the_walks_graphs(self, cs, cliques):
        # the rows the table keeps are the classes the memo-free walk
        # keeps, in its order, and the very objects the pruned walk yields
        table = search._free_levels(pattern_spec(K3), 7, cs, cliques)
        fresh = fresh_levels(7, keep_of(cs, cliques))
        for (n, scored), reps in zip(table, fresh, strict=True):
            if cliques is not None:
                u, p = cliques
                reps = [g for g in reps if count_cliques(g, u) == p]
                walked = [g for g in top_level(n, cs, cliques) if count_cliques(g, u) == p]
            else:
                walked = top_level(n, cs)
            rows = [g for g, _ in scored]
            assert rows == reps
            assert len(rows) == len(walked) and all(a is b for a, b in zip(rows, walked))

    def test_columns_match_the_public_counters(self, cold_search):
        patterns = [
            K3,
            K4,
            join(complete_graph(2), empty_graph(2)),
            join(complete_graph(1), path_graph(4)),
        ]
        # a narrow search first, so that the unpruned one extends rows
        # built for a smaller room
        brute_extremal(7, K3, ConstraintSet(u=1, delta=2))
        brute_extremal(7, K3, ConstraintSet())
        assert sum(len(level.rows) for level in search._table) == 1253
        for n in range(search.ENUM_CAP):
            level = search._table[n].rows
            assert list(search._column(n, "omega")) == [clique_number(g) for g in level]
            # u = ENUM_CAP stands for every larger u: no u-clique at all
            for u in (1, 2, 3, search.ENUM_CAP):
                assert list(search._column(n, "codegree", u)) == [
                    check_constraints(g, ConstraintSet(u=u)).max_common_neighborhood_by_u[u]
                    for g in level
                ]
            for u in range(1, search.ENUM_CAP + 1):
                assert list(search._column(n, "cliques", u)) == [
                    count_cliques(g, u) for g in level
                ]
            for h in patterns:
                assert list(search._column(n, "copies", pattern_spec(h))) == [
                    count_subgraph_copies(h, g) for g in level
                ]

    def test_second_sweep_does_no_work(self, monkeypatch, cold_search):
        # a cold sweep walks the unpruned levels once, freeness-checks no
        # graph and counts each class once per pattern; a repeat does no work
        def sweep():
            return [
                brute_extremal(n, h, cs)
                for cs in CRITERIA_SETS
                for n in range(search.ENUM_CAP)
                for h in (K3, K4)
            ]

        checked, counted = [], []
        real_check, real_count = search.passes_constraints, search._count_copies

        def check(g, cs):
            checked.append(g)
            return real_check(g, cs)

        def count(spec, adj, cand):
            counted.append(adj)
            return real_count(spec, adj, cand)

        monkeypatch.setattr(search, "passes_constraints", check)
        monkeypatch.setattr(search, "_count_copies", count)
        first = sweep()
        rows = sum(len(level.rows) for level in search._table)
        assert checked == [] and len(counted) == 2 * rows
        built = count_calls(monkeypatch)
        counted.clear()
        assert sweep() == first
        assert checked == [] and counted == [] and built == []

    @pytest.mark.parametrize("cs", CRITERIA_SETS + [ConstraintSet(u=2, delta=1, omega=3)], ids=str)
    def test_optima_match_the_walk(self, cs):
        # every reader below ENUM_CAP gives what the argmax over the
        # pruned walk gives
        for h in (K3, K4):
            spec = pattern_spec(h)
            for n in range(search.ENUM_CAP):
                walked = ((g, count_subgraph_copies(h, g)) for g in top_level(n, cs))
                assert brute_extremal(n, h, cs) == search._optimum(spec, walked, cs, {"n": n})

    def test_pattern_columns_bounded(self, monkeypatch, cold_search):
        # past the cap the oldest pattern's columns go, and a new request
        # computes them again
        monkeypatch.setattr(search, "_PATTERN_CAP", 2)
        specs = [pattern_spec(h) for h in (K3, K4, complete_graph(2))]
        brute_extremal(3, K3, ConstraintSet())
        for spec in specs:
            for n in range(4):
                search._column(n, "copies", spec)
        assert list(search._copies) == specs[1:]
        assert list(search._column(3, "copies", specs[0])) == [
            count_subgraph_copies(K3, g) for g in search._table[3].rows
        ]
        assert list(search._copies) == [specs[2], specs[0]]

    def test_choice_depends_on_n_alone(self, monkeypatch, cold_search):
        # below ENUM_CAP the readers filter the table and walk nothing; at
        # ENUM_CAP they walk as before, and the table stays put
        walks = []
        real = search._levels

        def record(n_max, keep=None, room=None):
            walks.append(n_max)
            return real(n_max, keep, room)

        monkeypatch.setattr(search, "_levels", record)
        brute_extremal(6, K3, ConstraintSet(u=1, delta=2))
        brute_extremal_u(4, 2, K3, ConstraintSet(u=2, omega=3), n_cap=7)
        empirical_turan_goodness(K3, 2, 7)
        assert walks == [] and len(search._table) == search.ENUM_CAP
        rows = [len(level.rows) for level in search._table]
        brute_extremal(8, K3, ConstraintSet(u=1, delta=2))
        empirical_turan_goodness(K3, 2, 8)
        assert walks == [8, 8]
        assert [len(level.rows) for level in search._table] == rows

    def test_cold_search_builds_only_its_room(self, monkeypatch, cold_search):
        # a cold search at a degree bound builds the children the pruned
        # walk builds, not the unpruned levels
        cs = ConstraintSet(u=1, delta=2)
        built = count_calls(monkeypatch)
        brute_extremal(7, K3, cs)
        rows = sum(len(level.rows) for level in search._table)
        assert rows == sum(map(len, fresh_levels(7, keep_of(cs, None))))
        table_built = len(built)
        search._expansions.clear()
        walked = count_calls(monkeypatch)
        list(enumerate_graphs(7, cs))
        assert table_built == len(walked)

    def test_memo_cleared_alone_keeps_one_row_per_class(self, cold_search):
        # a wider room after the memo alone was emptied adds only the new
        # children, although the memo builds the old ones afresh
        brute_extremal(7, K3, ConstraintSet(u=1, delta=2))
        search._expansions.clear()
        brute_extremal(7, K3, ConstraintSet())
        for level, reps in zip(search._table, fresh_levels(7), strict=True):
            assert len(level.rows) == len(reps) and set(level.rows) == set(reps)


class TestBruteExtremal:
    def test_bounded_degree_and_clique(self):
        out = brute_extremal(5, K3, ConstraintSet(u=1, delta=2, omega=3))
        assert out.objective == 1
        optima = [graph6_decode(s) for s in out.argmax]
        assert any(isomorphic(g, union_of(K3, complete_graph(2))) for g in optima)

    def test_clique_constrained_matches_turan(self):
        out = brute_extremal(6, K3, ConstraintSet(omega=3))
        assert out.objective == count_cliques(turan(3, 6), 3) == 8
        assert any(isomorphic(graph6_decode(s), turan(3, 6)) for s in out.argmax)

    def test_star_constrained_matches_disjoint_cliques(self):
        out = brute_extremal(6, K3, ConstraintSet(u=1, delta=2))
        assert out.objective == 2
        assert any(isomorphic(graph6_decode(s), union_of(K3, K3)) for s in out.argmax)

    def test_argmax_verified_and_free(self):
        cs = ConstraintSet(u=1, delta=3, omega=3)
        out = brute_extremal(6, K4, cs)
        for s in out.argmax:
            assert check_constraints(graph6_decode(s), cs).passes

    def test_superadditivity_of_values(self):
        cs = ConstraintSet(u=1, delta=2, omega=3)
        ex = {n: brute_extremal(n, K3, cs).objective for n in range(1, 8)}
        for p1 in range(1, 7):
            for p2 in range(1, 8 - p1):
                assert ex[p1 + p2] >= ex[p1] + ex[p2]


class TestBruteExtremalU:
    def test_u1_reduces_to_vertex_count(self):
        cs = ConstraintSet(u=1, delta=2, omega=3)
        for p in range(1, 8):
            a = brute_extremal(p, K3, cs).objective
            b = brute_extremal_u(p, 1, K3, cs).objective
            assert a == b

    def test_fixed_edge_triangle_maxima(self):
        cs = ConstraintSet(u=2, omega=3)
        assert brute_extremal_u(3, 2, K3, cs, n_cap=6).objective == 1
        assert brute_extremal_u(7, 2, K3, cs, n_cap=8).objective == 3
        assert brute_extremal_u(12, 2, K3, cs, n_cap=8).objective == count_cliques(
            colex_turan(3, 12), 3
        )

    def test_default_cap_loses_nothing(self):
        # n_cap = u*p = 6 and every vertex of K3 lies in an edge
        out = brute_extremal_u(3, 2, K3, ConstraintSet(u=2, omega=3))
        assert out.fixed == {"u": 2, "p": 3}
        assert out.notes == (
            "vertex cap 6: every vertex of a copy of the pattern lies in a "
            "clique of size 2, and deleting the vertices in no such clique "
            "keeps the clique count, the copy count and freeness and leaves "
            "at most 6 vertices, so the cap loses nothing",
        )

    @pytest.mark.parametrize("p, u, h, n_cap", [
        (4, 2, K3, 7),  # n_cap < u*p
        (1, 4, K3, 5),  # K3 holds no K4: a copy can sit outside every K4
        (1, 3, union_of(K3, complete_graph(1)), 4),  # the K1 lies in no triangle
        (3, 2, union_of(K3, complete_graph(1)), 6),  # the K1 lies in no edge
    ])
    def test_cap_only_note(self, p, u, h, n_cap):
        out = brute_extremal_u(p, u, h, ConstraintSet(u=u, omega=4), n_cap=n_cap)
        assert out.notes == (
            f"vertex cap {n_cap}: the objective is the maximum over graphs "
            f"on at most {n_cap} vertices only",
        )

    def test_cap_only_objective_grows_with_the_cap(self):
        # one K4 and triangles around it: the objective counts copies outside
        # every K4, so it keeps growing past u*p = 4 vertices
        cs = ConstraintSet(u=4, omega=4)
        objectives = [brute_extremal_u(1, 4, K3, cs, n_cap=n).objective for n in (4, 5, 6)]
        assert objectives == [4, 5, 7]

    def test_dominating_pattern_loses_nothing_for_u3(self):
        # K4 has 4 >= 3 dominating vertices: a cap past u*p adds nothing
        cs = ConstraintSet(u=3, omega=4)
        at_cap = brute_extremal_u(2, 3, K4, cs, n_cap=6)
        assert "loses nothing" in at_cap.notes[0]
        assert brute_extremal_u(2, 3, K4, cs, n_cap=7).objective == at_cap.objective

    def test_unreachable_p_returns_zero_candidates(self):
        # k^2 = 1 with a forbidden edge constraint set dominating: use
        # delta=0 so any edge has 0 common neighbours... an edge IS allowed;
        # instead: omega=1 forbids K_2 entirely, so no graph has k^2 = 1
        out = brute_extremal_u(1, 2, K3, ConstraintSet(u=2, omega=1), n_cap=4)
        assert out.objective == 0
        assert out.argmax == ()

