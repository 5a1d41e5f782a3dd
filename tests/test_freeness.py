import random

import pytest

from conftest import CORPUS_SEED, build_blow_up
from oracles import subset_cliques
from gturan.graphs import (
    complete_graph,
    cycle_graph,
    from_edge_list,
    path_graph,
    random_graph,
    set_of,
)
from gturan.families import ParamTriple, colex_turan, complete_split, lower_bound_graph, turan
from gturan.freeness import ConstraintSet, check_constraints, contains_subgraph
from gturan.search import nonisomorphic_graphs_upto


class TestContainsSubgraph:
    def test_examples(self):
        found, witness = contains_subgraph(cycle_graph(4), path_graph(3))
        assert found
        a, b, c = witness
        g = cycle_graph(4)
        assert g.has_edge(a, b) and g.has_edge(b, c)
        assert not contains_subgraph(cycle_graph(4), complete_graph(3))[0]
        assert not contains_subgraph(turan(4, 8), complete_graph(5))[0]

    def test_empty_pattern(self):
        assert contains_subgraph(complete_graph(2), complete_graph(0)) == (True, ())

    def test_witness_is_an_embedding(self):
        g = turan(3, 7)
        f = complete_split(2, 3)
        found, witness = contains_subgraph(g, f)
        assert found
        for i, j in f.edges():
            assert g.has_edge(witness[i], witness[j])
        assert len(set(witness)) == f.n


class TestCheckConstraints:
    def test_lower_bound_graph_passes(self):
        g = lower_bound_graph(ParamTriple(1, 5, 4))
        rep = check_constraints(g, ConstraintSet(u=1, delta=5, omega=4))
        assert rep.passes
        assert rep.clique_number == 4
        assert rep.max_degree == 5

    def test_k5_fails_with_clique_witness(self):
        rep = check_constraints(complete_graph(5), ConstraintSet(u=1, delta=5, omega=4))
        assert not rep.passes
        assert rep.violations[0].kind == "clique"
        assert rep.violations[0].vertices.bit_count() == 5

    def test_degree_minimal_colex_is_free(self):
        # the 42-vertex demo block; the default colex order is not free here
        g = colex_turan(4, 17, degree_minimal=True)
        assert check_constraints(g, ConstraintSet(u=1, delta=5, omega=4)).passes
        assert not check_constraints(
            colex_turan(4, 17), ConstraintSet(u=1, delta=5, omega=4)
        ).passes

    def test_split_witness_shape(self):
        star = complete_split(1, 4)
        rep = check_constraints(star, ConstraintSet(u=1, delta=3, omega=None))
        assert not rep.passes
        v = rep.violations[0]
        assert v.kind == "split"
        # witness is the centre plus delta+1 of its neighbours
        assert v.vertices.bit_count() == 5
        assert 0 in set_of(v.vertices)

    def test_u2_clique_and_split_witnesses(self):
        # a pendant edge 0-1 on K5 = {1..5}: the first 2-clique {0, 1} has no
        # common neighbour, the next one {1, 2} has three
        g = from_edge_list(6, [(0, 1)] + [(a, b) for a in range(1, 6) for b in range(a + 1, 6)])
        rep = check_constraints(g, ConstraintSet(u=2, delta=1, omega=4))
        assert rep.clique_number == 5
        assert rep.max_degree == 5
        assert rep.max_common_neighborhood_by_u == {1: 5, 2: 3}
        assert [(v.kind, v.vertex_list()) for v in rep.violations] == [
            ("clique", (1, 2, 3, 4, 5)),  # the least 5-clique
            ("split", (1, 2, 3, 4)),  # {1, 2} and its two least common neighbours
        ]

    def test_max_codegree_map(self):
        rep = check_constraints(turan(3, 6), ConstraintSet(u=2, delta=2, omega=3))
        assert rep.passes
        assert rep.max_common_neighborhood_by_u == {1: 4, 2: 2}

    def test_unconstrained_always_passes(self):
        rep = check_constraints(complete_graph(6), ConstraintSet())
        assert rep.passes


def test_equivalence_with_generic_subgraph_search():
    """The clique-neighbourhood fast path agrees with literal forbidden
    subgraph containment on every small graph."""
    levels = nonisomorphic_graphs_upto(7)
    for u in (1, 2):
        for delta in (2, 3, 4):
            for omega in (2, 3, 4):
                cs = ConstraintSet(u=u, delta=delta, omega=omega)
                split = complete_split(u, delta + 1)
                komega = complete_graph(omega + 1)
                for n in range(1, 8):
                    for g in levels[n]:
                        fast = check_constraints(g, cs).passes
                        slow = (
                            not contains_subgraph(g, split)[0]
                            and not contains_subgraph(g, komega)[0]
                        )
                        assert fast == slow


def host_cliques(g) -> list[list[tuple[tuple[int, ...], list[int]]]]:
    """Every clique of the host with its common neighbours, by size and in
    lexicographic order, up to an empty list past the clique number."""
    levels = [[((), list(range(g.n)))]]
    while levels[-1]:
        levels.append([
            (c, [v for v in range(g.n) if all(g.has_edge(v, x) for x in c)])
            for c in subset_cliques(g, len(levels))
        ])
    return levels


def host_clique_report(levels, cs: ConstraintSet):
    """``check_constraints`` by its definition, on ``host_cliques``: (clique
    number, maxima by u, violations)."""
    omega = len(levels) - 2
    by_u = {}
    split = None
    for uu in range(1, cs.u + 1):
        rows = levels[uu] if uu <= omega else []
        by_u[uu] = max((len(nb) for _, nb in rows), default=0)
        if uu == cs.u and cs.delta is not None:
            split = next((tuple(sorted(c + tuple(nb[:cs.delta + 1])))
                          for c, nb in rows if len(nb) > cs.delta), None)
    violations = []
    if cs.omega is not None and omega > cs.omega:
        violations.append(("clique", levels[cs.omega + 1][0][0]))
    if split is not None:
        violations.append(("split", split))
    return omega, by_u, violations


def test_twin_hosts_against_host_clique_walk(twin_grid):
    """The walk over one vertex per false-twin class finds the host walk's
    maxima and witnesses, on relabeled blow-ups with both twin kinds."""
    rng = random.Random(CORPUS_SEED + 5)
    hosts = [host for _, _, _, host in twin_grid]
    while len(hosts) < 80:
        template = random_graph(rng, rng.randint(3, 5), 0.5)
        sizes = [rng.randint(1, 3) for _ in range(template.n)]
        hosts.append(build_blow_up(rng, template, sizes, rng.getrandbits(template.n)))
    checked = 0
    for g in hosts:
        levels = host_cliques(g)
        for u in (1, 2, 3):
            for delta in (None, 0, 1, 2, 4):
                for omega in (None, 1, 2, 3):
                    cs = ConstraintSet(u=u, delta=delta, omega=omega)
                    rep = check_constraints(g, cs)
                    got = (rep.clique_number, rep.max_common_neighborhood_by_u,
                           [(v.kind, v.vertex_list()) for v in rep.violations])
                    assert got == host_clique_report(levels, cs)
                    assert rep.max_degree == max(row.bit_count() for row in g.adj)
                    checked += 1
    assert checked == 80 * 60


def test_turan_host_walks_one_vertex_per_part():
    # 2^24 host 3-cliques and 2^40 host 8-cliques; one each on the parts' leads
    g = turan(8, 256)
    rep = check_constraints(g, ConstraintSet(u=3, delta=1))
    assert rep.max_common_neighborhood_by_u == {1: 224, 2: 192, 3: 160}
    assert [(v.kind, v.vertex_list()) for v in rep.violations] == [("split", (0, 32, 64, 96, 97))]
    rep = check_constraints(g, ConstraintSet(u=8, delta=1))
    assert rep.passes and rep.clique_number == 8
    assert rep.max_common_neighborhood_by_u == {u: 32 * (8 - u) for u in range(1, 9)}


def test_constraint_validation():
    with pytest.raises(ValueError):
        ConstraintSet(u=0)
    with pytest.raises(ValueError):
        ConstraintSet(delta=-1)
