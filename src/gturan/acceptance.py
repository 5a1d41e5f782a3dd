"""Acceptance suite: one callable per criterion, runnable from the CLI
(``gturan verify``) and from the pytest acceptance module.

Every check is exact (integer or rational comparisons); the only
randomness is the seeded corpora, with fixed default seeds so runs are
reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from . import DEFAULT_SEED
from .graphs import (
    Graph,
    complete_graph,
    disjoint_union,
    empty_graph,
    graph6_encode,
    join,
    path_graph,
    random_graph,
)
from .families import ParamTriple, colex_turan, complete_split, turan
from .counting import (
    copies_through,
    count_cliques,
    count_copies_rooted,
    count_subgraph_copies,
    enumerate_cliques,
    pattern_spec,
    turan_copy_count,
)
from .freeness import ConstraintSet, check_constraints
from .bounds import bounds_report, ratio_diagnostic
from .localization import HypothesisViolationError, equality_family_graph, localized_report
from .search import (
    brute_extremal,
    brute_extremal_u,
    empirical_turan_goodness,
    nonisomorphic_graphs_upto,
)


@dataclass
class CriterionResult:
    cid: int
    description: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0


def _pattern_grid() -> list[tuple[str, Graph]]:
    return [
        ("K3", complete_graph(3)),
        ("K4", complete_graph(4)),
        ("K2vI2", complete_split(2, 2)),
        # the fan: a non-clique pattern with exactly one dominating vertex
        ("K1vP4", join(complete_graph(1), path_graph(4))),
    ]


def _subset_clique_count(g: Graph, t: int) -> int:
    """Independent recount: scan all t-subsets with itertools."""
    total = 0
    for sub in combinations(range(g.n), t):
        if all(g.has_edge(a, b) for a, b in combinations(sub, 2)):
            total += 1
    return total


def _crossover() -> tuple[tuple[Graph, Graph, Graph], dict[str, bool], dict[str, int]]:
    """The two 42-vertex demo graphs (six degree-minimal colex blocks,
    seven Turán blocks) with their block, their freeness and crossover
    checks, and their triangle and K_4 counts."""
    block = colex_turan(4, 17, degree_minimal=True)
    g_colex = disjoint_union([(block, 6)])
    g_turan = disjoint_union([(turan(4, 6), 7)])
    cs = ConstraintSet(u=1, delta=5, omega=4)
    checks = {
        "42 vertices": g_colex.n == 42 and g_turan.n == 42,
        "both free": check_constraints(g_colex, cs).passes
        and check_constraints(g_turan, cs).passes,
    }
    counts = {
        "k3_colex_blocks": count_cliques(g_colex, 3),
        "k3_turan_blocks": count_cliques(g_turan, 3),
        "k4_colex_blocks": count_cliques(g_colex, 4),
        "k4_turan_blocks": count_cliques(g_turan, 4),
    }
    checks["k3 crossover"] = counts["k3_colex_blocks"] > counts["k3_turan_blocks"]
    checks["k4 crossover"] = counts["k4_turan_blocks"] > counts["k4_colex_blocks"]
    return (block, g_colex, g_turan), checks, counts


def reproduce_examples() -> dict:
    """Build the two 42-vertex demo graphs, verify freeness and the
    strict crossover of their triangle and K_4 counts, and return all
    four exact integers with the graph6 of both graphs and the colex
    block.  Raises AssertionError naming the failed checks."""
    (block, g_colex, g_turan), checks, counts = _crossover()
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise AssertionError(f"reproduce-examples failed: {failed}, counts {counts}")
    return {
        **counts,
        "colex_block": graph6_encode(block),
        "graph6_colex": graph6_encode(g_colex),
        "graph6_turan": graph6_encode(g_turan),
    }


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Crossover of the two 42-vertex demo graphs: both free, triangle
    count favours the colex-interpolated blocks, 4-clique count favours
    the Turán blocks; counts re-verified by subset enumeration."""
    (_, g_colex, g_turan), checks, counts = _crossover()
    checks["oracle recount"] = (
        _subset_clique_count(g_colex, 3) == counts["k3_colex_blocks"]
        and _subset_clique_count(g_turan, 3) == counts["k3_turan_blocks"]
        and _subset_clique_count(g_colex, 4) == counts["k4_colex_blocks"]
        and _subset_clique_count(g_turan, 4) == counts["k4_turan_blocks"]
    )
    return CriterionResult(
        1,
        "42-vertex crossover reproduction",
        all(checks.values()),
        {**checks, **counts},
    )


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Clique-bounded oracle (Zykov: K_t is Turán-good): max k^t over
    K_{omega+1}-free graphs on n vertices equals the Turán count, n <= 7,
    omega in 2..4, t in 3..4."""
    details: dict = {}
    for omega in (2, 3, 4):
        mismatches = []
        for t in (3, 4):
            out = empirical_turan_goodness(complete_graph(t), omega, 7)
            mismatches += [(n, t, best, want) for n, best, want in out.rows if best != want]
        details[f"omega={omega}"] = mismatches or "ok"
    passed = all(v == "ok" for v in details.values())
    return CriterionResult(2, "exhaustive oracle matches Turán counts", passed, details)


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Star-bounded oracle: max k^t over K_{1,delta+1}-free graphs on n
    vertices equals the disjoint-cliques count k^t(aK_{delta+1} u K_b),
    n <= 7, delta in 2..4, t in 3..4."""
    details: dict = {}
    for delta in (2, 3, 4):
        cs = ConstraintSet(delta=delta)
        mismatches = []
        for n in range(1, 8):
            a, b = divmod(n, delta + 1)
            host = disjoint_union([(complete_graph(delta + 1), a), (complete_graph(b), 1)])
            for t in (3, 4):
                best = brute_extremal(n, complete_graph(t), cs).objective
                want = count_cliques(host, t)
                if best != want:
                    mismatches.append((n, t, best, want))
        details[f"delta={delta}"] = mismatches or "ok"
    passed = all(v == "ok" for v in details.values())
    return CriterionResult(3, "exhaustive oracle matches disjoint-clique counts", passed, details)


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Fixed-edge-count oracle: max k^3 over K_4-free graphs with m edges
    (vertex cap 8) equals the colex interpolation count, m <= 12."""
    cs = ConstraintSet(u=2, omega=3)
    rows = []
    examined = 0
    for m in range(1, 13):
        out = brute_extremal_u(m, 2, complete_graph(3), cs, n_cap=8)
        examined += out.search_space_size
        rows.append((m, out.objective, count_cliques(colex_turan(3, m), 3)))
    return CriterionResult(
        4,
        "colex interpolation matches the fixed-edge oracle",
        all(oracle == colex for _, oracle, colex in rows),
        {"rows (m, oracle, colex)": rows, "classes": examined},
    )


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Bounds sandwich on the whole grid: lower <= upper always, with
    exact equality whenever omega-u divides delta."""
    points = 0
    equal_points = 0
    failures = []
    for name, h in _pattern_grid():
        for u in range(1, pattern_spec(h).dom_count + 1):
            for omega in range(u + 1, 7):
                for delta in range(omega, 15):
                    rep = bounds_report(h, ParamTriple(u, delta, omega))
                    points += 1
                    good = rep.lower <= rep.upper and (not rep.divisible or rep.equal)
                    if rep.equal:
                        equal_points += 1
                    if not good:
                        failures.append((name, u, delta, omega))
    return CriterionResult(
        5,
        "divisibility equality and sandwich ordering over the grid",
        not failures,
        {"points": points, "equal_points": equal_points, "failures": failures},
    )


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Closed-form copy counts in Turán graphs match enumeration in the
    built graph: cliques K_s with s <= 5, every grid pattern and every
    pattern derived from it by deleting dominating vertices."""
    patterns = [(f"K{s}", complete_graph(s)) for s in range(6)]
    for name, h in _pattern_grid():
        spec = pattern_spec(h)
        patterns += [(f"{name}-{u}", spec.down(u)) for u in range(spec.dom_count + 1)]
    bad = []
    for r in range(1, 7):
        for n in range(0, 15):
            g = turan(r, n)
            for name, h in patterns:
                if turan_copy_count(h, r, n) != count_subgraph_copies(h, g):
                    bad.append((r, n, name))
    return CriterionResult(
        6, "closed form vs enumeration, r<=6 n<=14, K_s for s<=5 and grid patterns",
        not bad, {"patterns": len(patterns), "failures": bad},
    )


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Double-counting identity: C(dom,u) * N(H,G) equals the sum over
    u-cliques c of the derived-pattern count inside N(c), on 200 seeded
    random graphs."""
    rng = random.Random(seed)
    bad = []
    tested = 0
    patterns = [(name, h, pattern_spec(h).dom_count) for name, h in _pattern_grid()]
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        for name, h, d in patterns:
            for u in range(1, d + 1):
                lhs = comb(d, u) * count_subgraph_copies(h, g)
                rhs = sum(
                    count_copies_rooted(h, g, c, u) for c in enumerate_cliques(g, u)
                )
                tested += 1
                if lhs != rhs:
                    bad.append((name, u, graph6_encode(g)))
    return CriterionResult(
        7, "rooted-copy double counting on random corpus", not bad,
        {"identities": tested, "failures": bad},
    )


def _equality_family_cases(rng: random.Random, count: int):
    """Seeded equality-family instances: balanced Turán unions whose
    blocks can host the pattern, plus a K_u-free tail for the u >= 2
    cases (a K_1-free tail would have to be empty)."""
    cases = []
    while len(cases) < count:
        t = rng.choice([3, 4])
        u = rng.randint(1, 2)
        k = rng.randint(1, 3)
        blocks = []
        total = 0
        for _ in range(k):
            w = rng.randint(max(t, u + 1), 5)
            a = rng.randint(1, 2)
            if total + w * a > 26:
                continue
            blocks.append((w, a))
            total += w * a
        if not blocks:
            continue
        tail = None
        if u >= 2 and rng.random() < 0.7:
            tail = empty_graph(rng.randint(1, 5))  # K_2-free
        cases.append((t, u, blocks, tail))
    return cases


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Localized inequality: holds on every graph with at most 7 vertices
    (K3, K4 and K2vI2 with u = 1, 2, the fan K1vP4 with u = 1; every
    weight defined) and on 500 seeded random graphs up to 16 vertices (K3,
    K4, u = 1, 2); exact equality on 50 balanced-Turán-union cases."""
    bad = []
    patterns = [(3, complete_graph(3)), (4, complete_graph(4))]
    small = [(name, h, u) for name, h in _pattern_grid() for u in (1, 2)
             if u <= pattern_spec(h).dom_count]
    checked = 0
    for reps in nonisomorphic_graphs_upto(7)[1:]:
        for g in reps:
            for name, h, u in small:
                try:
                    holds = localized_report(g, h, u, 1).holds
                except HypothesisViolationError:
                    holds = False
                checked += 1
                if not holds:
                    bad.append(("small", name, u, graph6_encode(g)))
    rng = random.Random(seed)
    for _ in range(500):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        for t, h in patterns:
            for u in (1, 2):
                rep = localized_report(g, h, u, 1)
                checked += 1
                if not rep.holds:
                    bad.append(("random", t, u, graph6_encode(g)))
    eq_checked = 0
    for t, u, blocks, tail in _equality_family_cases(rng, 50):
        g = equality_family_graph(blocks, tail)
        rep = localized_report(g, complete_graph(t), u, 1)
        eq_checked += 1
        if not rep.equality:
            bad.append(("equality", t, u, graph6_encode(g)))
    return CriterionResult(
        8, "localized inequality and equality families", not bad,
        {"inequality checks": checked, "equality checks": eq_checked, "failures": bad},
    )


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Finite count-ratio inequalities in Turán graphs plus the
    copies-through-a-vertex monotonicity."""
    bad = []
    checked = 0
    for t in (3, 4):
        h = complete_graph(t)
        for r in range(t, 7):
            for n in range(t, 15):
                total = turan_copy_count(h, r, n)
                if total == 0:
                    continue
                for u in (1, 2):
                    ratio, floor = ratio_diagnostic(h, r, n, u)
                    checked += 1
                    if not (floor <= ratio <= 1):
                        bad.append(("ratio", t, r, n, u))
                # copies through the two extreme vertices of the built graph
                g = turan(r, n)
                small = copies_through(h, g, 1 << (n - 1))  # smallest part
                large = copies_through(h, g, 1)  # largest part
                checked += 1
                if small < large:
                    bad.append(("monotone", t, r, n))
                if large != total - turan_copy_count(h, r, n - 1):
                    bad.append(("largest-part count", t, r, n))
    return CriterionResult(
        9, "finite Turán count inequalities", not bad,
        {"checks": checked, "failures": bad},
    )


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Finite stand-in for the asymptotic statements: the lower/upper
    ratio trend over delta <= 30 stays above both proof-side floors (the
    shifted Turán-count ratio and the telescoped product)."""
    bad = []
    rows = 0
    grid: list[tuple[str, Graph, int, int, int]] = []
    for t in (3, 4):
        for u in (1, 2):
            for omega in range(max(t, u + 2), 6):
                grid.append((f"K{t}", complete_graph(t), u, omega, 30))
    grid.append(("K2vI2", complete_split(2, 2), 1, 4, 18))
    grid.append(("K2vI2", complete_split(2, 2), 2, 4, 18))
    for name, h, u, omega, dmax in grid:
        spec = pattern_spec(h)
        for delta in range(omega, dmax + 1):
            rep = bounds_report(h, ParamTriple(u, delta, omega))
            if rep.upper == 0:
                continue
            ratio = rep.lower / rep.upper
            shifted, product = ratio_diagnostic(spec.down(u), omega - u, delta, u)
            rows += 1
            if not (ratio <= 1 and ratio >= shifted and shifted >= product):
                bad.append((name, u, omega, delta, str(ratio)))
    return CriterionResult(
        10, "ratio trend dominates the finite floors, delta <= 30", not bad,
        {"rows": rows, "failures": bad},
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}

QUICK = (1, 5, 6, 9, 10)


def run_acceptance(level: str = "full", seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    ids = QUICK if level == "quick" else tuple(sorted(CRITERIA))
    results = []
    for i in ids:
        start = time.perf_counter()
        result = CRITERIA[i](seed)
        result.elapsed = time.perf_counter() - start
        results.append(result)
    return results
