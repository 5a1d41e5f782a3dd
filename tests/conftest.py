import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gturan import graphs, search
from gturan.graphs import Graph, cycle_graph, from_edge_list, path_graph, random_graph


CORPUS_SEED = 1837


@pytest.fixture(scope="session")
def corpus() -> list[Graph]:
    """1000 seeded random graphs with up to 30 vertices."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(1000):
        n = rng.randint(0, 30)
        out.append(random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])))
    return out


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    """500 seeded random graphs with up to 12 vertices."""
    rng = random.Random(CORPUS_SEED + 1)
    return [
        random_graph(rng, rng.randint(0, 12), rng.choice([0.2, 0.4, 0.6, 0.8]))
        for _ in range(500)
    ]


@pytest.fixture
def cold_search() -> None:
    """Empty the expansion memo of ``gturan.search``, so the test starts
    from a cold process."""
    search._expansions.clear()


@pytest.fixture
def cold_labels() -> None:
    """Empty the labeling cache of ``gturan.graphs``, which also holds the
    component forms, so every graph the test labels, and every component
    of one, is searched afresh."""
    graphs._labeling.cache_clear()


# the templates of the twin-quotient grid: C5, P4, the bull and K3 with a
# pendant vertex
BLOW_UP_TEMPLATES = [
    cycle_graph(5),
    path_graph(4),
    from_edge_list(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]),
    from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
]


def build_blow_up(rng: random.Random, template: Graph, sizes, true_twins: int) -> Graph:
    """The blow-up of ``template`` with ``sizes[x]`` vertices in place of
    vertex x, pairwise adjacent when x is in the mask ``true_twins``,
    randomly relabeled."""
    owner = [x for x in range(template.n) for _ in range(sizes[x])]
    perm = list(range(len(owner)))
    rng.shuffle(perm)
    return from_edge_list(len(owner), [
        (perm[a], perm[b])
        for a, b in combinations(range(len(owner)), 2)
        if (true_twins >> owner[a] & 1 if owner[a] == owner[b]
            else template.has_edge(owner[a], owner[b]))
    ])


@pytest.fixture(scope="session")
def twin_grid() -> list[tuple[Graph, tuple[int, ...], int, Graph]]:
    """Seeded (template, sizes, true-twin mask, host) blow-ups: each
    template class of 1 to 4 vertices, false or true twins, and the
    complements of Turán graphs, whose parts are cliques of true twins."""
    rng = random.Random(CORPUS_SEED + 2)
    out = []
    for template in BLOW_UP_TEMPLATES:
        kept = 0
        while kept < 6:
            sizes = tuple(rng.randint(1, 4) for _ in range(template.n))
            if max(sizes) == 1:  # no twins to quotient
                continue
            true_twins = rng.getrandbits(template.n)
            out.append((template, sizes, true_twins, build_blow_up(rng, template, sizes, true_twins)))
            kept += 1
    for r, n in [(2, 5), (3, 7), (3, 8), (4, 9)]:
        sizes = tuple(n // r + (x < n % r) for x in range(r))
        template = from_edge_list(r, [])
        out.append((template, sizes, (1 << r) - 1, build_blow_up(rng, template, sizes, (1 << r) - 1)))
    return out
