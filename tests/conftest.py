import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gturan import graphs, search
from gturan.graphs import Graph, random_graph


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
    """Empty the labeling cache of ``gturan.graphs``, so every graph the
    test labels is searched afresh."""
    graphs._labeling.cache_clear()
