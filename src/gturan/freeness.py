"""Forbidden-subgraph checks: cliques, stars, and complete split graphs.

``check_constraints`` is the fast path used everywhere: a graph is
(u, delta, omega)-free iff its clique number is at most omega and every
u-clique has at most delta common neighbours.  For u=1 the second half is
exactly "maximum degree <= delta" (no K_{1,delta+1}); for u=2 it forbids
K_{1,1,delta+1}.  ``contains_subgraph`` decides arbitrary forbidden
graphs as a cross-check: it is the first-hit use of the embedding search
in ``counting``, stopping at the first embedding found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

from .graphs import Graph, common_neighborhood, iter_bits, mask_of, set_of
from .counting import _frontier, clique_number, enumerate_cliques, has_clique


@dataclass(frozen=True)
class ConstraintSet:
    """Freeness parameters; ``delta`` / ``omega`` may be None (unconstrained)."""

    u: int = 1
    delta: Optional[int] = None
    omega: Optional[int] = None

    def __post_init__(self) -> None:
        if self.u < 1:
            raise ValueError("u must be at least 1")
        if self.delta is not None and self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.omega is not None and self.omega < 1:
            raise ValueError("omega must be at least 1")


@dataclass(frozen=True)
class Violation:
    kind: str  # "clique" or "split"
    vertices: int  # witness vertex mask

    def vertex_list(self) -> tuple[int, ...]:
        return set_of(self.vertices)


@dataclass(frozen=True)
class FreenessReport:
    clique_number: int
    max_degree: int
    max_common_neighborhood_by_u: dict[int, int] = field(default_factory=dict)
    violations: tuple[Violation, ...] = ()

    @property
    def passes(self) -> bool:
        return not self.violations


def contains_subgraph(g: Graph, f: Graph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Decide whether f is a (not necessarily induced) subgraph of g.

    Returns the decision plus an embedding witness mapping vertex i of f
    to witness[i], or None.
    """
    if f.n == 0:
        return True, ()
    if f.edge_count > g.edge_count:
        return False, None
    # first hit: the lowest image of the last pattern vertex
    for order, images, cand in _frontier(f, g.adj, g.vertex_mask):
        witness = [0] * f.n
        for pos, v in enumerate(order[:-1]):
            witness[v] = images[pos]
        witness[order[-1]] = (cand & -cand).bit_length() - 1
        return True, tuple(witness)
    return False, None


def passes_constraints(g: Graph, cs: ConstraintSet) -> bool:
    """Decision-only fast path (no report fields): used as the pruning
    predicate inside enumeration loops."""
    if cs.omega is not None and has_clique(g, cs.omega + 1):
        return False
    if cs.delta is not None:
        if cs.u == 1:
            return all(row.bit_count() <= cs.delta for row in g.adj)
        for c in enumerate_cliques(g, cs.u):
            if common_neighborhood(g, c).bit_count() > cs.delta:
                return False
    return True


def check_constraints(g: Graph, cs: ConstraintSet) -> FreenessReport:
    """Freeness report for the family {K_u v I_{delta+1}, K_{omega+1}}.

    Violation witnesses are deterministic: the lexicographically least
    (omega+1)-clique, and the least u-clique with an oversized common
    neighbourhood together with its delta+1 least common neighbours.
    """
    omega_g = clique_number(g)
    by_u: dict[int, int] = {}
    split = None  # witness: the least u-clique with > delta common neighbours
    for uu in range(1, cs.u + 1):
        best = 0
        for c in enumerate_cliques(g, uu):
            nb = common_neighborhood(g, c)
            size = nb.bit_count()
            best = max(best, size)
            if split is None and uu == cs.u and cs.delta is not None and size > cs.delta:
                split = c | mask_of(islice(iter_bits(nb), cs.delta + 1))
        by_u[uu] = best

    violations: list[Violation] = []
    if cs.omega is not None and omega_g > cs.omega:
        violations.append(Violation("clique", next(enumerate_cliques(g, cs.omega + 1))))
    if split is not None:
        violations.append(Violation("split", split))
    # the 1-cliques are the vertices, so the largest common neighbourhood
    # of a 1-clique is the maximum degree
    return FreenessReport(omega_g, by_u[1], by_u, tuple(violations))

