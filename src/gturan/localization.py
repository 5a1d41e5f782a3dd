"""Per-copy weights and the localized density inequality.

Every copy J of the pattern H in a host graph G gets two local statistics
taken over the u-subsets c of the dominating vertices of J (dominating in
J's own edge set, not in G):

    clique_size(J) = max over c of the largest clique of G containing c,
    codegree(J)    = max over c of the number of common neighbours of c,

and the weight

    x(J) = 1 / N(H^{down u}, T_{clique_size(J)-u}(codegree(J))),

a closed-form count (``counting.turan_copy_count``).  For H = K_u the
derived pattern is null and every weight is 1.

The localized inequality bounds the weight sum by k^u(G) / C(dom(H), u),
with exact equality on disjoint unions of balanced Turán graphs (plus any
K_u-free tail).  A zero weight denominator aborts the report: it can only
happen when the clique-threshold hypothesis fails for the supplied
threshold parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

from .graphs import Graph, common_neighborhood, iter_bits
from .families import turan
from .counting import (
    PatternSpec,
    as_pattern,
    count_cliques,
    count_subgraph_copies,
    enumerate_cliques,
    enumerate_copies,
    max_clique_containing,
    turan_copy_count,
)
from .bounds import turan_threshold_bound


class HypothesisViolationError(RuntimeError):
    """A copy's weight denominator vanished: the supplied clique threshold
    is below the true one for the derived pattern."""

    def __init__(self, verts: int, clique_size: int, codegree: int, threshold: int):
        self.verts = verts
        self.clique_size = clique_size
        self.codegree = codegree
        super().__init__(
            f"weight undefined on copy {sorted(iter_bits(verts))}: the host "
            f"Turán graph with {clique_size} - u parts on {codegree} vertices "
            f"holds no copy of the derived pattern; threshold parameter "
            f"{threshold} is below the pattern's true clique threshold"
        )


def default_threshold(h: Graph | PatternSpec) -> int:
    """Default clique threshold: 1 for complete patterns (exact), else the
    certified 300 v^9 bound."""
    spec = as_pattern(h)
    p = spec.pattern
    if all(row.bit_count() == p.n - 1 for row in p.adj):
        return 1
    return turan_threshold_bound(p)


def clique_weights(g: Graph, c: int, u: int) -> tuple[int, int]:
    """(largest clique size through c, common-neighbour count of c)."""
    if c.bit_count() != u:
        raise ValueError("clique size does not match u")
    omega_c = max_clique_containing(g, c)  # validates c is a clique
    delta_c = common_neighborhood(g, c).bit_count()
    return omega_c, delta_c


@dataclass(frozen=True)
class CopyWeights:
    verts: int
    edges: frozenset[tuple[int, int]]
    clique_size: int
    codegree: int
    weight: Fraction
    witness_clique_size: int  # u-subset of Dom(J) attaining clique_size
    witness_codegree: int


@dataclass(frozen=True)
class LocalReport:
    per_copy: tuple[CopyWeights, ...]
    weighted_sum: Fraction
    bound: Fraction
    holds: bool
    equality: bool
    hypothesis_ok: bool
    exempt_cliques: tuple[int, ...]  # u-cliques dominating no copy

    def __post_init__(self) -> None:
        assert self.holds == (self.weighted_sum <= self.bound)
        assert self.equality == (self.weighted_sum == self.bound)


def _dominating_in_copy(verts: int, edges: frozenset[tuple[int, int]]) -> list[int]:
    vs = list(iter_bits(verts))
    deg = {v: 0 for v in vs}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return [v for v in vs if deg[v] == len(vs) - 1]


def copy_weights(
    g: Graph,
    copy: tuple[int, frozenset[tuple[int, int]]],
    h: Graph | PatternSpec,
    u: int,
    _stats_memo: Optional[dict[int, tuple[int, int]]] = None,
    _weight_memo: Optional[dict[tuple[int, int], int]] = None,
) -> CopyWeights:
    """Weights of a single copy; maxima over all u-subsets of Dom(J).

    Dom(J) is computed on the copy's own edge set: a copy is a subgraph
    with exactly the pattern's edges, so a vertex may dominate J without
    dominating the induced subgraph of G.
    """
    spec = as_pattern(h)
    if spec.dom_count < u:
        raise ValueError("pattern has too few dominating vertices")
    verts, edges = copy
    dom = _dominating_in_copy(verts, edges)
    stats = _stats_memo if _stats_memo is not None else {}
    best_cs = -1
    best_cd = -1
    wit_cs = 0
    wit_cd = 0
    for pick in combinations(dom, u):
        c = sum(1 << v for v in pick)
        if c not in stats:
            stats[c] = clique_weights(g, c, u)
        oc, dc = stats[c]
        if oc > best_cs:
            best_cs, wit_cs = oc, c
        if dc > best_cd:
            best_cd, wit_cd = dc, c
    denom_memo = _weight_memo if _weight_memo is not None else {}
    key = (best_cs, best_cd)
    if key not in denom_memo:
        denom_memo[key] = turan_copy_count(spec.down(u), best_cs - u, best_cd)
    denom = denom_memo[key]
    if denom == 0:
        raise HypothesisViolationError(verts, best_cs, best_cd, -1)
    return CopyWeights(verts, edges, best_cs, best_cd, Fraction(1, denom), wit_cs, wit_cd)


def localized_report(
    g: Graph, h: Graph | PatternSpec, u: int, threshold: int
) -> LocalReport:
    """Evaluate the localized inequality on g.

    ``threshold`` is the caller's stand-in for the exact clique threshold
    of the derived pattern (see ``default_threshold``).  The hypothesis
    flag records whether every u-clique of dominating vertices of some
    copy reaches threshold + u; the inequality is evaluated either way,
    but only a hypothesis-clean report is inside the theorem.  u-cliques
    of G that dominate no copy are exempt from the hypothesis and listed
    separately.
    """
    spec = as_pattern(h)
    if spec.dom_count < u:
        raise ValueError("pattern has too few dominating vertices")
    copies = enumerate_copies(spec, g)
    stats_memo: dict[int, tuple[int, int]] = {}
    weight_memo: dict[tuple[int, int], int] = {}
    per_copy = []
    relevant: set[int] = set()
    for cp in copies:
        dom = _dominating_in_copy(*cp)
        for pick in combinations(dom, u):
            relevant.add(sum(1 << v for v in pick))
        try:
            per_copy.append(
                copy_weights(g, cp, spec, u, stats_memo, weight_memo)
            )
        except HypothesisViolationError as exc:
            raise HypothesisViolationError(
                exc.verts, exc.clique_size, exc.codegree, threshold
            ) from None
    hypothesis_ok = all(
        stats_memo[c][0] >= threshold + u for c in relevant
    )
    weighted_sum = sum((cw.weight for cw in per_copy), Fraction(0))
    bound = Fraction(count_cliques(g, u), comb(spec.dom_count, u))
    exempt = tuple(c for c in enumerate_cliques(g, u) if c not in relevant)
    return LocalReport(
        tuple(per_copy),
        weighted_sum,
        bound,
        weighted_sum <= bound,
        weighted_sum == bound,
        hypothesis_ok,
        exempt,
    )


def equality_family_graph(
    blocks: list[tuple[int, int]], z_tail: Graph | None = None
) -> Graph:
    """Disjoint union of balanced Turán graphs T_omega(a*omega) plus an
    optional tail; the family on which the localized inequality is tight
    (the tail must be K_u-free for the u in play)."""
    from .graphs import disjoint_union

    parts: list[tuple[Graph, int]] = [(turan(w, a * w), 1) for (w, a) in blocks]
    if z_tail is not None:
        parts.append((z_tail, 1))
    return disjoint_union(parts)


def global_recovery_holds(
    g: Graph, h: Graph | PatternSpec, u: int, delta: int, omega: int
) -> bool:
    """Global corollary: on a {K_u v I_{delta+1}, K_{omega+1}}-free graph,
    N(H, G) <= N(H^{down u}, T_{omega-u}(delta)) * k^u(G) / C(dom, u)."""
    spec = as_pattern(h)
    lhs = count_subgraph_copies(spec, g)
    cap = turan_copy_count(spec.down(u), omega - u, delta)
    return lhs * comb(spec.dom_count, u) <= cap * count_cliques(g, u)
