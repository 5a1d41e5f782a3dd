"""Per-clique weights and the localized density inequality.

Every copy J of the pattern H in a host graph G has as dominating set
Dom(J) (dominating in J's own edge set, not in G) the image of Dom(H), a
d-clique C of G with d = dom(H).  J's two local statistics are taken over
the u-subsets c of C:

    clique_size(C) = max over c of the largest clique of G containing c,
    codegree(C)    = max over c of the number of common neighbours of c,

and its weight is w(C) = 1 / N(H^{down u}, T_{clique_size(C)-u}(codegree(C))),
a closed-form count (``counting.turan_copy_count``); for H = K_u every
weight is 1.  The copies with Dom(J) = C are C joined to the copies of
H - Dom(H) in the common neighbourhood N(C), so no copy is listed:

    weighted_sum = sum over d-cliques C of w(C) * N(H - Dom H, G[N(C)]).

The report is one clique walk (``counting._cliques``) that carries N(C):
each step fixes a (d-1)-clique and its common neighbourhood, so N(C) of
each completion v is one AND with v's row.  Statistics are memoized per
u-clique, weights per (clique size, codegree).

The localized inequality bounds the weighted sum by k^u(G) / C(dom(H), u),
with exact equality on disjoint unions of balanced Turán graphs (plus any
K_u-free tail).  A zero weight denominator aborts the report: it can only
happen when the clique-threshold hypothesis fails for the supplied
threshold parameter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .graphs import Graph, common_neighborhood, disjoint_union, iter_bits
from .families import turan
from .counting import (
    PatternSpec,
    _cliques,
    _count_copies,
    _max_clique,
    _representatives,
    count_cliques,
    count_copies_rooted,
    count_subgraph_copies,
    enumerate_cliques,
    is_clique,
    pattern_spec,
    turan_copy_count,
)
from .bounds import turan_threshold_bound


class HypothesisViolationError(RuntimeError):
    """A dominating clique's weight denominator vanished: the supplied
    clique threshold is below the true one for the derived pattern."""

    def __init__(self, clique: int, clique_size: int, codegree: int, threshold: int):
        self.clique = clique
        self.clique_size = clique_size
        self.codegree = codegree
        super().__init__(
            f"weight undefined on dominating clique {sorted(iter_bits(clique))}: "
            f"the host Turán graph with {clique_size} - u parts on {codegree} "
            f"vertices holds no copy of the derived pattern; threshold parameter "
            f"{threshold} is below the pattern's true clique threshold"
        )


def default_threshold(h: Graph) -> int:
    """Default clique threshold: 1 for complete patterns (exact), else the
    certified 300 v^9 bound."""
    if pattern_spec(h).dom_count == h.n:
        return 1
    return turan_threshold_bound(h)


def clique_weights(g: Graph, c: int, u: int) -> tuple[int, int]:
    """(largest clique size through c, common-neighbour count of c)."""
    if c.bit_count() != u:
        raise ValueError("clique size does not match u")
    common = common_neighborhood(g, c)
    if not is_clique(g, c):
        raise ValueError("given vertex set is not a clique")
    return _max_clique(g.adj, u, common & _representatives(g.adj)), common.bit_count()


@dataclass(frozen=True)
class DominatingClique:
    """A d-clique C of the host with the copies J that have Dom(J) = C."""

    clique: int
    clique_size: int
    codegree: int
    weight: Fraction
    copies: int
    witness_clique_size: int  # u-subset of C attaining clique_size
    witness_codegree: int


@dataclass(frozen=True)
class LocalReport:
    per_clique: tuple[DominatingClique, ...]  # cliques dominating a copy
    copies: int
    weighted_sum: Fraction
    bound: Fraction
    holds: bool
    equality: bool
    hypothesis_ok: bool
    exempt_cliques: tuple[int, ...]  # u-cliques dominating no copy

    def __post_init__(self) -> None:
        assert self.holds == (self.weighted_sum <= self.bound)
        assert self.equality == (self.weighted_sum == self.bound)


def _row(
    g: Graph, spec: PatternSpec, bits: list[int], copies: int, u: int, reps: int,
    stats: dict[int, tuple[int, int]], weights: dict[tuple[int, int], Fraction],
    threshold: int,
) -> DominatingClique:
    """The row of the dom(H)-clique of g with the ascending one-vertex
    masks ``bits``, which dominates ``copies`` copies.  ``reps`` is
    ``counting._representatives`` of g, ``stats`` memoizes (largest
    clique, codegree) per u-clique and ``weights`` the weight per
    (clique size, codegree)."""
    cs = cd = -1
    wit_cs = wit_cd = 0
    for c in map(sum, combinations(bits, u)):
        stat = stats.get(c)
        if stat is None:
            common = common_neighborhood(g, c)
            stat = stats[c] = (_max_clique(g.adj, u, common & reps), common.bit_count())
        oc, dc = stat
        if oc > cs:
            cs, wit_cs = oc, c
        if dc > cd:
            cd, wit_cd = dc, c
    clique = sum(bits)
    if (cs, cd) not in weights:
        denom = turan_copy_count(spec.down(u), cs - u, cd)
        if denom == 0:
            raise HypothesisViolationError(clique, cs, cd, threshold)
        weights[cs, cd] = Fraction(1, denom)
    return DominatingClique(clique, cs, cd, weights[cs, cd], copies, wit_cs, wit_cd)


def copy_weights(
    g: Graph, copy: tuple[int, frozenset[tuple[int, int]]], h: Graph, u: int
) -> DominatingClique:
    """The row of Dom(J) for one copy J, a (vertex mask, edge set) pair of
    ``counting.enumerate_copies``; Dom(J) is read on J's own edges.  Not
    on the path of ``localized_report``, which lists no copies."""
    spec = pattern_spec(h)
    verts, edges = copy
    degree = Counter(v for edge in edges for v in edge)
    clique = sum(1 << v for v in iter_bits(verts) if degree[v] == verts.bit_count() - 1)
    copies = count_copies_rooted(h, g, clique, spec.dom_count)
    bits = [1 << v for v in iter_bits(clique)]
    return _row(g, spec, bits, copies, u, _representatives(g.adj), {}, {}, 1)


def localized_report(g: Graph, h: Graph, u: int, threshold: int) -> LocalReport:
    """Evaluate the localized inequality on g.

    ``threshold`` is the caller's stand-in for the exact clique threshold
    of the derived pattern (see ``default_threshold``), at least 1.  The
    hypothesis flag records whether every u-clique of dominating vertices
    of some copy reaches threshold + u; the inequality is evaluated either way,
    but only a hypothesis-clean report is inside the theorem.  u-cliques
    of G that dominate no copy are exempt from the hypothesis and listed
    separately.
    """
    spec = pattern_spec(h)
    d = spec.dom_count
    if not 1 <= u <= d:
        raise ValueError(f"u={u} outside 1..{d}, the pattern's dominating count")
    if threshold < 1:
        raise ValueError(f"threshold={threshold} is below 1, not a clique threshold")
    rest = pattern_spec(spec.down(d))  # H - Dom(H), counted inside N(C)
    adj = g.adj
    reps = _representatives(adj)
    stats: dict[int, tuple[int, int]] = {}
    weights: dict[tuple[int, int], Fraction] = {}
    classes: dict[tuple[int, int], int] = {}  # (clique size, codegree) -> copies
    per_clique = []
    for chosen, ext in _cliques(adj, g.vertex_mask, d):
        bits = [1 << w for w in iter_bits(chosen)]
        around = g.vertex_mask  # N(chosen), so N(chosen | v) = around & adj[v]
        for w in iter_bits(chosen):
            around &= adj[w]
        for v in iter_bits(ext):
            k = _count_copies(rest, adj, around & adj[v])
            if k:
                row = _row(g, spec, bits + [1 << v], k, u, reps, stats, weights, threshold)
                key = (row.clique_size, row.codegree)
                classes[key] = classes.get(key, 0) + k
                per_clique.append(row)
    # stats holds exactly the u-subsets of the cliques that dominate a copy
    hypothesis_ok = all(oc >= threshold + u for oc, _ in stats.values())
    weighted_sum = sum((weights[key] * k for key, k in classes.items()), Fraction(0))
    u_cliques = list(enumerate_cliques(g, u))
    bound = Fraction(len(u_cliques), comb(d, u))
    return LocalReport(
        tuple(per_clique),
        sum(classes.values()),
        weighted_sum,
        bound,
        weighted_sum <= bound,
        weighted_sum == bound,
        hypothesis_ok,
        tuple(c for c in u_cliques if c not in stats),
    )


def equality_family_graph(
    blocks: list[tuple[int, int]], z_tail: Graph | None = None
) -> Graph:
    """Disjoint union of balanced Turán graphs T_omega(a*omega) plus an
    optional tail (K_u-free for the u in play): a sufficient condition for
    equality in the localized inequality, not a necessary one (the bowtie
    reaches equality for K3 at u = 2)."""
    parts: list[tuple[Graph, int]] = [(turan(w, a * w), 1) for (w, a) in blocks]
    if z_tail is not None:
        parts.append((z_tail, 1))
    return disjoint_union(parts)


def global_recovery_holds(g: Graph, h: Graph, u: int, delta: int, omega: int) -> bool:
    """Global corollary: on a {K_u v I_{delta+1}, K_{omega+1}}-free graph,
    N(H, G) <= N(H^{down u}, T_{omega-u}(delta)) * k^u(G) / C(dom, u)."""
    spec = pattern_spec(h)
    lhs = count_subgraph_copies(h, g)
    cap = turan_copy_count(spec.down(u), omega - u, delta)
    return lhs * comb(spec.dom_count, u) <= cap * count_cliques(g, u)
