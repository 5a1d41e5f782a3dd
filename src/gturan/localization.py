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

The report is one clique walk (``_walk``, over ``counting._cliques``)
that carries N(C) and yields each clique dominating a copy with its
(clique size, codegree) class and copy count: each step fixes a
(d-1)-clique and its common neighbourhood, so N(C) of each completion v
is one AND with v's row.  A clique's two statistics are maxima over its
u-subsets, memoized per u-clique; the prefix's own u-subsets are read
once, at its first completion with a copy, and each completion adds
only the u-subsets through v (one for u = 1).  The largest clique
through a u-subset is searched knowing that C, a d-clique, goes through
it.  The weight is checked once per class, the first time the class
appears.  ``localized_report`` sums the copies per class and keeps
nothing per clique.  The ``DominatingClique`` rows are the same walk,
run again only when ``per_clique`` is first read; the u-subsets that
attain each statistic are read back from the walk's memo (``_maxima``,
which ``copy_weights`` shares over its own memo).

The totals walk goes through the host's twin quotient
(``graphs.twin_quotient``): swapping a vertex for its false twin is an
automorphism, so it walks only the cliques inside
``counting._representatives``, which take the least vertex of each
false-twin class they meet, and weights each by the host cliques it
stands for.  So each class's (clique size, codegree) is searched once,
and the K4 report on T_8(256) walks 70 cliques for its 73,400,320.  The
lexicographically first offending host clique is such a clique, so a
vanishing weight names the same clique as a walk over every host clique
would.  A u-clique is exempt when the one with the least vertex of each
of its false-twin classes is.  A remainder H - Dom H with edges is
counted through the quotient (``counting._host_copies``) on a host with
twins.  The rows walk every host clique, since each is a row.

The localized inequality bounds the weighted sum by k^u(G) / C(dom(H), u),
with exact equality on disjoint unions of balanced Turán graphs (plus any
K_u-free tail).  A zero weight denominator aborts the report: it can only
happen when the clique-threshold hypothesis fails for the supplied
threshold parameter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterator

from .graphs import (
    Graph,
    TwinQuotient,
    common_neighborhood,
    disjoint_union,
    iter_bits,
    twin_quotient,
)
from .families import turan
from .counting import (
    PatternSpec,
    _cliques,
    _host_copies,
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
    """A dominating clique's weight denominator vanished: the clique lies
    outside the clique-threshold hypothesis, or the supplied threshold is
    below the true one for the derived pattern."""

    def __init__(self, clique: int, clique_size: int, codegree: int, u: int, threshold: int):
        self.clique = clique
        self.clique_size = clique_size
        self.codegree = codegree
        if clique_size >= threshold + u:
            cause = (f"threshold parameter {threshold} is below the pattern's "
                     f"true clique threshold")
        else:
            cause = (f"its clique size {clique_size} is below threshold + u = "
                     f"{threshold + u}, outside the hypothesis")
        super().__init__(
            f"weight undefined on dominating clique {sorted(iter_bits(clique))}: "
            f"T_{clique_size - u}({codegree}) holds no copy of the derived "
            f"pattern; {cause}"
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
    return _stat(g.adj, u, common, _representatives(twin_quotient(g.adj)))


def _stat(
    adj: tuple[int, ...], u: int, common: int, reps: int, known: int = 0
) -> tuple[int, int]:
    """(largest clique size, codegree) of a u-clique with common
    neighbourhood ``common``; ``reps`` is ``counting._representatives``
    and ``known`` the size of a clique known to go through the u-clique."""
    return _max_clique(adj, u, common & reps, known), common.bit_count()


def _weight(down: Graph, u: int, key: tuple[int, int], clique: int, threshold: int) -> Fraction:
    """The weight of the (clique size, codegree) class ``key``, first met
    on the dominating clique ``clique``."""
    denom = turan_copy_count(down, key[0] - u, key[1])
    if denom == 0:
        raise HypothesisViolationError(clique, *key, u, threshold)
    return Fraction(1, denom)


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
    copies: int
    weighted_sum: Fraction
    bound: Fraction
    holds: bool
    equality: bool
    hypothesis_ok: bool
    exempt_cliques: tuple[int, ...]  # u-cliques dominating no copy
    # (host, pattern, u, threshold): ``per_clique`` walks them again
    _inputs: tuple[Graph, Graph, int, int] = field(repr=False)

    def __post_init__(self) -> None:
        assert self.holds == (self.weighted_sum <= self.bound)
        assert self.equality == (self.weighted_sum == self.bound)

    @cached_property
    def per_clique(self) -> tuple[DominatingClique, ...]:
        """The rows of the cliques dominating a copy, in walk order; built
        on first read."""
        return tuple(_dominating_rows(*self._inputs))


def _maxima(u: int, clique: int, stats: dict[int, tuple[int, int]]) -> tuple[int, int, int, int]:
    """(clique size, codegree, witness of each) of ``clique``: both
    statistics maximized over its u-subsets in lexicographic order, the
    first maximizer the witness, read from ``stats``, which holds
    (largest clique, codegree) of every one of them."""
    cs = cd = -1
    wit_cs = wit_cd = 0
    for c in map(sum, combinations([1 << v for v in iter_bits(clique)], u)):
        oc, dc = stats[c]
        if oc > cs:
            cs, wit_cs = oc, c
        if dc > cd:
            cd, wit_cd = dc, c
    return cs, cd, wit_cs, wit_cd


def copy_weights(
    g: Graph, copy: tuple[int, frozenset[tuple[int, int]]], h: Graph, u: int
) -> DominatingClique:
    """The row of Dom(J) for one copy J, a (vertex mask, edge set) pair of
    ``counting.enumerate_copies``; Dom(J) is read on J's own edges, and its
    u-subsets' statistics come from ``clique_weights``.  The report's rows
    come from its walk instead, which lists no copies."""
    spec = pattern_spec(h)
    verts, edges = copy
    degree = Counter(v for edge in edges for v in edge)
    clique = sum(1 << v for v in iter_bits(verts) if degree[v] == verts.bit_count() - 1)
    copies = count_copies_rooted(h, g, clique, spec.dom_count)
    bits = [1 << v for v in iter_bits(clique)]
    stats = {c: clique_weights(g, c, u) for c in map(sum, combinations(bits, u))}
    cs, cd, wit_cs, wit_cd = _maxima(u, clique, stats)
    weight = _weight(spec.down(u), u, (cs, cd), clique, 1)
    return DominatingClique(clique, cs, cd, weight, copies, wit_cs, wit_cd)


def _dominating_rows(g: Graph, h: Graph, u: int, threshold: int) -> Iterator[DominatingClique]:
    """The row of every dom(H)-clique of g that dominates a copy, in walk
    order, the witnesses of its statistics read from the walk's memo."""
    stats: dict[int, tuple[int, int]] = {}
    weights: dict[tuple[int, int], Fraction] = {}
    quotient = twin_quotient(g.adj)
    for clique, key, k in _walk(g, pattern_spec(h), u, threshold, stats, weights, quotient, False):
        cs, cd, wit_cs, wit_cd = _maxima(u, clique, stats)
        yield DominatingClique(clique, cs, cd, weights[key], k, wit_cs, wit_cd)


def _subsets(
    verts: list[tuple[int, int]], t: int, full: int
) -> list[tuple[int, int]]:
    """(mask, common neighbourhood) of each t-subset of ``verts``, a list
    of (one-vertex mask, row) pairs, in lexicographic order."""
    if t == 0:
        return [(0, full)]
    if t == 1:
        return verts
    out = []
    for combo in combinations(verts, t):
        mask, common = 0, full
        for bit, row in combo:
            mask |= bit
            common &= row
        out.append((mask, common))
    return out


def _prefix(
    adj: tuple[int, ...], u: int, chosen: int, full: int, reps: int, d: int,
    stats: dict[int, tuple[int, int]],
) -> tuple[int, int, list[tuple[int, int]]]:
    """The (d-1)-clique ``chosen``'s share of its completions' statistics:
    (clique size, codegree) maximized over its own u-subsets, -1 where it
    has none, and its (u-1)-subsets with their common neighbourhoods,
    through which each completion adds its own u-subsets."""
    verts = [(1 << w, adj[w]) for w in iter_bits(chosen)]
    cs = cd = -1
    for c, common in _subsets(verts, u, full):
        stat = stats.get(c)
        if stat is None:
            stat = stats[c] = _stat(adj, u, common, reps, d)
        oc, dc = stat
        if oc > cs:
            cs = oc
        if dc > cd:
            cd = dc
    return cs, cd, _subsets(verts, u - 1, full)


def _walk(
    g: Graph, spec: PatternSpec, u: int, threshold: int,
    stats: dict[int, tuple[int, int]], weights: dict[tuple[int, int], Fraction],
    quotient: TwinQuotient, weighted: bool,
) -> Iterator[tuple[int, tuple[int, int], int]]:
    """(clique, (clique size, codegree), copies) of every dom(H)-clique C
    of g that dominates a copy, in walk order.

    Each (d-1)-clique prefix of the walk reads its own u-subsets once
    (``_prefix``), at its first completion with a copy; each completion v
    then adds the u-subsets through v.  ``stats`` gets (largest clique,
    codegree) of exactly the u-subsets of the cliques yielded, each
    searched from the d-clique C known to go through it, and ``weights``
    the weight of each class, checked the first time the class appears,
    before its clique is yielded.

    ``quotient`` is g's twin quotient.  A ``weighted`` walk keeps to the
    cliques inside ``counting._representatives``, which take the least
    vertex of each false-twin class they meet, and yields each with the
    copies of all the host cliques it stands for: swapping a vertex for
    its false twin is an automorphism of g, so those cliques have its
    copies and statistics.  Copies of a remainder with edges are counted
    through the quotient when g has twins."""
    d = spec.dom_count
    rest = pattern_spec(spec.down(d))  # H - Dom(H), counted inside N(C)
    r = rest.pattern.n if rest.edgeless else -1
    down = spec.down(u)
    adj = g.adj
    full = g.vertex_mask
    reps = _representatives(quotient)
    mult = None  # mult[v]: the host vertices v stands for
    if weighted and quotient.twins:
        mult = [1] * g.n
        for cls in quotient.twins:
            if not quotient.true_twins & cls:
                mult[(cls & -cls).bit_length() - 1] = cls.bit_count()
    for chosen, ext in _cliques(adj, full if mult is None else reps, d):
        around = full  # N(chosen), so N(chosen | v) = around & adj[v]
        stands = 1  # the host cliques chosen stands for
        for w in iter_bits(chosen):
            around &= adj[w]
            if mult is not None:
                stands *= mult[w]
        subs = None  # read at the first completion with a copy
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            row = adj[v]
            if r >= 0:
                k = comb((around & row).bit_count(), r)
            else:
                k = _host_copies(rest, adj, quotient, around & row)
            if not k:
                continue
            if subs is None:
                pcs, pcd, subs = _prefix(adj, u, chosen, full, reps, d, stats)
            cs, cd = pcs, pcd
            for s, common in subs:
                c = s | low
                stat = stats.get(c)
                if stat is None:
                    stat = stats[c] = _stat(adj, u, common & row, reps, d)
                oc, dc = stat
                if oc > cs:
                    cs = oc
                if dc > cd:
                    cd = dc
            key = cs, cd
            if key not in weights:
                weights[key] = _weight(down, u, key, chosen | low, threshold)
            yield chosen | low, key, k if mult is None else k * stands * mult[v]


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
    stats: dict[int, tuple[int, int]] = {}
    weights: dict[tuple[int, int], Fraction] = {}
    classes: dict[tuple[int, int], int] = {}  # copies per class
    quotient = twin_quotient(g.adj)
    for _, key, k in _walk(g, spec, u, threshold, stats, weights, quotient, True):
        classes[key] = classes.get(key, 0) + k
    # stats holds exactly the u-subsets of the walked cliques that dominate
    # a copy: a u-clique is exempt when the one with the least vertex of
    # each of its false-twin classes is not among them
    hypothesis_ok = all(oc >= threshold + u for oc, _ in stats.values())
    weighted_sum = sum((weights[key] * k for key, k in classes.items()), Fraction(0))
    u_cliques = list(enumerate_cliques(g, u))
    bound = Fraction(len(u_cliques), comb(d, u))
    moved = g.vertex_mask & ~_representatives(quotient)  # false twins the walk left out
    lead = [0] * g.n  # lead[v]: for v in moved, its class's least vertex
    for cls in quotient.twins:
        for v in iter_bits(cls & moved):
            lead[v] = cls & -cls
    return LocalReport(
        sum(classes.values()),
        weighted_sum,
        bound,
        weighted_sum <= bound,
        weighted_sum == bound,
        hypothesis_ok,
        tuple(c for c in u_cliques if (
            c if not c & moved else c & ~moved | sum(lead[v] for v in iter_bits(c & moved))
        ) not in stats),
        (g, h, u, threshold),
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
