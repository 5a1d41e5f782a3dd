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
appears.

The walk reads the host's twin quotient (``graphs.twin_quotient``).
Swapping a vertex for its false twin is an automorphism, so every
largest-clique search keeps to ``TwinQuotient.reps``, one vertex per
false-twin class.  ``localized_report`` walks only the cliques inside
``reps``, and each walked clique stands for the host cliques that swap
its leads for any vertices of their classes: each class's statistics
are searched once, and the K4 report on T_8(256) walks 70 cliques for
its 73,400,320.  The lexicographically first offending host clique is
a walked one, so a vanishing weight names it.  The report sums the
copies per class and keeps nothing per clique; k^u(G) and the exempt
u-cliques come from the walked u-cliques, expanded the same way, and
the exempt cliques are sorted back into lexicographic order when the
host has false twins.  The ``DominatingClique`` rows, one per host
clique, are built when ``per_clique`` is first read, by the same walk
over the host's own cliques; each row's statistics and witnesses are
read from that walk's memo (``_maxima``).

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
from math import comb, prod
from typing import Iterator

from .graphs import (
    Graph,
    TwinQuotient,
    common_neighborhood,
    disjoint_union,
    iter_bits,
    set_of,
    twin_quotient,
)
from .families import turan
from .counting import (
    PatternSpec,
    _cliques,
    _host_copies,
    _max_clique,
    count_cliques,
    count_copies_rooted,
    count_subgraph_copies,
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
    return _stat(g.adj, u, common, twin_quotient(g.adj).reps)


def _stat(
    adj: tuple[int, ...], u: int, common: int, reps: int, known: int = 0
) -> tuple[int, int]:
    """(largest clique size, codegree) of a u-clique with common
    neighbourhood ``common``; ``reps`` is ``TwinQuotient.reps``
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
        """The rows of the cliques dominating a copy, in lexicographic
        order; built on first read."""
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
    u-subsets' statistics come from ``_stat``, as in ``clique_weights``,
    on one twin quotient of the host.  The report's rows come from its
    walk instead, which lists no copies."""
    spec = pattern_spec(h)
    verts, edges = copy
    degree = Counter(v for edge in edges for v in edge)
    clique = sum(1 << v for v in iter_bits(verts) if degree[v] == verts.bit_count() - 1)
    copies = count_copies_rooted(h, g, clique, spec.dom_count)
    bits = [1 << v for v in iter_bits(clique)]
    reps = twin_quotient(g.adj).reps
    stats = {
        c: _stat(g.adj, u, common_neighborhood(g, c), reps)
        for c in map(sum, combinations(bits, u))
    }
    cs, cd, wit_cs, wit_cd = _maxima(u, clique, stats)
    weight = _weight(spec.down(u), u, (cs, cd), clique, 1)
    return DominatingClique(clique, cs, cd, weight, copies, wit_cs, wit_cd)


def _dominating_rows(g: Graph, h: Graph, u: int, threshold: int) -> list[DominatingClique]:
    """The row of every dom(H)-clique of g that dominates a copy, in
    lexicographic order: the walk over g's own cliques, whose memo holds
    the statistics of every u-subset of each."""
    stats: dict[int, tuple[int, int]] = {}
    weights: dict[tuple[int, int], Fraction] = {}
    rows = []
    walk = _walk(g, pattern_spec(h), u, threshold, stats, weights,
                 twin_quotient(g.adj), g.vertex_mask)
    for clique, key, k in walk:
        cs, cd, wit_cs, wit_cd = _maxima(u, clique, stats)
        rows.append(DominatingClique(clique, cs, cd, weights[key], k, wit_cs, wit_cd))
    return rows


def _stands(quotient: TwinQuotient, clique: int) -> int:
    """How many host cliques the walked clique ``clique`` stands for: the
    product of the classes of the false-twin leads in it."""
    return prod((quotient.classes[v] & ~quotient.reps).bit_count() + 1 for v in iter_bits(clique))


def _stood_for(quotient: TwinQuotient, clique: int) -> list[int]:
    """The host cliques the walked clique ``clique`` stands for: each
    false-twin lead in it swapped for any vertex of its class."""
    out = [clique]
    for v in iter_bits(clique):
        spread = quotient.classes[v] & ~quotient.reps | 1 << v  # the vertices v stands for
        out = [c ^ 1 << v | 1 << w for c in out for w in iter_bits(spread)]
    return out


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
    quotient: TwinQuotient, walk: int,
) -> Iterator[tuple[int, tuple[int, int], int]]:
    """(clique, (clique size, codegree), copies) of every dom(H)-clique C
    inside the vertex mask ``walk`` that dominates a copy, in lexicographic
    order; ``quotient`` is g's twin quotient, to whose ``reps`` every
    largest-clique search is cut.  Walking ``quotient.reps``, C stands for
    ``_stands`` host cliques, each with its copies and statistics.

    Each (d-1)-clique prefix of the walk reads its own u-subsets once
    (``_prefix``), at its first completion with a copy; each completion v
    then adds the u-subsets through v.  ``stats`` gets (largest clique,
    codegree) of exactly the u-subsets of the cliques yielded, each
    searched from the d-clique C known to go through it, and ``weights``
    the weight of each class, checked the first time the class appears,
    before its clique is yielded."""
    d = spec.dom_count
    rest = pattern_spec(spec.down(d))  # H - Dom(H), counted inside N(C)
    r = rest.pattern.n if rest.edgeless else -1
    down = spec.down(u)
    adj = g.adj
    full = g.vertex_mask
    reps = quotient.reps
    for chosen, ext in _cliques(adj, walk, d):
        around = full  # N(chosen), so N(chosen | v) = around & adj[v]
        for w in iter_bits(chosen):
            around &= adj[w]
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
            yield chosen | low, key, k


def localized_report(g: Graph, h: Graph, u: int, threshold: int) -> LocalReport:
    """Evaluate the localized inequality on g.

    ``threshold`` is the caller's stand-in for the exact clique threshold
    of the derived pattern (see ``default_threshold``), at least 1.  The
    hypothesis flag records whether every u-clique of dominating vertices
    of some copy reaches threshold + u; the inequality is evaluated either way,
    but only a hypothesis-clean report is inside the theorem.  u-cliques
    of G that dominate no copy are exempt from the hypothesis and listed
    separately, in lexicographic order.
    """
    spec = pattern_spec(h)
    d = spec.dom_count
    if u < 1:
        raise ValueError(f"u={u} outside 1..{d}, the pattern's dominating count")
    if u > d:
        raise ValueError(f"pattern has {d} dominating vertices, need {u}")
    if threshold < 1:
        raise ValueError(f"threshold={threshold} is below 1, not a clique threshold")
    stats: dict[int, tuple[int, int]] = {}
    weights: dict[tuple[int, int], Fraction] = {}
    classes: dict[tuple[int, int], int] = {}  # copies per class
    quotient = twin_quotient(g.adj)
    moved = g.vertex_mask & ~quotient.reps  # false twins the walks leave out
    for clique, key, k in _walk(g, spec, u, threshold, stats, weights, quotient, quotient.reps):
        classes[key] = classes.get(key, 0) + (k * _stands(quotient, clique) if moved else k)
    # stats holds exactly the u-subsets of the walked cliques that dominate
    # a copy: a u-clique is exempt when the one standing for it is not
    # among them
    hypothesis_ok = all(oc >= threshold + u for oc, _ in stats.values())
    weighted_sum = sum((weights[key] * k for key, k in classes.items()), Fraction(0))
    u_cliques = 0  # k^u(G)
    exempt: list[int] = []
    for chosen, ext in _cliques(g.adj, quotient.reps, u):
        if not moved:
            u_cliques += ext.bit_count()
            exempt += [chosen | 1 << v for v in iter_bits(ext) if chosen | 1 << v not in stats]
            continue
        for v in iter_bits(ext):
            c = chosen | 1 << v
            u_cliques += _stands(quotient, c)
            if c not in stats:
                exempt += _stood_for(quotient, c)
    if moved:
        exempt.sort(key=set_of)
    bound = Fraction(u_cliques, comb(d, u))
    return LocalReport(
        sum(classes.values()),
        weighted_sum,
        bound,
        weighted_sum <= bound,
        weighted_sum == bound,
        hypothesis_ok,
        tuple(exempt),
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
