"""Exact counting of cliques, subgraph copies, rooted copies, and
dominating-vertex structure.

Copies are always counted as subgraphs: a copy of H in G is a pair
(vertex set, edge set) with the edge set contained in G and the pair
isomorphic to H.  Induced counting is deliberately not offered.

One plain loop and two explicit-stack searches do the work, on the
host's rows with a candidate vertex mask, so no sub-host is ever built.
``_clique_count`` counts t-cliques lowest vertex first (Chiba &
Nishizeki 1985) and ``has_clique`` leaves its loop at the first; the
walk ``_cliques`` hands ``enumerate_cliques``, per (t-1)-clique, the
mask of its completions.  The embedding search ``_frontier`` places all
pattern vertices but the last and hands back the last one's candidate
mask: ``count_embeddings`` sums the popcounts, ``enumerate_copies``
walks the bits and ``freeness.contains_subgraph`` takes the lowest bit
of the first mask.  |Aut| is ``graphs.automorphism_count``, re-exported
here: one ``canonical_search`` per graph, kept with the canonical code
in the one labeling cache of ``graphs`` (at most 256 graphs).
Every copy count is one count inside a mask (``_host_copies``): the
whole host, N(C) for copies rooted at a clique C, and the complement of
s for copies avoiding s; on a twin-free host it is ``_count_copies``.  A copy J of H with d = dom(H) >= 1 is a d-clique C joined
to a copy of H - Dom H in N(C), which has no dominating vertex, so C =
Dom(J) and N(H, G) = sum over d-cliques C of N(H - Dom H, G[N(C)]).
Edgeless patterns are binomials, and only the other patterns with no
dominating vertex reach ``_frontier``: for every pattern with one,
``count_embeddings`` is an independent route.  Copies in Turán hosts
have a closed form, ``turan_copy_count``, over the partitions of V(H)
into independent blocks; ``_independent_partitions`` counts them by
block sizes, placing one twin class of H at a time.  Slow
subset-enumeration and set-partition oracles live in the test tree only.

A host with twins is the blow-up of its twin quotient Q
(``graphs.twin_quotient``), class t of size m_t, so an embedding of H is
a map f: V(H) -> V(Q) with an injective choice inside each class, and
emb(H, G) = sum over f of prod_t (m_t)_{|f^-1(t)|} (Lovász, *Large
Networks and Graph Limits*, ch. 5): an edge of H goes to an edge of Q or
into one class of true twins.  ``_blowup_count`` runs the two routes
above on Q with the sizes as weights: ``_blowup_cliques`` takes one
vertex of a false-twin class, or any j of a true-twin class in C(m, j)
ways, and ``_blowup_embeddings`` lets a class hold several pattern
vertices.  A complete Q of false twins with balanced sizes is a Turán
graph, counted by ``turan_copy_count``.  Every public count
(``count_cliques``, ``count_subgraph_copies``, ``count_copies_rooted``,
``copies_through``) takes the quotient whenever it is smaller than the
host, and ``blowup_copy_count`` takes it as given.  The kernels
``_clique_count``, ``_count_copies`` and ``has_clique`` never look for
twins: the enumeration walk of ``search`` and
``freeness.passes_constraints`` call them on small graphs many times.

Patterns are plain ``Graph``s.  A function that takes one looks up
``pattern_spec(h)`` itself: the ``PatternSpec`` record, cached per
pattern, behind it (dominating count, |Aut|, and the patterns left by
deleting dominating vertices).  Only private helpers such as
``_count_copies`` take the record.

All counts are Python ints (arbitrary precision); densities elsewhere use
``fractions.Fraction``.  No floating point enters any count or comparison.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, perm
from typing import Iterator

from .graphs import (
    Graph,
    TwinQuotient,
    automorphism_count,
    common_neighborhood,
    complete_graph,
    delete_vertices,
    iter_bits,
    set_of,
    twin_classes,
    twin_quotient,
)


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def _cliques(adj: tuple[int, ...], cand: int, t: int) -> Iterator[tuple[int, int]]:
    """The clique walk: every ``(t-1)``-clique inside ``cand`` that
    some vertex of ``cand`` completes to a ``t``-clique, ``t >= 1``.

    Yields ``(chosen, ext)``: ``chosen`` is the ``(t-1)``-clique's mask
    and ``ext`` the nonzero mask of its completions above its highest
    vertex, so each ``t``-clique is ``chosen`` plus exactly one bit of
    exactly one ``ext``.  Lowest vertex first, so the cliques come in
    lexicographic order of their sorted vertex tuples.  A branch is cut
    once its candidates are fewer than the vertices it still needs.
    """
    last = t - 1
    if last == 0:
        if cand:
            yield 0, cand
        return
    # explicit stack: cands[i] holds the untried i-th vertices, lows[i]
    # the bit of the one being tried, chosen the bits of lows[:i]
    cands = [0] * last
    lows = [0] * last
    cands[0] = cand
    i = 0
    chosen = 0
    while True:
        cand = cands[i]
        if cand.bit_count() < t - i:
            if i == 0:
                return
            i -= 1
            chosen ^= lows[i]
            continue
        low = cand & -cand
        cand ^= low
        cands[i] = cand
        nxt = cand & adj[low.bit_length() - 1]
        if i + 1 == last:
            if nxt:
                yield chosen | low, nxt
        else:
            lows[i] = low
            chosen |= low
            i += 1
            cands[i] = nxt


def _clique_count(
    adj: tuple[int, ...], cand: int, t: int, rest: PatternSpec | None = None, around: int = 0
) -> int:
    """Number of t-cliques C inside ``cand`` or, given ``rest``, the sum over
    them of the copies of ``rest`` inside ``around`` and N(C): a plain loop,
    lowest vertex first, cut once fewer candidates than vertices remain."""
    if t <= 1 and rest is None:
        return cand.bit_count() if t else 1
    total = 0
    while cand.bit_count() >= t:
        low = cand & -cand
        cand ^= low
        row = adj[low.bit_length() - 1]
        if t > 1:
            total += _clique_count(adj, cand & row, t - 1, rest, around & row)
        else:
            total += _count_copies(rest, adj, around & row)
    return total


def _has_clique(adj: tuple[int, ...], cand: int, t: int) -> bool:
    """Whether ``cand`` holds a t-clique, t >= 1: ``_clique_count``'s loop."""
    if t == 1:
        return cand != 0
    while cand.bit_count() >= t:
        low = cand & -cand
        cand ^= low
        if _has_clique(adj, cand & adj[low.bit_length() - 1], t - 1):
            return True
    return False


def count_cliques(g: Graph, t: int) -> int:
    """Number of t-vertex cliques; k^0 = 1, k^1 = n, k^2 = edge count."""
    if t < 0:
        raise ValueError("clique size must be nonnegative")
    return count_subgraph_copies(complete_graph(t), g) if t <= g.n else 0


def enumerate_cliques(g: Graph, t: int) -> Iterator[int]:
    """Yield each t-clique once as a vertex mask, in lexicographic order
    of the sorted vertex tuples (on K4 with t = 2: 3, 5, 9, 6, 10, 12)."""
    if t < 1:
        raise ValueError("clique size must be positive")
    for chosen, ext in _cliques(g.adj, g.vertex_mask, t):
        for v in iter_bits(ext):
            yield chosen | 1 << v


def has_clique(g: Graph, k: int) -> bool:
    """Early-exit decision: does g contain a clique on k vertices?"""
    return k <= 0 or _has_clique(g.adj, g.vertex_mask, k)


def _max_clique(adj: tuple[int, ...], size: int, cand: int, known: int = 0) -> int:
    """Size of a largest clique made of a ``size``-clique and vertices of
    ``cand``, all adjacent to it: exact branch and bound on the host rows.
    ``known`` is the size of a clique already known to go through the
    ``size``-clique, so the search looks only for larger ones."""
    best = known if known > size else size

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            expand(size + 1, cand & adj[v])

    expand(size, cand)
    return best


def clique_number(g: Graph) -> int:
    """Size of a largest clique."""
    return _max_clique(g.adj, 0, twin_quotient(g.adj).reps)


def is_clique(g: Graph, mask: int) -> bool:
    for v in iter_bits(mask):
        if mask & ~g.adj[v] & ~(1 << v):
            return False
    return True


# ---------------------------------------------------------------------------
# embedding engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _search_order(h: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Pattern vertex order (greedy: most placed neighbours, then degree)
    plus, per position, the earlier positions adjacent in the pattern.
    Cached per pattern, so a pattern searched many times is ordered once."""
    n = h.n
    order: list[int] = []
    placed = 0
    for _ in range(n):
        best_v = -1
        best_key = None
        for v in range(n):
            if placed >> v & 1:
                continue
            key = ((h.adj[v] & placed).bit_count(), h.degree(v), -v)
            if best_key is None or key > best_key:
                best_key, best_v = key, v
        order.append(best_v)
        placed |= 1 << best_v
    back = tuple(
        tuple(j for j in range(i) if h.has_edge(v, order[j])) for i, v in enumerate(order)
    )
    return tuple(order), back


def _frontier(
    h: Graph, adj: tuple[int, ...], start: int
) -> Iterator[tuple[tuple[int, ...], list[int], int]]:
    """The one embedding search: every placement of all pattern vertices
    but the last, in ``_search_order``, on the host rows ``adj`` with
    every image inside the vertex mask ``start``.

    Yields ``(order, images, cand)`` for each placement that leaves the
    last pattern vertex ``order[-1]`` somewhere to go: ``images[i]`` is the
    host vertex of ``order[i]`` for ``i < h.n - 1`` and ``cand`` is the
    nonzero bitmask of its legal images.  ``images`` is reused between
    yields.  Injective and edge-preserving.  Needs ``h.n >= 1``.
    """
    if h.n > start.bit_count():
        return
    order, back = _search_order(h)
    last = h.n - 1
    images = [0] * h.n
    if last == 0:
        if start:
            yield order, images, start
        return
    # explicit stack: cands[i] holds the untried images of order[i], and
    # used the images of order[:i]
    cands = [0] * last
    cands[0] = start
    i = 0
    used = 0
    while True:
        cand = cands[i]
        if not cand:
            if i == 0:
                return
            i -= 1
            used ^= 1 << images[i]
            continue
        low = cand & -cand
        cands[i] = cand ^ low
        images[i] = low.bit_length() - 1
        nxt = start & ~(used | low)
        for j in back[i + 1]:
            nxt &= adj[images[j]]
        if i + 1 == last:
            if nxt:
                yield order, images, nxt
        elif nxt:
            used |= low
            i += 1
            cands[i] = nxt


def count_embeddings(h: Graph, g: Graph) -> int:
    """Injective edge-preserving maps from h into g (not necessarily
    induced: non-edges of h may map to edges of g)."""
    if h.n == 0:
        return 1
    return sum(cand.bit_count() for _, _, cand in _frontier(h, g.adj, g.vertex_mask))


# ---------------------------------------------------------------------------
# pattern specification
# ---------------------------------------------------------------------------


def dominating_vertices(h: Graph) -> int:
    """Bitmask of vertices adjacent to all other vertices."""
    return sum(1 << i for i, row in enumerate(h.adj) if row.bit_count() == h.n - 1)


def delete_dominating(h: Graph, u: int) -> Graph:
    """Delete u dominating vertices (the lexicographically least ones).

    The result does not depend on the choice up to isomorphism: two
    dominating vertices are true twins, so swapping them is an
    automorphism of h.
    """
    dom = dominating_vertices(h)
    if u < 0 or dom.bit_count() < u:
        raise ValueError(f"graph has {dom.bit_count()} dominating vertices, need {u}")
    drop = 0
    for v in iter_bits(dom):
        if u == 0:
            break
        drop |= 1 << v
        u -= 1
    return delete_vertices(h, drop)


@dataclass(frozen=True)
class PatternSpec:
    """The cached record behind a pattern graph: its dominating count,
    |Aut| and the patterns left by deleting dominating vertices."""

    pattern: Graph
    dom_count: int
    aut_count: int
    derived: tuple[Graph, ...]  # derived[u-1] = pattern with u dominating vertices deleted
    edgeless: bool
    rest: PatternSpec | None  # pattern_spec(H - Dom H) unless that is empty

    def down(self, u: int) -> Graph:
        if u == 0:
            return self.pattern
        if not 1 <= u <= self.dom_count:
            raise ValueError(f"u={u} exceeds dominating count {self.dom_count}")
        return self.derived[u - 1]


@lru_cache(maxsize=1024)
def pattern_spec(h: Graph) -> PatternSpec:
    dcount = dominating_vertices(h).bit_count()
    derived = tuple(delete_dominating(h, u) for u in range(1, dcount + 1))
    rest = pattern_spec(derived[-1]) if derived and derived[-1].n else None
    return PatternSpec(h, dcount, automorphism_count(h), derived, not any(h.adj), rest)


# ---------------------------------------------------------------------------
# copy counting
# ---------------------------------------------------------------------------


def _count_copies(spec: PatternSpec, adj: tuple[int, ...], cand: int) -> int:
    """Copies of the pattern inside the vertex mask ``cand`` of the host
    with rows ``adj``, counted as the module docstring says."""
    p = spec.pattern
    if spec.edgeless:  # I_r, K1 and K0 included: any r vertices
        return comb(cand.bit_count(), p.n)
    if spec.dom_count:
        return _clique_count(adj, cand, spec.dom_count, spec.rest, cand)
    total = sum(ext.bit_count() for _, _, ext in _frontier(p, adj, cand))
    copies, rem = divmod(total, spec.aut_count)
    assert rem == 0, "embedding count not divisible by automorphism count"
    return copies


def count_subgraph_copies(h: Graph, g: Graph) -> int:
    """Number of subgraphs of g isomorphic to h (vertex+edge sets)."""
    spec = pattern_spec(h)
    quotient = twin_quotient(g.adj)
    # every copy holds a dom(H)-clique; instant on Turán hosts, which the walk is not
    if spec.dom_count >= 3 and _max_clique(g.adj, 0, quotient.reps) < spec.dom_count:
        return 0
    return _host_copies(spec, g.adj, quotient, g.vertex_mask)


def enumerate_copies(h: Graph, g: Graph) -> list[tuple[int, frozenset[tuple[int, int]]]]:
    """All copies of h in g as (vertex mask, edge set) pairs.

    Deterministic order: sorted by vertex mask, then edge set.  A complete
    pattern's copies are its host's cliques; any other copy is found
    |Aut(h)| times by the embedding search, and duplicates collapse.
    """
    if h.n == 0:
        return [(0, frozenset())]
    if pattern_spec(h).dom_count == h.n:
        return sorted(
            ((c, frozenset(combinations(set_of(c), 2))) for c in enumerate_cliques(g, h.n)),
            key=lambda c: c[0],
        )
    last = h.n - 1
    found: set[tuple[int, frozenset[tuple[int, int]]]] = set()
    pairs = None
    for order, images, cand in _frontier(h, g.adj, g.vertex_mask):
        if pairs is None:  # the order is fixed; read its edges once
            pairs = [
                (a, b)
                for b in range(last)
                for a in range(b)
                if h.has_edge(order[a], order[b])
            ]
            to_last = [a for a in range(last) if h.has_edge(order[a], order[last])]
        prefix = []
        for a, b in pairs:
            x, y = images[a], images[b]
            prefix.append((x, y) if x < y else (y, x))
        mask = sum(1 << images[a] for a in range(last))
        for v in iter_bits(cand):
            tail = [(x, v) if x < v else (v, x) for x in (images[a] for a in to_last)]
            found.add((mask | 1 << v, frozenset(prefix + tail)))
    return sorted(found, key=lambda c: (c[0], sorted(c[1])))


def count_copies_rooted(h: Graph, g: Graph, c: int, u: int) -> int:
    """Copies of h in g in which every vertex of the u-clique c dominates.

    Computed through the exact identity with the derived pattern: the
    copies through c correspond bijectively to copies of the u-fold
    dominating-deletion of h inside the common neighbourhood of c.
    """
    spec = pattern_spec(h)
    if c.bit_count() != u:
        raise ValueError("root set size does not match u")
    if u > spec.dom_count:
        raise ValueError(f"pattern has {spec.dom_count} dominating vertices, need {u}")
    common = common_neighborhood(g, c)  # rejects a root set outside the host
    if not is_clique(g, c):
        raise ValueError("root set is not a clique")
    return _host_copies(pattern_spec(spec.down(u)), g.adj, twin_quotient(g.adj), common)


def copies_through(h: Graph, g: Graph, s: int) -> int:
    """Copies of h in g containing at least one vertex of s."""
    if s & ~g.vertex_mask:
        raise ValueError("vertex set not contained in the graph")
    if s == 0:
        return 0
    spec = pattern_spec(h)
    quotient = twin_quotient(g.adj)
    return _host_copies(spec, g.adj, quotient, g.vertex_mask) - _host_copies(
        spec, g.adj, quotient, g.vertex_mask & ~s
    )


# ---------------------------------------------------------------------------
# copies in blow-ups: counting through the twin quotient
# ---------------------------------------------------------------------------


def _blowup_cliques(
    rows: tuple[int, ...], sizes: list[int], true_twins: int, cand: int, t: int,
    rest: PatternSpec | None, around: int,
) -> int:
    """``_clique_count`` on a template: the t-cliques of the blow-up inside
    the template mask ``cand`` or, given ``rest``, the sum over them of the
    copies of ``rest`` inside ``around`` and their common neighbourhood.
    A clique takes one of the ``sizes[x]`` vertices of a false-twin class
    x, or any j of a true-twin class, in C(sizes[x], j) ways; the common
    neighbourhood keeps what the clique left of its true-twin classes, so
    ``sizes`` is lowered while the clique holds them."""
    total = 0
    while cand:
        if cand.bit_count() < t and not cand & true_twins:
            break
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        row = rows[x]
        m = sizes[x]
        if not true_twins & low:  # one of the m vertices
            if t > 1:
                total += m * _blowup_cliques(rows, sizes, true_twins, cand & row, t - 1, rest,
                                             around & row)
            else:
                total += m if rest is None else m * _blowup_count(
                    rest, rows, sizes, true_twins, around & row)
            continue
        for j in range(1, min(t, m) + 1):
            ways = comb(m, j)
            inner = around & row | (low if j < m else 0)
            sizes[x] = m - j
            if j < t:
                ways *= _blowup_cliques(rows, sizes, true_twins, cand & row, t - j, rest, inner)
            elif rest is not None:
                ways *= _blowup_count(rest, rows, sizes, true_twins, inner)
            sizes[x] = m
            total += ways
    return total


def _blowup_embeddings(
    h: Graph, rows: tuple[int, ...], sizes: list[int], true_twins: int, cand: int
) -> int:
    """Embeddings of h into the blow-up inside the template mask ``cand``:
    the maps f from V(h) to the template, in ``_search_order``, that send
    each edge of h to a template edge or into one true-twin class, each
    counted by the injective choices inside the classes, the product of
    the falling factorials (sizes[x])_{|f^-1(x)|}.  Needs ``h.n >= 2``."""
    order, back = _search_order(h)
    last = h.n - 1
    images = [0] * h.n
    used = [0] * len(sizes)
    big = sum(1 << x for x in iter_bits(cand) if sizes[x] > 1)  # classes of two or more
    twins = rows  # twins[x]: where a neighbour of a vertex in class x may go
    if true_twins:
        twins = [row | (true_twins & 1 << x) for x, row in enumerate(rows)]

    def place(i: int, full: int, placed: int) -> int:
        # full: the classes with no vertex left; placed: those holding one
        nxt = cand & ~full
        for j in back[i]:
            nxt &= twins[images[j]]
        total = 0
        if i == last:  # one way per class, plus the rest of the larger ones
            total = nxt.bit_count()
            more = nxt & (big | placed)
            while more:
                low = more & -more
                more ^= low
                x = low.bit_length() - 1
                total += sizes[x] - used[x] - 1
            return total
        while nxt:
            low = nxt & -nxt
            nxt ^= low
            x = low.bit_length() - 1
            free = sizes[x] - used[x]
            images[i] = x
            used[x] += 1
            total += free * place(i + 1, full | low if free == 1 else full, placed | low)
            used[x] -= 1
        return total

    return place(0, 0, 0)


def _blowup_count(
    spec: PatternSpec, rows: tuple[int, ...], sizes: list[int], true_twins: int, cand: int
) -> int:
    """Copies of the pattern in the blow-up of the template with rows
    ``rows`` inside the template mask ``cand``, by the routes of
    ``_count_copies`` with the class sizes as weights.  A complete
    template of false-twin classes of balanced sizes is a Turán graph,
    counted by ``turan_copy_count``."""
    p = spec.pattern
    if spec.edgeless:
        return comb(sum(sizes[x] for x in iter_bits(cand)), p.n)
    if cand and not cand & true_twins and all(
        rows[x] & cand == cand ^ 1 << x for x in iter_bits(cand)
    ):
        parts = [sizes[x] for x in iter_bits(cand)]
        if max(parts) - min(parts) <= 1:
            return turan_copy_count(p, len(parts), sum(parts))
    if spec.dom_count:
        return _blowup_cliques(rows, sizes, true_twins, cand, spec.dom_count, spec.rest, cand)
    total = _blowup_embeddings(p, rows, sizes, true_twins, cand)
    copies, rem = divmod(total, spec.aut_count)
    assert rem == 0, "embedding count not divisible by automorphism count"
    return copies


def _host_copies(spec: PatternSpec, adj: tuple[int, ...], quotient: TwinQuotient, mask: int) -> int:
    """Copies of the pattern inside the vertex mask ``mask`` of the host
    with rows ``adj`` and twin quotient ``quotient``: ``_count_copies``
    on a twin-free host, else ``_blowup_count``, since the host restricted
    to ``mask`` is the blow-up of the quotient with |mask & class|
    vertices per class."""
    if not quotient.twins:
        return _count_copies(spec, adj, mask)
    sizes = [1] * len(adj)
    cand = mask & quotient.leads
    for cls in quotient.twins:
        low = cls & -cls
        m = (mask & cls).bit_count()
        sizes[low.bit_length() - 1] = m
        cand = cand | low if m else cand & ~low
    return _blowup_count(spec, adj, sizes, quotient.true_twins, cand)


def blowup_copy_count(h: Graph, template: Graph, sizes: list[int], true_twins: int = 0) -> int:
    """N(H, G) for the blow-up G of ``template`` that puts ``sizes[x]``
    vertices in place of each template vertex x, pairwise adjacent if x is
    in the vertex mask ``true_twins`` and pairwise non-adjacent otherwise,
    without building G: ``count_subgraph_copies`` on the host gives the
    same count."""
    if len(sizes) != template.n or any(m < 0 for m in sizes):
        raise ValueError("need one nonnegative class size per template vertex")
    if true_twins & ~template.vertex_mask:
        raise ValueError("true-twin mask outside the template")
    cand = sum(1 << x for x, m in enumerate(sizes) if m)
    return _blowup_count(pattern_spec(h), template.adj, list(sizes), true_twins, cand)


@lru_cache(maxsize=1024)
def _independent_partitions(h: Graph) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Partitions of V(h) into independent blocks, as (sorted block sizes,
    number of partitions) pairs.

    The vertices are placed one twin class (``graphs.twin_classes``) at a
    time.  A state is the sorted blocks so far, each as (mask of the
    classes it meets, size), with the number of partitions of the placed
    vertices that give it.  A vertex opens a new block or joins a block
    that meets none of its neighbours' classes, with as many ways as the
    state has blocks of that kind.  False twins may share a block; true
    twins are adjacent, so each takes a block of its own.  Blocks that
    meet the same classes with the same size are interchangeable, so for
    stars, fans and complete splits the states are partitions of an
    integer, not the Bell(v(h)) set partitions of V(h).
    """
    classes = twin_classes(h.adj)
    states: dict[tuple[tuple[int, int], ...], int] = {(): 1}
    for i, cls in enumerate(classes):
        row = h.adj[(cls & -cls).bit_length() - 1]
        near = sum(1 << j for j, other in enumerate(classes) if row & other)
        bit = 1 << i
        for _ in range(cls.bit_count()):
            nxt: dict[tuple[tuple[int, int], ...], int] = {}
            for blocks, count in states.items():
                key = tuple(sorted(blocks + ((bit, 1),)))
                nxt[key] = nxt.get(key, 0) + count
                for block, ways in Counter(b for b in blocks if not b[0] & near).items():
                    out = list(blocks)
                    out.remove(block)
                    out.append((block[0] | bit, block[1] + 1))
                    key = tuple(sorted(out))
                    nxt[key] = nxt.get(key, 0) + count * ways
            states = nxt
    profile: Counter[tuple[int, ...]] = Counter()
    for blocks, count in states.items():
        profile[tuple(sorted(size for _, size in blocks))] += count
    return tuple(profile.items())


@lru_cache(maxsize=1024)
def turan_copy_count(h: Graph, r: int, n: int) -> int:
    """N(H, T_r(n)) in closed form, without building the host.

    An embedding of H sends the preimage of each part to an independent
    block, so |Aut H| * N(H, T_r(n)) sums, over partitions of V(H) into
    independent blocks and injective block-to-part assignments, the
    products of falling factorials (part size)_{|block|} (Lovász, *Large
    Networks and Graph Limits*, ch. 5).  The partitions enter only
    through their block sizes, counted per twin class of H by
    ``_independent_partitions``, so patterns with large twin classes
    (stars, fans, complete splits) stay polynomial.  T_r(n) has rem parts
    of q + 1 and r - rem of q, so the assignment sum runs over j, the
    number of blocks in large parts.  The null pattern counts 1 for every
    r >= 0.  Memoized per process: every weight and bound reads it.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if r < min(h.n, 1):
        raise ValueError(f"part count must be at least {min(h.n, 1)}")
    q, rem = divmod(n, r) if r else (0, 0)
    total = 0
    for sizes, mult in _independent_partitions(h):
        # e[j]: block products with j of the blocks so far in large parts
        e = [1]
        for b in sizes:
            small, large = perm(q, b), perm(q + 1, b)
            e = [x * small + y * large for x, y in zip(e + [0], [0] + e)]
        k = len(sizes)
        total += mult * sum(c * perm(rem, j) * perm(r - rem, k - j) for j, c in enumerate(e))
    copies, left = divmod(total, pattern_spec(h).aut_count)
    assert left == 0, "embedding count not divisible by automorphism count"
    return copies
