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
Every copy count is ``_count_copies`` inside a mask: the whole host, N(C)
for copies rooted at a clique C, and the complement of s for copies
avoiding s.  A copy J of H with d = dom(H) >= 1 is a d-clique C joined
to a copy of H - Dom H in N(C), which has no dominating vertex, so C =
Dom(J) and N(H, G) = sum over d-cliques C of N(H - Dom H, G[N(C)]).
Edgeless patterns are binomials, and only the other patterns with no
dominating vertex reach ``_frontier``: for every pattern with one,
``count_embeddings`` is an independent route.  Copies in Turán hosts
have a closed form, ``turan_copy_count``, over the partitions of V(H)
into independent blocks; ``_independent_partitions`` counts them by
block sizes, placing one twin class of H at a time.  Slow
subset-enumeration and set-partition oracles live in the test tree only.

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
from math import comb, perm
from typing import Iterator

from .graphs import (
    Graph,
    automorphism_count,
    common_neighborhood,
    delete_vertices,
    iter_bits,
    twin_classes,
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
    if t >= 3 and clique_number(g) < t:  # instant on Turán hosts, which the walk is not
        return 0
    return _clique_count(g.adj, g.vertex_mask, t)


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


def _representatives(adj: tuple[int, ...]) -> int:
    """Mask of one vertex per class of equal rows (false twins, never
    adjacent, each free to stand in for another in a clique): a largest
    clique inside any mask also lies inside the mask cut down to these.
    Without the cut ``_max_clique`` never prunes on a Turán host."""
    first: dict[int, int] = {}
    for v, row in enumerate(adj):
        first.setdefault(row, v)
    return sum(1 << v for v in first.values())


def clique_number(g: Graph) -> int:
    """Size of a largest clique."""
    return _max_clique(g.adj, 0, _representatives(g.adj))


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
    # every copy holds a dom(H)-clique; instant on Turán hosts, which the walk is not
    if spec.dom_count >= 3 and clique_number(g) < spec.dom_count:
        return 0
    return _count_copies(spec, g.adj, g.vertex_mask)


def enumerate_copies(h: Graph, g: Graph) -> list[tuple[int, frozenset[tuple[int, int]]]]:
    """All copies of h in g as (vertex mask, edge set) pairs.

    Deterministic order: sorted by vertex mask, then edge set.  Each copy
    is found |Aut(h)| times by the embedding search; duplicates collapse.
    """
    if h.n == 0:
        return [(0, frozenset())]
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
    return _count_copies(pattern_spec(spec.down(u)), g.adj, common)


def copies_through(h: Graph, g: Graph, s: int) -> int:
    """Copies of h in g containing at least one vertex of s."""
    if s & ~g.vertex_mask:
        raise ValueError("vertex set not contained in the graph")
    if s == 0:
        return 0
    spec = pattern_spec(h)
    return _count_copies(spec, g.adj, g.vertex_mask) - _count_copies(
        spec, g.adj, g.vertex_mask & ~s
    )


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
    r >= 0.
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
