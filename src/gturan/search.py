"""Exhaustive small-graph enumeration and brute-force extremal search.

One representative per isomorphism class is generated level by level by
canonical augmentation (B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  A representative on n vertices is
extended by a new vertex with one neighbourhood per orbit of its
automorphism group on vertex subsets.  A child is accepted iff its new
vertex lies in the orbit of its canonical deletion vertex: the first
vertex, in canonical order, among those with the largest (degree, sum of
neighbour degrees).  Children whose new vertex does not have that largest
pair are rejected before they are built, and one whose new vertex shares
it only with its twins is accepted without canonical labeling.  A labeled
child carries its automorphism generators to the next level, so no graph
is labeled twice.  Every class then arises exactly once, from its
canonical parent, with no table of codes.  Any induced-hereditary pruning
predicate may be applied to each child: the canonical parent of a kept
graph is a vertex-deleted subgraph, hence kept, which is what makes the
constrained searches cheap.
Correctness of the generator is cross-checked against labeled-graph
deduplication for n <= 6 and against filtered unpruned levels in the
test suite.

A walk generates only the neighbourhoods its constraints leave room
for.  The new vertex of a child of g with s neighbours brings s edges and
has the largest degree in the child, so under u = 1 with a degree bound
delta a kept child has s <= delta (and its mask then never meets a
vertex of degree delta), and under a clique bound (2, p) it has
s <= p - e(g); every other key offers every size, and its predicate
still runs on every child built, for omega and for codegrees at u >= 2.

Each class is expanded once per process for each neighbourhood size a
walk asks of it, and each child built once.  An orbit of Aut(g) keeps
the mask size, so the least mask of each orbit does not depend on the
sizes asked for (nor on the generators used), and the children of a
class with s neighbours do not depend on the predicate that later
filters them.  A walk merges the sizes it asks for in increasing mask
order, so every pruned level holds the same representatives as the
unpruned one, in the same order, whatever its room.  ``_expansions``,
the one enumeration cache, keeps per parent the generators of its
automorphism group once known (a parent accepted without labeling is
labeled at most once, when a size first needs its orbits) and, per size
asked for, one entry per admissible mask: the child once some walk
builds it, and its labeling once some walk keeps it.  A child that fails
the canonical deletion test drops its graph, and later walks skip it
before building or filtering it; a child that no walk keeps is never
labeled.  Only parents on fewer than ``ENUM_CAP`` vertices are kept, so
whatever the number of predicates the memo holds at most the children
of the 1253 classes on <= 7 vertices (13598 graphs, 4.7 MiB, once every
class on 8 vertices is built); the children of larger parents are
handed out and not kept.  A walk that raises leaves the memo consistent:
an entry it did not finish stays unbuilt or unlabeled.

Every walk filters the children with its own predicate, so a level is
the last level of one walk, and a caller that reads several levels
reads them from one walk.  ``levels(n_max, prune, cliques)`` is the one
way in: it turns a constraint set and an optional clique bound (u, p),
at most p u-cliques, into the predicate and the room of its ``_levels``
walk, and before any work rejects an ``n_max`` outside 0..cap, where the
cap is ``DEGREE_CAPS[delta]`` under u = 1 with delta <= 3 (18 for
delta <= 2, 12 for delta = 3) and ``ENUM_CAP`` = 8 otherwise.

There is one extremal search, fixing the number p of u-cliques as the
paper does: ``_optimum`` takes the argmax of N(H, G) over a stream of
candidate graphs and re-verifies every optimum.  Fixing u = 1 fixes the
vertex count, so ``brute_extremal(n, ...)`` is the u = 1 stream;
``brute_extremal_u`` with u >= 2 streams the levels 1..n_cap pruned by
the constraint set and k^u <= p (clique counts only grow with the
graph, so the pruning is hereditary), filtered to k^u(G) = p;
``empirical_turan_goodness`` hands it each level of one K_{omega+1}-free
walk.  The exhaustive acceptance criteria call these three, so no other
code takes an exhaustive maximum, and every optimum they compare is
re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import merge
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import Graph, add_vertex, automorphism_generators, graph6_encode, iter_bits
from .counting import (
    PatternSpec,
    _clique_count,
    _count_copies,
    count_embeddings,
    enumerate_cliques,
    pattern_spec,
    turan_copy_count,
)
from .freeness import ConstraintSet, check_constraints, passes_constraints

# largest n_max of a walk (12346 classes on 8 vertices), and the memo keeps
# parents on fewer vertices; a walk under u = 1 with delta <= 3 has the
# larger cap DEGREE_CAPS[delta]: 1894 classes (unions of paths and cycles)
# on 18 vertices for delta = 2, 36327 on 12 for delta = 3
ENUM_CAP = 8
DEGREE_CAPS = {0: 18, 1: 18, 2: 18, 3: 12}


@dataclass(frozen=True)
class SearchOutcome:
    objective: int
    argmax: tuple[str, ...]  # graph6, all optima up to isomorphism
    search_space_size: int
    constraints: ConstraintSet
    fixed: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()


_UNSET = object()  # a child not labeled yet
_REJECTED = object()  # a child that failed the canonical deletion test


@dataclass(slots=True)
class _Expansion:
    """Memo record of one parent: the generators of its automorphism group
    once known, and per neighbourhood size s asked for so far one entry
    [mask, child, label] per child of ``_augmentations(parent, s, gens)``.
    child is the Graph once built, None before and once rejected; label is
    None for a settled child, _UNSET until an unsettled child is labeled,
    then Aut(child) generators or _REJECTED."""

    gens: Optional[list[list[int]]]
    sizes: dict[int, list[list]] = field(default_factory=dict)


# parent -> its _Expansion, for parents on < ENUM_CAP vertices only, so at
# most the 1253 classes on <= 7 vertices
_expansions: dict[Graph, _Expansion] = {}
_ROOT = Graph(0, ())  # level 0 of every walk


def _levels(
    n_max: int,
    keep: Optional[Callable[[Graph], bool]] = None,
    room: Optional[Callable[[Graph], int]] = None,
) -> Iterator[tuple[int, list[Graph]]]:
    """Yield (n, representatives) for n = 0..n_max under a hereditary keep;
    ``room(g)``, when given, bounds the neighbourhood size of the children
    of g that keep can accept, and larger ones are not generated.  n_max
    is not checked here, so callers go through ``levels``."""
    reps, known = [_ROOT], [None]
    yield 0, reps
    for k in range(n_max):
        children, child_gens = [], []
        for g, gens in zip(reps, known):
            record = _expansions.get(g)
            if record is None:
                record = _Expansion(gens)
                if k < ENUM_CAP:
                    _expansions[g] = record
            sizes = record.sizes
            first = max(map(int.bit_count, g.adj), default=0)  # top degree
            last = k if room is None else min(k, room(g))
            runs = []
            for s in range(first, last + 1):
                entries = sizes.get(s)
                if entries is None:
                    masks, record.gens = _augmentations(g, s, record.gens)
                    entries = sizes[s] = [
                        [mask, None, None if settled else _UNSET]
                        for mask, settled in masks
                    ]
                if entries:
                    runs.append(entries)
            # masks are distinct, so the entries merge by mask alone
            for entry in runs[0] if len(runs) == 1 else merge(*runs):
                mask, child, label = entry
                if label is _REJECTED:
                    continue
                if child is None:
                    child = entry[1] = add_vertex(g, mask)
                if keep is not None and not keep(child):
                    continue
                if label is _UNSET:  # labeled once some walk keeps it
                    label = _is_canonical_deletion(child)
                    if label is None:
                        entry[1:] = None, _REJECTED
                        continue
                    entry[2] = label
                children.append(child)
                child_gens.append(label)
        reps, known = children, child_gens
        yield k + 1, reps


def _degree_sums(adj: Sequence[int]) -> tuple[list[int], list[int]]:
    """Degree and sum of neighbour degrees of every vertex."""
    deg = [row.bit_count() for row in adj]
    return deg, [sum(deg[j] for j in iter_bits(row)) for row in adj]


def _augmentations(
    g: Graph, s: int, gens: Optional[list[list[int]]]
) -> tuple[list[tuple[int, bool]], Optional[list[list[int]]]]:
    """Neighbourhood masks of size s of a new vertex that gets the largest
    (degree, sum of neighbour degrees) in the child, one per orbit of Aut(g)
    on vertex subsets, in increasing order, each flagged True when the
    child is accepted without labeling: every other vertex with that pair
    is a twin of the new vertex, hence in its orbit.  ``gens`` generates
    Aut(g); when it is None, g is labeled if two or more masks are
    admissible.  Returns the masks and the generators, None while g is
    not labeled."""
    k = g.n
    adj = g.adj
    deg, nsum = _degree_sums(adj)
    top_deg = max(deg, default=0)
    # the child degrees are deg + 1 on the mask and s at the new vertex, so
    # s >= top_deg, and at s = top_deg the mask avoids the top-degree vertices
    if not top_deg <= s <= k:
        return [], gens
    # of_deg[d]: vertices of degree d; of_deg[-1] is of_deg[k], which is 0
    of_deg = [0] * (k + 1)
    for v, d in enumerate(deg):
        of_deg[d] |= 1 << v
    out = []
    pool = range(k) if s > top_deg else [v for v in range(k) if deg[v] < s]
    for combo in combinations(pool, s):
        mask = 0
        top = s
        for i in combo:
            mask |= 1 << i
            top += deg[i]
        settled = True
        for i in iter_bits(of_deg[s] | of_deg[s - 1] & mask):
            sum_i = nsum[i] + (adj[i] & mask).bit_count() + (s if mask >> i & 1 else 0)
            if sum_i > top:
                break
            if sum_i == top and adj[i] != mask & ~(1 << i):
                settled = False
        else:
            out.append((mask, settled))
    out.sort()
    if len(out) < 2:
        return out, gens
    if gens is None:
        gens = automorphism_generators(g)[1]
    if not gens:
        return out, gens
    seen: set[int] = set()
    reps = []
    for mask, settled in out:
        if mask in seen:
            continue
        reps.append((mask, settled))
        seen.add(mask)
        orbit = [mask]
        for x in orbit:
            for perm in gens:
                y = 0
                for i in iter_bits(x):
                    y |= 1 << perm[i]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
    return reps, gens


def _is_canonical_deletion(child: Graph) -> Optional[list[list[int]]]:
    """Generators of Aut(child) when the last vertex lies in the orbit of
    the canonical deletion vertex, the first vertex in canonical order
    among those with the largest (degree, sum of neighbour degrees);
    None otherwise."""
    key = list(zip(*_degree_sums(child.adj)))
    new = child.n - 1
    order, gens = automorphism_generators(child)
    target = next(v for v in order if key[v] == key[new])
    orbit = [new]
    for x in orbit:
        if x == target:
            return gens
        for perm in gens:
            if perm[x] not in orbit:
                orbit.append(perm[x])
    return None


def levels(
    n_max: int,
    prune: Optional[ConstraintSet] = None,
    cliques: Optional[tuple[int, int]] = None,
) -> Iterator[tuple[int, list[Graph]]]:
    """The walk yielding (n, representatives) for n = 0..n_max, n_max
    checked before any work against 0..cap, the cap ``DEGREE_CAPS[delta]``
    under u = 1 with delta <= 3 and ``ENUM_CAP`` otherwise: one
    representative per isomorphism class on n vertices passing ``prune``
    and, for ``cliques`` = (u, p), with at most p u-cliques."""
    if n_max < 0:
        raise ValueError(f"n={n_max} is negative")
    delta = prune.delta if prune is not None and prune.u == 1 else None
    cap = DEGREE_CAPS.get(delta, ENUM_CAP)
    if n_max > cap:
        raise ValueError(f"n={n_max} exceeds enumeration cap {cap}")
    if prune is not None and prune.delta is None and prune.omega is None:
        prune = None  # a set that bounds nothing keeps every graph
    keep = None if prune is None else (lambda g: passes_constraints(g, prune))
    # room: at most delta new neighbours at u = 1, and p - e(g) new edges
    # under at most p 2-cliques
    room = None if delta is None else (lambda g: delta)
    if cliques is not None:
        u, p = cliques
        keep = lambda g: _clique_count(g.adj, g.vertex_mask, u) <= p and (
            prune is None or passes_constraints(g, prune)
        )
        if u == 2:
            room = (lambda g: p - g.edge_count) if delta is None else (
                lambda g: min(delta, p - g.edge_count)
            )
    return _levels(n_max, keep, room)


def enumerate_graphs(n: int, prune: Optional[ConstraintSet] = None) -> Iterator[Graph]:
    """One representative per isomorphism class on exactly n vertices,
    restricted by ``prune`` to graphs passing the freeness constraints (a
    hereditary property, applied during generation)."""
    for _, reps in levels(n, prune):
        pass
    return iter(reps)


def nonisomorphic_graphs_upto(n_max: int) -> tuple[tuple[Graph, ...], ...]:
    """Unpruned representatives for every n <= n_max."""
    return tuple(tuple(reps) for _, reps in levels(n_max))


def _optimum(
    spec: PatternSpec,
    graphs: Iterable[Graph],
    cs: ConstraintSet,
    fixed: dict,
    notes: tuple[str, ...] = (),
) -> SearchOutcome:
    """The one exhaustive argmax of N(H, G) over the candidate graphs.

    Every optimum is re-verified before it is reported: it passes the
    constraints, and a raw embedding count over |Aut| agrees with the
    objective, which for patterns with a dominating vertex is the
    independent sum over dominating cliques.
    """
    best = 0
    argmax: list[Graph] = []
    examined = 0
    for g in graphs:
        examined += 1
        val = _count_copies(spec, g.adj, g.vertex_mask)
        if val > best:
            best, argmax = val, [g]
        elif val == best:
            argmax.append(g)
    for g in argmax:
        assert check_constraints(g, cs).passes
        recount, rem = divmod(count_embeddings(spec.pattern, g), spec.aut_count)
        assert rem == 0 and recount == best
    return SearchOutcome(
        best,
        tuple(sorted(graph6_encode(g) for g in argmax)),
        examined,
        cs,
        fixed,
        notes,
    )


@dataclass(frozen=True)
class EmpiricalGoodness:
    """Outcome of a desk-scale exhaustive check that Turán graphs maximize
    H-counts among K_{omega+1}-free graphs.  A pass is evidence, not proof;
    ``vacuous`` marks the zero-count regime where a pass carries no
    information (the Turán graph hosts no copy of H at the largest size)."""

    passed: bool
    vacuous: bool
    rows: tuple[tuple[int, int, int], ...]  # (n, exhaustive max, Turán count)
    witness: Optional[str] = None  # first sorted graph6 optimum beating Turán


def empirical_turan_goodness(h: Graph, omega: int, n_max: int) -> EmpiricalGoodness:
    """Exhaustively verify max N(H, G) over K_{omega+1}-free G equals the
    Turán count for every n <= n_max, from one walk of the levels."""
    spec = pattern_spec(h)
    cs = ConstraintSet(u=1, delta=None, omega=omega)
    rows = []
    witness = None
    for n, reps in levels(n_max, cs):
        if not n:
            continue
        out = _optimum(spec, reps, cs, {"n": n})
        t_count = turan_copy_count(h, omega, n)
        rows.append((n, out.objective, t_count))
        if out.objective != t_count and witness is None:
            witness = out.argmax[0]
    passed = all(found == want for _, found, want in rows)
    vacuous = turan_copy_count(h, omega, n_max) == 0
    return EmpiricalGoodness(passed, vacuous, tuple(rows), witness)


def brute_extremal(n: int, h: Graph, cs: ConstraintSet) -> SearchOutcome:
    """Exact max of N(H, G) over free graphs on exactly n vertices."""
    return _optimum(pattern_spec(h), enumerate_graphs(n, cs), cs, {"n": n})


def brute_extremal_u(
    p: int,
    u: int,
    h: Graph,
    cs: ConstraintSet,
    n_cap: Optional[int] = None,
) -> SearchOutcome:
    """Exact max of N(H, G) over free graphs with k^u(G) = p, n <= n_cap.

    For u = 1 the clique count pins the vertex count, so the candidates
    are those of ``brute_extremal(p, ...)``.  For u >= 2 the vertex cap
    loses nothing when n_cap >= u*p and every vertex of H lies in a
    u-clique of H (for u = 2, H has no isolated vertex; for any u, H has
    at least u dominating vertices): then every vertex of a copy of H lies
    in a u-clique of G, so deleting the vertices in no u-clique keeps
    k^u, N(H, .) and freeness and leaves at most u*p vertices.  Otherwise
    the objective is the maximum over graphs on at most n_cap vertices
    only.  The outcome notes say which case holds.
    """
    if u < 1:
        raise ValueError("u must be at least 1")
    if p < 0:
        raise ValueError(f"p={p} is negative")
    if n_cap is not None and n_cap < 0:
        raise ValueError(f"n_cap={n_cap} is negative")
    spec = pattern_spec(h)
    fixed = {"u": u, "p": p}
    if u == 1:
        if n_cap is not None and n_cap != p:
            raise ValueError("for u=1 the vertex count is fixed at p")
        return _optimum(spec, enumerate_graphs(p, cs), cs, fixed)
    if n_cap is None:
        n_cap = min(u * p, ENUM_CAP) if p else ENUM_CAP
    # padded variants (extra vertices in no u-clique) are distinct
    # isomorphism classes and are reported as separate optima
    candidates = (
        g
        for n, reps in levels(n_cap, cs, (u, p))
        if n
        for g in reps
        if _clique_count(g.adj, g.vertex_mask, u) == p
    )
    covered = 0
    for clique in enumerate_cliques(h, u):
        covered |= clique
    if n_cap >= u * p and covered == h.vertex_mask:
        note = (
            f"vertex cap {n_cap}: every vertex of a copy of the pattern lies "
            f"in a clique of size {u}, and deleting the vertices in no such "
            f"clique keeps the clique count, the copy count and freeness and "
            f"leaves at most {u * p} vertices, so the cap loses nothing"
        )
    else:
        note = (
            f"vertex cap {n_cap}: the objective is the maximum over graphs "
            f"on at most {n_cap} vertices only"
        )
    return _optimum(spec, candidates, cs, fixed, (note,))

