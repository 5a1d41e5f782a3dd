"""Immutable simple-graph value type on adjacency bitmasks.

Conventions used throughout the package:

* A graph on ``n`` vertices has vertex set ``{0, ..., n-1}``.  Vertices are
  0-indexed everywhere but ``str(g)``, which shows them 1-indexed.
* Vertex sets are plain Python ints used as bitmasks (bit ``i`` set means
  vertex ``i`` is in the set).  Python ints are arbitrary-precision, so a
  single representation covers every graph up to ``MAX_VERTICES``.
* ``adj[i]`` is the bitmask of neighbours of ``i``.  ``Graph(...)`` and
  every public constructor validate symmetry (``j in adj[i]`` iff
  ``i in adj[j]``), irreflexivity (no loops) and that no bits at
  positions >= ``n`` are set.  Builders that derive their rows from a
  valid graph (``add_vertex``, ``induced_subgraph``, ``relabel``), or
  fill both ends of each edge by construction (``graph6_decode``), skip
  that check through ``_trusted``.

All operations are pure: a "mutation" always builds a new Graph.  Graphs
are hashable and therefore safe to share, memoize, and send between
workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 256
_BITS = tuple(1 << v for v in range(MAX_VERTICES))


# _BYTE_BITS[m]: the set bit positions of m < 256, ascending; the masks
# with top bit b are those below 1 << b with b appended
_BYTE_BITS: list[tuple[int, ...]] = [()]
for _b in range(8):
    _BYTE_BITS += [bits + (_b,) for bits in _BYTE_BITS]
del _b


def iter_bits(mask: int) -> Iterable[int]:
    """Set bit positions of the nonnegative ``mask`` in ascending order, as
    an iterable: a precomputed tuple for masks below 256, a generator
    above."""
    if 0 <= mask < 256:
        return _BYTE_BITS[mask]
    return _bit_loop(mask)


def _bit_loop(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {i} has bits beyond vertex range")
            if row >> i & 1:
                raise ValueError(f"loop at vertex {i}")
        for i in range(self.n):
            for j in iter_bits(self.adj[i]):
                if j > i and not self.adj[j] >> i & 1:
                    raise ValueError(f"asymmetric adjacency between {i} and {j}")

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            for j in iter_bits(self.adj[i] >> (i + 1) << (i + 1)):
                yield (i, j)

    def __str__(self) -> str:
        es = ", ".join(f"{i + 1}-{j + 1}" for i, j in self.edges())
        return f"Graph(n={self.n}; {es or 'no edges'})"


def check_vertex_count(n: int) -> None:
    """Raise unless a graph may have ``n`` vertices; builders call it
    before they allocate anything."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def _trusted(n: int, adj: tuple[int, ...]) -> Graph:
    """Graph from rows known to be valid, skipping ``__post_init__``."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def empty_graph(n: int) -> Graph:
    check_vertex_count(n)
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    check_vertex_count(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def path_graph(n: int) -> Graph:
    return from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edge_list(n, ((i, (i + 1) % n) for i in range(n)))


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on ``n`` vertices with the given edges (duplicates collapse),
    read only once ``n`` is checked."""
    check_vertex_count(n)
    rows = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"loop edge at vertex {i}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def add_vertex(g: Graph, neighbours: int) -> Graph:
    """New graph with one extra vertex adjacent to ``neighbours`` (bitmask)."""
    if neighbours >> g.n:
        raise ValueError("neighbour mask outside host graph")
    if g.n >= MAX_VERTICES:
        raise ValueError(f"vertex count {g.n + 1} outside [0, {MAX_VERTICES}]")
    v = g.n
    rows = [row | ((neighbours >> i & 1) << v) for i, row in enumerate(g.adj)]
    rows.append(neighbours)
    return _trusted(v + 1, tuple(rows))


def disjoint_union(parts: Sequence[tuple[Graph, int]]) -> Graph:
    """Disjoint union of ``multiplicity`` relabeled copies of each part."""
    total = sum(g.n * k for g, k in parts)
    if total > MAX_VERTICES:
        raise ValueError(f"union on {total} vertices exceeds cap {MAX_VERTICES}")
    rows: list[int] = []
    offset = 0
    for g, k in parts:
        if k < 0:
            raise ValueError("negative multiplicity")
        for _ in range(k):
            rows.extend(row << offset for row in g.adj)
            offset += g.n
    return Graph(total, tuple(rows))


def union_of(*graphs: Graph) -> Graph:
    return disjoint_union([(g, 1) for g in graphs])


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    total = g1.n + g2.n
    if total > MAX_VERTICES:
        raise ValueError(f"join on {total} vertices exceeds cap {MAX_VERTICES}")
    right = ((1 << g2.n) - 1) << g1.n
    left = (1 << g1.n) - 1
    rows = [row | right for row in g1.adj]
    rows.extend((row << g1.n) | left for row in g2.adj)
    return Graph(total, tuple(rows))


def induced_subgraph(g: Graph, vertices: int | Iterable[int]) -> Graph:
    """Relabeled subgraph induced on the given vertex set.

    Kept vertices are renumbered 0.. in ascending order of old label.
    """
    mask = vertices if isinstance(vertices, int) else mask_of(vertices)
    if mask & ~g.vertex_mask:
        raise ValueError("vertex set not contained in the graph")
    keep = set_of(mask)
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        for w in iter_bits(g.adj[v] & mask):
            row |= 1 << pos[w]
        rows.append(row)
    return _trusted(len(keep), tuple(rows))


def delete_vertices(g: Graph, vertices: int | Iterable[int]) -> Graph:
    mask = vertices if isinstance(vertices, int) else mask_of(vertices)
    return induced_subgraph(g, g.vertex_mask & ~mask)


def common_neighborhood(g: Graph, c: int | Iterable[int]) -> int:
    """Bitmask of vertices adjacent to every vertex of ``c``.

    The empty set is rejected: its common neighbourhood is ambiguous.
    """
    mask = c if isinstance(c, int) else mask_of(c)
    if mask == 0:
        raise ValueError("common neighbourhood of the empty set is undefined")
    if mask & ~g.vertex_mask:
        raise ValueError("vertex set not contained in the graph")
    out = g.vertex_mask
    for v in iter_bits(mask):
        out &= g.adj[v]
    return out


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of ``g`` under vertex permutation ``perm`` (old -> new)."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertex set")
    cells = [0] * g.n  # the vertex at each new position, as ``_leaf`` takes it
    for old, new in enumerate(perm):
        cells[new] = 1 << old
    return _trusted(g.n, _leaf(g.adj, cells)[1])


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, lowest vertex first."""
    seen = 0
    comps = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = g.adj[v] & ~comp
        while frontier:
            comp |= frontier
            nxt = 0
            for w in iter_bits(frontier):
                nxt |= g.adj[w]
            frontier = nxt & ~comp
        seen |= comp
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    return from_edge_list(n, (e for e in pairs if rng.random() < p))


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------
#
# Individualization-refinement canonical labeling, ``_search``: iterated
# equitable refinement of an ordered partition, branching on the first
# non-singleton cell, taking the lexicographically least relabeled
# adjacency over all leaves.  The leaf set is isomorphism-invariant, so
# equal codes <=> isomorphic graphs.  No external dependency.
#
# The same search yields |Aut| (McKay & Piperno, "Practical graph
# isomorphism II", J. Symb. Comput. 60, 2014).  A leaf whose rows equal
# the first or the best leaf's rows gives an automorphism, kept as a
# generator.  A node branches on one vertex per orbit of its target cell
# under the generators that fix its individualized vertices.  A leaf
# equal to the first leaf abandons its subtree back to the nearest node of
# the first path.  Each skipped subtree is the image of an explored one
# under an automorphism fixing the node, so it repeats leaf rows already
# seen: the least leaf, and with it every code, is the one the unpruned
# search finds.  On completion the kept generators that fix a first-path
# node's vertices carry the whole orbit of its first child, so |Aut| is
# the product of those orbit sizes down the first path (orbit-stabilizer).
# A target cell of pairwise twins is split into singletons at once; any
# permutation of it is an automorphism, so on the first path it gives
# |cell|!.  Disconnected graphs are canonicalized per component,
# multiplying |Aut| by m! per m equal components.
#
# The search starts from an ordered partition, so it also labels
# coloured graphs: every leaf refines the initial cells in place, so the
# colour at each position is fixed and only the rows are compared.  A
# connected graph whose refined root partition has a cell that is not
# one twin class is first quotiented by its twin classes
# (``twin_quotient``, the one quotient that ``counting`` and
# ``localization`` also read): one vertex per class, coloured by the
# class's size and kind, the colours sorted into the initial cells.  The search runs
# on the quotient, and the canonical order lists each class's members,
# ascending, at its quotient vertex's position.  Isomorphic graphs have
# colour-isomorphic quotients, whose equal leaves expand to equal rows,
# and Aut(G) is Aut(coloured quotient) extended by the symmetric group
# of every class, so |Aut| = |Aut(quotient)| * prod |class|!.  Balanced
# Turán graphs and their unions thus cost one search on r vertices, not
# one descent per vertex.  Without such a cell ``_search`` already
# splits every twin cell at once and the quotient is skipped.
#
# The search also returns the canonical vertex order (the best leaf's
# order) and the raw material of a generating set of Aut(G): the leaf
# generators, the twin cells split on the first path (kept as bitmasks)
# and, for a disconnected graph, each component's own result with its
# vertex list.  The stabilizer of a first-path node is generated by the
# kept generators that fix it together with the symmetric groups of the
# twin cells split at or below it, so at the root these generate Aut(G);
# a disconnected graph adds its components' groups and the swaps of equal
# components.  A quotient's generators and twin cells become permutations
# that move whole classes, and each class of two or more vertices joins
# the twin cells.  ``automorphism_generators`` expands all of it into
# permutations; ``canonical_code``, ``isomorphic`` and
# ``automorphism_count`` never do.
#
# Those three, and the component step of ``canonical_search``, read one
# bounded cache of labelings, ``_labeling``: per graph, its canonical code
# and its form from one ``canonical_search``.  So a graph that is compared
# and counted again is searched once, and so is a component that recurs
# among the disconnected children of the enumeration walk.  A cached form
# is read-only: its order and generators are bytes (every vertex fits a
# byte) and its other lists tuples.  The cache keeps the 256 graphs used
# last.  An entry holds the graph (the key: its rows, about 17 KB for
# G(256, 1/2)), the code bytes (about 4 KB at n = 256) and the form: its
# rows, as large as the key's, and n bytes per generator.  Beside the key,
# an entry takes about 22 KiB for G(256, 1/2) and 52 KiB for a relabeled
# T_100(256), whose form holds 98 generators, so the cache stays under
# about 20 MiB.  ``canonical_search`` and ``automorphism_generators`` stay
# uncached: their one production caller, the enumeration walk, labels
# each child once and keeps the generators it needs in
# ``search._expansions``.


class TwinQuotient(NamedTuple):
    """A graph's twin quotient Q, on its own vertex labels: each twin
    class stands on its least vertex, its lead, and Q's rows are the
    graph's rows cut down to the leads.  The graph is the blow-up of Q
    that puts the class ``classes[v]`` in place of each lead v, pairwise
    adjacent when v is in ``true_twins`` and pairwise non-adjacent
    otherwise."""

    twins: list[int]  # the classes of two or more vertices, in order of least vertex
    leads: int  # Q's vertices: the least vertex of every class
    classes: tuple[int, ...]  # classes[v]: the class of v, as a vertex mask
    true_twins: int  # the leads of the classes of pairwise adjacent twins
    # the lead of each class of false twins (never adjacent, each free to
    # stand in for another in a clique) and every other vertex: a largest
    # clique inside any mask also lies inside the mask cut down to these
    reps: int


def _repeats(rows: tuple[int, ...]) -> list[int]:
    """Masks of the positions of each value that occurs in ``rows`` twice
    or more, in order of first position."""
    if len(set(rows)) == len(rows):
        return []
    groups: dict[int, int] = {}
    for v, row in enumerate(rows):
        groups[row] = groups.get(row, 0) | _BITS[v]
    return [cls for cls in groups.values() if cls & (cls - 1)]


def twin_quotient(adj: Sequence[int]) -> TwinQuotient:
    """The twin quotient of the graph with rows ``adj``.

    A class of two or more vertices is a maximal set with equal open
    neighbourhoods (false twins, pairwise non-adjacent) or equal closed
    neighbourhoods (true twins, pairwise adjacent); every other vertex is
    a class of its own.  No vertex has twins of both kinds, so the
    classes partition the vertex set.  A twin-free graph is its own
    quotient.
    """
    n = len(adj)
    adj = tuple(adj)
    closed = tuple(map(or_, adj, _BITS))
    false = _repeats(adj)
    true = _repeats(closed)
    twins = sorted(false + true, key=lambda cls: cls & -cls) if false and true else false or true
    classes = list(_BITS[:n])
    leads = (1 << n) - 1
    for cls in twins:
        leads ^= cls ^ cls & -cls
        for v in iter_bits(cls):
            classes[v] = cls
    true_twins = sum(cls & -cls for cls in true)
    return TwinQuotient(twins, leads, tuple(classes), true_twins, leads | sum(true))


def twin_classes(adj: Sequence[int]) -> list[int]:
    """Twin classes of the graph with rows ``adj`` (``twin_quotient``), as
    vertex masks in order of least vertex."""
    quotient = twin_quotient(adj)
    return [quotient.classes[v] for v in iter_bits(quotient.leads)]


def _refine(adj: Sequence[int], cells: list[int], queue: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition.

    Splits every cell by the number of neighbours its vertices have in
    each splitter; subcell order (descending count) is isomorphism
    invariant, keeping the cell sequence canonical.  The counts are kept
    as bit planes, ``planes[b]`` the vertices whose count has bit b set,
    summed one splitter row at a time with a ripple carry.  A cell that
    misses every plane has count 0 throughout and stays whole; any other
    cell is cut by the planes from the highest down, which leaves its
    parts in descending count order.  Stops early once the partition is
    discrete.
    """
    n = len(adj)
    while queue and len(cells) < n:
        splitter = queue.pop()
        if not splitter:
            continue
        low = splitter & -splitter
        splitter ^= low
        planes = [adj[low.bit_length() - 1]]
        while splitter:
            low = splitter & -splitter
            splitter ^= low
            carry = adj[low.bit_length() - 1]
            for b, plane in enumerate(planes):
                planes[b] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        planes.reverse()
        hit = 0
        for plane in planes:
            hit |= plane
        out: list[int] = []
        for cell in cells:
            if not cell & hit or cell & (cell - 1) == 0:  # count 0, or a singleton
                out.append(cell)
                continue
            parts = [cell]
            for plane in planes:
                if cell & plane and cell & plane != cell:  # this bit varies in the cell
                    cut = []
                    for part in parts:
                        high = part & plane
                        if high and high != part:
                            cut += (high, part ^ high)
                        else:
                            cut.append(part)
                    parts = cut
            out += parts
            if len(parts) > 1:
                queue += parts
        cells = out
    return cells


def _is_twin_cell(adj: Sequence[int], cell: int) -> bool:
    """True when all cell members are pairwise twins: identical adjacency
    outside the cell and the cell induces a clique or an independent set.
    Any permutation inside such a cell is then an automorphism."""
    outside = None
    inner_clique = inner_indep = True
    for v in iter_bits(cell):
        out_v = adj[v] & ~cell
        if outside is None:
            outside = out_v
        elif out_v != outside:
            return False
        in_v = adj[v] & cell
        if in_v != cell ^ (1 << v):
            inner_clique = False
        if in_v:
            inner_indep = False
        if not (inner_clique or inner_indep):
            return False
    return True


def _leaf(adj: Sequence[int], cells: list[int]) -> tuple[list[int], tuple[int, ...]]:
    """Vertex order of a discrete partition and the adjacency it relabels to."""
    order = [cell.bit_length() - 1 for cell in cells]
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    rows = []
    for v in order:
        row = 0
        rest = adj[v]
        while rest:
            low = rest & -rest
            rest ^= low
            row |= 1 << pos[low.bit_length() - 1]
        rows.append(row)
    return order, tuple(rows)


def _find(orbits: list[int], v: int) -> int:
    """Root of ``v`` in the union-find forest ``orbits``."""
    while orbits[v] != v:
        orbits[v] = v = orbits[orbits[v]]
    return v


def _absorb(orbits: list[int], gens: list[list[int]], start: int, fixed: list[int]) -> int:
    """Join in ``orbits`` the orbits of ``gens[start:]`` that fix every
    vertex of ``fixed``; return the new start."""
    for perm in gens[start:]:
        if all(perm[v] == v for v in fixed):
            for v, w in enumerate(perm):
                a, b = _find(orbits, v), _find(orbits, w)
                if a != b:
                    orbits[max(a, b)] = min(a, b)
    return len(gens)


class CanonicalForm(NamedTuple):
    """What ``canonical_search`` finds (see the comment above).  A form
    read from the labeling cache holds bytes and tuples, so no caller can
    change it."""

    rows: tuple[int, ...]  # canonical adjacency rows
    aut: int  # |Aut(g)|
    order: Sequence[int]  # connected g: order[i] is the vertex at position i
    gens: Sequence[Sequence[int]]  # leaf automorphisms, perm[old] = new
    twins: Sequence[int]  # twin cells split on the first path
    # disconnected g: (vertices, form) per component, in canonical order
    parts: Sequence[tuple[tuple[int, ...], "CanonicalForm"]]


def canonical_search(g: Graph) -> CanonicalForm:
    """Canonical adjacency rows of ``g``, the order of its automorphism
    group and the data for its canonical order and generators, from one
    search (see the comment above)."""
    n = g.n
    if n == 0:
        return CanonicalForm((), 1, [], [], [], [])
    comps = connected_components(g)
    if len(comps) > 1:
        # canonicalize per component and assemble block-diagonally in a
        # canonical component order; avoids branching over the
        # component-permutation symmetry of disjoint unions
        parts = [(set_of(comp), _labeling(induced_subgraph(g, comp))[1]) for comp in comps]
        parts.sort(key=lambda part: (len(part[0]), part[1].rows))
        out: list[int] = []
        offset = 0
        aut = 1
        run = 0
        for i, (_, form) in enumerate(parts):
            run = run + 1 if i and parts[i - 1][1].rows == form.rows else 1
            aut *= form.aut * run  # the runs multiply to m! per m equal parts
            out.extend(row << offset for row in form.rows)
            offset += len(form.rows)
        return CanonicalForm(tuple(out), aut, [], [], [], parts)
    adj = g.adj
    full = (1 << n) - 1
    cells = _refine(adj, [full], [full])
    if any(c & (c - 1) and not _is_twin_cell(adj, c) for c in cells):
        quotient = twin_quotient(adj)
        if quotient.twins:
            return _quotient_search(adj, quotient)
    return _search(adj, cells)


def _quotient_search(adj: Sequence[int], quotient: TwinQuotient) -> CanonicalForm:
    """Canonical form of a connected graph from its twin quotient,
    coloured by class size and kind (see the comment above)."""
    n = len(adj)
    leads, true_twins = quotient.leads, quotient.true_twins
    # number the leads 0, 1, ...: class i stands on the i-th lead
    index = [0] * n
    lead_list = list(iter_bits(leads))
    for i, v in enumerate(lead_list):
        index[v] = i
    members = [set_of(quotient.classes[v]) for v in lead_list]
    qadj: list[int] = []
    colours: dict[tuple[int, bool], int] = {}  # (size, true twins) -> classes
    for i, v in enumerate(lead_list):
        rest = adj[v] & leads
        qrow = 0
        while rest:
            low = rest & -rest
            qrow |= 1 << index[low.bit_length() - 1]
            rest ^= low
        qadj.append(qrow)
        colour = (len(members[i]), bool(true_twins >> v & 1))
        colours[colour] = colours.get(colour, 0) | 1 << i
    cells = [colours[c] for c in sorted(colours)]
    quot = _search(qadj, _refine(qadj, cells, list(cells)))
    order = [v for x in quot.order for v in members[x]]
    # each class fills one block of positions, and a member's row is the
    # union of its quotient neighbours' blocks (plus its own block, less
    # itself, for true twins)
    blocks = [0] * len(members)
    start = 0
    for x in quot.order:
        size = len(members[x])
        blocks[x] = ((1 << size) - 1) << start
        start += size
    rows: list[int] = []
    for x in quot.order:
        row = 0
        for y in iter_bits(qadj[x]):
            row |= blocks[y]
        if true_twins >> lead_list[x] & 1:
            rows += [row | (blocks[x] ^ 1 << p) for p in iter_bits(blocks[x])]
        else:
            rows += [row] * len(members[x])
    gens = []
    for qperm in quot.gens:
        perm = [0] * n
        for x, y in enumerate(qperm):
            for a, b in zip(members[x], members[y]):
                perm[a] = b
        gens.append(perm)
    for cell in quot.twins:
        xs = set_of(cell)
        gens.extend(_swap(n, zip(members[x], members[y])) for x, y in zip(xs, xs[1:]))
    aut = quot.aut
    for m in members:
        aut *= factorial(len(m))
    return CanonicalForm(tuple(rows), aut, order, gens, list(quotient.twins), [])


def _search(adj: Sequence[int], cells: list[int]) -> CanonicalForm:
    """The one individualization-refinement search, below the refined
    ordered partition ``cells`` of the connected graph with rows ``adj``
    (see the comment above)."""
    n = len(adj)
    if len(cells) == n:
        order, rows = _leaf(adj, cells)
        return CanonicalForm(rows, 1, order, [], [], [])
    path: list[int] = []  # individualized vertices of the current node
    gens: list[list[int]] = []
    twins: list[int] = []
    first: tuple[int, ...] = ()
    best: tuple[int, ...] = ()
    first_order: list[int] = []
    best_order: list[int] = []
    aut = 1

    def descend(cells: list[int], on_first: bool) -> bool:
        """Search below a node; True abandons up to the nearest first-path node."""
        nonlocal first, best, first_order, best_order, aut
        while True:
            target = next((i for i, c in enumerate(cells) if c & (c - 1)), -1)
            if target < 0 or not _is_twin_cell(adj, cells[target]):
                break
            # individualizing a twin refines no other cell (each lies inside
            # or outside the twins' common neighbourhood), so the search would
            # split the cell into singletons in ascending order, one by one
            cell = cells[target]
            if on_first:
                aut *= factorial(cell.bit_count())
                twins.append(cell)
            cells = cells[:target] + [1 << v for v in iter_bits(cell)] + cells[target + 1 :]
        if target < 0:
            order, rows = _leaf(adj, cells)
            if not first_order:
                first = best = rows
                first_order = best_order = order
            elif rows == first or rows == best:
                perm = [0] * n
                for a, b in zip(first_order if rows == first else best_order, order):
                    perm[a] = b
                gens.append(perm)
                return rows == first
            elif rows < best:
                best, best_order = rows, order
            return False
        cell = cells[target]
        explored: list[int] = []
        orbits = list(range(n))  # under the generators that fix ``path``
        seen = 0  # generators absorbed into ``orbits``
        done: set[int] = set()  # orbits of the explored children
        for v in iter_bits(cell):
            if explored and gens:
                if seen < len(gens):
                    seen = _absorb(orbits, gens, seen, path)
                    done = {_find(orbits, x) for x in explored}
                if _find(orbits, v) in done:
                    continue
            split = cells[:target] + [1 << v, cell ^ (1 << v)] + cells[target + 1 :]
            path.append(v)
            abandon = descend(_refine(adj, split, [1 << v]), on_first and not explored)
            path.pop()
            if abandon and not on_first:
                return True
            explored.append(v)
            if seen:
                done.add(_find(orbits, v))
        if on_first and gens:
            _absorb(orbits, gens, seen, path)
            u = _find(orbits, explored[0])
            aut *= sum(_find(orbits, x) == u for x in range(n))
        return False

    descend(cells, True)
    return CanonicalForm(best, aut, best_order, gens, twins, [])


def _swap(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Permutation of range(n) exchanging each given pair."""
    perm = list(range(n))
    for a, b in pairs:
        perm[a], perm[b] = b, a
    return perm


def automorphism_generators(g: Graph) -> tuple[list[int], list[list[int]]]:
    """Canonical vertex order of ``g`` and a generating set of Aut(g).

    ``order[i]`` is the vertex that ``canonical_search(g).rows`` places at
    position i.  Each generator is a permutation list, ``perm[v]`` the
    image of ``v``; the identity group has no generators.
    """
    n = g.n
    form = canonical_search(g)
    parts = form.parts or [(range(n), form)]
    order: list[int] = []
    gens: list[list[int]] = []
    prev_rows = None
    prev_lifted: list[int] = []
    for verts, sub in parts:
        for p in sub.gens:
            perm = list(range(n))
            for x, y in enumerate(p):
                perm[verts[x]] = verts[y]
            gens.append(perm)
        for cell in sub.twins:
            members = [verts[x] for x in iter_bits(cell)]
            gens.extend(_swap(n, [pair]) for pair in zip(members, members[1:]))
        lifted = [verts[x] for x in sub.order]
        if sub.rows == prev_rows:  # equal components: swap them position by position
            gens.append(_swap(n, zip(prev_lifted, lifted)))
        prev_rows, prev_lifted = sub.rows, lifted
        order += lifted
    return order, gens


@lru_cache(maxsize=256)
def _labeling(g: Graph) -> tuple[bytes, CanonicalForm]:
    """Canonical code and form of ``g`` from one ``canonical_search``,
    the form read-only; the one cache of labelings (see the comment
    above)."""
    form = canonical_search(g)
    # vertices fit a byte (n <= 256): bytes keep the form read-only and
    # a generator in n bytes, not n pointers
    form = form._replace(
        order=bytes(form.order),
        gens=tuple(map(bytes, form.gens)),
        twins=tuple(form.twins),
        parts=tuple(form.parts),
    )
    rows = form.rows
    n = g.n
    # the upper triangle column by column, as in graph6; column j holds
    # bits 0..j-1 of row j, lowest first
    text = "".join(format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    nbits = len(text)
    nbytes = (nbits + 7) // 8
    bits = int(text or "0", 2) << (nbytes * 8 - nbits)
    return bytes([n >> 8, n & 0xFF]) + bits.to_bytes(nbytes, "big"), form


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant byte encoding: equal codes iff isomorphic.
    Read from the labeling cache, so each graph is searched once."""
    return _labeling(g)[0]


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group, exact, read from the same
    labeling cache as ``canonical_code``."""
    return _labeling(g)[1].aut


def isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    return canonical_code(g1) == canonical_code(g2)


# ---------------------------------------------------------------------------
# graph6 interchange format
# ---------------------------------------------------------------------------


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise ValueError("graph too large for this graph6 encoder")


def graph6_encode(g: Graph) -> str:
    """Encode in the standard graph6 ASCII format (bit-exact)."""
    n = g.n
    out = bytearray(_g6_size_bytes(n))
    group = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            group = group << 1 | (g.adj[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group = 0
                filled = 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return out.decode("ascii")


# the six bits of each graph6 body byte, last bit first
_G6_BITS = tuple(format(b - 63, "06b")[::-1] if b >= 63 else "" for b in range(127))
_G6_PRINTABLE = bytes(range(63, 127))


def graph6_decode(s: str | bytes) -> Graph:
    """Decode a graph6 string; round trip identity with graph6_encode.

    The body is read into one int whose bit k is the k-th bit of the
    upper triangle, so column j (the neighbours i < j of j) is the j-bit
    slice starting at bit j(j-1)/2."""
    if isinstance(s, bytes):
        s = s.decode("ascii")
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("graph6: empty input")
    data = s.encode("ascii")
    bad = data.translate(None, _G6_PRINTABLE)
    if bad:
        raise ValueError(f"graph6: byte {bad[0]} outside printable range")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ValueError("graph6: >68-bit vertex counts not supported")
        if len(data) < 4:
            raise ValueError("graph6: truncated header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n > MAX_VERTICES:
        raise ValueError(f"graph6: vertex count {n} exceeds cap {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        kind = "truncated" if len(body) < need else "trailing garbage in"
        raise ValueError(f"graph6: {kind} bit vector")
    bits = int("".join(map(_G6_BITS.__getitem__, reversed(body))) or "0", 2)
    if bits >> nbits:  # padding bits must be zero
        raise ValueError("graph6: nonzero padding bits")
    rows = [0] * n
    start = 0
    for j in range(1, n):
        col = bits >> start & ((1 << j) - 1)
        start += j
        rows[j] = col
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    return _trusted(n, tuple(rows))


def read_g6(path: str) -> list[Graph]:
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(graph6_decode(line))
    return out
