"""Slow, independent oracles used only by the test suite.

None of these share code with the production counting paths: copies are
counted by scanning vertex subsets and edge subsets directly, and listed
by trying every injective map of the pattern into every vertex subset;
canonical forms are taken as the minimum over all permutations, and
spanning-copy tables are built by brute force over labeled graphs.  Copy
counts in Turán graphs are read from the part sizes alone, and their
block-size profiles from every set partition of the pattern's vertices.  Class
counts of graphs with maximum degree at most 2 come from their path and
cycle components by an Euler transform.  Partition refinement counts
each vertex's neighbours in a splitter one vertex at a time, the
reference for the bit-plane kernel of ``graphs._refine``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations
from math import comb, prod

from gturan.graphs import Graph, from_edge_list, relabel


def subset_copy_count(h: Graph, g: Graph) -> int:
    """Number of subgraphs of g isomorphic to h, by direct enumeration of
    vertex subsets and edge subsets."""
    h_edges = frozenset(frozenset(e) for e in h.edges())
    h_degs = sorted(h.degree(v) for v in range(h.n))
    total = 0
    for verts in combinations(range(g.n), h.n):
        avail = [
            (a, b) for a, b in combinations(verts, 2) if g.has_edge(a, b)
        ]
        for chosen in combinations(avail, len(h_edges)):
            degs: dict[int, int] = {v: 0 for v in verts}
            for a, b in chosen:
                degs[a] += 1
                degs[b] += 1
            if sorted(degs.values()) != h_degs:
                continue
            chosen_sets = frozenset(frozenset(e) for e in chosen)
            for perm in permutations(verts):
                mapped = frozenset(
                    frozenset((perm[a], perm[b])) for a, b in h.edges()
                )
                if mapped == chosen_sets:
                    total += 1
                    break
    return total


def subset_copies(h: Graph, g: Graph) -> list[tuple[int, frozenset[tuple[int, int]]]]:
    """Every copy of h in g as a (vertex mask, edge set) pair, each edge
    an ascending vertex pair: every vertex subset of size v(h) with
    enough edges, every bijection of h onto it, duplicates removed.
    Sorted by vertex mask, then edge set."""
    h_edges = list(h.edges())
    found = set()
    for verts in combinations(range(g.n), h.n):
        if sum(g.has_edge(a, b) for a, b in combinations(verts, 2)) < len(h_edges):
            continue
        mask = sum(1 << v for v in verts)
        for image in permutations(verts):
            if all(g.has_edge(image[a], image[b]) for a, b in h_edges):
                edges = frozenset(tuple(sorted((image[a], image[b]))) for a, b in h_edges)
                found.add((mask, edges))
    return sorted(found, key=lambda c: (c[0], sorted(c[1])))


def subset_cliques(g: Graph, t: int) -> list[tuple[int, ...]]:
    """The t-cliques as sorted vertex tuples, in ``combinations`` order."""
    return [
        sub
        for sub in combinations(range(g.n), t)
        if all(g.has_edge(a, b) for a, b in combinations(sub, 2))
    ]


def subset_max_clique(g: Graph, through: tuple[int, ...] = ()) -> int:
    """Size of a largest clique containing the vertices ``through``, by
    scanning vertex subsets of growing size (0 if ``through`` is no clique)."""
    rest = [v for v in range(g.n) if v not in through]
    best = 0
    for size in range(len(rest) + 1):
        if not any(
            all(g.has_edge(a, b) for a, b in combinations(through + extra, 2))
            for extra in combinations(rest, size)
        ):
            break
        best = len(through) + size
    return best


def brute_canonical(g: Graph) -> tuple[int, ...]:
    """Minimum adjacency tuple over all vertex permutations."""
    best = None
    for perm in permutations(range(g.n)):
        key = tuple(relabel(g, perm).adj)
        if best is None or key < best:
            best = key
    return best if best is not None else ()


def brute_automorphism_count(g: Graph) -> int:
    ident = tuple(g.adj)
    return sum(1 for perm in permutations(range(g.n)) if tuple(relabel(g, perm).adj) == ident)


def brute_orbits(g) -> list[tuple[int, ...]]:
    """Vertex orbits of Aut(g), sorted, from every permutation that maps
    the edge set onto itself.  Reads only ``g.n`` and ``g.adj``."""
    n = g.n
    edges = {(i, j) for i in range(n) for j in range(n) if g.adj[i] >> j & 1}
    orbit_of = [{v} for v in range(n)]
    for perm in permutations(range(n)):
        if all((perm[i], perm[j]) in edges for i, j in edges):
            for v in range(n):
                orbit_of[v].add(perm[v])
    return sorted({tuple(sorted(orbit)) for orbit in orbit_of})


def spanning_copy_table(h: Graph) -> dict[int, int]:
    """For every labeled graph on v(h) vertices (encoded as an edge
    bitmask over the pair list), the number of spanning subgraph copies of
    h: distinct permuted edge sets of h contained in the graph."""
    v = h.n
    pairs = list(combinations(range(v), 2))
    index = {p: i for i, p in enumerate(pairs)}
    images = set()
    for perm in permutations(range(v)):
        code = 0
        for a, b in h.edges():
            x, y = perm[a], perm[b]
            code |= 1 << index[(x, y) if x < y else (y, x)]
        images.add(code)
    table = {}
    for g_code in range(1 << len(pairs)):
        table[g_code] = sum(1 for img in images if img & ~g_code == 0)
    return table


def copies_via_table(h: Graph, table: dict[int, int], g: Graph) -> int:
    """Subset-scan count of h-copies in g using a precomputed spanning table."""
    v = h.n
    pairs = list(combinations(range(v), 2))
    total = 0
    for verts in combinations(range(g.n), v):
        code = 0
        for i, (a, b) in enumerate(pairs):
            if g.has_edge(verts[a], verts[b]):
                code |= 1 << i
        total += table[code]
    return total


def labeled_class_count(n: int) -> int:
    """Number of isomorphism classes on n vertices by labeled dedup with
    the brute-force canonical form (n <= 5 practical)."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
        seen.add(brute_canonical(from_edge_list(n, edges)))
    return len(seen)


def turan_part_sizes(r: int, n: int) -> list[int]:
    """Part sizes of T_r(n): as equal as possible, summing to n."""
    return [n // r + (1 if i < n % r else 0) for i in range(r)]


def turan_part_count(name: str, parts: list[int]) -> int:
    """Copies of a named pattern in the complete multipartite graph with
    the given part sizes, by counting from the parts:

    * ``K<s>``: one vertex from each of s distinct parts;
    * ``I2``: any two vertices;
    * ``K1vI2`` (the path P3): a centre and two of its neighbours, all
      outside the centre's part;
    * ``K2vI2`` (the book): an edge between two parts and two of its
      common neighbours, outside both parts.
    """
    n = sum(parts)
    if name.startswith("K") and name[1:].isdigit():
        return sum(prod(pick) for pick in combinations(parts, int(name[1:])))
    if name == "I2":
        return comb(n, 2)
    if name == "K1vI2":
        return sum(s * comb(n - s, 2) for s in parts)
    if name == "K2vI2":
        return sum(a * b * comb(n - a - b, 2) for a, b in combinations(parts, 2))
    raise ValueError(f"no part-size count for {name}")


def set_partition_profile(h: Graph) -> dict[tuple[int, ...], int]:
    """Partitions of V(h) into independent blocks, as sorted block sizes
    -> number of partitions, by walking every set partition: each vertex
    joins an earlier block it has no neighbour in, or opens a new one."""
    profile: Counter[tuple[int, ...]] = Counter()

    def place(v: int, blocks: tuple[int, ...]) -> None:
        if v == h.n:
            profile[tuple(sorted(b.bit_count() for b in blocks))] += 1
            return
        for i, b in enumerate(blocks):
            if not h.adj[v] & b:
                place(v + 1, blocks[:i] + (b | 1 << v,) + blocks[i + 1 :])
        place(v + 1, blocks + (1 << v,))

    place(0, ())
    return dict(profile)


def max_degree_two_class_counts(n_max: int) -> list[int]:
    """Isomorphism classes of graphs with maximum degree <= 2 on n = 0..n_max
    vertices.  Such a graph is a disjoint union of paths (k >= 1 vertices)
    and cycles (k >= 3), so the counts are the Euler transform of the
    connected counts c_1 = c_2 = 1, c_k = 2 for k >= 3."""
    c = [0] + [1 if k < 3 else 2 for k in range(1, n_max + 1)]
    b = [0] + [
        sum(d * c[d] for d in range(1, k + 1) if k % d == 0) for k in range(1, n_max + 1)
    ]
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(b[k] * a[n - k] for k in range(1, n + 1)) // n)
    return a


def reference_refine(adj, cells: list[int], queue: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition, one vertex at a
    time: each non-singleton cell is grouped by the popcount of every
    member's row inside the splitter, groups in descending count order,
    and a cell that splits pushes its parts onto the queue.  Stops once
    the partition is discrete.  Reads only ``adj``; ``cells`` and
    ``queue`` are vertex masks, and ``queue`` is consumed."""
    n = len(adj)
    while queue and len(cells) < n:
        splitter = queue.pop()
        out: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                out.append(cell)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                k = (adj[low.bit_length() - 1] & splitter).bit_count()
                groups[k] = groups.get(k, 0) | low
            if len(groups) == 1:
                out.append(cell)
            else:
                for k in sorted(groups, reverse=True):
                    out.append(groups[k])
                    queue.append(groups[k])
        cells = out
    return cells
