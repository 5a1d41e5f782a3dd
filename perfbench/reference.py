"""Reference values the benchmark checks gturan's outputs against.

Nothing here imports gturan: every value comes from a closed form or a
small brute-force count over plain Python sets, so a defect in the code
under test cannot hide in its own reference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

# OEIS A000088: graphs on n unlabeled vertices, n = 0..9.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)

# Dominating vertices of each workload pattern: K_t has t, K2vI2 has 2.
DOMINATING = {"K3": 3, "K4": 4, "K2vI2": 2}


def turan_parts(r: int, n: int) -> list[int]:
    q, rem = divmod(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def elementary(parts: list[int], t: int) -> int:
    """e_t of the part sizes: the number of t-cliques of the complete
    multipartite graph with these parts."""
    e = [1] + [0] * t
    for s in parts:
        for k in range(t, 0, -1):
            e[k] += e[k - 1] * s
    return e[t]


def turan_clique_count(r: int, n: int, t: int) -> int:
    return elementary(turan_parts(r, n), t)


def multipartite_copies(pattern: str, parts: list[int]) -> int:
    """Copies of K_t, K_{1,2} (``"P3"``), I_2 or K2vI2 in the complete
    multipartite graph with the given part sizes."""
    n = sum(parts)
    if pattern.startswith("K") and pattern[1:].isdigit():
        return elementary(parts, int(pattern[1:]))
    if pattern == "P3":  # sum over centres of C(degree, 2)
        return sum(s * comb(n - s, 2) for s in parts)
    if pattern == "I2":
        return comb(n, 2)
    if pattern == "K2vI2":  # sum over edges of C(codegree, 2)
        return sum(
            a * b * comb(n - a - b, 2) for a, b in combinations(parts, 2)
        )
    raise ValueError(pattern)


def derived_pattern(pattern: str, u: int) -> str:
    """The pattern with u dominating vertices deleted."""
    if pattern == "K2vI2":
        return {1: "P3", 2: "I2"}[u]
    return f"K{int(pattern[1:]) - u}"


def sandwich(pattern: str, u: int, delta: int, omega: int) -> tuple[Fraction, Fraction]:
    """The paper's lower and upper densities, from part sizes alone."""
    a, b = divmod(delta, omega - u)
    lb_parts = turan_parts(omega, a * omega + b)
    lower = Fraction(multipartite_copies(pattern, lb_parts), elementary(lb_parts, u))
    upper = Fraction(
        multipartite_copies(derived_pattern(pattern, u), turan_parts(omega - u, delta)),
        comb(DOMINATING[pattern], u),
    )
    return lower, upper


def colex_triangles(m: int) -> int:
    """Triangles in the first m edges of the infinite 3-partite Turán
    graph taken in colex order (vertex v lies in part v mod 3)."""
    nbrs: dict[int, set[int]] = {}
    added = 0
    v = 0
    while added < m:
        for w in range(v):
            if added == m:
                break
            if w % 3 != v % 3:
                nbrs.setdefault(v, set()).add(w)
                nbrs.setdefault(w, set()).add(v)
                added += 1
        v += 1
    return count_copies("K3", nbrs)


# ---------------------------------------------------------------------------
# plain-set graphs: adjacency as {vertex: set of neighbours}
# ---------------------------------------------------------------------------


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def graph6(n: int, edges) -> str:
    """Encode a graph of at most 62 vertices in graph6."""
    bits = [0] * (n * (n - 1) // 2)
    for a, b in edges:
        i, j = min(a, b), max(a, b)
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    body = bytes(
        63 + int("".join(map(str, bits[k : k + 6])), 2) for k in range(0, len(bits), 6)
    )
    return (bytes([n + 63]) + body).decode("ascii")


def graph6_edges(s: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode a graph6 string of at most 62 vertices."""
    data = s.encode("ascii")
    n = data[0] - 63
    bits = []
    for byte in data[1:]:
        bits.extend((byte - 63) >> k & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return n, edges


def count_copies(pattern: str, adj: dict[int, set[int]]) -> int:
    """Subgraph copies of K3, K4 or K2vI2 by set intersection."""
    edges = [(a, b) for a in adj for b in adj[a] if a < b]
    if pattern == "K3":
        return sum(len(adj[a] & adj[b]) for a, b in edges) // 3
    if pattern == "K4":
        total = 0
        for a, b in edges:
            common = adj[a] & adj[b]
            total += sum(len(common & adj[c]) for c in common)
        return total // 12
    if pattern == "K2vI2":
        return sum(comb(len(adj[a] & adj[b]), 2) for a, b in edges)
    raise ValueError(pattern)


def clique_number(adj: dict[int, set[int]]) -> int:
    best = 0
    vertices = sorted(adj)
    for size in range(1, len(vertices) + 1):
        if not any(
            all(b in adj[a] for a, b in combinations(sub, 2))
            for sub in combinations(vertices, size)
        ):
            break
        best = size
    return best


def automorphisms(adj: dict[int, set[int]]) -> int:
    """Automorphism count by backtracking over degree-preserving images."""
    order = sorted(adj)
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> int:
        if i == len(order):
            return 1
        v = order[i]
        total = 0
        for w in order:
            if w in used or len(adj[w]) != len(adj[v]):
                continue
            if all((x in adj[v]) == (image[x] in adj[w]) for x in order[:i]):
                image[v] = w
                used.add(w)
                total += extend(i + 1)
                used.discard(w)
        return total

    return extend(0)


def turan_automorphisms(parts: list[int]) -> int:
    """|Aut| of a complete multipartite graph: permute inside each part,
    and permute parts of equal size."""
    total = 1
    for s in parts:
        total *= factorial(s)
    for s in set(parts):
        total *= factorial(parts.count(s))
    return total
