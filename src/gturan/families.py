"""Builders for the named graph families: Turán graphs, colex Turán
interpolations, complete split graphs, and the lower-bound family used by
the density machinery.

Turán labeling convention: parts are ordered largest first and vertices
are labeled part by part, so vertex 0 always lies in a largest part and
vertex n-1 in a smallest one.  ``turan(r, n)`` with this labeling makes
"a vertex in a largest part" addressable as vertex 0 in tests and
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .graphs import (
    MAX_VERTICES,
    Graph,
    check_vertex_count,
    complete_graph,
    disjoint_union,
    empty_graph,
    join,
)
from .counting import count_cliques


@dataclass(frozen=True)
class TuranSpec:
    """Part structure of the Turán graph T_r(n)."""

    r: int
    n: int
    part_sizes: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("part count must be at least 1")
        check_vertex_count(self.n)  # before turan() builds any rows
        q, rem = divmod(self.n, self.r)
        sizes = (q + 1,) * rem + (q,) * (self.r - rem)
        object.__setattr__(self, "part_sizes", sizes)

    def part_masks(self) -> list[int]:
        masks = []
        start = 0
        for s in self.part_sizes:
            masks.append(((1 << s) - 1) << start)
            start += s
        return masks


def turan(r: int, n: int) -> Graph:
    """Complete r-partite graph on n vertices with near-equal parts; for
    r > n that is K_n, built from its n non-empty parts."""
    spec = TuranSpec(min(r, max(n, 1)), n)
    full = (1 << n) - 1
    rows = []
    for mask in spec.part_masks():
        rows.extend([full ^ mask] * mask.bit_count())
    return Graph(n, tuple(rows))


def _colex_edge_stream(r: int, degree_minimal: bool) -> Iterator[tuple[int, int]]:
    """Edges of the infinite r-partite Turán graph, vertex i in part i mod r.

    Default order is colexicographic on vertex pairs.  With
    ``degree_minimal`` the partially-attached vertex reaches whole parts
    in decreasing order of size instead, which keeps the maximum degree
    as small as possible among initial-segment interpolations (the order
    under which the 42-vertex crossover demo graphs arise).
    """
    sizes = [0] * r
    v = 0
    while True:
        eligible = [w for w in range(v) if w % r != v % r]
        if degree_minimal:
            eligible.sort(key=lambda w: (-sizes[w % r], w))
        for w in eligible:
            yield (w, v)
        sizes[v % r] += 1
        v += 1


def colex_turan(r: int, m: int, degree_minimal: bool = False) -> Graph:
    """First m edges of the infinite r-partite Turán graph.

    At m = e(T_r(n)) the output is isomorphic to T_r(n) for either edge
    order; between Turán edge counts the two orders genuinely differ.
    The default (colex) order matches the fixed-edge-count extremal
    interpolation; the degree-minimal order is the one the published
    42-vertex example is built from.  See ``reproduce_examples``.
    """
    if r < 2:
        raise ValueError("colex Turán graphs need at least 2 parts")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    if m == 0:
        return empty_graph(0)
    r = min(r, MAX_VERTICES)  # more parts than vertices change nothing
    # T_r(256) holds the most edges of any r-partite host within the cap
    sizes = TuranSpec(r, MAX_VERTICES).part_sizes
    if 2 * m > MAX_VERTICES**2 - sum(s * s for s in sizes):
        raise ValueError(f"{m} edges need more than {MAX_VERTICES} vertices")
    edges = []
    stream = _colex_edge_stream(r, degree_minimal)
    for _ in range(m):
        edges.append(next(stream))
    n = max(v for _, v in edges) + 1
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def complete_split(u: int, s: int) -> Graph:
    """K_u joined to an independent set of size s; u=1 gives the star."""
    if u < 0 or s < 0:
        raise ValueError("sizes must be nonnegative")
    return join(complete_graph(u), empty_graph(s))


@dataclass(frozen=True)
class ParamTriple:
    """Admissible parameters (u, delta, omega) with delta = a(omega-u)+b.

    Requires delta >= omega >= u+1 >= 2; a and b are the quotient and
    remainder of delta by omega-u, so the lower-bound graph lives on
    a*omega + b = delta + u*floor(delta/(omega-u)) vertices.
    """

    u: int
    delta: int
    omega: int
    a: int = field(init=False)
    b: int = field(init=False)

    def __post_init__(self) -> None:
        if self.u < 1:
            raise ValueError("u must be at least 1")
        if not self.delta >= self.omega >= self.u + 1:
            raise ValueError(
                f"need delta >= omega >= u+1, got "
                f"({self.delta}, {self.omega}, {self.u + 1})"
            )
        a, b = divmod(self.delta, self.omega - self.u)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        assert self.a * self.omega + self.b == self.delta + self.u * (
            self.delta // (self.omega - self.u)
        )

    @property
    def lb_vertex_count(self) -> int:
        return self.a * self.omega + self.b


def lower_bound_graph(params: ParamTriple) -> Graph:
    """T_omega(a*omega + b), whose copy density is the certified lower bound
    for (u, delta, omega).  It is the optimum when omega - u divides delta,
    and need not be otherwise: for K3 at (1, 5, 3) it gives 12/7 from T_3(7),
    and I_3 v C_5 is free with 15 triangles on 8 vertices."""
    return turan(params.omega, params.lb_vertex_count)


def lower_bound_family(params: ParamTriple, p: int) -> Graph:
    """qL union rK_u with exactly p cliques of size u.

    q and the K_u remainder r are fixed by p = q*k^u(L) + r with
    0 <= r < k^u(L).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    lb = lower_bound_graph(params)
    ku = count_cliques(lb, params.u)
    q, r = divmod(p, ku)
    return disjoint_union([(lb, q), (complete_graph(params.u), r)])


def candidate_extremal_union(u: int, delta: int, omega: int, size: int) -> Graph:
    """Conjectured extremal union for sizes that are not multiples of the
    lower-bound block; emitted for inspection only, nothing is asserted.

    For u=1, ``size`` is a vertex count n and the union is
    a*T_omega(delta*omega/(omega-1)) + T_omega(b).  For u=2, ``size`` is an
    edge count m and the tail is the colex Turán graph on b edges.
    """
    if u not in (1, 2):
        raise ValueError("candidate unions are defined for u = 1 and u = 2")
    if delta % (omega - u):
        raise ValueError("delta must be a multiple of omega - u")
    block = turan(omega, delta * omega // (omega - u))
    unit = block.n if u == 1 else block.edge_count
    a, b = divmod(size, unit)
    tail = turan(omega, b) if u == 1 else colex_turan(omega, b)
    return disjoint_union([(block, a), (tail, 1)])
