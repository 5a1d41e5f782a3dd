"""Exact-rational density bounds.

The central quantity is the limiting copies-per-u-clique density of
{K_u v I_{delta+1}, K_{omega+1}}-free graphs.  It is bracketed by an
exact rational sandwich:

    lower = density of H in the lower-bound graph L = T_omega(a*omega+b),
    upper = N(H with u dominating vertices deleted, T_{omega-u}(delta))
            / C(dom(H), u),

both closed-form counts (``counting.turan_copy_count``): no host is
built, so delta has no vertex cap.

with equality exactly when omega-u divides delta.  Off the divisibility
case only the interval is reported, never a single number: the limit is
not known there.  All densities are ``fractions.Fraction``; equality
flags are decidable.  Nothing here enumerates graphs: the exhaustive
Turán-goodness check is ``search.empirical_turan_goodness``, beside the
one extremal search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .graphs import Graph, complete_graph
from .families import ParamTriple
from .counting import pattern_spec, turan_copy_count

Density = Fraction


def _turan_density(h: Graph, u: int, r: int, n: int) -> Fraction:
    """Copies of h per u-clique of T_r(n), exact, without building it."""
    return Fraction(
        turan_copy_count(h, r, n), turan_copy_count(complete_graph(u), r, n)
    )


@dataclass(frozen=True)
class BoundsReport:
    params: ParamTriple
    lower: Fraction
    upper: Fraction
    divisible: bool
    equal: bool
    ratio: Optional[Fraction]  # lower/upper, None when upper == 0
    lb_parts: tuple[int, ...]  # part sizes of L: b of a + 1, omega - b of a

    def __post_init__(self) -> None:
        assert self.lower <= self.upper
        if self.divisible:
            assert self.equal
        if self.equal:
            assert self.lower == self.upper


def bounds_report(h: Graph, params: ParamTriple) -> BoundsReport:
    """Exact lower/upper sandwich on the limiting density for (h, params)."""
    spec = pattern_spec(h)
    if spec.dom_count < params.u:
        raise ValueError(
            f"pattern has {spec.dom_count} dominating vertices, need {params.u}"
        )
    lower = _turan_density(h, params.u, params.omega, params.lb_vertex_count)
    upper = Fraction(
        turan_copy_count(spec.down(params.u), params.omega - params.u, params.delta),
        comb(spec.dom_count, params.u),
    )
    divisible = params.b == 0
    equal = lower == upper
    ratio = None if upper == 0 else lower / upper
    lb_parts = (params.a + 1,) * params.b + (params.a,) * (params.omega - params.b)
    return BoundsReport(params, lower, upper, divisible, equal, ratio, lb_parts)


def turan_threshold_bound(h: Graph) -> int:
    """Certified upper bound 300 * v(H)^9 on the clique-number threshold
    beyond which Turán graphs are exactly extremal for counting H."""
    return 300 * h.n**9


def ratio_diagnostic(h: Graph, r: int, n: int, u: int) -> tuple[Fraction, Fraction]:
    """Exact pair (count ratio, telescoped floor):

        N(H, T_r(n-u)) / N(H, T_r(n))   and   prod_i (1 - v(H)/(n-i)).

    The ratio lies in [floor, 1] whenever r is at or above the Turán
    threshold of H; finite stand-in for the limit-equals-1 statements.
    """
    denom = turan_copy_count(h, r, n)
    if denom == 0:
        raise ValueError("pattern count in T_r(n) is zero; ratio undefined")
    if n - u + 1 <= 0:
        raise ValueError("n - u must be nonnegative")
    num = turan_copy_count(h, r, n - u)
    bound = Fraction(1)
    for i in range(u):
        bound *= Fraction(n - i - h.n, n - i)
    return Fraction(num, denom), bound


@dataclass(frozen=True)
class StarProblemBounds:
    """Both sides of the open star-forbidden sandwich; conjectural only,
    the two sides are not claimed to coincide."""

    lower: Fraction
    upper: Fraction


def star_problem_bounds(h: Graph, u: int, delta: int, omega: int) -> StarProblemBounds:
    spec = pattern_spec(h)
    if spec.dom_count < u:
        raise ValueError(f"pattern has {spec.dom_count} dominating vertices, need {u}")
    if not delta >= omega >= u + 1:
        raise ValueError("need delta >= omega >= u + 1")
    lower = _turan_density(h, u, omega, delta + delta // (omega - 1))
    upper = Fraction(
        turan_copy_count(spec.down(u), omega - u, delta - u + 1),
        comb(spec.dom_count, u),
    )
    return StarProblemBounds(lower, upper)

