"""The benchmark's workloads: seeded inputs, the timed call of one item,
and the check of its output against ``reference``.

Every workload is a list of items that one closed-loop client sends in
order, each after the previous one returns.  The CLI-driven workloads
call ``gturan.cli.main([..., "--json"])`` and capture stdout in memory;
``isomorphism`` calls the library, because the CLI has no subcommand
for it.  Functions are looked up on their modules at call time, so the
tracer's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

from gturan import cli, counting, families, graphs, localization

import reference as ref

PATTERN_EDGES = {
    "K3": list(combinations(range(3), 2)),
    "K4": list(combinations(range(4), 2)),
    "K2vI2": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
}

# search: (pattern, flags, largest n); every n from 1 up is one item.
# K3 --omega 3 at n=8 is left out: it alone takes longer than a pass.
SEARCH_CONFIGS = (
    ("K3", {"omega": 4}, 7),
    ("K3", {"delta": 3}, 8),
    ("K2vI2", {"omega": 4}, 7),
    ("K3", {"delta": 4, "omega": 3}, 7),
    ("K4", {"delta": 5, "omega": 4}, 7),
    ("K3", {}, 7),
)
# search: fixed edge counts p for K3 in K4-free graphs (u = 2, at most 7
# vertices), checked against the colex interpolation
FIXED_EDGE_COUNTS = range(4, 9)

# bounds: (pattern, u, two omegas, largest delta); delta runs from omega up
BOUNDS_GRID = (
    ("K3", 1, (3, 4), 30),
    ("K3", 2, (4, 5), 30),
    ("K4", 1, (4, 5), 30),
    ("K4", 2, (4, 5), 30),
    ("K2vI2", 1, (3, 4), 30),
    ("K2vI2", 2, (4, 5), 20),
)

# localize: one uniform random graph with round(p * C(n, 2)) edges per
# (n, p, pattern, u); a fixed edge count keeps the copy counts, and so
# the work, close to their mean from seed to seed
LOCALIZE_SIZES = (20, 25, 30, 35, 40)
LOCALIZE_DENSITIES = (0.15, 0.3, 0.45)
LOCALIZE_PATTERNS = (("K3", 1), ("K3", 2), ("K4", 1), ("K4", 2), ("K2vI2", 1), ("K2vI2", 2))
# balanced Turán blocks (omega, a) -> T_omega(a * omega), per pattern
EQUALITY_BLOCKS = {
    "K3": ([(3, 2), (4, 2)], [(3, 3)]),
    "K4": ([(4, 2), (5, 2)], [(4, 3)]),
    "K2vI2": ([(3, 2), (4, 2)], [(3, 3)]),
}

ISO_RELABELINGS = 2


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a, b in edges]


def to_graph(n: int, edges) -> graphs.Graph:
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return graphs.Graph(n, tuple(rows))


def pattern_args(rng: random.Random) -> dict[str, str]:
    """One seeded labeling of each pattern, as graph6 for ``--pattern``.

    Guard: the patterns must be pairwise non-isomorphic, or a workload
    would time one pattern twice under two names.
    """
    out = {}
    for name, edges in PATTERN_EDGES.items():
        n = 1 + max(max(e) for e in edges)
        out[name] = ref.graph6(n, relabel(rng, n, edges))
    codes = {graphs.canonical_code(graphs.graph6_decode(s)) for s in out.values()}
    if len(codes) != len(out):
        raise RuntimeError(f"workload patterns are not pairwise non-isomorphic: {out}")
    return out


def run_cli(item) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(item["argv"] + ["--json"])
    return rc, buf.getvalue()


def cli_data(out):
    rc, text = out
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(text)["data"]


def frac(x) -> Fraction:
    return Fraction(int(x["num"]), int(x["den"]))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def make_search(rng: random.Random) -> list[dict]:
    pat = pattern_args(rng)
    items = []
    for name, flags, n_max in SEARCH_CONFIGS:
        extra = [a for k, v in flags.items() for a in (f"--{k}", str(v))]
        for n in range(1, n_max + 1):
            argv = ["search", "--pattern", pat[name], "--n", str(n), *extra]
            items.append({"pattern": name, "n": n, **flags, "argv": argv})
    for p in FIXED_EDGE_COUNTS:
        argv = ["search", "--pattern", pat["K3"], "--p", str(p), "--u", "2",
                "--omega", "3", "--ncap", "7"]
        items.append({"pattern": "K3", "p": p, "omega": 3, "argv": argv})
    rng.shuffle(items)
    return items


def check_search(item, out) -> str | None:
    data = cli_data(out)
    objective = data["objective"]
    if not data["argmax"]:
        return "no optimum reported"
    for g6 in data["argmax"]:
        n, edges = ref.graph6_edges(g6)
        adj = ref.adjacency(n, edges)
        if ref.count_copies(item["pattern"], adj) != objective:
            return f"optimum {g6} does not hold {objective} copies"
        if "n" in item and n != item["n"]:
            return f"optimum {g6} has {n} vertices"
        if "p" in item and len(edges) != item["p"]:
            return f"optimum {g6} has {len(edges)} edges"
        if "delta" in item and max(len(s) for s in adj.values()) > item["delta"]:
            return f"optimum {g6} exceeds the degree bound"
        if "omega" in item and ref.clique_number(adj) > item["omega"]:
            return f"optimum {g6} exceeds the clique bound"
    expected = None
    if "p" in item:
        expected = ref.colex_triangles(item["p"])
    elif "delta" not in item and "omega" not in item:
        if data["search_space_size"] != ref.A000088[item["n"]]:
            return f"{data['search_space_size']} classes, A000088 says {ref.A000088[item['n']]}"
        expected = comb(item["n"], 3)
    elif "delta" not in item and item["pattern"] != "K2vI2":
        expected = ref.turan_clique_count(item["omega"], item["n"], int(item["pattern"][1:]))
    if expected is not None and objective != expected:
        return f"objective {objective}, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def make_bounds(rng: random.Random) -> list[dict]:
    pat = pattern_args(rng)
    items = []
    for name, u, omegas, delta_max in BOUNDS_GRID:
        for omega in omegas:
            for delta in range(omega, delta_max + 1):
                argv = ["bounds", "--pattern", pat[name], "--u", str(u),
                        "--omega", str(omega), "--delta", str(delta)]
                items.append({"pattern": name, "u": u, "omega": omega,
                              "delta": delta, "argv": argv})
    rng.shuffle(items)
    return items


def check_bounds(item, out) -> str | None:
    rows = cli_data(out)
    if len(rows) != 1:
        return f"{len(rows)} rows"
    row = rows[0]
    lower, upper = frac(row["lower"]), frac(row["upper"])
    divisible = item["delta"] % (item["omega"] - item["u"]) == 0
    if not lower <= upper:
        return f"lower {lower} > upper {upper}"
    if row["divisible"] != divisible or (divisible and not row["equal"]):
        return f"divisible={row['divisible']} equal={row['equal']}"
    if row["equal"] != (lower == upper):
        return "equal flag disagrees with the densities"
    expected = ref.sandwich(item["pattern"], item["u"], item["delta"], item["omega"])
    if (lower, upper) != expected:
        return f"(lower, upper) = ({lower}, {upper}), closed form {expected}"
    return None


# ---------------------------------------------------------------------------
# localize
# ---------------------------------------------------------------------------


def make_localize(rng: random.Random) -> list[dict]:
    pat = pattern_args(rng)
    items = []

    def add(name, u, g6, equality):
        argv = ["localize", "--graph", g6, "--pattern", pat[name], "--u", str(u),
                "--omega0", "1"]
        items.append({"pattern": name, "u": u, "graph": g6, "equality": equality,
                      "argv": argv})

    for n in LOCALIZE_SIZES:
        pairs = list(combinations(range(n), 2))
        for p in LOCALIZE_DENSITIES:
            for name, u in LOCALIZE_PATTERNS:
                edges = rng.sample(pairs, round(p * len(pairs)))
                add(name, u, ref.graph6(n, edges), False)
    for name, u in LOCALIZE_PATTERNS:
        for blocks in EQUALITY_BLOCKS[name]:
            g = localization.equality_family_graph(blocks)
            add(name, u, ref.graph6(g.n, relabel(rng, g.n, g.edges())), True)
    rng.shuffle(items)
    return items


def check_localize(item, out) -> str | None:
    data = cli_data(out)
    n, edges = ref.graph6_edges(item["graph"])
    copies = ref.count_copies(item["pattern"], ref.adjacency(n, edges))
    u_cliques = n if item["u"] == 1 else len(edges)
    bound = Fraction(u_cliques, comb(ref.DOMINATING[item["pattern"]], item["u"]))
    weighted, reported = frac(data["weighted_sum"]), frac(data["bound"])
    if data["copies"] != copies:
        return f"{data['copies']} copies, expected {copies}"
    if reported != bound:
        return f"bound {reported}, expected {bound}"
    if data["holds"] != (weighted <= bound):
        return "holds flag disagrees with the weighted sum"
    if data["hypothesis_ok"] and not data["holds"]:
        return f"inequality fails: {weighted} > {bound}"
    if item["equality"] and not (data["equality"] and weighted == bound):
        return f"no equality on a balanced Turán union: {weighted} vs {bound}"
    return None


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def turan_edges(parts: list[int]) -> list[tuple[int, int]]:
    owner = [i for i, s in enumerate(parts) for _ in range(s)]
    return [(a, b) for a, b in combinations(range(len(owner)), 2) if owner[a] != owner[b]]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def paley_edges(q: int) -> list[tuple[int, int]]:
    squares = {x * x % q for x in range(1, q)}
    return [(a, b) for a, b in combinations(range(q), 2) if (b - a) % q in squares]


def union(blocks) -> tuple[int, list[tuple[int, int]]]:
    """Disjoint union of (n, edges) blocks."""
    offset, edges = 0, []
    for n, block in blocks:
        edges += [(a + offset, b + offset) for a, b in block]
        offset += n
    return offset, edges


def iso_bases() -> list[tuple[str, int, list, object]]:
    """(name, n, edges, expected |Aut|): an int from a closed form,
    "brute" for the reference backtracker, None to skip the count."""
    bases = []
    for r, n in ((2, 8), (2, 10), (3, 9), (3, 10), (3, 12), (4, 8), (4, 10),
                 (4, 12), (5, 10), (5, 12)):
        parts = ref.turan_parts(r, n)
        bases.append((f"T_{r}({n})", n, turan_edges(parts), ref.turan_automorphisms(parts)))
    for q in (5, 13, 17, 29):
        bases.append((f"Paley({q})", q, paley_edges(q), q * (q - 1) // 2))
    for n in (8, 12, 20, 30):
        bases.append((f"C_{n}", n, cycle_edges(n), 2 * n))
    for m in (17, 20, 30, 40):
        g = families.colex_turan(4, m, degree_minimal=True)
        bases.append((f"colexdm(4,{m})", g.n, list(g.edges()), "brute"))
    t36 = (6, turan_edges([2, 2, 2]))
    t48 = (8, turan_edges([2, 2, 2, 2]))
    t46 = (6, turan_edges([2, 2, 1, 1]))
    bases.append(("2 T_3(6)", *union([t36, t36]), ref.turan_automorphisms([2, 2, 2]) ** 2 * 2))
    bases.append(("3 T_3(6) + 2 T_4(8)", *union([t36] * 3 + [t48] * 2), None))
    bases.append(("7 T_4(6)", *union([t46] * 7), None))
    colex = families.colex_turan(4, 17, degree_minimal=True)
    bases.append(("6 colexdm(4,17)", *union([(colex.n, list(colex.edges()))] * 6), None))
    return bases


def iso_distinct_pairs() -> list[tuple[str, int, list, list]]:
    """Non-isomorphic pairs with equal degree sequences."""
    pairs = []
    for k in (4, 5, 6, 8):
        two = union([(k, cycle_edges(k))] * 2)[1]
        pairs.append((f"C_{2 * k} vs 2 C_{k}", 2 * k, cycle_edges(2 * k), two))
    prism = cycle_edges(3) + [(a + 3, b + 3) for a, b in cycle_edges(3)] + [(i, i + 3) for i in range(3)]
    pairs.append(("K_3,3 vs prism", 6, turan_edges([3, 3]), prism))
    return pairs


def make_isomorphism(rng: random.Random) -> list[dict]:
    items = []
    bases, pairs = iso_bases(), iso_distinct_pairs()
    for _ in range(ISO_RELABELINGS):
        for name, n, edges, aut in bases:
            items.append({"name": name, "edges": edges, "aut": aut,
                          "g": to_graph(n, edges), "h": to_graph(n, relabel(rng, n, edges))})
        for name, n, a, b in pairs:
            items.append({"name": name, "distinct": True,
                          "g": to_graph(n, relabel(rng, n, a)),
                          "h": to_graph(n, relabel(rng, n, b))})
    rng.shuffle(items)
    return items


def run_isomorphism(item):
    g, h = item["g"], item["h"]
    if item.get("distinct"):
        differ = graphs.canonical_code(g) != graphs.canonical_code(h)
        return differ, graphs.isomorphic(g, h)
    iso = graphs.isomorphic(g, h)
    return iso, counting.automorphism_count(h) if item["aut"] is not None else None


def check_isomorphism(item, out) -> str | None:
    if item.get("distinct"):
        differ, iso = out
        return None if differ and not iso else f"codes differ={differ}, isomorphic={iso}"
    iso, aut = out
    if not iso:
        return "relabeling not isomorphic"
    expected = item["aut"]
    if expected == "brute":
        expected = ref.automorphisms(ref.adjacency(item["g"].n, item["edges"]))
    if aut != expected:
        return f"|Aut| = {aut}, expected {expected}"
    return None


def describe(item) -> str:
    if "argv" in item:
        return "gturan " + " ".join(item["argv"])
    return f"isomorphism {item['name']} as {graphs.graph6_encode(item['h'])}"


WORKLOADS = {
    "search": (make_search, run_cli, check_search),
    "bounds": (make_bounds, run_cli, check_bounds),
    "localize": (make_localize, run_cli, check_localize),
    "isomorphism": (make_isomorphism, run_isomorphism, check_isomorphism),
}
