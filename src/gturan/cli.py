"""Command-line front door.

Subcommands: construct | count | verify-free | bounds | localize |
search | reproduce-examples | verify.  Each builds one report, its JSON
data.  By default stdout shows that data as text (``reports.text_lines``);
``--json`` switches stdout to the JSON envelope and ``--out`` writes the
envelope (with run manifest) to a file.  Vertex sets are 0-indexed in
both views.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache

from . import DEFAULT_SEED, __version__
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph6_decode,
    graph6_encode,
    join,
    mask_of,
    path_graph,
    read_g6,
    set_of,
)
from .families import (
    ParamTriple,
    candidate_extremal_union,
    colex_turan,
    complete_split,
    lower_bound_family,
    lower_bound_graph,
    turan,
)
from .counting import count_cliques, count_copies_rooted, count_subgraph_copies
from .freeness import ConstraintSet, check_constraints
from .bounds import bounds_report, star_problem_bounds
from .localization import HypothesisViolationError, default_threshold, localized_report
from .search import brute_extremal, brute_extremal_u
from .reports import dump_json, envelope, make_manifest, text_lines

_ATOM = re.compile(r"^([KIPC])(\d+)$")
_CALL = re.compile(r"^(\w+)\(([-\d,\s]*)\)$")
_INT = re.compile(r"-?\d+")

_FAMILIES = {
    "turan": (2, lambda r, n: turan(r, n)),
    "colex": (2, lambda r, m: colex_turan(r, m)),
    "colexdm": (2, lambda r, m: colex_turan(r, m, degree_minimal=True)),
    "split": (2, lambda u, s: complete_split(u, s)),
    "lb": (3, lambda u, d, w: lower_bound_graph(ParamTriple(u, d, w))),
    "lbfam": (4, lambda u, d, w, p: lower_bound_family(ParamTriple(u, d, w), p)),
    "candidate": (4, lambda u, d, w, s: candidate_extremal_union(u, d, w, s)),
}


def parse_graph_spec(spec: str) -> Graph:
    """Parse a graph description: named atom (K5, I3, P4, C6), joins of
    atoms with 'v' (K2vI2), family calls (turan(4,6), colex(4,17),
    colexdm(4,17), split(2,3), lb(1,5,4), lbfam(1,5,4,10)), @file.g6, or a
    raw graph6 string."""
    spec = spec.strip()
    if spec.startswith("@"):
        graphs = read_g6(spec[1:])
        if len(graphs) != 1:
            raise ValueError(f"{spec[1:]} holds {len(graphs)} graphs, expected 1")
        return graphs[0]
    call = _CALL.match(spec)
    if call:
        name, args = call.group(1).lower(), call.group(2)
        if name not in _FAMILIES:
            raise ValueError(f"unknown family {name!r}")
        arity, builder = _FAMILIES[name]
        values = []
        for arg in args.split(",") if args.strip() else []:
            arg = arg.strip()
            if not _INT.fullmatch(arg):
                raise ValueError(f"family {name}: argument {arg!r} is not an integer")
            values.append(int(arg))
        if len(values) != arity:
            raise ValueError(f"family {name} takes {arity} integers")
        return builder(*values)
    if "v" in spec and all(_ATOM.match(part) for part in spec.split("v")):
        parts = [_parse_atom(p) for p in spec.split("v")]
        out = parts[0]
        for p in parts[1:]:
            out = join(out, p)
        return out
    atom = _ATOM.match(spec)
    if atom:
        return _parse_atom(spec)
    return graph6_decode(spec)


def _parse_atom(spec: str) -> Graph:
    m = _ATOM.match(spec)
    assert m
    kind, size = m.group(1), int(m.group(2))
    if kind == "K":
        return complete_graph(size)
    if kind == "I":
        return empty_graph(size)
    if kind == "P":
        return path_graph(size)
    return cycle_graph(size)


def _emit(args, kind: str, data) -> None:
    doc = envelope(kind, data)
    if args.out:
        # every @file input, so a replay can check it reads the same bytes
        files = {
            f"--{name}": spec.strip()[1:]
            for name in ("graph", "pattern", "family")
            if (spec := getattr(args, name, None)) and spec.strip().startswith("@")
        }
        params = {k: v for k, v in vars(args).items() if not k.startswith("_") and k != "func"}
        manifest = make_manifest(["gturan"] + args._argv, params, files)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_json(envelope(kind, data, manifest)) + "\n")
    if args.json:
        print(dump_json(doc))
    else:
        for line in text_lines(doc["data"]):
            print(line)


def cmd_construct(args) -> int:
    g = parse_graph_spec(args.family)
    data = {
        "family": args.family,
        "n": g.n,
        "m": g.edge_count,
        "graph6": graph6_encode(g),
    }
    _emit(args, "construct", data)
    return 0


def cmd_count(args) -> int:
    if args.rooted is not None and args.pattern is None:
        raise ValueError("--rooted applies only with --pattern")
    g = parse_graph_spec(args.graph)
    roots = None
    if args.cliques is not None:
        value = count_cliques(g, args.cliques)
    else:
        h = parse_graph_spec(args.pattern)
        if args.rooted is not None:
            roots = [int(x) for x in args.rooted.split(",")]
            for i, v in enumerate(roots):
                if not 0 <= v < g.n:
                    raise ValueError(f"root vertex {v} outside 0..{g.n - 1}")
                if v in roots[:i]:
                    raise ValueError(f"root vertex {v} repeated")
            root = mask_of(roots)
            value = count_copies_rooted(h, g, root, root.bit_count())
        else:
            value = count_subgraph_copies(h, g)
    data = {"graph": args.graph, "pattern": args.pattern, "cliques": args.cliques,
            "rooted": roots, "count": value}
    _emit(args, "count", data)
    return 0


def cmd_verify_free(args) -> int:
    g = parse_graph_spec(args.graph)
    cs = ConstraintSet(u=args.u, delta=args.delta, omega=args.omega)
    rep = check_constraints(g, cs)
    data = {
        "graph": args.graph,
        "constraints": cs,
        "clique_number": rep.clique_number,
        "max_degree": rep.max_degree,
        "max_common_neighborhood_by_u": rep.max_common_neighborhood_by_u,
        "passes": rep.passes,
        "violations": [
            {"kind": v.kind, "vertices": list(v.vertex_list())} for v in rep.violations
        ],
    }
    _emit(args, "freeness", data)
    return 0 if rep.passes else 1


def cmd_bounds(args) -> int:
    if args.star_problem and args.grid:
        raise ValueError("--grid does not apply with --star-problem")
    h = parse_graph_spec(args.pattern)
    if args.star_problem:
        sp = star_problem_bounds(h, args.u, args.delta, args.omega)
        data = {
            "pattern": args.pattern,
            "u": args.u, "delta": args.delta, "omega": args.omega,
            "conjectural": True,
            "lower": sp.lower, "upper": sp.upper,
        }
        _emit(args, "bounds", data)
        return 0
    ParamTriple(args.u, args.delta, args.omega)  # a grid ends here: check before sweeping
    reports = []
    deltas = range(args.omega, args.delta + 1) if args.grid else [args.delta]
    for d in deltas:
        reports.append(bounds_report(h, ParamTriple(args.u, d, args.omega)))
    data = [
        {
            "u": r.params.u, "delta": r.params.delta, "omega": r.params.omega,
            "a": r.params.a, "b": r.params.b,
            "lower": r.lower, "upper": r.upper,
            "divisible": r.divisible, "equal": r.equal, "ratio": r.ratio,
            "lower_bound_parts": list(r.lb_parts),
        }
        for r in reports
    ]
    _emit(args, "bounds-grid" if args.grid else "bounds", data)
    return 0


def cmd_localize(args) -> int:
    g = parse_graph_spec(args.graph)
    h = parse_graph_spec(args.pattern)
    threshold = args.omega0 if args.omega0 is not None else default_threshold(h)
    rep = localized_report(g, h, args.u, threshold)
    data = {
        "graph": args.graph, "pattern": args.pattern, "u": args.u,
        "threshold": threshold,
        "copies": rep.copies,
        "weighted_sum": rep.weighted_sum, "bound": rep.bound,
        "holds": rep.holds, "equality": rep.equality,
        "hypothesis_ok": rep.hypothesis_ok,
        "exempt_cliques": [list(set_of(c)) for c in rep.exempt_cliques],
    }
    if args.per_clique:
        data["per_clique"] = [
            {
                "clique": list(set_of(row.clique)),
                "clique_size": row.clique_size,
                "codegree": row.codegree,
                "weight": row.weight,
                "copies": row.copies,
            }
            for row in rep.per_clique
        ]
    _emit(args, "localize", data)
    return 0


def cmd_search(args) -> int:
    if args.ncap is not None and args.p is None:
        raise ValueError("--ncap applies only with --p")
    h = parse_graph_spec(args.pattern)
    cs = ConstraintSet(u=args.u, delta=args.delta, omega=args.omega)
    if args.p is not None:
        out = brute_extremal_u(args.p, args.u, h, cs, n_cap=args.ncap)
    else:
        out = brute_extremal(args.n, h, cs)
    if args.dump_g6:
        with open(args.dump_g6, "w", encoding="ascii") as fh:
            for s in out.argmax:
                fh.write(s + "\n")
    data = {
        "objective": out.objective,
        "argmax": list(out.argmax),
        "search_space_size": out.search_space_size,
        "constraints": cs,
        "fixed": out.fixed,
        "notes": list(out.notes),
    }
    _emit(args, "search", data)
    return 0


# The acceptance suite is imported by the two commands that run it, so
# no other command compiles it.


def cmd_reproduce(args) -> int:
    from .acceptance import reproduce_examples

    _emit(args, "reproduce-examples", reproduce_examples())
    return 0


def cmd_verify(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(args.level, args.seed)
    data = [
        {
            "criterion": r.cid,
            "description": r.description,
            "passed": r.passed,
            "elapsed_s": round(r.elapsed, 2),
        }
        for r in results
    ]
    _emit(args, "verify", data)
    return 0 if all(r.passed for r in results) else 1


@cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gturan",
        description="exact extremal subgraph-density computations",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="JSON to stdout")
        p.add_argument("--out", help="write JSON report (with manifest) to a file")

    p = sub.add_parser("construct", help="build a named graph family member")
    p.add_argument("--family", required=True, help="e.g. turan(4,6), colex(4,17), split(2,3)")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("count", help="count cliques or pattern copies")
    p.add_argument("--graph", required=True)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--pattern")
    what.add_argument("--cliques", type=int, help="count cliques of this size")
    p.add_argument("--rooted", help="comma list of root vertices (0-indexed)")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify-free", help="check forbidden-subgraph constraints")
    p.add_argument("--graph", required=True)
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--delta", type=int)
    p.add_argument("--omega", type=int)
    common(p)
    p.set_defaults(func=cmd_verify_free)

    p = sub.add_parser("bounds", help="exact density sandwich")
    p.add_argument("--pattern", "--H", dest="pattern", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--omega", type=int, required=True)
    p.add_argument("--grid", action="store_true", help="sweep delta from omega upward")
    p.add_argument("--star-problem", action="store_true",
                   help="emit the conjectural star-forbidden sandwich instead")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("localize", help="localized weight inequality report")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", "--H", dest="pattern", required=True)
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--omega0", type=int, help="clique threshold (default: pattern-derived)")
    p.add_argument("--per-clique", action="store_true")
    common(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("search", help="brute-force extremal search")
    p.add_argument("--pattern", "--H", dest="pattern", required=True)
    fixed = p.add_mutually_exclusive_group(required=True)
    fixed.add_argument("--n", type=int, help="fixed vertex count")
    fixed.add_argument("--p", type=int, help="fixed u-clique count")
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--delta", type=int)
    p.add_argument("--omega", type=int)
    p.add_argument("--ncap", type=int)
    p.add_argument("--dump-g6", help="write all optima to a .g6 file")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce-examples", help="42-vertex crossover demo")
    common(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)
    p.set_defaults(func=cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args._argv = argv
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so the flush at
        # exit does not raise again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # bad input or file, or a weight outside the hypothesis: one line, like argparse's
    except (ValueError, OSError, HypothesisViolationError) as exc:
        print(f"gturan: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
