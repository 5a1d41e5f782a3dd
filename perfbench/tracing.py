"""Per-layer tracing of gturan from outside the package.

``install`` rebinds each traced function in every ``gturan.*`` namespace
that holds it (``from .graphs import canonical_code`` makes a separate
binding in ``search``, ``counting`` and others), so no source file
changes.  A span records calls and self time: its duration minus the
time its child spans cover.  Spans are aggregated per (name, parent) in
memory and read out once, when the pass ends.

Generator functions are never spanned, because their frames interleave
with the consumer's; their yields are counted instead.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = (
    "gturan", "gturan.graphs", "gturan.families", "gturan.counting",
    "gturan.freeness", "gturan.bounds", "gturan.localization",
    "gturan.search", "gturan.reports", "gturan.acceptance", "gturan.cli",
)

# span name -> (module, attribute); Graph_init is Graph.__post_init__
SPANS = {
    "graphs.canonical_code": ("gturan.graphs", "canonical_code"),
    "graphs.induced_subgraph": ("gturan.graphs", "induced_subgraph"),
    "search.brute_extremal": ("gturan.search", "brute_extremal"),
    "freeness.passes_constraints": ("gturan.freeness", "passes_constraints"),
    "freeness.check_constraints": ("gturan.freeness", "check_constraints"),
    "counting.has_clique": ("gturan.counting", "has_clique"),
    "counting.count_cliques": ("gturan.counting", "count_cliques"),
    "counting.count_embeddings": ("gturan.counting", "count_embeddings"),
    "counting.automorphism_count": ("gturan.counting", "automorphism_count"),
    "counting.enumerate_copies": ("gturan.counting", "enumerate_copies"),
    "counting.clique_number": ("gturan.counting", "clique_number"),
    "families.turan": ("gturan.families", "turan"),
    "bounds.bounds_report": ("gturan.bounds", "bounds_report"),
    "localization.localized_report": ("gturan.localization", "localized_report"),
    "localization.copy_weights": ("gturan.localization", "copy_weights"),
    "localization.clique_weights": ("gturan.localization", "clique_weights"),
    "cli.main": ("gturan.cli", "main"),
    "reports.to_jsonable": ("gturan.reports", "to_jsonable"),
}

# work counts: (span name, count name) -> function of (args, result)
WORK = {
    ("counting.count_embeddings", "embeddings"): lambda args, out: out,
    ("counting.enumerate_copies", "copies"): lambda args, out: len(out),
    ("families.turan", "vertices"): lambda args, out: out.n,
    ("freeness.passes_constraints", "passed"): lambda args, out: int(out),
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = [["<pass>", 0.0]]  # [name, child seconds]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, self seconds]
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn, work=()):
        stack = self.stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (name, parent[0])
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += elapsed - frame[1]
            for count_name, measure in work:
                counts[count_name] = counts.get(count_name, 0) + measure(args, out)
            return out

        functools.update_wrapper(traced, fn)
        for attr in ("cache_clear", "cache_info"):  # keep the lru_cache API
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def yields(self, name: str, gen_fn):
        """Count the representatives a level generator yields past level 0."""
        counts = self.counts

        def counted(*args, **kwargs):
            for level, reps in gen_fn(*args, **kwargs):
                if level:
                    counts[name] = counts.get(name, 0) + len(reps)
                yield level, reps

        return functools.update_wrapper(counted, gen_fn)

    def metrics(self) -> dict:
        """Per-name calls and self seconds, summed over parents, plus counts."""
        out: dict = {}
        for (name, _parent), (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        out.update(self.counts)
        return out


def figure_units() -> dict[str, str]:
    """Every figure ``Tracer.metrics`` can report, with its unit."""
    units = {}
    for name in list(SPANS) + ["graphs.Graph_init"]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for span, count in WORK:
        units[f"{span}.{count}"] = "count"
    for name in ("search.children", "search.classes", "localization.denominator_counts"):
        units[name] = "count"
    return units


def _rebind(old, new) -> None:
    for mod_name in MODULES:
        mod = importlib.import_module(mod_name)
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install() -> Tracer:
    """Wrap every traced function of an imported gturan and return the
    tracer that collects their spans and counts."""
    tracer = Tracer()
    for name, (mod_name, attr) in SPANS.items():
        fn = getattr(importlib.import_module(mod_name), attr)
        work = tuple(
            (f"{span}.{count}", measure)
            for (span, count), measure in WORK.items()
            if span == name
        )
        _rebind(fn, tracer.span(name, fn, work))
    graphs = importlib.import_module("gturan.graphs")
    graphs.Graph.__post_init__ = tracer.span(
        "graphs.Graph_init", graphs.Graph.__post_init__
    )
    # Only the search and localization bindings below, so that other
    # callers of the same functions are not counted.  children: every
    # neighbourhood the level generator tries; classes: the
    # representatives it keeps; denominator_counts: Turán-host counts
    # for copy weights.
    search = importlib.import_module("gturan.search")
    search.add_vertex = tracer.counter("search.children", search.add_vertex)
    search._levels = tracer.yields("search.classes", search._levels)
    localization = importlib.import_module("gturan.localization")
    localization.count_subgraph_copies = tracer.counter(
        "localization.denominator_counts", localization.count_subgraph_copies
    )
    return tracer
