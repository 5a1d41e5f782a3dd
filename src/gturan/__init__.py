"""Exact extremal subgraph-density computations for graphs of bounded
degree and clique number: constructions, bit-parallel counting, rational
density bounds, a localized weight inequality, and brute-force extremal
oracles at desk scale."""

__version__ = "0.1.0"
DEFAULT_SEED = 20250814  # the acceptance suite's corpora (``gturan verify``)

from .graphs import (
    Graph,
    canonical_code,
    common_neighborhood,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    isomorphic,
    join,
    path_graph,
    twin_quotient,
)
from .families import (
    ParamTriple,
    TuranSpec,
    colex_turan,
    complete_split,
    lower_bound_family,
    lower_bound_graph,
    turan,
)
from .counting import (
    automorphism_count,
    blowup_copy_count,
    clique_number,
    copies_through,
    count_cliques,
    count_copies_rooted,
    count_subgraph_copies,
    delete_dominating,
    dominating_vertices,
    enumerate_cliques,
    pattern_spec,
    turan_copy_count,
)
from .freeness import ConstraintSet, FreenessReport, check_constraints, contains_subgraph
from .bounds import (
    BoundsReport,
    bounds_report,
    ratio_diagnostic,
    turan_threshold_bound,
)
from .localization import (
    DominatingClique,
    HypothesisViolationError,
    LocalReport,
    clique_weights,
    localized_report,
)
from .search import (
    SearchOutcome,
    brute_extremal,
    brute_extremal_u,
    empirical_turan_goodness,
    enumerate_graphs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
