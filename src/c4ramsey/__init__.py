"""Upper-bound derivations and desk-scale coloring searches for Ramsey
numbers of C4 versus complete, star and book graphs."""

from .bounds import BoundQuery, isqrt_ceil, theorem_mt_bound
from .derive import CannotDeriveError, DerivationTree, derive, replay
from .graphs import (
    EdgeColoring,
    SimpleGraph,
    coloring_from_text,
    coloring_to_text,
    contains_target,
    find_target_copy,
    graph6_decode,
    graph6_encode,
    is_good_coloring,
    pair_index,
)
from .registry import RamseyFact, Registry, load_registry, seed_registry
from .search import (
    SearchBudget,
    SearchOutcome,
    computed_ramsey,
    partition_check,
    ramsey_by_search,
    search_coloring,
)
from .targets import (
    CYCLE4,
    TargetGraph,
    TargetList,
    book,
    clique,
    delete_options,
    empty_graph,
    parse_target,
    parse_target_sequence,
    parse_targets,
    star,
    with_isolated,
)
from .witness import BadWitnessError, extend_with_disjoint_clique, verify_lower_bound

__version__ = "0.1.0"
