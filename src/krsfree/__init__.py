"""Exact and randomized tools for largest biclique-free subgraphs of k-uniform hypergraphs."""

from types import ModuleType as _ModuleType

from .hypergraph import (
    GENERATOR_ID,
    Edge,
    EdgeSubset,
    Hypergraph,
    PartitionSpec,
    bernoulli_edge_sample,
    complete_bipartite,
    complete_multipartite,
    hypergraph_from_text,
    hypergraph_to_text,
    is_partite,
    link,
    partition_from_text,
    partition_to_text,
    read_hypergraph,
    read_partition,
    write_hypergraph,
    write_partition,
)
from .patterns import (
    Matching,
    PatternCopy,
    copy_count_upper_bound,
    copy_count_upper_bound_relaxed,
    count_copies,
    count_matchings,
    enumerate_copies,
    enumerate_matchings,
    extensions_of_matching,
    pattern_exponent,
)
from .deletion import (
    DeletionParams,
    DeletionRunReport,
    ExpectationBound,
    TrialSummary,
    deletion_params,
    derive_trial_seed,
    expectation_lower_bound,
    extract_free_subgraph,
    reports_to_csv,
    run_trials,
    summary_to_json,
)
from .extremal import (
    CapacityError,
    CertificateReport,
    ConstructionSpec,
    VERDICT_INCONCLUSIVE,
    VERDICT_PROVES,
    build_construction,
    common_extension_count_dS,
    edge_density_a,
    generalized_binomial,
    kst_certificate,
    proposition_lower_bound,
    theorem_upper_bound,
)
from .oracle import (
    FreeSubgraphComparison,
    OracleResult,
    PatternSpec,
    f_lower_report,
    is_free,
    max_free_subgraph,
)

# Every public name imported above; importing them also binds the submodules,
# which are not part of the surface.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
