"""GRAFT: factored probabilistic decision trees over attribute knowledge DAGs.

The substrate compiles a knowledge DAG (two edge kinds: joint attributes and
pick-one decisions, plus explicit cross-rules) into a spanning tree, a chain
index, a chain dependency graph with decision levels, and a rule set.  On
top of it sit the factored policy with its support-editing operators, the
partition-of-unity embedding with Jaccard fingerprints, a persistent memory
of solved instances that warm-starts priors for new problems, and a closed
trial loop against pluggable environments.
"""

from .build import (
    CompiledRule,
    CycleWitness,
    DependencyGraph,
    LevelMap,
    Substrate,
    assign_levels,
    build_substrate,
    check_acyclic,
    expand_rules,
)
from .embedding import (
    Embedding,
    Fingerprint,
    LandscapeTable,
    bin_cell,
    bin_cells,
    fingerprint,
    jaccard,
    landscape_export,
    layout,
    min_injective_k,
)
from .errors import (
    BuildError,
    EnumerationCapError,
    FingerprintError,
    GraftError,
    GraphFormatError,
    GraphValidationError,
    ResolutionSearchError,
    RuleSupportError,
    StalePathError,
    SupportExhaustedError,
    VersionMismatchError,
)
from .graph import (
    EdgeType,
    KnowledgeGraph,
    Rule,
    ValidationReport,
    Violation,
    graph_from_document,
    graph_to_document,
    parse_graph,
    serialize_graph,
    validate_graph,
)
from .loop import (
    BoundSyntheticEnvironment,
    Environment,
    SyntheticEnvSpec,
    SyntheticEnvironment,
    TrialHistory,
    TrialRecord,
    TrialResult,
    advisor_edit,
    make_synthetic_env,
    run_trial,
)
from .memory import (
    MemoryEntry,
    MemoryRepository,
    PriorParams,
    R_MAX,
    compile_prior,
    grow_tree,
    neighbor_weight,
    partial_spec,
    rank_neighbors,
    record,
    remove_node,
)
from .policy import (
    INACTIVE,
    MethodTuple,
    PolicyRows,
    ProbabilityRow,
    chain_kernel,
    chain_prior,
    edited_chain_distribution,
    enumerate_support,
    method_path_nodes,
    method_probability,
    op_force,
    op_zero,
    sample_method,
    uniform_rows,
)
from .reduction import Chain, ChainIndex, FactoredTree, extract_chains, reduce_to_tree

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
