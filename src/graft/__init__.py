"""GRAFT: factored probabilistic decision trees over attribute knowledge DAGs.

The substrate compiles a knowledge DAG (two edge kinds: joint attributes and
pick-one decisions, plus explicit cross-rules) into a spanning tree, a chain
index, a chain dependency graph with decision levels, and a rule set.  On
top of it sit the factored policy with its support-editing operators, the
partition-of-unity embedding with Jaccard fingerprints, a persistent memory
of solved instances that warm-starts priors for new problems, and a closed
trial loop against pluggable environments.
"""

import importlib

# The public names of each submodule.  Submodules and names are imported on
# first use (PEP 562), so ``import graft`` loads neither the submodules nor
# numpy, which only the landscape uses.
_EXPORTS = {
    "build": "CompiledRule CycleWitness DependencyGraph LevelMap Substrate assign_levels build_substrate "
        "check_acyclic expand_rules",
    "embedding": "Embedding Fingerprint LandscapeTable bin_cell bin_cells fingerprint jaccard landscape_export "
        "layout min_injective_k",
    "errors": "BuildError EnumerationCapError FingerprintError GraftError GraphFormatError GraphValidationError "
        "ResolutionSearchError RuleSupportError StalePathError SupportExhaustedError VersionMismatchError",
    "graph": "EdgeType KnowledgeGraph Rule ValidationReport Violation graph_from_document graph_to_document "
        "parse_graph serialize_graph validate_graph",
    "loop": "BoundSyntheticEnvironment Environment SyntheticEnvSpec SyntheticEnvironment TrialHistory TrialRecord "
        "TrialResult advisor_edit make_synthetic_env run_trial",
    "memory": "MemoryEntry MemoryRepository PriorParams R_MAX compile_prior grow_tree neighbor_weight "
        "partial_spec rank_neighbors record remove_node",
    "policy": "INACTIVE MethodTuple PolicyRows ProbabilityRow chain_kernel chain_prior edited_chain_distribution "
        "enumerate_support method_path_nodes method_probability op_force op_zero sample_method uniform_rows",
    "reduction": "Chain ChainIndex FactoredTree extract_chains reduce_to_tree",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted([*_ORIGIN, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
