"""Start-up: that every subcommand but ``landscape`` runs without numpy, the
package's public names, the help text, and the pure-Python resolution search
against the numpy one."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graft
from graft import build_substrate, graph_from_document, layout, min_injective_k, reduce_to_tree, uniform_rows
from graft import io
from graft.embedding import K_MAX, fingerprint
from graft.errors import ResolutionSearchError
from graft.fixtures import morning_graph_document
from graft.memory import MemoryEntry, MemoryRepository
from graft.policy import method_path_nodes, sample_method

from oracles import min_injective_k_numpy, random_substrate_document, random_tree_document
from test_robustness import _loop_workdir, nesting_chain_document, s_chain_document

# graft.cli.main in a child process, then whether numpy got loaded
CHILD = """
import sys
from graft.cli import main
code = main(sys.argv[1:])
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

PATH = "breakfast,breakfast_yes"


@pytest.fixture
def workspace(tmp_path):
    """The morning graph, its substrate, a problem fingerprint, uniform rows,
    a method and a memory of one entry, as the CLI reads them."""
    doc = morning_graph_document()
    (tmp_path / "g.json").write_text(json.dumps(doc))
    s = build_substrate(graph_from_document(doc))
    e = layout(s.tree)
    fp = fingerprint(e, PATH.split(","), min_injective_k(e))
    m = sample_method(s, uniform_rows(s), seed=3)
    io.save_substrate(s, tmp_path / "sub.json")
    io.save_fingerprint(fp, tmp_path / "p.fp")
    io.save_rows(uniform_rows(s), tmp_path / "rows.json")
    io.save_method(m, tmp_path / "m.json")
    repo = MemoryRepository(fp.tree_tag, s.tree_version)
    repo.entries.append(MemoryEntry(fp, m, method_path_nodes(s, m), {"wall": 1.5}, 50.0))
    io.save_memory(repo, tmp_path / "memory.jsonl")
    return tmp_path


def run_child(argv, cwd):
    env = dict(os.environ, GRAFT_WORKSPACE=str(cwd))
    out = subprocess.run([sys.executable, "-c", CHILD, "--quiet", *argv], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stderr.splitlines()[-1]


NUMPY_FREE = {
    "validate": ["validate", "g.json"],
    "reduce": ["reduce", "g.json"],
    "build": ["build", "g.json", "--out", "built.json"],
    "embed": ["embed", "sub.json", "--out", "embedding.json"],
    "fingerprint-auto": ["fingerprint", "sub.json", "--path", PATH, "--k", "auto"],
    "fingerprint-k": ["fingerprint", "sub.json", "--path", PATH, "--k", "7", "--out", "k7.fp"],
    "similarity": ["similarity", "p.fp", "p.fp"],
    "prob": ["prob", "sub.json", "--rows", "rows.json", "--method", "m.json"],
    "footprint": ["footprint", "sub.json"],
    "record": ["record", "memory.jsonl", "--substrate", "sub.json", "--problem", "p.fp", "--method", "m.json",
               "--reward", "7"],
    "prior": ["prior", "memory.jsonl", "sub.json", "--problem", "p.fp", "--out", "prior.json"],
    "neighbors": ["neighbors", "memory.jsonl", "--problem", "p.fp"],
    # the draws run on graft's own PCG64 stream
    "sample": ["sample", "sub.json", "--rows", "rows.json", "--seed", "0"],
    "loop": ["loop", "asub.json", "loop.jsonl", "--env-spec", "env.json", "--budget", "1", "--seed", "0",
             "--out", "report.jsonl"],
}  # fmt: skip


@pytest.mark.parametrize("argv", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_subcommand_runs_without_numpy(argv, workspace):
    if argv[0] == "loop":
        _loop_workdir(workspace, morning_graph_document())
    assert run_child(argv, workspace) == "numpy loaded: False"


# graft.cli.main in a child process, then which of memory and policy got loaded
CHILD_MODULES = """
import sys
from graft.cli import main
code = main(sys.argv[1:])
print("loaded:", *sorted({"graft.memory", "graft.policy"} & set(sys.modules)), file=sys.stderr)
sys.exit(code)
"""

WITHOUT_MEMORY_OR_POLICY = ("validate", "reduce", "build", "embed", "fingerprint-auto", "similarity", "footprint")


@pytest.mark.parametrize("kind", WITHOUT_MEMORY_OR_POLICY)
def test_subcommand_runs_without_memory_or_policy(kind, workspace):
    env = dict(os.environ, GRAFT_WORKSPACE=str(workspace))
    argv = [sys.executable, "-c", CHILD_MODULES, "--quiet", *NUMPY_FREE[kind]]
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines()[-1] == "loaded:"


def test_importing_the_package_and_the_cli_loads_neither_numpy_nor_the_loop():
    code = "import sys, graft, graft.cli; print(*sorted({'numpy', 'graft.loop'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "\n"


ALL = [
    "BoundSyntheticEnvironment", "BuildError", "Chain", "ChainIndex", "CompiledRule", "CycleWitness",
    "DependencyGraph", "EdgeType", "Embedding", "EnumerationCapError", "Environment", "FactoredTree",
    "Fingerprint", "FingerprintError", "GraftError", "GraphFormatError", "GraphValidationError", "INACTIVE",
    "KnowledgeGraph", "LandscapeTable", "LevelMap", "MemoryEntry", "MemoryRepository", "MethodTuple",
    "PolicyRows", "PriorParams", "ProbabilityRow", "R_MAX", "ResolutionSearchError", "Rule", "RuleSupportError",
    "StalePathError", "Substrate", "SupportExhaustedError", "SyntheticEnvSpec", "SyntheticEnvironment",
    "TrialHistory", "TrialRecord", "TrialResult", "ValidationReport", "VersionMismatchError", "Violation",
    "advisor_edit", "assign_levels", "bin_cell", "bin_cells", "build", "build_substrate", "chain_kernel",
    "chain_prior", "check_acyclic", "compile_prior", "edited_chain_distribution", "embedding",
    "enumerate_support", "errors", "expand_rules", "extract_chains", "fingerprint", "graph",
    "graph_from_document", "graph_to_document", "grow_tree", "jaccard", "landscape_export", "layout", "loop",
    "make_synthetic_env", "memory", "method_path_nodes", "method_probability", "min_injective_k",
    "neighbor_weight", "op_force", "op_zero", "parse_graph", "partial_spec", "policy", "rank_neighbors",
    "record", "reduce_to_tree", "reduction", "remove_node", "run_trial", "sample_method", "serialize_graph",
    "uniform_rows", "validate_graph",
]


def test_public_names_are_pinned():
    assert graft.__all__ == ALL
    namespace = {}
    exec("from graft import *", namespace)
    assert set(ALL) <= set(namespace) and set(ALL) <= set(dir(graft))
    assert namespace["loop"] is graft.loop and namespace["run_trial"] is graft.loop.run_trial
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        graft.nothing


HELP = b"""\
usage: graft [-h] [--quiet] command ...

Factored probabilistic decision trees over knowledge DAGs

positional arguments:
  command
    validate   check a graph document's structural invariants
    reduce     print the spanning tree and chain listing
    build      compile a graph into a substrate file
    embed      write the partition-of-unity embedding
    fingerprint
               fingerprint a node path
    similarity
               Jaccard similarity of two fingerprints
    prior      compile policy rows from memory for a problem
    sample     draw one method tuple
    prob       probability of a method tuple
    record     append a solved instance to a memory file
    neighbors  rank memory entries against a problem
    loop       run closed-loop trials against an environment
    landscape  PCA landscape table from a memory file
    footprint  joint vs factored parameter counts

options:
  -h, --help   show this help message and exit
  --quiet      suppress informational messages
"""


def test_help_text_is_pinned():
    env = dict(os.environ, COLUMNS="80")
    out = subprocess.run([sys.executable, "-m", "graft", "--help"], capture_output=True, env=env, check=True)
    assert out.stdout == HELP


DOCUMENTS = st.one_of(
    st.just({"root": "r", "nodes": [{"id": "r"}]}),
    st.integers(0, 10_000).map(random_tree_document),
    st.integers(0, 10_000).map(random_substrate_document),
    st.integers(1, 40).map(s_chain_document),
    st.integers(1, 40).map(nesting_chain_document),
)


def _search(search, e, cap):
    try:
        return search(e, cap)
    except ResolutionSearchError as exc:
        return f"ResolutionSearchError: {exc}"


@settings(max_examples=80, deadline=None)
@given(doc=DOCUMENTS, cap=st.one_of(st.integers(0, 40), st.just(K_MAX)))
def test_resolution_search_matches_the_numpy_search(doc, cap):
    e = layout(reduce_to_tree(graph_from_document(doc)))
    assert _search(min_injective_k, e, cap) == _search(min_injective_k_numpy, e, cap)
