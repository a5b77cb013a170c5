"""The library holds only what the pipeline, the CLI and the documented API read.

A public top-level function or class of ``src/shiftk`` must be read by other
library code (a name or attribute outside its own definition; the package's
``__init__`` re-exports do not count), or be in ``API``: the names the
acceptance suite and the README's Library section call.  Oracles that only
tests read live in ``tests/helpers.py``.
"""

import ast
import re
from pathlib import Path

import shiftk

SRC = Path(shiftk.__file__).parent
README = Path(__file__).parent.parent / "README.md"

API = {
    # README, Library section
    "parse_presentation", "build_chain", "k_groups", "dimension_triple", "higher_block",
    # acceptance suite
    "BipartiteExpression", "FgAbelianGroup", "FiniteModel", "IntMatrix", "action_sum",
    "cokernel", "compare_triples", "determinant", "kernel", "past_partition",
    "predecessor_set", "restricted_maps", "run_all_checks",
    "smith_normal_form", "split_letters", "symbolic_expansion", "vertex_sft_from_adjacency",
}


def _public_names_and_reads():
    """Each public top-level def or class -> its module, and every name read
    outside the definition that binds it."""
    defined, reads = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    reads.add(name)
    return defined, reads


def test_every_public_name_is_read_by_the_library_or_is_api():
    defined, reads = _public_names_and_reads()
    unread = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in reads and name not in API)
    assert unread == []


def test_api_names_are_defined():
    defined, _ = _public_names_and_reads()
    assert sorted(API - defined.keys()) == []


# The CLI tables render the --format json payloads, so the CLI reads the
# partitions module through these names only: one data route per table.
CLI_FROM_PARTITIONS = {"Stabilization", "build_chain", "chain_to_json", "matrices_to_json"}


def test_cli_reads_partitions_through_the_json_payloads_only():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("partitions"):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):   # the module itself
            imported.update(alias.name for alias in node.names if alias.name.endswith("partitions"))
    assert sorted(imported - CLI_FROM_PARTITIONS) == []


def test_readme_export_list_names_what_the_package_imports():
    # "The package exports, by module": one bullet per module, naming every
    # name the package resolves from it on first access (its lazy export
    # table); a dotted name is a module attribute
    text = README.read_text(encoding="utf-8")
    block = text.split("The package exports, by module:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for bullet in block.split("\n* "):
        module, *names = re.findall(r"`([^`]+)`", bullet)
        listed[module] = {name for name in names if "." not in name}
    imported = {module: set(names) for module, names in shiftk._EXPORTS.items()}
    assert listed == imported


def test_only_main_writes_the_output():
    # each cmd_* returns its payload and table; main picks the format and
    # writes one or the other, so no command may write or read the format
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    banned, commands, offending = {"stdout", "print", "_emit", "_fmt"}, 0, {}
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("cmd_"):
            commands += 1
            used = {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            if used & banned:
                offending[stmt.name] = sorted(used & banned)
    assert (commands, offending) == (8, {})


# Parsing builds a presentation's canonical form and nothing derived from it:
# the functions a parse runs, by (class or None, name), and the derived
# attributes they must not read
PARSE_PATH = {(None, "parse_presentation"), (None, "vertex_sft_from_adjacency"),
              (None, "_forbidden_word_graph"), (None, "_own_memory"), (None, "_live"),
              ("SoficShift", "build"), ("FiniteShift", "__init__"), ("SftShift", "__init__"),
              ("SftShift", "_from_words"), ("SftShift", "_from_graph")}
DERIVED = {"contexts", "context_index", "steps", "_rows", "_monoid", "_good", "sigma_surjective"}


def test_parsing_reads_nothing_derived():
    tree = ast.parse((SRC / "presentations.py").read_text(encoding="utf-8"))
    defs = [(None, stmt) for stmt in tree.body]
    defs += [(stmt.name, node) for stmt in tree.body if isinstance(stmt, ast.ClassDef)
             for node in stmt.body]
    found, offending = set(), {}
    for owner, node in defs:
        if isinstance(node, ast.FunctionDef) and (owner, node.name) in PARSE_PATH:
            found.add((owner, node.name))
            used = {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
            if used & DERIVED:
                offending[node.name] = sorted(used & DERIVED)
    assert (found, offending) == (PARSE_PATH, {})
