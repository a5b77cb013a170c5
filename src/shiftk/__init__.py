"""Past-equivalence invariants, K-groups, and exact operator models
for one-sided shift spaces presented by finite data.

Each exported name is read from its module when it is accessed (PEP 562),
so ``import shiftk`` loads none of the modules below until a name is read.
"""

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "errors": ("AlphabetMismatchError", "ConsistencyError", "ResourceCapError",
               "ShiftError", "StraddleError", "ValidationError"),
    "intlinalg": ("FgAbelianGroup", "IntMatrix", "cokernel", "kernel", "smith_normal_form"),
    "invariants": ("CompareOutcome", "KGroups", "StationarySystem", "compare_triples",
                   "dimension_triple", "k_groups"),
    "model": ("FiniteModel", "run_all_checks"),
    "partitions": ("PartitionChain", "PartitionLevel", "action_sum", "build_chain",
                   "inclusion_matrix", "m_index_set", "past_partition", "restricted_maps"),
    "presentations": ("FiniteShift", "Presentation", "SftShift", "SoficShift",
                      "dump_presentation", "language", "load_presentation",
                      "parse_presentation", "predecessor_set", "vertex_sft_from_adjacency"),
    "transforms": ("BipartiteExpression", "TransformReport", "higher_block",
                   "split_letters", "symbolic_expansion"),
    "words": ("Alphabet", "Point", "Word"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:   # the module itself, as in ``shiftk.partitions.build_chain``
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
