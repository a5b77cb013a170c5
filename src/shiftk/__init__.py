"""Past-equivalence invariants, K-groups, and exact operator models
for one-sided shift spaces presented by finite data."""

__version__ = "0.1.0"

from .errors import (
    AlphabetMismatchError,
    ConsistencyError,
    ResourceCapError,
    ShiftError,
    StraddleError,
    ValidationError,
)
from .intlinalg import FgAbelianGroup, IntMatrix, cokernel, kernel, smith_normal_form
from .invariants import (
    CompareOutcome,
    KGroups,
    StationarySystem,
    compare_triples,
    dimension_triple,
    k_groups,
)
from .model import FiniteModel, run_all_checks
from .partitions import (
    PartitionChain,
    PartitionLevel,
    action_matrices,
    action_sum,
    bowen_franks_matrix,
    build_chain,
    inclusion_matrix,
    m_index_set,
    past_partition,
    restricted_maps,
)
from .presentations import (
    Caps,
    FiniteShift,
    Presentation,
    SftShift,
    SoficShift,
    contains,
    context_of,
    dump_presentation,
    in_cylinder,
    language,
    load_presentation,
    parse_presentation,
    predecessor_set,
    realizable_contexts,
    vertex_sft_from_adjacency,
)
from .transforms import (
    BipartiteExpression,
    TransformReport,
    higher_block,
    split_letters,
    symbolic_expansion,
)
from .words import Alphabet, Point, Word
