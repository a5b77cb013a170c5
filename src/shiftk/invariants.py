"""K-groups and the stationary dimension data of a stabilized partition chain.

Once the partition tower stabilizes, the inclusion maps become identities, so
the tower's limit group is the lattice at the stabilized level and the
difference matrix (inclusion minus action) becomes a square endomorphism
matrix B.  The two K-groups are its cokernel and kernel, both read off one
Smith normal form of B.  The levels past the stable level are that level
itself, so B and the triple are read there once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import ConsistencyError, NotStabilizedError, ValidationError
from .intlinalg import FgAbelianGroup, IntMatrix, matrix_rank, smith_normal_form
from .partitions import (
    PartitionChain,
    action_sum,
    bowen_franks_matrix,
    persistent_classes,
)


@dataclass(frozen=True)
class KGroups:
    k0: FgAbelianGroup
    k1: FgAbelianGroup


@dataclass(frozen=True)
class StationarySystem:
    """Finite certificate of the dimension triple at the stabilized level.

    ``step_map`` is the stabilized action-sum matrix on all class
    coordinates; ``delta_mask`` lists the coordinates whose predecessor sets
    stay nonempty in every grade (the projection defining the triple's
    endomorphism keeps exactly these).
    """

    rank: int
    step_map: IntMatrix
    delta_mask: tuple[int, ...]

    def __post_init__(self):
        if self.step_map.rows != self.rank or self.step_map.cols != self.rank:
            raise ValidationError("step map must be rank x rank")
        if any(not 0 <= i < self.rank for i in self.delta_mask):
            raise ValidationError("delta mask out of range")

    def core_map(self) -> IntMatrix:
        """The step map restricted to the persistent coordinates."""
        return self.step_map.submatrix(self.delta_mask, self.delta_mask)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "step_map": self.step_map.to_lists(),
            "delta_mask": list(self.delta_mask),
        }


def _k_data(b: IntMatrix) -> tuple[FgAbelianGroup, int]:
    """Cokernel and kernel rank of b from a single Smith normal form."""
    snf = smith_normal_form(b)
    return FgAbelianGroup(b.rows - snf.rank, snf.invariant_factors), b.cols - snf.rank


def per_level_k_data(chain: PartitionChain) -> list[dict]:
    out = []
    for l in range(chain.length):
        b = bowen_franks_matrix(chain, l)
        coker, kernel_rank = _k_data(b)
        out.append({
            "level": l,
            "shape": [b.rows, b.cols],
            "cokernel": coker.to_json(),
            "kernel_rank": kernel_rank,
        })
    return out


def _require_stable(chain: PartitionChain) -> int:
    if not chain.stabilization.stable:
        raise NotStabilizedError(
            f"partition tower not stable within {chain.length} levels; "
            "raise the level bound to compute the limit invariants",
            per_level=per_level_k_data(chain))
    return chain.stabilization.level


def k_groups(chain: PartitionChain) -> KGroups:
    """Cokernel and kernel of the stabilized difference matrix."""
    l0 = _require_stable(chain)
    b = bowen_franks_matrix(chain, l0)
    if not b.is_square():
        raise ConsistencyError("difference matrix not square past stabilization")
    k0, k1_rank = _k_data(b)
    return KGroups(k0, FgAbelianGroup(k1_rank, ()))


def dimension_triple(chain: PartitionChain) -> StationarySystem:
    """Stationary certificate: stabilized step map plus the persistent-coordinate mask."""
    l0 = _require_stable(chain)
    return StationarySystem(chain.m(l0), action_sum(chain, l0), persistent_classes(chain, l0))


# ---------------------------------------------------------------------------
# comparison of stationary systems


def eventual_rank(m: IntMatrix) -> int:
    """Stable value of rank(m^n); reached by n = dimension."""
    if m.rows == 0:
        return 0
    power = m
    ranks = [matrix_rank(power)]
    for _ in range(m.rows):
        power = power.mul(m)
        ranks.append(matrix_rank(power))
        if ranks[-1] == ranks[-2]:
            return ranks[-1]
    return ranks[-1]


def triple_invariants(s: StationarySystem) -> dict:
    """Comparison-safe invariants of the stationary system.

    Only quantities invariant under isomorphism of the limit data are used:
    the K-groups of the full step map (via the difference matrix) and the
    rational rank of the limit (eventual rank of the core map).  Raw
    cokernels of powers of the step map are NOT stage-shift invariant and
    would wrongly distinguish conjugate presentations, so they are excluded.
    """
    k0, k1_rank = _k_data(IntMatrix.identity(s.rank).sub(s.step_map))
    return {
        "k0": k0.to_json(),
        "k1_rank": k1_rank,
        "limit_rank": eventual_rank(s.core_map()),
    }


@dataclass(frozen=True)
class CompareOutcome:
    verdict: str                       # "equivalent" | "distinguished" | "inconclusive"
    witness: str | None
    invariants: tuple[dict, dict]

    @property
    def exit_code(self) -> int:
        return {"equivalent": 0, "distinguished": 1, "inconclusive": 2}[self.verdict]


def compare_triples(s1: StationarySystem, s2: StationarySystem,
                    depth: int = 7) -> CompareOutcome:
    """Three-valued comparison of two stationary systems.

    ``distinguished`` requires a genuinely isomorphism-invariant difference;
    ``equivalent`` requires an explicit intertwiner (search over coordinate
    permutations, bounded by ``depth``); anything else is ``inconclusive``.
    """
    inv1 = triple_invariants(s1)
    inv2 = inv1 if s2 == s1 else triple_invariants(s2)
    for key in inv1:
        if inv1[key] != inv2[key]:
            return CompareOutcome(
                "distinguished", f"{key}: {inv1[key]} vs {inv2[key]}", (inv1, inv2))

    if s1 == s2:
        return CompareOutcome("equivalent", "identity intertwiner", (inv1, inv2))

    if s1.rank == s2.rank and s1.rank <= depth:
        mask1, mask2 = set(s1.delta_mask), set(s2.delta_mask)
        if len(mask1) == len(mask2):
            for perm in permutations(range(s1.rank)):
                if {perm[i] for i in mask1} != mask2:
                    continue
                a1, a2 = s1.step_map.entries, s2.step_map.entries
                if all(
                    a1[i][j] == a2[perm[i]][perm[j]]
                    for i in range(s1.rank) for j in range(s1.rank)
                ):
                    return CompareOutcome(
                        "equivalent", f"coordinate permutation {list(perm)}", (inv1, inv2))

    return CompareOutcome("inconclusive", None, (inv1, inv2))
