"""K-groups and the stationary dimension data of the stable partition level.

The partition chain is always refined to its stable level l0, where the
inclusion map is the identity, so the tower's limit group is the lattice at
l0 and the difference matrix (inclusion minus action) is the square
endomorphism matrix B = I - S, with S the stable step map.  The two K-groups
are its cokernel and kernel, both read off the rank and invariant factors of
B.  They and the triple are read at l0 once, whatever the chain length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .errors import ValidationError
from .intlinalg import FgAbelianGroup, IntMatrix, cokernel, matrix_rank
from .partitions import PartitionChain, persistent_classes, stable_step_map

# compare_triples searches coordinate permutations for an intertwiner only up
# to this rank (7! = 5040 permutations)
PERMUTATION_SEARCH_MAX_RANK = 7


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

    @cached_property
    def k_groups(self) -> KGroups:
        """Cokernel and kernel of I - S, from one rank and invariant-factor pass.

        I - S is square, so its kernel rank is the cokernel's free rank.
        """
        k0 = cokernel(IntMatrix.identity(self.rank).sub(self.step_map))
        return KGroups(k0, FgAbelianGroup(k0.free_rank, ()))

    def core_map(self) -> IntMatrix:
        """The step map restricted to the persistent coordinates."""
        return self.step_map.submatrix(self.delta_mask, self.delta_mask)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "step_map": self.step_map.to_lists(),
            "delta_mask": list(self.delta_mask),
        }


def k_groups(chain: PartitionChain) -> KGroups:
    """Cokernel and kernel of the stable difference matrix I - S."""
    return dimension_triple(chain).k_groups


def dimension_triple(chain: PartitionChain) -> StationarySystem:
    """Stationary certificate: stable step map plus the persistent-coordinate mask.

    It is made once and kept on the chain, so the chain's K-groups and its
    triple factor I - S once.
    """
    if chain.stationary is None:
        l0 = chain.stabilization.level
        chain.stationary = StationarySystem(
            chain.m(l0), stable_step_map(chain), persistent_classes(chain, l0))
    return chain.stationary


# ---------------------------------------------------------------------------
# comparison of stationary systems


def eventual_rank(m: IntMatrix) -> int:
    """Stable value of rank(m^n); reached by n = dimension.

    The rank drops of successive powers never grow, so rank(m^j) equal to
    rank(m^2j) means the ranks are constant from j on: squaring until two
    consecutive ranks agree finds the limit.
    """
    power, rank, prev = m, matrix_rank(m), None
    while 0 < rank < m.rows and rank != prev:
        power = power.mul(power)
        prev, rank = rank, matrix_rank(power)
    return rank


def triple_invariants(s: StationarySystem) -> dict:
    """Comparison-safe invariants of the stationary system.

    Only quantities invariant under isomorphism of the limit data are used:
    the K-groups of the full step map (via the difference matrix) and the
    rational rank of the limit (eventual rank of the core map).  Raw
    cokernels of powers of the step map are NOT stage-shift invariant and
    would wrongly distinguish conjugate presentations, so they are excluded.
    """
    kg = s.k_groups
    return {
        "k0": kg.k0.to_json(),
        "k1_rank": kg.k1.free_rank,
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


def compare_triples(s1: StationarySystem, s2: StationarySystem) -> CompareOutcome:
    """Three-valued comparison of two stationary systems.

    ``distinguished`` requires a genuinely isomorphism-invariant difference;
    ``equivalent`` requires an explicit intertwiner (search over coordinate
    permutations, up to rank ``PERMUTATION_SEARCH_MAX_RANK``); anything else
    is ``inconclusive``.
    """
    inv1 = triple_invariants(s1)
    inv2 = inv1 if s2 == s1 else triple_invariants(s2)
    for key in inv1:
        if inv1[key] != inv2[key]:
            return CompareOutcome(
                "distinguished", f"{key}: {inv1[key]} vs {inv2[key]}", (inv1, inv2))

    if s1 == s2:
        return CompareOutcome("equivalent", "identity intertwiner", (inv1, inv2))

    if s1.rank == s2.rank <= PERMUTATION_SEARCH_MAX_RANK:
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
