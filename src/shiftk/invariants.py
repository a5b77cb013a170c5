"""K-groups and the stationary dimension data of the stable partition level.

The partition chain is always refined to its stable level l0, where the
inclusion map is the identity, so the tower's limit group is the lattice at
l0 and the difference matrix (inclusion minus action) is the square
endomorphism matrix B = I - S, with S the stable step map.  The two K-groups
are its cokernel and kernel, both read off the rank and invariant factors of
B.  They and the triple are read at l0 once, whatever the chain length.

``compare_triples`` calls two stationary systems equivalent when a coordinate
permutation carries one onto the other, at any rank.  It finds the
permutation by colour refinement with individualization, and reads the
invariants of both systems (K0, then the limit rank) only when there is none.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError
from .intlinalg import FgAbelianGroup, IntMatrix, cokernel, matrix_rank
from .partitions import PartitionChain, persistent_classes, stable_step_map


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
    consecutive ranks agree finds the limit.  Each rank pivots on the +-1
    entries of the power first (``intlinalg.matrix_rank``), so for a 0/1
    core map only the small core left by those pivots is eliminated.
    """
    power, rank, prev = m, matrix_rank(m), None
    while 0 < rank < m.rows and rank != prev:
        power = power.mul(power)
        prev, rank = rank, matrix_rank(power)
    return rank


_COMPARED = (   # read in this order by compare_triples, only when no intertwiner is found
    ("k0", lambda s: s.k_groups.k0.to_json()),
    ("limit_rank", lambda s: eventual_rank(s.core_map())),
)


@dataclass(frozen=True)
class CompareOutcome:
    verdict: str                       # "equivalent" | "distinguished" | "inconclusive"
    witness: str | None

    @property
    def exit_code(self) -> int:
        return {"equivalent": 0, "distinguished": 1, "inconclusive": 2}[self.verdict]


def _joint_colours(keys1: list, keys2: list):
    """Rank the colour keys of both systems together, so equal keys get equal
    colours on both sides; None when the two colour counts differ."""
    rank = {key: r for r, key in enumerate(sorted(set(keys1) | set(keys2)))}
    c1, c2 = [rank[k] for k in keys1], [rank[k] for k in keys2]
    return (c1, c2) if sorted(c1) == sorted(c2) else None


def _refine(graphs, c1: list, c2: list):
    """Colour refinement of both systems at once, until the colouring is
    stable or every colour class is a single coordinate.

    Each round adds to a coordinate's colour the sorted (weight, colour) lists
    of its out- and in-neighbours.  None at the first round whose colour
    counts differ: then no intertwiner respects the starting colours.
    """
    count = len(set(c1))
    while count < len(c1):
        coloured = _joint_colours(*(
            [(c[i], tuple(sorted([(w, c[j]) for j, w in out[i]])),
              tuple(sorted([(w, c[j]) for j, w in into[i]]))) for i in range(len(c))]
            for c, (out, into) in zip((c1, c2), graphs)))
        if coloured is None:
            return None
        c1, c2 = coloured
        if len(set(c1)) == count:
            break
        count = len(set(c1))
    return c1, c2


def _graph(m) -> tuple[list, list]:
    """Out- and in-neighbour lists of (coordinate, nonzero weight) per coordinate."""
    return ([[(j, w) for j, w in enumerate(row) if w] for row in m],
            [[(i, w) for i, w in enumerate(col) if w] for col in zip(*m)])


class _Search:
    """Intertwiner search by colour refinement with individualization into one
    target system, keeping the target automorphisms it finds on the way.

    A search fixes source coordinates 0, 1, ... in order, pairing each with the
    target coordinates of its colour in ascending order and refining after
    each pair.  A pair is dropped when the colour counts differ, which no
    permutation respecting the pairs survives, or when an automorphism of the
    target that fixes the earlier images maps an image already refuted onto
    it.  So the first complete permutation that passes the entry check is the
    lexicographically first intertwiner.
    """

    def __init__(self, target: StationarySystem):
        self.matrix = target.step_map.entries
        self.mask = set(target.delta_mask)
        self.graph = _graph(self.matrix)
        self.automorphisms: list[list[int]] = []

    def run(self, matrix, mask: set, graph, c1: list, c2: list, fixed: list):
        """The first permutation p with c2[p[i]] == c1[i] that carries (matrix,
        mask) onto the target; ``fixed`` lists the target coordinates that the
        colourings already individualize."""
        n = len(c1)
        branches = [iter([(c1, c2, fixed)])]
        while branches:
            node = next(branches[-1], None)
            if node is None:
                branches.pop()
                continue
            c1, c2, fixed = node
            sizes = Counter(c1)
            i = next((i for i in range(n) if sizes[c1[i]] > 1), None)
            if i is not None:
                branches.append(self._children(graph, c1, c2, i, fixed))
                continue
            where = {c: j for j, c in enumerate(c2)}
            p = [where[c] for c in c1]
            if {p[i] for i in mask} == self.mask and all(
                    row == tuple(map(self.matrix[p[i]].__getitem__, p))
                    for i, row in enumerate(matrix)):
                return p
        return None

    def _children(self, graph, c1: list, c2: list, i: int, fixed: list):
        """The refined colourings that pair source coordinate i with each target
        coordinate of its colour, ascending; each one yielded and resumed had no
        intertwiner below it."""
        fresh = max(c1) + 1
        refuted, pruned = {}, set()
        for j, c in enumerate(c2):
            if c != c1[i] or j in pruned:
                continue
            refined = _refine((graph, self.graph),
                              c1[:i] + [fresh] + c1[i + 1:], c2[:j] + [fresh] + c2[j + 1:])
            if refined is None:
                continue
            automorphism = next((
                g for other in refuted.values() if (g := self.run(
                    self.matrix, self.mask, self.graph, other, refined[1], fixed + [j])) is not None),
                None)
            if automorphism is None:
                yield (*refined, fixed + [j])
                refuted[j] = refined[1]
            else:
                self.automorphisms.append(automorphism)
            pruned = self._orbits(refuted, fixed)

    def _orbits(self, start, fixed: list) -> set:
        """The orbit of ``start`` under the automorphisms found so far that fix
        every coordinate of ``fixed``."""
        moves = [g for g in self.automorphisms if all(g[x] == x for x in fixed)]
        orbit, todo = set(start), list(start)
        while todo:
            x = todo.pop()
            for g in moves:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    todo.append(g[x])
        return orbit


def _intertwiner(s1: StationarySystem, s2: StationarySystem) -> list[int] | None:
    """The lexicographically first coordinate permutation p with
    S2[p[i]][p[j]] == S1[i][j] for all i, j that maps s1's mask onto s2's.

    Colour refinement with individualization (McKay 1981; McKay-Piperno
    2014); see ``_Search``.
    """
    n = s1.rank
    if s2.rank != n:
        return None
    matrix, mask, graph = s1.step_map.entries, set(s1.delta_mask), _graph(s1.step_map.entries)
    search = _Search(s2)
    start = _joint_colours(*(
        [(i in marked, m[i][i], out, into)
         for i, (out, into) in enumerate(zip(map(sum, m), map(sum, zip(*m))))]
        for m, marked in ((matrix, mask), (search.matrix, search.mask))))
    root = start and _refine((graph, search.graph), *start)
    if root is None:
        return None
    return search.run(matrix, mask, graph, *root, [])


def compare_triples(s1: StationarySystem, s2: StationarySystem) -> CompareOutcome:
    """Three-valued comparison of two stationary systems.

    ``equivalent`` requires an explicit intertwiner: the systems are equal, or
    a coordinate permutation carries one onto the other, at any rank.  Such a
    permutation keeps every invariant, so none is computed.  ``distinguished``
    requires a difference in ``_COMPARED``: K0 of the full step map, then the
    rational rank of the limit (eventual rank of the core map), both kept by
    isomorphism of the limit data.  K1 is Z^(free rank of K0), so it separates
    nothing K0 does not; raw cokernels of powers of S are not stage-shift
    invariant.  Anything else is ``inconclusive``.
    """
    if s1 == s2:
        return CompareOutcome("equivalent", "identity intertwiner")
    perm = _intertwiner(s1, s2)
    if perm is not None:
        return CompareOutcome("equivalent", f"coordinate permutation {perm}")
    for key, invariant in _COMPARED:
        a, b = invariant(s1), invariant(s2)
        if a != b:
            return CompareOutcome("distinguished", f"{key}: {a} vs {b}")
    return CompareOutcome("inconclusive", None)
