"""Past-equivalence partitions of a shift space and the matrix tower over them.

Two points are level-l equivalent when their predecessor sets agree in every
grade up to l.  On the finite context carrier this is a partition refinement
over the prepend transition, which never enumerates words: contexts get a
rank per grade, and the classes of level l are the distinct rank vectors
(grade 0, ..., grade l), numbered in the lexicographic order of those
vectors.  The order is intrinsic to the transition, so it does not depend on
context names or on any size limit.  Predecessor words are enumerated only
to display the classes (``class_signatures``).

Level l+1 is level 0 refined by the level-l classes of the successors (Moore
refinement), so the first step that adds no class is a fixed point: every
later level is the same partition.  Every other step adds a class, so the
stable level l0 is at most the number of contexts minus one, and the chain
is always refined to it.  The chain stores the distinct levels 0..l0 and,
for each l <= l0, two class maps from level l+1 to level l: the parent of
each class, and a (symbol, class it lands in) pair per symbol that can be
prepended.  The levels past l0 are level l0 itself.  The chain length
(``lmax``) only bounds which levels, maps, M-sets and reach sets are
shown and checked; the stable level and the limit data never depend on it.
Which contexts have predecessor words of each length, and of every length,
is read off one trim of the prepend graph (``_live``): a context has words
of length k when it starts an infinite path or a path of k steps.  So the
sets stop changing at grade K, the longest finite path plus one, and the
chain holds grades 0..min(K, length) only.  The M-sets (the classes with a
nonempty grade-k past) and the restricted maps are read off those sets and
the class maps.

The dense matrices the invariants read are built from the class maps on
demand and follow the source's indexing: entry (i, j) of the inclusion
matrix is 1 when class i of level l+1 is contained in class j of level l,
and entry (i, j) of the action sum counts the symbols whose prepending maps
class i of level l+1 into class j of level l (never into two classes; that
would be a hard internal error).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import ConsistencyError, StraddleError, ValidationError
from .intlinalg import IntMatrix
from .presentations import Presentation, _live, predecessor_frontiers

# Predecessor words shown per grade; a larger grade is shown as its rank.
SIGNATURE_WORD_LIMIT = 20000


@dataclass(frozen=True)
class PartitionLevel:
    classes: tuple[tuple[int, ...], ...]   # each class's context indices, sorted
    class_of: tuple[int, ...]              # context index -> class index

    @property
    def m(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class Stabilization:
    stable: bool                       # always true: the tower is refined to its fixed point
    level: int
    checked_to: int

    def render(self) -> str:
        return f"stable at level {self.level} (verified through {self.checked_to})"


@dataclass(frozen=True)
class ClassMaps:
    """Where each class of level l+1 goes in level l."""

    parent: tuple[int, ...]                         # the level-l class containing it
    image: tuple[tuple[tuple[int, int], ...], ...]  # (symbol, level-l class after prepending it)


@dataclass(frozen=True)
class RestrictedMaps:
    """The level maps restricted to the coordinates with nonempty grade-k past."""

    inclusion: IntMatrix               # Z^{M_k^l} -> Z^{M_k^{l+1}}
    action: IntMatrix                  # Z^{M_k^l} -> Z^{M_{k+1}^{l+1}}
    delta: IntMatrix | None            # Z^{M_k^l} -> Z^{M_{k+1}^l}, only for k < l
    domain: tuple[int, ...]
    inclusion_range: tuple[int, ...]
    action_range: tuple[int, ...]
    delta_range: tuple[int, ...] | None


class PartitionChain:
    """The distinct levels 0..l0, their class maps and grade ranks 0..l0+1,
    shown through level ``length``."""

    def __init__(self, presentation, grade_ranks, tower, maps, reach, reach_limit, length):
        self.presentation: Presentation = presentation
        self.grade_ranks: tuple[tuple[int, ...], ...] = grade_ranks
        self.tower: tuple[PartitionLevel, ...] = tower      # levels 0..l0, all distinct
        self.maps: tuple[ClassMaps, ...] = maps             # level l+1 -> level l, l = 0..l0
        self.length = length
        self.levels: tuple[PartitionLevel, ...] = tuple(self.level(l) for l in range(length + 1))
        self.reach: tuple[frozenset[int], ...] = reach      # grades 0..min(K, length)
        self.reach_limit: frozenset[int] = reach_limit
        l0 = len(tower) - 1
        self.stabilization = Stabilization(True, l0, max(length, l0 + 1))
        self.stationary = None   # its invariants.StationarySystem, made on first request

    def level(self, l: int) -> PartitionLevel:
        """Level l for any l >= 0; the levels past the stable level are that level."""
        return self.tower[min(l, len(self.tower) - 1)]

    def m(self, level: int) -> int:
        return self.level(level).m

    def reach_set(self, k: int) -> frozenset[int]:
        """Contexts with a predecessor word of length k (past the last set held, that set)."""
        return self.reach[min(k, len(self.reach) - 1)]

    @property
    def m_sequence(self) -> tuple[int, ...]:
        return tuple(lv.m for lv in self.levels)


def _next_grade(steps, prev: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical rank of each context under the next single-grade equivalence.
    Keys of (-letter, rank) pairs sort as rank vectors with -1 where undefined."""
    keys = [tuple((-a, prev[t]) for a, t in row) for row in steps]
    order = {key: r for r, key in enumerate(sorted(set(keys)))}
    return tuple(order[key] for key in keys)


def _level(level_id) -> PartitionLevel:
    members: list[list[int]] = [[] for _ in range(max(level_id) + 1)]
    for i, cid in enumerate(level_id):
        members[cid].append(i)
    return PartitionLevel(tuple(map(tuple, members)), tuple(level_id))


def _refine(steps):
    """Grade ranks 0..l0+1 and the distinct levels 0..l0, l0 the first fixed point.

    Class ids rank the grade-rank vectors (grade 0, ..., grade l).  The levels
    are nested, so the first step that adds no class changes no partition and,
    ranking (old id, grade), no id.  Every other step adds a class, so the
    loop ends by step len(steps).
    """
    grade = [(0,) * len(steps)]
    level_id = grade[0]
    tower = [_level(level_id)]
    while True:
        grade.append(_next_grade(steps, grade[-1]))
        keys = list(zip(level_id, grade[-1]))
        order = {key: r for r, key in enumerate(sorted(set(keys)))}
        if len(order) == tower[-1].m:
            return grade, tower
        level_id = tuple(order[key] for key in keys)
        tower.append(_level(level_id))


def _class_maps(steps, fine: PartitionLevel, coarse: PartitionLevel) -> ClassMaps:
    """Parent and image pairs of each fine class, checked to be single-valued.

    Each map is one pass over the contexts: the first context of a fine class
    sets its coarse id and its (symbol, coarse id) pairs, and every other
    context must agree.
    """
    fine_of, coarse_of = fine.class_of, coarse.class_of
    parent = {}
    for f, c in zip(fine_of, coarse_of):
        if parent.setdefault(f, c) != c:
            raise ConsistencyError("a refined class straddles two coarser classes")
    image = {}
    for f, row in zip(fine_of, steps):
        pairs = tuple((a, coarse_of[t]) for a, t in row)
        if image.setdefault(f, pairs) != pairs:
            _raise_first_conflict(steps, fine_of, coarse_of)
    return ClassMaps(tuple(parent[f] for f in range(fine.m)),
                     tuple(image[f] for f in range(fine.m)))


def _raise_first_conflict(steps, fine_of, coarse_of) -> None:
    """Raise the error of the first symbol, then context, at which two
    contexts of one fine class disagree; one does when their pairs differ."""
    for a in sorted({a for row in steps for a, _ in row}):
        seen = {}
        for f, row in zip(fine_of, steps):
            t = next((coarse_of[t] for b, t in row if b == a), None)
            first = seen.setdefault(f, t)
            if first != t:
                if first is None or t is None:
                    raise ConsistencyError(
                        f"prepending symbol {a} is defined on part of a class only")
                raise StraddleError(f"prepending symbol {a} moves one class into two classes")


def past_partition(p: Presentation, level: int) -> PartitionLevel:
    """Contexts grouped by equality of all predecessor sets up to ``level``."""
    if level < 0:
        raise ValidationError("level must be >= 0")
    tower = _refine(p.steps)[1]
    return tower[min(level, len(tower) - 1)]


def _reach_sets(steps, upto: int):
    """Contexts with a predecessor word of each length 0..min(K, upto), and of
    every length: those that start an infinite path of steps.  One trim gives
    both: a context has words of length k when it is live or its longest path
    has k steps or more, so from grade K, the longest path plus one, every
    set is the live set."""
    live, longest = _live({i: [t for _, t in row] for i, row in enumerate(steps)})
    top = min(max(longest.values(), default=-1) + 1, upto)
    reach = tuple(frozenset(live.union(i for i, d in longest.items() if d >= k))
                  for k in range(top + 1))
    return reach, frozenset(live)


def build_chain(p: Presentation, length: int) -> PartitionChain:
    """The tower refined to its stable level, its class maps, and the reach sets.

    ``length`` bounds only what the chain shows (levels, maps, M-sets,
    reach sets); the tower, its maps and grade ranks 0..l0+1 never depend on it.
    """
    if length < 1:
        raise ValidationError("chain length must be >= 1")
    steps = p.steps
    grade, tower = _refine(steps)
    maps = tuple(_class_maps(steps, fine, coarse)
                 for coarse, fine in zip(tower, tower[1:] + tower[-1:]))
    reach, reach_limit = _reach_sets(steps, length)
    return PartitionChain(p, tuple(grade), tuple(tower), maps, reach, reach_limit, length)


# ---------------------------------------------------------------------------
# matrices over the tower


def _check_level(chain: PartitionChain, l: int) -> None:
    if not 0 <= l < chain.length:
        raise ValidationError(f"level {l} out of range; chain has matrices for 0..{chain.length - 1}")


def _level_matrix(chain: PartitionChain, l: int, inclusion: int, action: int) -> IntMatrix:
    """m(l+1) x m(l): ``inclusion`` at each parent, plus ``action`` at each symbol's image."""
    maps = chain.maps[min(l, len(chain.maps) - 1)]
    out = [[0] * chain.m(l) for _ in maps.parent]
    for i, j in enumerate(maps.parent):
        out[i][j] += inclusion
    for i, row in enumerate(maps.image):
        for _, j in row:
            out[i][j] += action
    return IntMatrix._trusted(len(out), chain.m(l), tuple(map(tuple, out)))


def inclusion_matrix(chain: PartitionChain, l: int) -> IntMatrix:
    """0/1 matrix with one 1 per row: class i of level l+1 inside class j of level l."""
    _check_level(chain, l)
    return _level_matrix(chain, l, 1, 0)


def action_sum(chain: PartitionChain, l: int) -> IntMatrix:
    """Entry (i, j): how many symbols map class i of level l+1 into class j of level l."""
    _check_level(chain, l)
    return _level_matrix(chain, l, 0, 1)


def stable_step_map(chain: PartitionChain) -> IntMatrix:
    """The action sum at the stable level, a square matrix, whatever the chain length."""
    return _level_matrix(chain, chain.stabilization.level, 0, 1)


def _membership(chain: PartitionChain, l: int, subset) -> tuple[str, ...]:
    """Per class of level l: '+' all its contexts lie in ``subset``, '-' none, '~' mixed."""
    out = []
    for cls in chain.level(l).classes:
        inside = [i in subset for i in cls]
        out.append("+" if all(inside) else "-" if not any(inside) else "~")
    return tuple(out)


def _classes_inside(chain: PartitionChain, l: int, subset, what: str) -> tuple[int, ...]:
    marks = _membership(chain, l, subset)
    if "~" in marks:
        raise ConsistencyError(f"{what} is not constant on a class")
    return tuple(ci for ci, mark in enumerate(marks) if mark == "+")


def m_index_set(chain: PartitionChain, k: int, l: int) -> tuple[int, ...]:
    """Classes of level l whose grade-k predecessor set is nonempty."""
    if not 0 <= k <= l <= chain.length:
        raise ValidationError("need 0 <= k <= l <= chain length")
    return _classes_inside(chain, l, chain.reach_set(k), "grade-k reachability")


def restricted_maps(chain: PartitionChain, k: int, l: int) -> RestrictedMaps:
    """The inclusion/action/projection maps on the M-indexed coordinates."""
    if not 0 <= k <= l:
        raise ValidationError("need 0 <= k <= l")
    _check_level(chain, l)
    dom = m_index_set(chain, k, l)
    inc_range = m_index_set(chain, k, l + 1)
    act_range = m_index_set(chain, k + 1, l + 1)

    maps = chain.maps[min(l, len(chain.maps) - 1)]
    dom_set, inc_range_set, act_range_set = set(dom), set(inc_range), set(act_range)
    if any(j in dom_set and i not in inc_range_set for i, j in enumerate(maps.parent)):
        raise ConsistencyError("inclusion leaves the grade-k coordinates")
    if any(j in dom_set and i not in act_range_set
           for i, row in enumerate(maps.image) for _, j in row):
        raise ConsistencyError("action leaves the grade-(k+1) coordinates")

    inc = inclusion_matrix(chain, l).submatrix(inc_range, dom)
    act = action_sum(chain, l).submatrix(act_range, dom)

    delta = None
    delta_range = None
    if k < l:
        delta_range = m_index_set(chain, k + 1, l)
        delta = IntMatrix._trusted(len(delta_range), len(dom), tuple(
            tuple(1 if i == j else 0 for j in dom) for i in delta_range))
    return RestrictedMaps(inc, act, delta, dom, inc_range, act_range, delta_range)


def persistent_classes(chain: PartitionChain, l: int) -> tuple[int, ...]:
    """Classes of level l whose predecessor sets are nonempty in every grade.

    Persistence is constant on classes of stabilized levels; calling this on
    a level that still mixes persistent and dying contexts is an error.
    """
    return _classes_inside(chain, l, chain.reach_limit, "persistent reachability")


def persistence_markers(chain: PartitionChain, l: int) -> tuple[str, ...]:
    """Per-class display marker: '+' all persistent, '-' none, '~' mixed."""
    return _membership(chain, l, chain.reach_limit)


def class_signatures(chain: PartitionChain) -> tuple[tuple, ...]:
    """Per class of the last level shown, its predecessor words for each grade
    k <= ``chain.length``: ("w", words...) with the sorted length-k words of
    the class's first context, or ("e", rank) with its grade-k rank once that
    context has more than SIGNATURE_WORD_LIMIT words in some grade <= k.

    A class of level l is a union of these classes, and its first context is
    the first context of one of them, whose first l+1 entries are its
    signature.  A grade past ``chain.grade_ranks`` is ranked only if shown.
    """
    steps = chain.presentation.steps
    grade = list(chain.grade_ranks)
    out = []
    for cls in chain.levels[-1].classes:
        rep = cls[0]
        frontiers = predecessor_frontiers((rep,), steps, chain.length, SIGNATURE_WORD_LIMIT)
        sig = [("w",) + tuple(sorted(f)) for f in frontiers]
        for k in range(len(frontiers), chain.length + 1):
            while k >= len(grade):
                grade.append(_next_grade(steps, grade[-1]))
            sig.append(("e", grade[k][rep]))
        out.append(tuple(sig))
    return tuple(out)


# ---------------------------------------------------------------------------
# export


def _signature_json(p: Presentation, sig) -> list:
    return [{"grade": k, "words": [p.alphabet.render_word(w) for w in entry[1:]]}
            if entry[0] == "w" else {"grade": k, "elided": True, "rank": entry[1]}
            for k, entry in enumerate(sig)]


def matrices_to_json(chain: PartitionChain) -> list[dict]:
    """Per level l < length, the class maps from level l+1 to level l: per class
    its parent and, per symbol that can be prepended, the class it lands in,
    the 1s of its row in the inclusion and in that symbol's action matrix."""
    symbols = chain.presentation.alphabet.symbols
    out = []
    for l in range(chain.length):
        maps = chain.maps[min(l, len(chain.maps) - 1)]
        out.append({
            "level": l,
            "m": chain.m(l),
            "m_next": chain.m(l + 1),
            "classes": [{"parent": j, "image": {symbols[a]: t for a, t in row}}
                        for j, row in zip(maps.parent, maps.image)],
        })
    return out


def chain_to_json(chain: PartitionChain) -> dict:
    """Chain export: class signatures, levels, M-sets, stabilization (the
    class maps are ``matrices_to_json``).  ``signatures`` lists
    ``class_signatures`` once; a class of level l names in ``representative``
    the entry of its first context, and its signature is that one's first l+1 grades.
    ``m_sets`` stops at level max(l0, K), K the last grade in ``chain.reach``: a later
    level is level l0, with the last entry's sets and its final grade repeated."""
    p = chain.presentation
    last = chain.levels[-1]
    levels = []
    for l, lv in enumerate(chain.levels):
        levels.append({
            "level": l,
            "m": lv.m,
            "classes": [
                {
                    "contexts": [p.render_context(p.contexts[i]) for i in cls],
                    "representative": last.class_of[cls[0]],
                }
                for cls in lv.classes
            ],
        })
    m_sets = []
    for l in range(min(chain.length, max(chain.stabilization.level, len(chain.reach) - 1)) + 1):
        m_sets.append({
            "level": l,
            "by_grade": [list(m_index_set(chain, k, l)) for k in range(l + 1)],
            "persistence": list(persistence_markers(chain, l)),
        })
    return {
        "m_sequence": list(chain.m_sequence),
        "stabilization": asdict(chain.stabilization),
        "signatures": [_signature_json(p, sig) for sig in class_signatures(chain)],
        "levels": levels,
        "m_sets": m_sets,
    }
