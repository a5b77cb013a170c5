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
each class, and per symbol the class it lands in once the symbol is
prepended.  The levels past l0 are level l0 itself.  The chain length
(``lmax``) only bounds which levels, matrices, M-sets and reach sets are
shown and checked; the stable level and the limit data never depend on it.

The matrices are built from the class maps on demand and follow the
source's indexing: entry (i, j) of the inclusion matrix is 1 when class i of
level l+1 is contained in class j of level l, and entry (i, j) of the
per-symbol action matrix is 1 when prepending that symbol maps class i of
level l+1 into class j of level l (never into two classes; that would be a
hard internal error).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import ConsistencyError, StraddleError, ValidationError
from .intlinalg import IntMatrix
from .presentations import Presentation, predecessor_frontiers

# Predecessor words shown per grade; a larger grade is shown as its rank.
SIGNATURE_WORD_LIMIT = 20000


@dataclass(frozen=True)
class PartitionClass:
    contexts: tuple[int, ...]          # context indices, sorted


@dataclass(frozen=True)
class PartitionLevel:
    classes: tuple[PartitionClass, ...]
    class_of: tuple[int, ...]          # context index -> class index

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

    parent: tuple[int, ...]                    # the level-l class containing it
    image: tuple[tuple[int | None, ...], ...]  # per symbol: the level-l class after prepending it


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
    """The distinct levels 0..l0 and their class maps, shown through level ``length``."""

    def __init__(self, presentation, grade_ranks, tower, maps, reach, reach_limit, length):
        self.presentation: Presentation = presentation
        self.grade_ranks: tuple[tuple[int, ...], ...] = grade_ranks
        self.tower: tuple[PartitionLevel, ...] = tower      # levels 0..l0, all distinct
        self.maps: tuple[ClassMaps, ...] = maps             # level l+1 -> level l, l = 0..l0
        self.length = length
        self.levels: tuple[PartitionLevel, ...] = tuple(self.level(l) for l in range(length + 1))
        self.reach: tuple[frozenset[int], ...] = reach
        self.reach_limit: frozenset[int] = reach_limit
        l0 = len(tower) - 1
        self.stabilization = Stabilization(True, l0, max(length, l0 + 1))
        self._signature_words: dict[int, list] = {}   # context -> sorted words per grade
        self.stationary = None   # its invariants.StationarySystem, made on first request

    def level(self, l: int) -> PartitionLevel:
        """Level l for any l >= 0; the levels past the stable level are that level."""
        return self.tower[min(l, len(self.tower) - 1)]

    def m(self, level: int) -> int:
        return self.level(level).m

    @property
    def m_sequence(self) -> tuple[int, ...]:
        return tuple(lv.m for lv in self.levels)


def _next_grade(steps, n_letters: int, prev: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical rank of each context under the next single-grade equivalence."""
    keys = [tuple(-1 if s[a] is None else prev[s[a]] for a in range(n_letters)) for s in steps]
    order = {key: r for r, key in enumerate(sorted(set(keys)))}
    return tuple(order[key] for key in keys)


def _level(level_id) -> PartitionLevel:
    members: list[list[int]] = [[] for _ in range(max(level_id) + 1)]
    for i, cid in enumerate(level_id):
        members[cid].append(i)
    return PartitionLevel(tuple(PartitionClass(tuple(ms)) for ms in members), tuple(level_id))


def _refine(steps, n_letters: int):
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
        grade.append(_next_grade(steps, n_letters, grade[-1]))
        keys = list(zip(level_id, grade[-1]))
        order = {key: r for r, key in enumerate(sorted(set(keys)))}
        if len(order) == tower[-1].m:
            return grade, tower
        level_id = tuple(order[key] for key in keys)
        tower.append(_level(level_id))


def _class_maps(steps, n_letters: int, fine: PartitionLevel, coarse: PartitionLevel) -> ClassMaps:
    """Parent and per-symbol image of each fine class, checked to be single-valued.

    Each map is one pass over the contexts: the first context of a fine class
    sets its coarse id (or None), and every other context must agree.
    """
    fine_of, coarse_of = fine.class_of, coarse.class_of
    parent = {}
    for f, c in zip(fine_of, coarse_of):
        if parent.setdefault(f, c) != c:
            raise ConsistencyError("a refined class straddles two coarser classes")
    image = []
    for a in range(n_letters):
        row = {}
        for f, s in zip(fine_of, steps):
            t = None if s[a] is None else coarse_of[s[a]]
            first = row.setdefault(f, t)
            if first != t:
                if first is None or t is None:
                    raise ConsistencyError(
                        f"prepending symbol {a} is defined on part of a class only")
                raise StraddleError(f"prepending symbol {a} moves one class into two classes")
        image.append(tuple(row[f] for f in range(fine.m)))
    return ClassMaps(tuple(parent[f] for f in range(fine.m)), tuple(image))


def past_partition(p: Presentation, level: int) -> PartitionLevel:
    """Contexts grouped by equality of all predecessor sets up to ``level``."""
    if level < 0:
        raise ValidationError("level must be >= 0")
    tower = _refine(p.steps, len(p.alphabet))[1]
    return tower[min(level, len(tower) - 1)]


def _reach_sets(steps, n_letters: int, upto: int):
    """Contexts with a predecessor word of each length 0..upto, and of every length."""
    def shrink(cur):
        return frozenset(
            i for i in cur
            if any(steps[i][a] is not None and steps[i][a] in cur for a in range(n_letters))
        )

    reach = [frozenset(range(len(steps)))]
    for _ in range(upto):
        reach.append(shrink(reach[-1]))
    cur = reach[-1]
    while (nxt := shrink(cur)) != cur:
        cur = nxt
    return tuple(reach), cur


def build_chain(p: Presentation, length: int) -> PartitionChain:
    """The tower refined to its stable level, its class maps, and the reach sets.

    ``length`` bounds only what the chain shows (levels, matrices, M-sets,
    reach sets); the tower and its maps are the same for every length.
    """
    if length < 1:
        raise ValidationError("chain length must be >= 1")
    steps = p.steps
    n_letters = len(p.alphabet)
    grade, tower = _refine(steps, n_letters)
    while len(grade) <= length:
        grade.append(_next_grade(steps, n_letters, grade[-1]))
    maps = tuple(_class_maps(steps, n_letters, fine, coarse)
                 for coarse, fine in zip(tower, tower[1:] + tower[-1:]))
    reach, reach_limit = _reach_sets(steps, n_letters, length)
    return PartitionChain(p, tuple(grade), tuple(tower), maps, reach, reach_limit, length)


# ---------------------------------------------------------------------------
# matrices over the tower


def _check_level(chain: PartitionChain, l: int) -> None:
    if not 0 <= l < chain.length:
        raise ValidationError(f"level {l} out of range; chain has matrices for 0..{chain.length - 1}")


def _level_matrix(chain: PartitionChain, l: int, inclusion: int, symbols, action: int) -> IntMatrix:
    """m(l+1) x m(l): ``inclusion`` at each parent, plus ``action`` at each symbol's image."""
    maps = chain.maps[min(l, len(chain.maps) - 1)]
    out = [[0] * chain.m(l) for _ in maps.parent]
    for i, j in enumerate(maps.parent):
        out[i][j] += inclusion
    for a in symbols:
        for i, j in enumerate(maps.image[a]):
            if j is not None:
                out[i][j] += action
    return IntMatrix._trusted(len(out), chain.m(l), tuple(map(tuple, out)))


def inclusion_matrix(chain: PartitionChain, l: int) -> IntMatrix:
    """0/1 matrix with one 1 per row: class i of level l+1 inside class j of level l."""
    _check_level(chain, l)
    return _level_matrix(chain, l, 1, (), 0)


def action_matrices(chain: PartitionChain, l: int) -> dict[int, IntMatrix]:
    """Per-symbol 0/1 matrices: prepending the symbol maps class i (level l+1) into class j (level l)."""
    _check_level(chain, l)
    return {a: _level_matrix(chain, l, 0, (a,), 1) for a in range(len(chain.presentation.alphabet))}


def action_sum(chain: PartitionChain, l: int) -> IntMatrix:
    """Sum of the per-symbol action matrices."""
    _check_level(chain, l)
    return _level_matrix(chain, l, 0, range(len(chain.presentation.alphabet)), 1)


def stable_step_map(chain: PartitionChain) -> IntMatrix:
    """The action sum at the stable level, a square matrix, whatever the chain length."""
    return _level_matrix(chain, chain.stabilization.level, 0,
                         range(len(chain.presentation.alphabet)), 1)


def bowen_franks_matrix(chain: PartitionChain, l: int) -> IntMatrix:
    """Inclusion minus summed action; its cokernel/kernel carry the K-data."""
    _check_level(chain, l)
    return _level_matrix(chain, l, 1, range(len(chain.presentation.alphabet)), -1)


def _membership(chain: PartitionChain, l: int, subset) -> tuple[str, ...]:
    """Per class of level l: '+' all its contexts lie in ``subset``, '-' none, '~' mixed."""
    out = []
    for cls in chain.level(l).classes:
        inside = [i in subset for i in cls.contexts]
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
    return _classes_inside(chain, l, chain.reach[k], "grade-k reachability")


def restricted_maps(chain: PartitionChain, k: int, l: int) -> RestrictedMaps:
    """The inclusion/action/projection maps on the M-indexed coordinates."""
    if not 0 <= k <= l:
        raise ValidationError("need 0 <= k <= l")
    _check_level(chain, l)
    dom = m_index_set(chain, k, l)
    inc_range = m_index_set(chain, k, l + 1)
    act_range = m_index_set(chain, k + 1, l + 1)

    inc_full = inclusion_matrix(chain, l)
    act_full = action_sum(chain, l)
    inc_range_set, act_range_set = set(inc_range), set(act_range)
    for j in dom:
        for i in range(chain.m(l + 1)):
            if inc_full.entry(i, j) and i not in inc_range_set:
                raise ConsistencyError("inclusion leaves the grade-k coordinates")
            if act_full.entry(i, j) and i not in act_range_set:
                raise ConsistencyError("action leaves the grade-(k+1) coordinates")

    inc = inc_full.submatrix(inc_range, dom)
    act = act_full.submatrix(act_range, dom)

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


def class_signatures(chain: PartitionChain, level: int) -> tuple[tuple, ...]:
    """Per class of ``level``, its predecessor words for each grade k <= level.

    Grade k reads ("w", words...) with the sorted length-k predecessor words
    of the class's first context, or ("e", rank) with its grade-k rank once
    that context has more than SIGNATURE_WORD_LIMIT words in some grade <= k.
    Words are enumerated once per context and chain, only when asked for.
    """
    if not 0 <= level <= chain.length:
        raise ValidationError(f"level {level} out of range 0..{chain.length}")
    p = chain.presentation
    out = []
    for cls in chain.levels[level].classes:
        rep = cls.contexts[0]
        words = chain._signature_words.get(rep)
        if words is None:
            frontiers = predecessor_frontiers(
                (rep,), p.steps, len(p.alphabet), chain.length, SIGNATURE_WORD_LIMIT)
            words = chain._signature_words[rep] = [tuple(sorted(f)) for f in frontiers]
        out.append(tuple(
            ("w",) + words[k] if k < len(words) else ("e", chain.grade_ranks[k][rep])
            for k in range(level + 1)))
    return tuple(out)


# ---------------------------------------------------------------------------
# export


def _signature_json(p: Presentation, rep: int, sig, rendered: dict) -> list:
    """JSON of a class signature; ``rendered`` keeps each (representative,
    grade) word list rendered once, as every level repeats it."""
    out = []
    for k, entry in enumerate(sig):
        if entry[0] == "w":
            if (rep, k) not in rendered:
                rendered[rep, k] = [p.alphabet.render_word(w) for w in entry[1:]]
            out.append({"grade": k, "words": rendered[rep, k]})
        else:
            out.append({"grade": k, "elided": True, "rank": entry[1]})
    return out


def matrices_to_json(chain: PartitionChain) -> list[dict]:
    """Per level l < length: inclusion, per-symbol action, action sum, difference."""
    symbols = chain.presentation.alphabet.symbols
    return [
        {
            "level": l,
            "inclusion": inclusion_matrix(chain, l).to_lists(),
            "action": {
                symbols[a]: mat.to_lists()
                for a, mat in sorted(action_matrices(chain, l).items())
            },
            "action_sum": action_sum(chain, l).to_lists(),
            "bowen_franks": bowen_franks_matrix(chain, l).to_lists(),
        }
        for l in range(chain.length)
    ]


def chain_to_json(chain: PartitionChain) -> dict:
    """Chain export: class signatures, matrices row-major, M-sets, stabilization."""
    p = chain.presentation
    rendered = {}
    levels = []
    for l, lv in enumerate(chain.levels):
        levels.append({
            "level": l,
            "m": lv.m,
            "classes": [
                {
                    "contexts": [p.render_context(p.contexts[i]) for i in cls.contexts],
                    "signature": _signature_json(p, cls.contexts[0], sig, rendered),
                }
                for cls, sig in zip(lv.classes, class_signatures(chain, l))
            ],
        })
    m_sets = []
    for l in range(chain.length + 1):
        m_sets.append({
            "level": l,
            "by_grade": [list(m_index_set(chain, k, l)) for k in range(l + 1)],
            "persistence": list(persistence_markers(chain, l)),
        })
    return {
        "m_sequence": list(chain.m_sequence),
        "stabilization": asdict(chain.stabilization),
        "levels": levels,
        "matrices": matrices_to_json(chain),
        "m_sets": m_sets,
    }
