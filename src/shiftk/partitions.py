"""Past-equivalence partitions of a shift space and the matrix tower over them.

Two points are level-l equivalent when their predecessor sets agree in every
grade up to l.  On the finite context carrier this is a partition refinement
over the prepend transition, which never enumerates words: contexts get a
rank per grade (``_grade_ranks``), and the classes of level l are the
distinct rank vectors (grade 0, ..., grade l), numbered in the lexicographic
order of those vectors.  The order is intrinsic to the transition, so it
does not depend on context names or on any size limit.  Predecessor words
are enumerated only to display the classes (``class_signatures``).

Level l+1 is level 0 refined by the level-l classes of the successors (Moore
refinement), so the first step that adds no class is a fixed point: every
later level is the same partition.  The tower is refined and its matrices
are built only up to that stable level; the levels past it are that level
itself, and the chain length (``lmax``) only bounds how many are shown.

The matrices attached to consecutive levels follow the source's indexing:
entry (i, j) of the inclusion matrix is 1 when class i of level l+1 is
contained in class j of level l, and entry (i, j) of the per-symbol action
matrix is 1 when prepending that symbol maps class i of level l+1 into
class j of level l (never into two classes; that would be a hard internal
error).
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

    @property
    def size(self) -> int:
        return len(self.contexts)


@dataclass(frozen=True)
class PartitionLevel:
    classes: tuple[PartitionClass, ...]
    class_of: tuple[int, ...]          # context index -> class index

    @property
    def m(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class Stabilization:
    stable: bool
    level: int | None
    checked_to: int

    def render(self) -> str:
        if self.stable:
            return f"stable at level {self.level} (verified through {self.checked_to})"
        return f"not stable within {self.checked_to} levels"


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
    """Partition levels 0..length plus the inclusion/action matrices between them."""

    def __init__(self, presentation, steps, grade_ranks, levels, inclusion, actions, reach,
                 reach_limit, stabilization):
        self.presentation: Presentation = presentation
        self.steps = steps
        self.grade_ranks: tuple[tuple[int, ...], ...] = grade_ranks
        self.levels: tuple[PartitionLevel, ...] = levels
        self.length = len(levels) - 1
        self._inclusion: tuple[IntMatrix, ...] = inclusion
        self._actions: tuple[dict, ...] = actions
        self.reach: tuple[frozenset[int], ...] = reach
        self.reach_limit: frozenset[int] = reach_limit
        self.stabilization: Stabilization = stabilization
        self._signature_words: dict[int, list] = {}   # context -> sorted words per grade

    def m(self, level: int) -> int:
        return self.levels[level].m

    @property
    def m_sequence(self) -> tuple[int, ...]:
        return tuple(lv.m for lv in self.levels)


def _step_table(p: Presentation):
    ctxs = p.contexts
    idx = p.context_index
    steps = []
    for c in ctxs:
        row = []
        for a in p.alphabet:
            c2 = p.prepend_context(c, a)
            if c2 is None:
                row.append(None)
            else:
                j = idx.get(c2)
                if j is None:
                    raise ConsistencyError("prepending left the realizable context set")
                row.append(j)
        steps.append(tuple(row))
    return tuple(steps)


def _grade_ranks(steps, n_letters: int, upto: int):
    """Canonical rank of each context under single-grade equivalence, per grade."""
    n = len(steps)
    ranks = [(0,) * n]
    for _ in range(upto):
        prev = ranks[-1]
        keys = [
            tuple(-1 if steps[i][a] is None else prev[steps[i][a]] for a in range(n_letters))
            for i in range(n)
        ]
        order = {key: r for r, key in enumerate(sorted(set(keys)))}
        ranks.append(tuple(order[key] for key in keys))
    return tuple(ranks)


def _build_levels(p: Presentation, upto: int):
    """Levels 0..upto and the first stable level (None if not reached before upto).

    Class ids rank the grade-rank vectors (grade 0, ..., grade l).  The levels
    are nested, so the first step that adds no class changes no partition and,
    ranking (old id, grade), no id; the levels after it are that same object.
    """
    steps = _step_table(p)
    n = len(steps)
    grade = _grade_ranks(steps, len(p.alphabet), upto)
    levels = []
    level_id = [0] * n
    for l in range(upto + 1):
        if l > 0:
            keys = [(level_id[i], grade[l][i]) for i in range(n)]
            order = {key: r for r, key in enumerate(sorted(set(keys)))}
            if len(order) == levels[-1].m:
                stable = l - 1
                return steps, grade, tuple(levels) + (levels[-1],) * (upto - stable), stable
            level_id = [order[key] for key in keys]
        members: list[list[int]] = [[] for _ in range(max(level_id) + 1)]
        for i, cid in enumerate(level_id):
            members[cid].append(i)
        classes = tuple(PartitionClass(tuple(ms)) for ms in members)
        levels.append(PartitionLevel(classes, tuple(level_id)))
    return steps, grade, tuple(levels), None


def past_partition(p: Presentation, level: int) -> PartitionLevel:
    """Contexts grouped by equality of all predecessor sets up to ``level``."""
    if level < 0:
        raise ValidationError("level must be >= 0")
    return _build_levels(p, level)[2][level]


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
    """Levels 0..length, inter-level matrices, reach sets, stabilization.

    Past the stable level the matrices repeat its identity step.
    """
    if length < 1:
        raise ValidationError("chain length must be >= 1")
    steps, grade, levels, stable_level = _build_levels(p, length)
    n_letters = len(p.alphabet)

    inclusion = []
    actions = []
    for l in range(length if stable_level is None else stable_level + 1):
        fine, coarse = levels[l + 1], levels[l]
        rows = []
        for cls in fine.classes:
            targets = {coarse.class_of[i] for i in cls.contexts}
            if len(targets) != 1:
                raise ConsistencyError("a refined class straddles two coarser classes")
            j = targets.pop()
            rows.append(tuple(1 if jj == j else 0 for jj in range(coarse.m)))
        inclusion.append(IntMatrix.from_rows(rows))

        per_symbol = {}
        for a in range(n_letters):
            rows = []
            for cls in fine.classes:
                images = [steps[i][a] for i in cls.contexts]
                defined = [x for x in images if x is not None]
                if defined and len(defined) != len(images):
                    raise ConsistencyError(
                        f"prepending symbol {a} is defined on part of a class only")
                row = [0] * coarse.m
                if defined:
                    targets = {coarse.class_of[x] for x in defined}
                    if len(targets) != 1:
                        raise StraddleError(
                            f"prepending symbol {a} moves one class into two classes")
                    row[targets.pop()] = 1
                rows.append(tuple(row))
            per_symbol[a] = IntMatrix.from_rows(rows)
        actions.append(per_symbol)
    tail = length - len(inclusion)
    inclusion += inclusion[-1:] * tail
    actions += actions[-1:] * tail

    reach, reach_limit = _reach_sets(steps, n_letters, length)
    stab = Stabilization(stable_level is not None, stable_level, length)
    return PartitionChain(p, steps, grade, levels, tuple(inclusion), tuple(actions),
                          reach, reach_limit, stab)


# ---------------------------------------------------------------------------
# matrices over the tower


def _check_level(chain: PartitionChain, l: int) -> None:
    if not 0 <= l < chain.length:
        raise ValidationError(f"level {l} out of range; chain has matrices for 0..{chain.length - 1}")


def inclusion_matrix(chain: PartitionChain, l: int) -> IntMatrix:
    """0/1 matrix with one 1 per row: class i of level l+1 inside class j of level l."""
    _check_level(chain, l)
    return chain._inclusion[l]


def action_matrices(chain: PartitionChain, l: int) -> dict[int, IntMatrix]:
    """Per-symbol 0/1 matrices: prepending the symbol maps class i (level l+1) into class j (level l)."""
    _check_level(chain, l)
    return dict(chain._actions[l])


def action_sum(chain: PartitionChain, l: int) -> IntMatrix:
    _check_level(chain, l)
    per = chain._actions[l]
    total = IntMatrix.zeros(chain.m(l + 1), chain.m(l))
    for a in sorted(per):
        total = total.add(per[a])
    return total


def bowen_franks_matrix(chain: PartitionChain, l: int) -> IntMatrix:
    """Inclusion minus summed action; its cokernel/kernel carry the K-data."""
    return inclusion_matrix(chain, l).sub(action_sum(chain, l))


def _membership(chain: PartitionChain, l: int, subset) -> tuple[str, ...]:
    """Per class of level l: '+' all its contexts lie in ``subset``, '-' none, '~' mixed."""
    out = []
    for cls in chain.levels[l].classes:
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
        delta = IntMatrix.from_rows(
            [[1 if i == j else 0 for j in dom] for i in delta_range])
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
    steps = chain.steps
    out = []
    for cls in chain.levels[level].classes:
        rep = cls.contexts[0]
        words = chain._signature_words.get(rep)
        if words is None:
            frontiers = predecessor_frontiers(
                rep, lambda i, a: steps[i][a], range(len(chain.presentation.alphabet)),
                chain.length, SIGNATURE_WORD_LIMIT)
            words = chain._signature_words[rep] = [tuple(sorted(f)) for f in frontiers]
        out.append(tuple(
            ("w",) + words[k] if k < len(words) else ("e", chain.grade_ranks[k][rep])
            for k in range(level + 1)))
    return tuple(out)


# ---------------------------------------------------------------------------
# export


def _signature_json(p: Presentation, sig) -> list:
    out = []
    for k, entry in enumerate(sig):
        if entry[0] == "w":
            out.append({"grade": k, "words": [p.alphabet.render_word(w) for w in entry[1:]]})
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
    levels = []
    for l, lv in enumerate(chain.levels):
        levels.append({
            "level": l,
            "m": lv.m,
            "classes": [
                {
                    "contexts": [p.render_context(p.contexts[i]) for i in cls.contexts],
                    "signature": _signature_json(p, sig),
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
