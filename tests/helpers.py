"""Brute-force oracles kept independent of the production algorithms."""

import random

from shiftk import Point, SoficShift
from shiftk.presentations import Presentation


def oracle_predecessors(p: Presentation, x: Point, k: int) -> list:
    """P_k(x) by direct membership tests over all length-k words."""
    return [u for u in p.alphabet.words_of_length(k) if p.contains(x.prepend(u))]


def oracle_graded(p: Presentation, x: Point, upto: int) -> tuple:
    return tuple(tuple(oracle_predecessors(p, x, k)) for k in range(upto + 1))


def oracle_state_set(p: SoficShift, x: Point) -> frozenset:
    """States reading x, by iterated whole-word preimages (no production gfp)."""
    by_letter = {}
    for (q, r, a) in p.edges:
        by_letter.setdefault(a, []).append((q, r))

    def pre_word(word, states):
        for a in reversed(word):
            states = {q for (q, r) in by_letter.get(a, ()) if r in states}
        return states

    current = set(range(len(p.states)))
    for _ in range(len(p.states) + 2):
        nxt = pre_word(x.per, current)
        if nxt == current:
            break
        current = nxt
    else:
        raise AssertionError("periodic preimage iteration failed to stabilize")
    return frozenset(pre_word(x.pre, current))


def class_witnesses(p: Presentation):
    """One point per realizable context, via the presentation's witness search."""
    return [(ctx, p.witness(ctx)) for ctx in p.contexts]


def oracle_partition(p: Presentation, level: int):
    """Contexts grouped by brute-force graded predecessor sets of witnesses."""
    groups = {}
    for ctx, x in class_witnesses(p):
        key = oracle_graded(p, x, level)
        groups.setdefault(key, set()).add(ctx)
    return frozenset(frozenset(g) for g in groups.values())


def partition_as_context_groups(p: Presentation, level) -> frozenset:
    return frozenset(
        frozenset(p.contexts[i] for i in cls.contexts) for cls in level.classes)


def random_essential_adjacency(rng: random.Random, n: int) -> list:
    """Random 0/1 matrix with no zero row or column."""
    while True:
        m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in m) and all(any(m[i][j] for i in range(n)) for j in range(n)):
            return m


def random_unimodular(rng: random.Random, n: int, ops: int = 12):
    """Product of random elementary row operations applied to the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def oracle_cylinder_indicators(p, max_len: int) -> set:
    """Distinct indicators of {v.y : y and u.y in the shift} over |u|, |v| <= max_len,
    by direct prefix and membership tests on the points of a finite shift."""
    words = [w for k in range(max_len + 1) for w in p.alphabet.words_of_length(k)]
    out = set()
    for u in words:
        for v in words:
            out.add(tuple(
                x.prefix(len(v)) == tuple(v) and p.contains(x.shift_by(len(v)).prepend(u))
                for x in p.points))
    return out


def model_check_counts(n_words: int, n_letters: int, n_funcs: int, max_len: int) -> dict:
    """Closed-form number of identities each report of ``run_all_checks`` records:
    W words up to length L over a letters, F test functions."""
    w, a, f = n_words, n_letters, n_funcs
    return {
        "representation": 2 * w * w,
        "structure": 2 + 4 * w + sum(a ** k * (a ** k - 1) for k in range(1, max_len + 1)),
        "composition rules": 3 * w * f + max_len * (2 * f + 1),
    }
