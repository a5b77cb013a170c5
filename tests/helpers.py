"""Brute-force oracles kept independent of the production algorithms."""

import random

from shiftk import Point, SoficShift, ValidationError, parse_presentation
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


def random_sofic(rng: random.Random) -> dict:
    """A random labeled graph on 1-4 states over 1-3 letters, as JSON (maybe empty once trimmed)."""
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    letters = [str(i) for i in range(rng.randint(1, 3))]
    edges = {(rng.choice(states), rng.choice(states), rng.choice(letters))
             for _ in range(rng.randint(1, 3 * len(states)))}
    return {"type": "sofic", "states": states, "edges": [list(e) for e in sorted(edges)]}


def random_presentation(rng: random.Random) -> dict:
    """A small random SFT (forbidden words), sofic graph or finite shift, as JSON."""
    kind = rng.randrange(3)
    if kind == 0:
        n_letters = rng.randint(1, 3)
        alphabet = [str(i) for i in range(n_letters)]
        forb = {tuple(rng.randrange(n_letters) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 4))}
        return {"type": "sft", "alphabet": alphabet,
                "forbidden": [[alphabet[a] for a in w] for w in sorted(forb)]}
    if kind == 1:
        return random_sofic(rng)
    n_letters = rng.randint(1, 2)
    alphabet = [str(i) for i in range(n_letters)]
    pts = set()
    for _ in range(rng.randint(1, 3)):
        x = Point(tuple(rng.randrange(n_letters) for _ in range(rng.randint(0, 2))),
                  tuple(rng.randrange(n_letters) for _ in range(rng.randint(1, 3))))
        for _ in range(8):
            pts.add(x)
            x = x.shift()
    return {"type": "finite", "alphabet": alphabet,
            "points": [{"pre": [alphabet[a] for a in p.pre],
                        "per": [alphabet[a] for a in p.per]}
                       for p in sorted(pts, key=lambda q: q.sort_key)]}


def random_memory_sft(rng: random.Random, m: int) -> dict:
    """Binary SFT with a few random forbidden words of length m + 1."""
    while True:
        forbidden = sorted({tuple(rng.choice("01") for _ in range(m + 1)) for _ in range(3)})
        obj = {"type": "sft", "alphabet": ["0", "1"], "forbidden": [list(w) for w in forbidden]}
        try:
            parse_presentation(obj)
        except ValidationError:
            continue
        return obj


def periodic_orbit(n: int) -> dict:
    """The orbit of (0^(n-1) 1)^inf: n points, one per rotation."""
    word = ["0"] * (n - 1) + ["1"]
    return {"type": "finite", "alphabet": ["0", "1"],
            "points": [{"pre": [], "per": word[i:] + word[:i]} for i in range(n)]}


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


def random_finite_shift(rng: random.Random, max_letters: int = 2, max_points: int = 9) -> dict:
    """A random finite shift as JSON: the shift orbits of 1-3 random points over
    2..max_letters letters (one letter, whose only shift is a fixed point, a tenth
    of the time), redrawn until it has at most ``max_points`` points."""
    while True:
        k = 1 if max_letters == 1 or rng.random() < 0.1 else rng.randint(2, max_letters)
        pts = set()
        for _ in range(rng.randint(1, 3)):
            x = Point(tuple(rng.randrange(k) for _ in range(rng.randint(0, 3))),
                      tuple(rng.randrange(k) for _ in range(rng.randint(1, 3))))
            while x not in pts:
                pts.add(x)
                x = x.shift()
        if len(pts) <= max_points:
            break
    alphabet = [str(a) for a in range(k)]
    return {"type": "finite", "alphabet": alphabet,
            "points": [{"pre": [alphabet[a] for a in p.pre], "per": [alphabet[a] for a in p.per]}
                       for p in sorted(pts, key=lambda q: q.sort_key)]}
