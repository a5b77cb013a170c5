"""Brute-force oracles kept independent of the production algorithms."""

import random
from fractions import Fraction
from itertools import permutations, product

from shiftk import (
    ConsistencyError,
    Point,
    SoficShift,
    StraddleError,
    ValidationError,
    parse_presentation,
)
from shiftk.intlinalg import IntMatrix, cokernel, matrix_rank
from shiftk.invariants import StationarySystem
from shiftk.model import FiniteModel, Matrix, _sum, mat_mul, mat_transpose, op_diagonal, op_word
from shiftk.partitions import _level
from shiftk.presentations import Presentation
from shiftk.words import Word

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def sparse_adjacency(rng: random.Random, n: int, extra: int) -> list:
    """0/1 matrix of a random permutation plus ``extra`` random entries per row."""
    perm = list(range(n))
    rng.shuffle(perm)
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n):
        adjacency[i][perm[i]] = 1
        for _ in range(extra):
            adjacency[i][rng.randrange(n)] = 1
    return adjacency


def memory1_forms(n: int, allowed, forbidden) -> list:
    """One shift over letters "0".."n-1" as ``sft_matrix``, as ``sft`` with the
    words ``forbidden`` and as ``sft_edges`` (in reverse order) with the pairs
    ``allowed``, the two-letter words the forbidden words allow."""
    symbols = [str(a) for a in range(n)]
    return [
        {"type": "sft_matrix",
         "adjacency": [[int((a, b) in allowed) for b in range(n)] for a in range(n)]},
        {"type": "sft", "alphabet": symbols,
         "forbidden": [[symbols[a] for a in w] for w in forbidden]},
        {"type": "sft_edges", "alphabet": symbols,
         "edges": [[symbols[a], symbols[b]] for a, b in sorted(allowed, reverse=True)]},
    ]


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
            out.add(tuple(in_cylinder(p, u, v, x) for x in p.points))
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


# ---------------------------------------------------------------------------
# compare oracle


def triple_invariants(s: StationarySystem) -> dict:
    """K0 from the cokernel of I - S, the kernel rank of I - S, and the limit
    rank as the rank of the core map raised to its dimension."""
    difference = IntMatrix.identity(s.rank).sub(s.step_map)
    core = s.core_map()
    power = IntMatrix.identity(core.rows)
    for _ in range(core.rows):
        power = power.mul(core)
    return {"k0": cokernel(difference).to_json(),
            "k1_rank": s.rank - matrix_rank(difference),
            "limit_rank": matrix_rank(power)}


def permutation_compare(s1: StationarySystem, s2: StationarySystem) -> tuple[str, str | None]:
    """Verdict and witness of ``compare_triples`` by trying every coordinate
    permutation in lexicographic order; rank! permutations, so small ranks only."""
    inv1 = triple_invariants(s1)
    inv2 = inv1 if s2 == s1 else triple_invariants(s2)
    for key in inv1:
        if inv1[key] != inv2[key]:
            return "distinguished", f"{key}: {inv1[key]} vs {inv2[key]}"

    if s1 == s2:
        return "equivalent", "identity intertwiner"

    if s1.rank == s2.rank:
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
                    return "equivalent", f"coordinate permutation {list(perm)}"

    return "inconclusive", None


def intertwines(s1: StationarySystem, s2: StationarySystem, perm) -> bool:
    """S2[p[i]][p[j]] == S1[i][j] for all i, j, and p maps s1's mask onto s2's."""
    a1, a2, n = s1.step_map.entries, s2.step_map.entries, s1.rank
    return (sorted(perm) == list(range(n)) == list(range(s2.rank))
            and {perm[i] for i in s1.delta_mask} == set(s2.delta_mask)
            and all(a1[i][j] == a2[perm[i]][perm[j]] for i in range(n) for j in range(n)))


# ---------------------------------------------------------------------------
# dense tower oracle: the refinement over the prepend table padded to the
# whole alphabet, one entry per (context, letter)


def dense_steps(p: Presentation) -> tuple:
    """``p.steps`` with one entry per letter: the target context, or None."""
    rows = []
    for row in p.steps:
        dense = [None] * len(p.alphabet)
        for a, t in row:
            dense[a] = t
        rows.append(tuple(dense))
    return tuple(rows)


def dense_next_grade(steps, n_letters: int, prev: tuple) -> tuple:
    """Canonical rank of each context under the next single-grade equivalence."""
    keys = [tuple(-1 if s[a] is None else prev[s[a]] for a in range(n_letters)) for s in steps]
    order = {key: r for r, key in enumerate(sorted(set(keys)))}
    return tuple(order[key] for key in keys)


def dense_class_maps(steps, n_letters: int, fine, coarse) -> tuple:
    """Parent and per-symbol image (None where undefined) of each fine class,
    checked to be single-valued, letter by letter."""
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
    return tuple(parent[f] for f in range(fine.m)), tuple(image)


def dense_reach_sets(steps, n_letters: int, upto: int) -> tuple:
    """Contexts with a predecessor word of each length 0..upto, and the
    contexts left once whole shrinking passes drop nothing."""
    def shrink(cur):
        return frozenset(
            i for i in cur
            if any(steps[i][a] is not None and steps[i][a] in cur for a in range(n_letters)))

    reach = [frozenset(range(len(steps)))]
    for _ in range(upto):
        reach.append(shrink(reach[-1]))
    limit = reach[-1]
    while (nxt := shrink(limit)) != limit:
        limit = nxt
    return tuple(reach), limit


def dense_level_matrices(level: dict, symbols) -> dict:
    """The dense matrices of one level of ``matrices_to_json``, rebuilt from
    its class maps, keyed as the dense export was: inclusion, per-symbol
    action, action sum and difference (``bowen_franks``)."""
    rows, cols = level["m_next"], level["m"]
    inclusion = [[0] * cols for _ in range(rows)]
    action = {a: [[0] * cols for _ in range(rows)] for a in symbols}
    for i, cls in enumerate(level["classes"]):
        inclusion[i][cls["parent"]] = 1
        for a, j in cls["image"].items():
            action[a][i][j] = 1
    total = [[sum(action[a][i][j] for a in symbols) for j in range(cols)] for i in range(rows)]
    return {"level": level["level"], "inclusion": inclusion, "action": action,
            "action_sum": total,
            "bowen_franks": [[x - y for x, y in zip(r, t)] for r, t in zip(inclusion, total)]}


def dense_chain(p: Presentation, length: int) -> dict:
    """Grade ranks, class ids per level, class maps and reach sets of
    ``build_chain(p, length)``, refined over the dense table."""
    steps, n_letters = dense_steps(p), len(p.alphabet)
    grade = [(0,) * len(steps)]
    level_ids = [grade[0]]
    while True:
        grade.append(dense_next_grade(steps, n_letters, grade[-1]))
        keys = list(zip(level_ids[-1], grade[-1]))
        order = {key: r for r, key in enumerate(sorted(set(keys)))}
        if len(order) == len(set(level_ids[-1])):
            break
        level_ids.append(tuple(order[key] for key in keys))
    while len(grade) <= length:
        grade.append(dense_next_grade(steps, n_letters, grade[-1]))
    tower = [_level(ids) for ids in level_ids]
    maps = [dense_class_maps(steps, n_letters, fine, coarse)
            for coarse, fine in zip(tower, tower[1:] + tower[-1:])]
    reach, limit = dense_reach_sets(steps, n_letters, length)
    return {"grade_ranks": tuple(grade), "class_of": tuple(level_ids), "maps": maps,
            "reach": reach, "reach_limit": limit}


# ---------------------------------------------------------------------------
# set-level oracles


def in_cylinder(p: Presentation, u: Word, v: Word, x: Point) -> bool:
    """Membership of x in the set of points v.y with y and u.y both in the shift."""
    u, v = tuple(u), tuple(v)
    p.alphabet.check_word(u)
    p.alphabet.check_word(v)
    # contains checks x against the alphabet first
    return p.contains(x) and x.prefix(len(v)) == v and p.contains(x.shift_by(len(v)).prepend(u))


def forbidden_words(obj) -> frozenset:
    """The forbidden words an SFT object gives, as letter indices: the words of
    an ``sft`` object, the zero entries of a matrix, or the words of the edge
    length that an edge list leaves out."""
    if obj["type"] == "sft_matrix":
        return frozenset((a, b) for a, row in enumerate(obj["adjacency"])
                         for b, e in enumerate(row) if not e)
    index = {s: i for i, s in enumerate(obj["alphabet"])}
    if obj["type"] == "sft":
        return frozenset(tuple(index[s] for s in w) for w in obj["forbidden"])
    edges = {tuple(index[s] for s in e) for e in obj["edges"]}
    length = len(next(iter(edges))) if edges else 2
    return frozenset(product(range(len(index)), repeat=length)) - edges


def window_ok(forbidden, word: Word) -> bool:
    """No factor of ``word`` is one of the ``forbidden`` words."""
    return not any(word[i:j] in forbidden
                   for i in range(len(word)) for j in range(i + 1, len(word) + 1))


def sft_contains(forbidden, x: Point) -> bool:
    """x has no forbidden factor: every factor as long as the longest
    forbidden word occurs in the head and that many periods."""
    longest = max(map(len, forbidden), default=0)
    return window_ok(forbidden, x.pre + x.per * (longest + 1))


def oracle_words(n: int, forbidden, k: int) -> frozenset:
    """The words of length k of the SFT over n letters avoiding ``forbidden``,
    k at least its longest forbidden word: those with no forbidden factor
    that start an infinite chain of such words, each the one before less its
    first letter plus one more, by whole passes that drop the words with no
    successor left until a pass drops nothing."""
    words = {w for w in product(range(n), repeat=k) if window_ok(forbidden, w)}
    while True:
        kept = {w for w in words if any(w[1:] + (a,) in words for a in range(n))}
        if kept == words:
            return frozenset(words)
        words = kept


def oracle_memory(n: int, words) -> int:
    """The least M such that the M-step shift over n letters whose words of
    length M + 1 are those of the shift has the same words of length k as the
    shift, ``words`` being all of them: the shift is then M-step."""
    k = len(next(iter(words)))
    for m in range(k):
        short = {w[:m + 1] for w in words}
        if {w for w in product(range(n), repeat=k)
                if all(w[i:i + m + 1] in short for i in range(k - m))} == words:
            return m


def oracle_window_graph(words, m: int) -> dict:
    """The window graph at memory m of the shift whose words of one length
    past m are ``words``: its words of length m + 1 are their prefixes."""
    graph = {}
    for e in sorted({w[:m + 1] for w in words}):
        graph.setdefault(e[:-1], []).append((e[-1], e[1:]))
    return {w: tuple(out) for w, out in graph.items()}


def block_forbidden_words(blocks, forbidden, n: int) -> list:
    """The forbidden words of the n-block recoding of the SFT avoiding
    ``forbidden``, over the indices of ``blocks``, its sorted words of length
    n: every pair of blocks that do not overlap, and every forbidden word
    longer than n as the sequence of its blocks (one with a factor outside
    the blocks never occurs)."""
    idx = {w: i for i, w in enumerate(blocks)}
    out = [(iu, iv) for iu, u in enumerate(blocks) for iv, v in enumerate(blocks)
           if u[1:] != v[:-1]]
    for w in sorted(forbidden):
        parts = [w[j:j + n] for j in range(len(w) - n + 1)]
        if len(w) > n and all(part in idx for part in parts):
            out.append(tuple(idx[part] for part in parts))
    return out


# forms of one shift each: the golden mean with its letters swapped, with a
# redundant word and given at memory 2; the full 2-shift with a dead letter
# 2, as a matrix with and without the edge into it and as a forbidden letter
GOLDEN_FORMS = [{"type": "sft", "alphabet": ["0", "1"], "forbidden": f}
                for f in ([["0", "0"]], [["0", "0"], ["0", "0", "0"]],
                          [["0", "0", "0"], ["0", "0", "1"], ["1", "0", "0"]])]
DEAD_LETTER_FORMS = [{"type": "sft_matrix", "adjacency": [[1, 1, 1], [1, 1, 0], [0, 0, 0]]},
                     {"type": "sft_matrix", "adjacency": [[1, 1, 0], [1, 1, 0], [0, 0, 0]]},
                     {"type": "sft", "alphabet": ["0", "1", "2"], "forbidden": [["2"]]}]


def inflated_forms(obj, rng: random.Random, extra: int) -> list:
    """The shift of the SFT object ``obj`` given at ``extra`` (>= 1) more than
    its given memory: as the words of that length with no forbidden factor
    (an edge list, untrimmed) and, unless it forbids nothing, as the words
    with one and as its own forbidden words plus random longer words that
    contain one."""
    forbidden = forbidden_words(obj)
    symbols = obj.get("alphabet") or [str(a) for a in range(len(obj["adjacency"]))]
    n, length = len(symbols), max(map(len, forbidden), default=1) + extra
    words = list(product(range(n), repeat=length))

    def render(ws):
        return [[symbols[a] for a in w] for w in sorted(ws)]
    forms = [{"type": "sft_edges", "alphabet": symbols,
              "edges": render(w for w in words if window_ok(forbidden, w))}]
    if not forbidden:
        return forms
    longer = set(forbidden)
    for w in rng.sample(sorted(forbidden), min(len(forbidden), 3)):
        i = rng.randint(0, length - len(w))
        longer.add(tuple(rng.randrange(n) for _ in range(i)) + w
                   + tuple(rng.randrange(n) for _ in range(length - len(w) - i)))
    return forms + [
        {"type": "sft", "alphabet": symbols,
         "forbidden": render(w for w in words if not window_ok(forbidden, w))},
        {"type": "sft", "alphabet": symbols, "forbidden": render(longer)},
    ]


# ---------------------------------------------------------------------------
# operator-model oracles: the monomial span (exact residual-zero decomposition)


class RationalSpan:
    """Incremental row space over the rationals with exact reduction."""

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: dict[int, tuple[Fraction, ...]] = {}

    def _reduce(self, vec: list[Fraction]) -> list[Fraction]:
        for col, row in self.pivots.items():
            coeff = vec[col]
            if coeff:
                for i in range(self.dim):
                    vec[i] -= coeff * row[i]
        return vec

    def add(self, vec) -> bool:
        vec = self._reduce([Fraction(x) for x in vec])
        for col in range(self.dim):
            if vec[col]:
                inv = _ONE / vec[col]
                row = tuple(x * inv for x in vec)
                for c2 in self.pivots:
                    coeff = self.pivots[c2][col]
                    if coeff:
                        self.pivots[c2] = tuple(
                            x - coeff * y for x, y in zip(self.pivots[c2], row))
                self.pivots[col] = row
                return True
        return False

    def contains(self, vec) -> bool:
        vec = self._reduce([Fraction(x) for x in vec])
        return all(x == 0 for x in vec)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def flatten(m: Matrix) -> tuple[Fraction, ...]:
    """The dense row-major vector of all n * n entries."""
    return tuple(m.entries.get((i, j), _ZERO) for i in range(m.n) for j in range(m.n))


def monomial(model: FiniteModel, u: Word, f, v: Word) -> Matrix:
    return mat_mul(op_word(model, u), mat_mul(op_diagonal(model, f), mat_transpose(op_word(model, v))))


def monomial_span(model: FiniteModel, max_len: int) -> RationalSpan:
    """Span of all T_u phi(e_x) T_v^t with |u|, |v| up to max_len."""
    span = RationalSpan(model.n * model.n)
    words = model.words_upto(max_len)
    for u in words:
        for v in words:
            for i in range(model.n):
                e = tuple(_ONE if j == i else _ZERO for j in range(model.n))
                span.add(flatten(monomial(model, u, e, v)))
    return span


def generator_sum(model: FiniteModel, n: int = 1) -> Matrix:
    return _sum(model.n, (op_word(model, u) for u in model.shift.alphabet.words_of_length(n)))


def op_lambda_shift(model: FiniteModel, x: Matrix) -> Matrix:
    """Conjugation by the summed one-letter generators: (sum T_a)^t x (sum T_b)."""
    s = generator_sum(model, 1)
    return mat_mul(mat_transpose(s), mat_mul(x, s))
