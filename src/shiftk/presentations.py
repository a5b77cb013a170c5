"""Shift-space presentations and their set-level semantics.

Three finitely-presentable kinds are supported:

* ``finite`` -- an explicit shift-closed set of eventually periodic points;
* ``sft``    -- a shift of finite type given by finitely many forbidden words
  (or by a 0/1 adjacency matrix, which is parsed into the vertex SFT);
* ``sofic``  -- a labeled graph; the shift is the set of label sequences of
  infinite paths.  Sofic presentations are trimmed so that every state lies
  on a bi-infinite path, which makes them shift-surjective.

Every presentation exposes a finite set of *contexts*: for each point x a
finite datum context(x) through which every predecessor set

    P_k(x) = { u of length k : u . x lies in the shift }

factors.  Prepending a letter acts on contexts (``prepend_context``); its
table on context indices (``Presentation.steps``) is the one transition every
word query reads.  The partition tower downstream refines over it, and since
the shift of a point is again a point of the shift, the language is that
predecessor set taken over every context:

    L_k = union of P_k(c) over all contexts c.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AlphabetMismatchError,
    ConsistencyError,
    ResourceCapError,
    ValidationError,
)
from .words import EPSILON, Alphabet, Point, Word


@dataclass(frozen=True)
class Caps:
    """Size limits for the enumerative parts of the library."""

    max_contexts: int = 4096
    max_language_words: int = 200000

    def __post_init__(self):
        if min(self.max_contexts, self.max_language_words) < 1:
            raise ValidationError("caps must be positive")


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class PointContext:
    """Context of a point of a finite shift: the point itself."""

    point: Point

    @property
    def sort_key(self):
        return self.point.sort_key


@dataclass(frozen=True)
class SuffixContext:
    """Context for an SFT: the first ``memory`` letters of the point."""

    word: Word

    @property
    def sort_key(self):
        return self.word


@dataclass(frozen=True)
class StateSetContext:
    """Context for a sofic shift: the set of states the point is readable from."""

    states: frozenset[int]

    @property
    def sort_key(self):
        return tuple(sorted(self.states))


Context = PointContext | SuffixContext | StateSetContext


class Presentation:
    """Common interface of the three presentation kinds."""

    kind: str
    alphabet: Alphabet
    caps: Caps

    # -- core context interface -------------------------------------------

    @cached_property
    def contexts(self) -> tuple[Context, ...]:
        """All realizable contexts, in canonical order."""
        ctxs = self._realizable_contexts()
        if not ctxs:
            raise ValidationError("presentation describes the empty shift space")
        return tuple(sorted(ctxs, key=lambda c: c.sort_key))

    @cached_property
    def context_index(self) -> dict:
        return {c: i for i, c in enumerate(self.contexts)}

    def prepend_context(self, ctx: Context, a: int) -> Context | None:
        """Context of a.x for any x with context ctx; None when a.x leaves the shift."""
        raise NotImplementedError

    def context_of(self, point: Point) -> Context:
        raise NotImplementedError

    def contains(self, point: Point) -> bool:
        raise NotImplementedError

    def witness(self, ctx: Context) -> Point:
        """Some point of the shift whose context is ``ctx``."""
        raise NotImplementedError

    def _realizable_contexts(self) -> list[Context]:
        raise NotImplementedError

    # -- shared derived operations -----------------------------------------

    @cached_property
    def steps(self) -> tuple[tuple[int | None, ...], ...]:
        """Prepend table on context indices: ``steps[i][a]`` is the index of the
        context of a.x for x with context i, or None when a.x leaves the shift."""
        idx = self.context_index
        steps = []
        for c in self.contexts:
            row = []
            for a in self.alphabet:
                c2 = self.prepend_context(c, a)
                if c2 is None:
                    row.append(None)
                elif c2 in idx:
                    row.append(idx[c2])
                else:
                    raise ConsistencyError("prepending left the realizable context set")
            steps.append(tuple(row))
        return tuple(steps)

    @cached_property
    def sigma_surjective(self) -> bool:
        """True iff every point has a one-letter predecessor in the shift."""
        return all(any(j is not None for j in row) for row in self.steps)

    def check_point(self, point: Point) -> None:
        letters = point.pre + point.per
        if min(letters) < 0 or max(letters) >= len(self.alphabet):
            raise AlphabetMismatchError("point uses letters outside the alphabet")

    def render_context(self, ctx: Context) -> str:
        raise NotImplementedError

    # -- canonical JSON ------------------------------------------------------

    def to_json(self) -> dict:
        raise NotImplementedError

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), separators=(",", ":"), ensure_ascii=True).encode()

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def __eq__(self, other):
        return isinstance(other, Presentation) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(self.canonical_bytes())

    def __repr__(self):
        return f"<{type(self).__name__} over {list(self.alphabet.symbols)}>"


def _lasso(start, step, head: Word) -> Point:
    """The point ``head`` followed by the letters read when ``step`` (state ->
    (letter, next state)) is followed from ``start`` until a state repeats."""
    seen, letters = {}, []
    while start not in seen:
        seen[start] = len(letters)
        a, start = step(start)
        letters.append(a)
    p = seen[start]
    return Point(head + tuple(letters[:p]), tuple(letters[p:]))


# ---------------------------------------------------------------------------
# finite shifts


class FiniteShift(Presentation):
    """An explicit finite set of eventually periodic points, closed under the shift."""

    kind = "finite"

    def __init__(self, alphabet: Alphabet, points, caps: Caps = DEFAULT_CAPS):
        self.alphabet = alphabet
        self.caps = caps
        points = list(points)
        if len(points) != len(set(points)):
            raise ValidationError("duplicate points in finite presentation")
        pts = sorted(points, key=lambda p: p.sort_key)
        if not pts:
            raise ValidationError("presentation describes the empty shift space")
        for p in pts:
            self.check_point(p)
        self.points = tuple(pts)
        self._point_set = frozenset(pts)
        for p in self.points:
            if p.shift() not in self._point_set:
                raise ValidationError(
                    f"finite presentation not shift-invariant: shift of {p} is missing")

    def _realizable_contexts(self):
        return [PointContext(p) for p in self.points]

    def prepend_context(self, ctx, a):
        y = ctx.point.prepend((a,))
        return PointContext(y) if y in self._point_set else None

    def contains(self, point):
        self.check_point(point)
        return point in self._point_set

    def context_of(self, point):
        if not self.contains(point):
            raise ValidationError("point is not in the shift space")
        return PointContext(point)

    def witness(self, ctx):
        return ctx.point

    def render_context(self, ctx):
        return ctx.point.render(self.alphabet)

    def to_json(self):
        return {
            "type": "finite",
            "alphabet": list(self.alphabet.symbols),
            "points": [
                {"pre": list(self.alphabet.word_symbols(p.pre)),
                 "per": list(self.alphabet.word_symbols(p.per))}
                for p in self.points
            ],
        }


# ---------------------------------------------------------------------------
# shifts of finite type


class SftShift(Presentation):
    """Shift of finite type over ``alphabet`` avoiding the ``forbidden`` words."""

    kind = "sft"

    def __init__(self, alphabet: Alphabet, forbidden, caps: Caps = DEFAULT_CAPS):
        self.alphabet = alphabet
        self.caps = caps
        words = set()
        for w in forbidden:
            w = tuple(w)
            if len(w) < 1:
                raise ValidationError("forbidden words must have length >= 1")
            alphabet.check_word(w)
            words.add(w)
        self.forbidden = frozenset(words)
        self.forbidden_sorted = tuple(sorted(words))
        self.memory = max((len(w) for w in words), default=1) - 1
        self._forb_lengths = tuple(sorted({len(w) for w in words}))
        self.contexts  # force emptiness check

    # words -----------------------------------------------------------------

    def window_ok(self, word: Word) -> bool:
        for L in self._forb_lengths:
            for i in range(len(word) - L + 1):
                if word[i:i + L] in self.forbidden:
                    return False
        return True

    def _tail_ok(self, word: Word) -> bool:
        # factors ending at the last position only
        for L in self._forb_lengths:
            if L <= len(word) and word[-L:] in self.forbidden:
                return False
        return True

    # forward automaton on suffix windows ------------------------------------

    def _suffix_after(self, state: Word, a: int) -> Word:
        new = state + (a,)
        return new[-self.memory:] if self.memory else EPSILON

    @cached_property
    def _live_states(self) -> frozenset[Word]:
        """Suffix states (admissible memory-length words) with infinite continuations."""
        m = self.memory
        states = set()
        stack = [EPSILON]
        seen = {EPSILON}
        while stack:
            w = stack.pop()
            if len(w) == m:
                states.add(w)
                continue
            for a in self.alphabet:
                nxt = w + (a,)
                if self._tail_ok(nxt) and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
            if len(states) > self.caps.max_contexts:
                raise ResourceCapError(
                    f"number of suffix windows exceeds cap {self.caps.max_contexts}")
        alive = set(states)
        changed = True
        while changed:
            changed = False
            for w in sorted(alive):
                if not any(
                    self._tail_ok(w + (a,)) and self._suffix_after(w, a) in alive
                    for a in self.alphabet
                ):
                    alive.discard(w)
                    changed = True
        return frozenset(alive)

    @cached_property
    def window_graph(self) -> dict[Word, tuple[tuple[int, Word], ...]]:
        """Each live window, in sorted order, with its (letter, next live window)
        edges in alphabet order: the forward graph whose label shift is the SFT's
        left-extendable part."""
        live = self._live_states
        graph = {}
        for w in sorted(live):
            edges = []
            for a in self.alphabet:
                if self._tail_ok(w + (a,)):
                    w2 = self._suffix_after(w, a)
                    if w2 in live:
                        edges.append((a, w2))
            graph[w] = tuple(edges)
        return graph

    def _realizable_contexts(self):
        return [SuffixContext(w) for w in self._live_states]

    # core interface -----------------------------------------------------------

    def prepend_context(self, ctx, a):
        word = (a,) + ctx.word
        if not self.window_ok(word):
            return None
        return SuffixContext(word[:self.memory])

    def contains(self, point):
        self.check_point(point)
        if not self.forbidden:
            return True
        maxlen = self._forb_lengths[-1]
        reps = 1 + -(-(maxlen - 1) // len(point.per))
        window = point.pre + point.per * reps
        return self.window_ok(window)

    def context_of(self, point):
        if not self.contains(point):
            raise ValidationError("point is not in the shift space")
        return SuffixContext(point.prefix(self.memory))

    def witness(self, ctx):
        graph = self.window_graph

        def step(w):
            if not graph.get(w):
                raise ValidationError("context is not realizable")
            return graph[w][0]
        return _lasso(ctx.word, step, ctx.word)

    def render_context(self, ctx):
        return self.alphabet.render_word(ctx.word) if ctx.word else "e"

    def to_json(self):
        return {
            "type": "sft",
            "alphabet": list(self.alphabet.symbols),
            "forbidden": [list(self.alphabet.word_symbols(w)) for w in self.forbidden_sorted],
        }


def vertex_sft_from_adjacency(adjacency, caps: Caps = DEFAULT_CAPS) -> SftShift:
    """Vertex shift of a 0/1 matrix: symbol i may be followed by j iff A[i][j] == 1."""
    n = len(adjacency)
    if n == 0:
        raise ValidationError("adjacency matrix must be nonempty")
    for row in adjacency:
        if len(row) != n:
            raise ValidationError("adjacency matrix must be square")
        for x in row:
            if x not in (0, 1):
                raise ValidationError("adjacency entries must be 0 or 1")
    alphabet = Alphabet(tuple(str(i) for i in range(n)))
    forbidden = [(i, j) for i in range(n) for j in range(n) if adjacency[i][j] == 0]
    return SftShift(alphabet, forbidden, caps)


# ---------------------------------------------------------------------------
# sofic shifts


def _mat_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # boolean matrices as tuples of row bitmasks
    out = []
    for row in a:
        acc = 0
        r = row
        while r:
            low = r & -r
            acc |= b[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return tuple(out)


class SoficShift(Presentation):
    """Labels of infinite paths in a finite labeled graph.

    The graph is trimmed so every state has an incoming and an outgoing edge
    (states off bi-infinite paths never contribute and their removal is the
    canonical form), which also makes the shift surjective.
    """

    kind = "sofic"

    def __init__(self, states: tuple[str, ...], alphabet: Alphabet,
                 edges: tuple[tuple[int, int, int], ...], caps: Caps = DEFAULT_CAPS):
        self.states = states
        self.alphabet = alphabet
        self.caps = caps
        self.edges = tuple(sorted(set(edges)))
        n = len(states)
        for (q, r, a) in self.edges:
            if not (0 <= q < n and 0 <= r < n and 0 <= a < len(alphabet)):
                raise ValidationError("edge indices out of range")
        rows = [[0] * n for _ in self.alphabet]
        for (q, r, a) in self.edges:
            rows[a][q] |= 1 << r
        self._rows = tuple(tuple(r) for r in rows)
        self._full = (1 << n) - 1
        self.contexts  # force emptiness check

    @classmethod
    def build(cls, state_names, edge_triples, caps: Caps = DEFAULT_CAPS) -> "SoficShift":
        """Trim and canonicalize a labeled graph given by names."""
        names = list(state_names)
        if len(set(names)) != len(names):
            raise ValidationError("duplicate state names")
        triples = set()
        for (src, dst, sym) in edge_triples:
            if src not in names or dst not in names:
                raise ValidationError(f"edge ({src!r},{dst!r},{sym!r}) references unknown state")
            if not isinstance(sym, str) or not sym:
                raise ValidationError("edge symbols must be nonempty strings")
            triples.add((src, dst, sym))
        # trim: keep only states with both in- and out-degree, iteratively
        alive = set(names)
        while True:
            outs = {q for (q, r, s) in triples if q in alive and r in alive}
            ins = {r for (q, r, s) in triples if q in alive and r in alive}
            keep = alive & outs & ins
            if keep == alive:
                break
            alive = keep
        triples = {(q, r, s) for (q, r, s) in triples if q in alive and r in alive}
        if not triples:
            raise ValidationError("presentation describes the empty shift space")
        kept = tuple(sorted(alive))
        symbols = tuple(sorted({s for (_, _, s) in triples}))
        alphabet = Alphabet(symbols)
        sidx = {q: i for i, q in enumerate(kept)}
        edges = tuple(sorted((sidx[q], sidx[r], alphabet.index(s)) for (q, r, s) in triples))
        return cls(kept, alphabet, edges, caps)

    # boolean-matrix monoid -----------------------------------------------------

    def _pre_mask(self, a: int, mask: int) -> int:
        rows = self._rows[a]
        out = 0
        for q, row in enumerate(rows):
            if row & mask:
                out |= 1 << q
        return out

    @cached_property
    def _monoid(self) -> tuple[list[Word], list[int], list[tuple[int, ...]]]:
        """Cayley table of the reachable boolean matrices, in BFS order.

        Matrix i has the first word ``words[i]`` reaching it, the mask
        ``masks[i]`` of its nonzero rows and, for each letter a, the index
        ``succ[i][a]`` of its product with a's matrix.
        """
        ident = tuple(1 << q for q in range(len(self.states)))
        index = {ident: 0}
        order, words, succ = [ident], [EPSILON], []
        for i, mat in enumerate(order):   # grows while it is read: a BFS queue
            row = []
            for a in self.alphabet:
                nxt = _mat_mul(mat, self._rows[a])
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                    words.append(words[i] + (a,))
                    if len(order) > self.caps.max_contexts:
                        raise ResourceCapError(
                            f"sofic subset construction exceeds cap {self.caps.max_contexts}")
                row.append(index[nxt])
            succ.append(tuple(row))
        masks = [sum(1 << q for q, r in enumerate(mat) if r) for mat in order]
        return words, masks, succ

    @cached_property
    def _good(self) -> frozenset[int]:
        """Matrices from which the nonzero-row set can be preserved forever: the
        greatest set in which each member has a successor member of its mask."""
        _, masks, succ = self._monoid
        good = {i for i, mask in enumerate(masks) if mask}
        changed = True
        while changed:
            changed = False
            for i in list(good):
                if not any(j in good and masks[j] == masks[i] for j in succ[i]):
                    good.discard(i)
                    changed = True
        return frozenset(good)

    @cached_property
    def _context_reps(self) -> dict[int, int]:
        """Each context's state mask mapped to its first good matrix in BFS order."""
        masks = self._monoid[1]
        reps = {}
        for i in sorted(self._good):
            reps.setdefault(masks[i], i)
        return reps

    def _realizable_contexts(self):
        return [StateSetContext(self._states_of(mask)) for mask in self._context_reps]

    # core interface --------------------------------------------------------------

    def _mask_of(self, ctx: StateSetContext) -> int:
        return sum(1 << q for q in ctx.states)

    def _states_of(self, mask: int) -> frozenset[int]:
        return frozenset(q for q in range(len(self.states)) if mask >> q & 1)

    def prepend_context(self, ctx, a):
        mask = self._pre_mask(a, self._mask_of(ctx))
        return StateSetContext(self._states_of(mask)) if mask else None

    def _state_set(self, point: Point) -> int:
        """Greatest fixpoint over the lasso: the set of states reading the point."""
        per = point.per
        n_per = len(per)
        c = [self._full] * n_per
        while True:
            changed = False
            for j in reversed(range(n_per)):
                new = self._pre_mask(per[j], c[(j + 1) % n_per])
                if new != c[j]:
                    c[j] = new
                    changed = True
            if not changed:
                break
        mask = c[0]
        for a in reversed(point.pre):
            mask = self._pre_mask(a, mask)
        return mask

    def contains(self, point):
        self.check_point(point)
        return self._state_set(point) != 0

    def context_of(self, point):
        self.check_point(point)
        mask = self._state_set(point)
        if not mask:
            raise ValidationError("point is not in the shift space")
        return StateSetContext(self._states_of(mask))

    def witness(self, ctx):
        mask = self._mask_of(ctx)
        if mask not in self._context_reps:
            raise ValidationError("context is not realizable")
        words, masks, succ = self._monoid
        good = self._good

        def step(i):
            for a, j in enumerate(succ[i]):
                if j in good and masks[j] == mask:
                    return a, j
            raise ConsistencyError("context lost its continuation; inconsistent good set")
        start = self._context_reps[mask]
        return _lasso(start, step, words[start])

    def render_context(self, ctx):
        names = sorted(self.states[q] for q in ctx.states)
        return "{" + ",".join(names) + "}"

    def to_json(self):
        return {
            "type": "sofic",
            "states": list(self.states),
            "edges": [
                [self.states[q], self.states[r], self.alphabet.symbols[a]]
                for (q, r, a) in self.edges
            ],
        }


# ---------------------------------------------------------------------------
# module-level operations


def language(p: Presentation, k: int, cap: int | None = None) -> list[Word]:
    """All length-k words occurring in the shift, in lexicographic order.

    These are the predecessor words of every context.  |L_k| never decreases
    with k (each word extends to the right), so the frontier stops short of
    grade k exactly when |L_k| exceeds the cap.
    """
    if k < 0:
        raise ValidationError("word length must be >= 0")
    cap = cap or p.caps.max_language_words
    frontiers = predecessor_frontiers(range(len(p.contexts)), p.steps, len(p.alphabet), k, cap)
    if len(frontiers) <= k:
        raise ResourceCapError(f"language size exceeds cap {cap}")
    return sorted(frontiers[k])


def contains(p: Presentation, x: Point) -> bool:
    return p.contains(x)


def context_of(p: Presentation, x: Point) -> Context:
    return p.context_of(x)


def realizable_contexts(p: Presentation) -> tuple[Context, ...]:
    return p.contexts


def predecessor_frontiers(starts, steps, n_letters: int, upto: int, cap: int) -> list[dict]:
    """Predecessor words of the contexts ``starts``, grades 0..upto.

    Grade k maps each length-k word u with u.x in the shift, for some x with
    context in ``starts``, to the set of context indices of those u.x.
    ``steps`` is a prepend table (``Presentation.steps``).  The list stops
    before the first grade with more than ``cap`` words.
    """
    frontier = {EPSILON: frozenset(starts)}
    out = [frontier]
    moves = {}   # context set -> [(letter, nonempty context set after prepending it)]
    for _ in range(upto):
        nxt = {}
        for w, cs in frontier.items():
            if cs not in moves:
                targets = [{steps[c][a] for c in cs} - {None} for a in range(n_letters)]
                moves[cs] = [(a, frozenset(t)) for a, t in enumerate(targets) if t]
            for a, cs2 in moves[cs]:
                nxt[(a,) + w] = cs2
            if len(nxt) > cap:
                return out
        frontier = nxt
        out.append(frontier)
    return out


def predecessor_set(p: Presentation, ctx: Context, k: int, cap: int | None = None) -> list[Word]:
    """P_k for any point with context ``ctx``: length-k words u with u.x in the shift."""
    if k < 0:
        raise ValidationError("predecessor length must be >= 0")
    cap = cap or p.caps.max_language_words
    if ctx not in p.context_index:
        raise ValidationError("context is not realizable for this presentation")
    frontiers = predecessor_frontiers((p.context_index[ctx],), p.steps, len(p.alphabet), k, cap)
    if len(frontiers) <= k:
        raise ResourceCapError(f"predecessor set exceeds cap {cap}")
    return sorted(frontiers[k])


def in_cylinder(p: Presentation, u: Word, v: Word, x: Point) -> bool:
    """Membership of x in the set of points v.y with y and u.y both in the shift."""
    u, v = tuple(u), tuple(v)
    p.alphabet.check_word(u)
    p.alphabet.check_word(v)
    # contains checks x against the alphabet first
    return p.contains(x) and x.prefix(len(v)) == v and p.contains(x.shift_by(len(v)).prepend(u))


# ---------------------------------------------------------------------------
# JSON input

_SCHEMAS = {
    "sft": {"type", "alphabet", "forbidden"},
    "sft_matrix": {"type", "adjacency"},
    "sofic": {"type", "states", "edges"},
    "finite": {"type", "alphabet", "points"},
}


def parse_presentation(obj, caps: Caps = DEFAULT_CAPS) -> Presentation:
    """Parse the strict JSON presentation format; unknown fields are rejected."""
    if not isinstance(obj, dict):
        raise ValidationError("presentation must be a JSON object")
    kind = obj.get("type")
    if kind not in _SCHEMAS:
        raise ValidationError(f"unknown presentation type {kind!r}")
    extra = set(obj) - _SCHEMAS[kind]
    if extra:
        raise ValidationError(f"unknown fields for type {kind!r}: {sorted(extra)}")
    missing = _SCHEMAS[kind] - set(obj)
    if missing:
        raise ValidationError(f"missing fields for type {kind!r}: {sorted(missing)}")

    if kind == "sft_matrix":
        if not isinstance(obj["adjacency"], list):
            raise ValidationError("adjacency must be a list of rows")
        return vertex_sft_from_adjacency(obj["adjacency"], caps)

    if kind == "sofic":
        if not isinstance(obj["states"], list) or not isinstance(obj["edges"], list):
            raise ValidationError("sofic states and edges must be lists")
        edges = []
        for e in obj["edges"]:
            if not (isinstance(e, list) and len(e) == 3):
                raise ValidationError(f"sofic edge {e!r} must be a [from, to, symbol] triple")
            edges.append((e[0], e[1], e[2]))
        return SoficShift.build(obj["states"], edges, caps)

    if not isinstance(obj.get("alphabet"), list):
        raise ValidationError("alphabet must be a list of symbols")
    alphabet = Alphabet(tuple(obj["alphabet"]))

    if kind == "sft":
        if not isinstance(obj["forbidden"], list):
            raise ValidationError("forbidden must be a list of words")
        forbidden = []
        for w in obj["forbidden"]:
            if not isinstance(w, list):
                raise ValidationError(f"forbidden word {w!r} must be a list of symbols")
            forbidden.append(alphabet.word(w))
        return SftShift(alphabet, forbidden, caps)

    points = []
    for item in obj["points"]:
        if not isinstance(item, dict) or set(item) != {"pre", "per"}:
            raise ValidationError(f"point {item!r} must be an object with fields pre, per")
        points.append(Point.from_symbols(alphabet, item["pre"], item["per"]))
    return FiniteShift(alphabet, points, caps)


def load_presentation(path, caps: Caps = DEFAULT_CAPS) -> Presentation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    return parse_presentation(obj, caps)


def dump_presentation(p: Presentation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(p.to_json(), fh, indent=2, ensure_ascii=True)
        fh.write("\n")
