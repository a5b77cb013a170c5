"""Shift-space presentations and their set-level semantics.

Three finitely-presentable kinds are supported:

* ``finite`` -- an explicit shift-closed set of eventually periodic points;
* ``sft``    -- a shift of finite type given by finitely many forbidden words,
  by a 0/1 adjacency matrix or by its allowed words of one length (the
  edges of its window graph).  However it was given, it is held as its live
  window graph at its own memory M and written as its words of length M + 1
  (at memory 0, its forbidden letters), so one shift has one canonical form
  and its bytes grow with its edges;
* ``sofic``  -- a labeled graph; the shift is the set of label sequences of
  infinite paths.  Sofic presentations are trimmed so that every state lies
  on a bi-infinite path, which makes them shift-surjective.

A parse builds only the canonical form (the points, the live window graph
or the trimmed graph); what is read off it is built on first use.  Every
presentation exposes a finite set of *contexts*: for each point x a finite
datum context(x) through which every predecessor set

    P_k(x) = { u of length k : u . x lies in the shift }

factors.  A context is that datum itself: the point x (finite), its first M
letters, a window of the graph below (SFT of memory M; ``()`` at memory 0),
or the frozenset of indices of the states reading x (sofic).  Prepending a
letter acts on contexts; its table on context indices
(``Presentation.steps``) is the one transition every word query reads.  A
finite shift reads it off its shift map, a sofic shift off the preimages of
its state masks, and an SFT off its window graph (``SftShift.window_graph``,
the forward graph of its live suffix windows), which also gives its
witnesses and its recodings.  The live windows of an SFT, the trimmed
states and good matrices of a sofic graph, and a chain's persistent contexts
are each the nodes of a finite graph that start an infinite path, found by
one pass (``_live``), which also gives every other node's longest path (a
chain's reach sets).  The partition tower downstream refines over the
table, and since the shift of a point is again a point of the shift, the
language is that predecessor set taken over every context:

    L_k = union of P_k(c) over all contexts c.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import compress

from .errors import (
    AlphabetMismatchError,
    ConsistencyError,
    ResourceCapError,
    ValidationError,
)
from .words import EPSILON, Alphabet, Point, Word


# Size caps of the enumerative parts, read at call time: an SFT's live
# windows at its own memory and an `sft` search's windows at parse, a sofic
# monoid at first use and a recoding's blocks or paths count against
# MAX_CONTEXTS, a language or predecessor set against MAX_LANGUAGE_WORDS.
# A cap only decides whether a call is refused, never what it returns.
MAX_CONTEXTS = 4096
MAX_LANGUAGE_WORDS = 200000


class Presentation:
    """Common interface of the three presentation kinds."""

    kind: str
    alphabet: Alphabet

    # -- core context interface -------------------------------------------

    @cached_property
    def contexts(self) -> tuple:
        """All realizable contexts, in canonical order: a finite shift's points
        by (pre, per), an SFT's windows sorted, a sofic shift's state sets by
        their sorted states."""
        return self._realizable_contexts()

    @cached_property
    def context_index(self) -> dict:
        return {c: i for i, c in enumerate(self.contexts)}

    # Prepend table on context indices, a cached property of each kind:
    # ``steps[i]`` holds a pair (a, j), in ascending letter order, for each
    # letter a such that a.x, for x with context i, is in the shift with
    # context j.  A letter with no pair takes a.x out of the shift.
    steps: tuple[tuple[tuple[int, int], ...], ...]

    def _context(self, point: Point):
        """The context of a point with letters in the alphabet, None when the
        point is not in the shift."""
        raise NotImplementedError

    def contains(self, point: Point) -> bool:
        self.check_point(point)
        return self._context(point) is not None

    def context_of(self, point: Point):
        """The context of a point of the shift: itself (finite), its first
        ``memory`` letters (SFT) or the frozenset of states reading it (sofic)."""
        self.check_point(point)
        ctx = self._context(point)
        if ctx is None:
            raise ValidationError("point is not in the shift space")
        return ctx

    def witness(self, ctx) -> Point:
        """Some point of the shift whose context is ``ctx``."""
        raise NotImplementedError

    def _realizable_contexts(self) -> tuple:
        raise NotImplementedError

    # -- shared derived operations -----------------------------------------

    @cached_property
    def sigma_surjective(self) -> bool:
        """True iff every point has a one-letter predecessor in the shift."""
        return all(self.steps)

    def check_point(self, point: Point) -> None:
        letters = point.pre + point.per
        if min(letters) < 0 or max(letters) >= len(self.alphabet):
            raise AlphabetMismatchError("point uses letters outside the alphabet")

    def render_context(self, ctx) -> str:
        raise NotImplementedError

    # -- canonical JSON ------------------------------------------------------

    def to_json(self) -> dict:
        raise NotImplementedError

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), separators=(",", ":"), ensure_ascii=True).encode()

    def content_hash(self) -> str:
        import hashlib   # OpenSSL is mapped on the first hash, not at import

        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def __eq__(self, other):
        return isinstance(other, Presentation) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(self.canonical_bytes())

    def __repr__(self):
        return f"<{type(self).__name__} over {list(self.alphabet.symbols)}>"


def _live(successors) -> tuple[set, dict]:
    """The nodes that start an infinite path in the graph ``successors`` (each
    node mapped to the list of its successor nodes, one per edge): the
    greatest set in which every member has a successor member.  One worklist
    pass over the reverse edges reads each edge once.

    Every other node dies, and the pass also returns the length of its
    longest path.  The dying nodes are taken in the order they die, which is
    the order of their longest paths, so the last successor of a node to die
    has the longest path of them all and sets the node's as one more.
    """
    preds = {u: [] for u in successors}
    out_degree = {}
    for u, vs in successors.items():
        out_degree[u] = len(vs)
        for v in vs:
            preds[v].append(u)
    dead = [u for u, d in out_degree.items() if not d]
    longest = dict.fromkeys(dead, 0)
    for v in dead:              # grows as nodes die
        for u in preds[v]:
            out_degree[u] -= 1
            if not out_degree[u]:
                longest[u] = longest[v] + 1
                dead.append(u)
    return {u for u, d in out_degree.items() if d}, longest


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

    def __init__(self, alphabet: Alphabet, points):
        self.alphabet = alphabet
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
        return self.points

    @cached_property
    def steps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The prepend table read off the shift map: a.x is the point y with
        first letter a whose shift is x (the contexts are the sorted points)."""
        idx = {p: i for i, p in enumerate(self.points)}
        rows = [[] for _ in self.points]
        for i, y in enumerate(self.points):
            rows[idx[y.shift()]].append((y.letter(0), i))
        return tuple(tuple(sorted(row)) for row in rows)

    def _context(self, point):
        return point if point in self._point_set else None

    def witness(self, ctx):
        return ctx

    def render_context(self, ctx):
        return ctx.render(self.alphabet)

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
    """A shift of finite type, held as its live window graph at its own memory.

    ``memory`` is the least M for which the shift is M-step: a sequence is a
    point when its factors of length M + 1 are words of the shift.
    ``window_graph`` maps each live window (a word of length M that starts a
    point), sorted, to its (letter, next window) edges in letter order, the
    words of length M + 1; the window after w on a is (w + a) less its first
    letter.  Every form of one shift, at any memory, holds the same graph.
    """

    kind = "sft"

    def __init__(self, alphabet: Alphabet, forbidden):
        """The SFT avoiding the ``forbidden`` words, given at the memory one less
        than the longest."""
        words = set()
        for w in forbidden:
            w = tuple(w)
            if len(w) < 1:
                raise ValidationError("forbidden words must have length >= 1")
            alphabet.check_word(w)
            words.add(w)
        m = max((len(w) for w in words), default=1) - 1
        self.alphabet = alphabet
        self.memory, self.window_graph = _own_memory(m, _forbidden_word_graph(alphabet, words, m))

    @classmethod
    def _from_words(cls, alphabet: Alphabet, words, length: int) -> "SftShift":
        """The SFT whose factors of ``length`` (>= 2) are among ``words``, the
        edges of its window graph at memory length - 1, read straight off
        them."""
        graph = {}
        for w in sorted(words):
            graph.setdefault(w[:-1], []).append((w[-1], w[1:]))
        for w in {w[1:] for w in words} - graph.keys():
            graph[w] = []
        return cls._from_graph(alphabet, length - 1, graph)

    @classmethod
    def _from_graph(cls, alphabet: Alphabet, m: int, graph: dict) -> "SftShift":
        """The SFT whose window graph at memory m is ``graph`` (``_own_memory``)."""
        p = object.__new__(cls)
        p.alphabet = alphabet
        p.memory, p.window_graph = _own_memory(m, graph)
        return p

    def _realizable_contexts(self):
        return tuple(self.window_graph)

    @cached_property
    def steps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The prepend table read off the window graph: an edge s -b-> w says
        that a.x, for x with window w, has window s, where a is the first
        letter of s (or b itself when the memory is 0).  Sorted windows give
        each row in ascending letter order, as the s into one w differ only
        in their first letter (memory 0 has one window, edges by letter)."""
        graph = self.window_graph
        idx = {w: i for i, w in enumerate(graph)}   # sorted, as the contexts are
        rows = [[] for _ in graph]
        for s, edges in graph.items():
            for b, w in edges:
                rows[idx[w]].append((s[0] if self.memory else b, idx[s]))
        return tuple(map(tuple, rows))

    # core interface -----------------------------------------------------------

    def _context(self, point):
        """A walk of the window graph along the point: each of its windows
        starts an infinite path, so the walk meets only live windows, and
        every factor of length memory + 1 already occurs in the head and
        enough periods to cover the memory."""
        m, graph = self.memory, self.window_graph
        word = point.pre + point.per * (1 + -(-m // len(point.per)))
        w = word[:m]
        for a in word[m:]:
            w = next((w2 for b, w2 in graph.get(w, ()) if b == a), None)
            if w is None:
                return None
        return word[:m]

    def witness(self, ctx):
        graph = self.window_graph

        def step(w):
            if not graph.get(w):
                raise ValidationError("context is not realizable")
            return graph[w][0]
        return _lasso(ctx, step, ctx)

    def render_context(self, ctx):
        return self.alphabet.render_word(ctx) if ctx else "e"

    def to_json(self):
        """At memory 0 the forbidden letters, otherwise the edges of the window
        graph in sorted order: the bytes grow with the edges."""
        symbols = self.alphabet.symbols
        if not self.memory:
            live = {a for a, _ in self.window_graph[EPSILON]}
            return {"type": "sft", "alphabet": list(symbols),
                    "forbidden": [[s] for a, s in enumerate(symbols) if a not in live]}
        heads = {w: [symbols[a] for a in w] for w in self.window_graph}
        return {"type": "sft_edges", "alphabet": list(symbols),
                "edges": [[*heads[w], symbols[b]]
                          for w, out in self.window_graph.items() for b, _ in out]}


def _forbidden_word_graph(alphabet: Alphabet, words: set, m: int) -> dict:
    """The admissible windows of length m (no factor in ``words``), each with
    its (letter, next admissible window) edges, by one depth-first pass over
    the admissible prefixes that tests each (prefix, letter) once (only the
    last letter of a word can complete a forbidden factor its prefix lacks).
    The forbidden words do not bound the windows (one word of length 20
    leaves 2^19 binary ones), so the search is refused once they pass the cap."""
    lengths = sorted({len(w) for w in words})
    graph = {}
    stack = [EPSILON]
    while stack:
        w = stack.pop()
        ok = [u for u in (w + (a,) for a in alphabet)
              if not any(u[-k:] in words for k in lengths if k <= len(u))]
        if len(w) < m:
            stack.extend(ok)
        elif len(graph) == MAX_CONTEXTS:
            raise ResourceCapError(f"number of suffix windows exceeds cap {MAX_CONTEXTS}")
        else:
            graph[w] = [(u[-1], u[1:]) for u in ok]
    return graph


def _own_memory(m: int, graph: dict) -> tuple[int, dict]:
    """The memory and live window graph of the SFT whose window graph at
    memory m is ``graph``: every window with its (letter, next window)
    edges in letter order.

    The live windows start an infinite path (``_live``); none is the empty
    shift.  The memory then drops while the shift is (m-1)-step, that is,
    while every live window av has a c-edge for each letter c with vc a live
    window: the (m-1)-step shift with the same words of length m reads
    avc.  (That av and bv have the same successor letters is not enough
    one-sided: [[1,0],[1,0]] = {0^inf, 10^inf} passes it and is not
    0-step.)  One step down, the windows are the (m-1)-prefixes and the
    edges the old windows, both still sorted.  Only the windows at the own
    memory, the contexts, count against the cap.
    """
    live = _live({w: [w2 for _, w2 in out] for w, out in graph.items()})[0]
    if not live:
        raise ValidationError("presentation describes the empty shift space")
    graph = {w: tuple((a, w2) for a, w2 in graph[w] if w2 in live) for w in sorted(live)}
    while m:
        follow = {}   # (m-1)-word v -> the letters c with vc a live window
        for w in graph:
            follow.setdefault(w[:-1], []).append(w[-1])
        if any(len(out) != len(follow[w[1:]]) for w, out in graph.items()):
            break
        graph = {v: tuple((c, (v + (c,))[1:]) for c in cs) for v, cs in follow.items()}
        m -= 1
    if len(graph) > MAX_CONTEXTS:
        raise ResourceCapError(f"number of suffix windows exceeds cap {MAX_CONTEXTS}")
    return m, graph


def vertex_sft_from_adjacency(adjacency) -> SftShift:
    """Vertex shift of a 0/1 matrix: symbol i may be followed by j iff A[i][j] == 1."""
    n = len(adjacency)
    if n == 0:
        raise ValidationError("adjacency matrix must be nonempty")
    for row in adjacency:
        if len(row) != n:
            raise ValidationError("adjacency matrix must be square")
        if not set(map(type, row)) <= {int} or not set(row) <= {0, 1}:
            raise ValidationError("adjacency entries must be 0 or 1")
    windows = [(a,) for a in range(n)]
    return SftShift._from_graph(Alphabet(tuple(map(str, range(n)))), 1, {
        (a,): [(b, windows[b]) for b in compress(range(n), row)]
        for a, row in enumerate(adjacency)})


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
    """The label shift of the essential subgraph of a finite labeled graph.

    The graph is trimmed to the states on bi-infinite paths, and the trimmed
    graph is the canonical form.  The shift is the set of labels of infinite
    paths in it, which is shift-surjective; a path that starts at a state off
    every bi-infinite path is dropped.  So the graph of {0^inf, 1^inf,
    01^inf, 001^inf}, one state per point with one edge to its shift, keeps
    two states and does not contain 01^inf, which the finite shift of those
    points does.
    """

    kind = "sofic"

    @classmethod
    def build(cls, state_names, edge_triples) -> "SoficShift":
        """Trim and canonicalize a labeled graph given by names: the one
        constructor."""
        names = list(state_names)
        known = set(names)
        if len(known) != len(names):
            raise ValidationError("duplicate state names")
        triples = set()
        for (src, dst, sym) in edge_triples:
            if src not in known or dst not in known:
                raise ValidationError(f"edge ({src!r},{dst!r},{sym!r}) references unknown state")
            if not isinstance(sym, str) or not sym:
                raise ValidationError("edge symbols must be nonempty strings")
            triples.add((src, dst, sym))
        # trim: a state lies on a bi-infinite path exactly when it starts an
        # infinite path and ends one
        forward, backward = {q: [] for q in names}, {q: [] for q in names}
        for (q, r, _) in triples:
            forward[q].append(r)
            backward[r].append(q)
        alive = _live(forward)[0] & _live(backward)[0]
        triples = {(q, r, s) for (q, r, s) in triples if q in alive and r in alive}
        if not triples:
            raise ValidationError("presentation describes the empty shift space")
        kept = tuple(sorted(alive))
        symbols = tuple(sorted({s for (_, _, s) in triples}))
        alphabet = Alphabet(symbols)
        sidx = {q: i for i, q in enumerate(kept)}
        p = object.__new__(cls)
        p.states, p.alphabet = kept, alphabet
        p.edges = tuple(sorted((sidx[q], sidx[r], alphabet.index(s)) for (q, r, s) in triples))
        return p

    # boolean-matrix monoid -----------------------------------------------------

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        # each letter's matrix: row q masks the states its edges from q reach
        rows = [[0] * len(self.states) for _ in self.alphabet]
        for (q, r, a) in self.edges:
            rows[a][q] |= 1 << r
        return tuple(map(tuple, rows))

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
                    if len(order) > MAX_CONTEXTS:
                        raise ResourceCapError(
                            f"sofic subset construction exceeds cap {MAX_CONTEXTS}")
                row.append(index[nxt])
            succ.append(tuple(row))
        masks = [sum(1 << q for q, r in enumerate(mat) if r) for mat in order]
        return words, masks, succ

    @cached_property
    def _good(self) -> frozenset[int]:
        """Matrices from which the nonzero-row set can be preserved forever: the
        greatest set in which each member has a successor member of its mask."""
        _, masks, succ = self._monoid
        return frozenset(_live({i: [j for j in succ[i] if masks[j] == mask]
                                for i, mask in enumerate(masks) if mask})[0])

    @cached_property
    def _context_reps(self) -> dict[int, int]:
        """Each context's state mask mapped to its first good matrix in BFS order."""
        masks = self._monoid[1]
        reps = {}
        for i in sorted(self._good):
            reps.setdefault(masks[i], i)
        return reps

    def _realizable_contexts(self):
        return tuple(sorted(map(self._states_of, self._context_reps), key=sorted))

    # core interface --------------------------------------------------------------

    def _mask_of(self, ctx: frozenset[int]) -> int:
        return sum(1 << q for q in ctx)

    def _states_of(self, mask: int) -> frozenset[int]:
        return frozenset(q for q in range(len(self.states)) if mask >> q & 1)

    @cached_property
    def steps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The prepend table on state masks: a.x is read from the states with an
        a-edge into a state reading x, and leaves the shift when there is none."""
        index = {self._mask_of(c): i for i, c in enumerate(self.contexts)}
        rows = []
        for mask in index:
            row = [(a, pre) for a in self.alphabet if (pre := self._pre_mask(a, mask))]
            if not all(pre in index for _, pre in row):
                raise ConsistencyError("prepending left the realizable context set")
            rows.append(tuple((a, index[pre]) for a, pre in row))
        return tuple(rows)

    def _context(self, point):
        """The set of states reading the point (None when it is empty), off
        the Cayley table.

        A state reads the point when it reads every prefix, and the states
        reading a prefix only shrink as the prefix grows.  Walking the table
        along the head, then one whole period at a time, repeats an index at
        a period start; the masks are constant on that cycle, so its mask is
        the set.
        """
        _, masks, succ = self._monoid
        i = 0
        for a in point.pre:
            i = succ[i][a]
        seen = set()
        while i not in seen:
            seen.add(i)
            for a in point.per:
                i = succ[i][a]
        return self._states_of(masks[i]) if masks[i] else None

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
        names = sorted(self.states[q] for q in ctx)
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


def language(p: Presentation, k: int) -> list[Word]:
    """All length-k words occurring in the shift, in lexicographic order.

    These are the predecessor words of every context.  |L_k| never decreases
    with k (each word extends to the right), so the frontier stops short of
    grade k exactly when |L_k| exceeds the cap.
    """
    if k < 0:
        raise ValidationError("word length must be >= 0")
    frontiers = predecessor_frontiers(range(len(p.contexts)), p.steps, k, MAX_LANGUAGE_WORDS)
    if len(frontiers) <= k:
        raise ResourceCapError(f"language size exceeds cap {MAX_LANGUAGE_WORDS}")
    return sorted(frontiers[k])


def predecessor_frontiers(starts, steps, upto: int, cap: int) -> list[dict]:
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
                targets = {}   # letter -> contexts, letters ascending
                for a, t in sorted({pair for c in cs for pair in steps[c]}):
                    targets.setdefault(a, set()).add(t)
                moves[cs] = [(a, frozenset(ts)) for a, ts in targets.items()]
            for a, cs2 in moves[cs]:
                nxt[(a,) + w] = cs2
            if len(nxt) > cap:
                return out
        frontier = nxt
        out.append(frontier)
    return out


def predecessor_set(p: Presentation, ctx, k: int) -> list[Word]:
    """P_k for any point with context ``ctx``: length-k words u with u.x in the shift."""
    if k < 0:
        raise ValidationError("predecessor length must be >= 0")
    if ctx not in p.context_index:
        raise ValidationError("context is not realizable for this presentation")
    frontiers = predecessor_frontiers((p.context_index[ctx],), p.steps, k, MAX_LANGUAGE_WORDS)
    if len(frontiers) <= k:
        raise ResourceCapError(f"predecessor set exceeds cap {MAX_LANGUAGE_WORDS}")
    return sorted(frontiers[k])


# ---------------------------------------------------------------------------
# JSON input

_SCHEMAS = {
    "sft": {"type", "alphabet", "forbidden"},
    "sft_matrix": {"type", "adjacency"},
    "sft_edges": {"type", "alphabet", "edges"},
    "sofic": {"type", "states", "edges"},
    "finite": {"type", "alphabet", "points"},
}


def parse_presentation(obj) -> Presentation:
    """Parse the strict JSON presentation format; unknown fields are rejected."""
    if not isinstance(obj, dict):
        raise ValidationError("presentation must be a JSON object")
    kind = obj.get("type")
    if not (isinstance(kind, str) and kind in _SCHEMAS):
        raise ValidationError(f"unknown presentation type {kind!r}")
    extra = set(obj) - _SCHEMAS[kind]
    if extra:
        raise ValidationError(f"unknown fields for type {kind!r}: {sorted(extra)}")
    missing = _SCHEMAS[kind] - set(obj)
    if missing:
        raise ValidationError(f"missing fields for type {kind!r}: {sorted(missing)}")

    if kind == "sft_matrix":
        adjacency = obj["adjacency"]
        if not isinstance(adjacency, list) or not all(isinstance(row, list) for row in adjacency):
            raise ValidationError("adjacency must be a list of rows")
        return vertex_sft_from_adjacency(adjacency)

    if kind == "sofic":
        if not isinstance(obj["states"], list) or not isinstance(obj["edges"], list):
            raise ValidationError("sofic states and edges must be lists")
        if not all(isinstance(q, str) for q in obj["states"]):
            raise ValidationError("sofic state names must be strings")
        edges = []
        for e in obj["edges"]:
            if not (isinstance(e, list) and len(e) == 3):
                raise ValidationError(f"sofic edge {e!r} must be a [from, to, symbol] triple")
            if not (isinstance(e[0], str) and isinstance(e[1], str)):
                raise ValidationError(f"sofic edge {e!r}: from and to must be state names")
            edges.append((e[0], e[1], e[2]))
        return SoficShift.build(obj["states"], edges)

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
        return SftShift(alphabet, forbidden)

    if kind == "sft_edges":
        if not isinstance(obj["edges"], list):
            raise ValidationError("edges must be a list of words")
        words = set()
        for e in obj["edges"]:
            if not (isinstance(e, list) and len(e) >= 2):
                raise ValidationError(f"edge {e!r} must be a list of two or more symbols")
            words.add(alphabet.word(e))
        lengths = sorted({len(w) for w in words})
        if len(lengths) > 1:
            raise ValidationError(f"edges must have one length, not {lengths}")
        return SftShift._from_words(alphabet, words, lengths[0] if lengths else 2)

    if not isinstance(obj["points"], list):
        raise ValidationError("points must be a list of points")
    points = []
    for item in obj["points"]:
        if not isinstance(item, dict) or set(item) != {"pre", "per"}:
            raise ValidationError(f"point {item!r} must be an object with fields pre, per")
        if not isinstance(item["pre"], list) or not isinstance(item["per"], list):
            raise ValidationError(f"point {item!r}: pre and per must be lists of symbols")
        points.append(Point.from_symbols(alphabet, item["pre"], item["per"]))
    return FiniteShift(alphabet, points)


def load_presentation(path) -> Presentation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
            except RecursionError:
                raise ValidationError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except ValueError as exc:   # an integer literal past the interpreter's digit limit
        raise ValidationError(f"{path}: {str(exc).split(';')[0]}") from None
    return parse_presentation(obj)


def dump_presentation(p: Presentation, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(p.to_json(), fh, indent=2, ensure_ascii=True)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
