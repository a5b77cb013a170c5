"""Structural moves on shift spaces.

* ``higher_block``: recode over the alphabet of length-N factors (one-sided
  conjugacy witness);
* ``symbolic_expansion``: insert a fresh symbol after every occurrence of a
  chosen letter (the flow-equivalence move);
* ``split_letters``: split every letter into a two-letter word through a
  bipartite expression, producing the alternating union shift and the induced
  second shift.

The expansion and splitting moves are defined on shifts induced by two-sided
ones, so they require shift-surjective input and are built on a labeled-graph
form of the presentation (a shift-surjective SFT is exactly the label shift
of its memory-window graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ResourceCapError, ValidationError
from .presentations import (
    FiniteShift,
    Presentation,
    SftShift,
    SoficShift,
    language,
)
from .words import Alphabet, Point, Word


@dataclass(frozen=True)
class BipartiteExpression:
    """Injective map from source letters to two-letter words (first, second).

    The first-component names and second-component names form two disjoint
    target alphabets.
    """

    pairs: tuple[tuple[str, str, str], ...]   # (source, first, second), source-sorted

    def __post_init__(self):
        sources = [s for (s, _, _) in self.pairs]
        if len(set(sources)) != len(sources):
            raise ValidationError("bipartite expression maps a source letter twice")
        if sorted(sources) != list(sources):
            raise ValidationError("bipartite expression pairs must be source-sorted")
        images = {(b, c) for (_, b, c) in self.pairs}
        if len(images) != len(self.pairs):
            raise ValidationError("bipartite expression must be injective into letter pairs")
        firsts = {b for (_, b, _) in self.pairs}
        seconds = {c for (_, _, c) in self.pairs}
        if firsts & seconds:
            raise ValidationError("bipartite target alphabets must be disjoint")
        for (_, b, c) in self.pairs:
            if not b or not c:
                raise ValidationError("bipartite target symbols must be nonempty")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "BipartiteExpression":
        pairs = []
        for src in sorted(mapping):
            img = mapping[src]
            if not (isinstance(img, (list, tuple)) and len(img) == 2):
                raise ValidationError(f"image of {src!r} must be a [first, second] pair")
            pairs.append((src, img[0], img[1]))
        return cls(tuple(pairs))

    def image(self, source: str) -> tuple[str, str]:
        for (s, b, c) in self.pairs:
            if s == source:
                return (b, c)
        raise ValidationError(f"bipartite expression does not cover letter {source!r}")

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(s for (s, _, _) in self.pairs)

    @property
    def first_symbols(self) -> tuple[str, ...]:
        return tuple(sorted({b for (_, b, _) in self.pairs}))

    @property
    def second_symbols(self) -> tuple[str, ...]:
        return tuple(sorted({c for (_, _, c) in self.pairs}))

    def to_json(self) -> dict:
        return {s: [b, c] for (s, b, c) in self.pairs}


@dataclass(frozen=True)
class TransformReport:
    input_hash: str
    move: dict
    symbol_maps: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "input": self.input_hash,
            "move": self.move,
            "symbol_maps": self.symbol_maps,
            "notes": list(self.notes),
        }


def _join_names(names) -> str:
    if all(len(n) == 1 for n in names):
        return "".join(names)
    return "-".join(names)


def _fresh_name(base: str, used: set) -> str:
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


def _block_name(alphabet: Alphabet, w: Word) -> str:
    return _join_names(alphabet.word_symbols(w))


# ---------------------------------------------------------------------------
# labeled-graph form


def _as_labeled_graph(p: Presentation):
    """(state names, edges as (from, to, symbol)) presenting exactly the shift.

    Only valid for shift-surjective presentations; for an SFT the memory
    window graph presents precisely the left-extendable points.
    """
    if not p.sigma_surjective:
        raise ValidationError("move requires a shift-surjective presentation")
    if isinstance(p, SoficShift):
        states = list(p.states)
        edges = [(p.states[q], p.states[r], p.alphabet.symbols[a]) for (q, r, a) in p.edges]
        return states, edges
    if isinstance(p, SftShift):
        graph = p.window_graph
        name = {w: f"w{i:04d}" for i, w in enumerate(graph)}
        edges = [(name[w], name[w2], p.alphabet.symbols[a])
                 for w, out in graph.items() for a, w2 in out]
        return list(name.values()), edges
    if isinstance(p, FiniteShift):
        # shift-surjective finite sets consist of periodic points, i.e. cycles
        name = {pt: f"p{i:04d}" for i, pt in enumerate(p.points)}
        edges = [(name[pt], name[pt.shift()], p.alphabet.symbols[pt.letter(0)])
                 for pt in p.points]
        return list(name.values()), edges
    raise ValidationError(f"unsupported presentation kind {p.kind!r}")


# ---------------------------------------------------------------------------
# higher-block recoding


def higher_block(p: Presentation, n: int) -> tuple[Presentation, TransformReport]:
    """Recode over the alphabet of length-n factors; conjugate to the input."""
    if n < 2:
        raise ValidationError("block length must be >= 2")
    if isinstance(p, FiniteShift):
        raise ValidationError("higher-block recoding expects an SFT or sofic presentation")

    blocks = language(p, n)
    names = [_block_name(p.alphabet, w) for w in blocks]
    symbol_map = {nm: list(p.alphabet.word_symbols(w)) for nm, w in zip(names, blocks)}
    move = {"move": "higher_block", "n": n}

    if isinstance(p, SftShift):
        out_alphabet = Alphabet(tuple(names))
        idx = {w: i for i, w in enumerate(blocks)}
        forbidden = []
        for iu, u in enumerate(blocks):
            for iv, v in enumerate(blocks):
                if u[1:] != v[:-1]:
                    forbidden.append((iu, iv))
        for w in p.forbidden_sorted:
            if len(w) >= n + 1:
                parts = [w[j:j + n] for j in range(len(w) - n + 1)]
                if all(part in idx for part in parts):
                    forbidden.append(tuple(idx[part] for part in parts))
        out = SftShift(out_alphabet, forbidden, p.caps)
        return out, TransformReport(p.content_hash(), move, {"blocks": symbol_map})

    # sofic: the graph whose states are paths of length n-1
    paths = [(e,) for e in p.edges]
    for _ in range(n - 2):
        nxt = []
        for path in paths:
            last = path[-1]
            for e in p.edges:
                if e[0] == last[1]:
                    nxt.append(path + (e,))
            if len(nxt) > p.caps.max_contexts:
                raise ResourceCapError(
                    f"higher-block path graph exceeds cap {p.caps.max_contexts}")
        paths = nxt
    paths.sort()
    pname = {path: f"q{i:04d}" for i, path in enumerate(paths)}
    edges = []
    for path in paths:
        last = path[-1]
        for e in p.edges:
            if e[0] == last[1]:
                succ = path[1:] + (e,)
                word = tuple(edge[2] for edge in path) + (e[2],)
                edges.append((pname[path], pname[succ], _block_name(p.alphabet, word)))
    out = SoficShift.build(list(pname.values()), edges, p.caps)
    return out, TransformReport(p.content_hash(), move, {"blocks": symbol_map})


# ---------------------------------------------------------------------------
# symbolic expansion


def symbolic_expansion(p: Presentation, a0: str, star: str) -> tuple[Presentation, TransformReport]:
    """Insert ``star`` after every occurrence of ``a0``; star occurs nowhere else."""
    a0_idx = p.alphabet.index(a0)
    if star in p.alphabet.symbols:
        raise ValidationError(f"expansion symbol {star!r} collides with the alphabet")
    if not p.sigma_surjective:
        raise ValidationError("symbolic expansion requires a shift-surjective presentation")
    move = {"move": "expand", "a0": a0, "star": star}

    if isinstance(p, FiniteShift):
        out_alphabet = Alphabet(p.alphabet.symbols + (star,))
        star_idx = len(p.alphabet.symbols)

        def eta(w: Word) -> Word:
            out = []
            for a in w:
                out.append(a)
                if a == a0_idx:
                    out.append(star_idx)
            return tuple(out)

        points = set()
        for x in p.points:
            y = Point(eta(x.pre), eta(x.per))
            points.add(y)
            points.add(y.shift())
        out = FiniteShift(out_alphabet, points, p.caps)
        return out, TransformReport(p.content_hash(), move, {"inserted_after": {a0: star}})

    states, edges = _as_labeled_graph(p)
    new_states = list(states)
    used = set(states)
    new_edges = []
    for i, (q, r, sym) in enumerate(sorted(edges)):
        if sym == a0:
            mid = _fresh_name(f"m{i:04d}", used)
            new_states.append(mid)
            new_edges.append((q, mid, a0))
            new_edges.append((mid, r, star))
        else:
            new_edges.append((q, r, sym))
    out = SoficShift.build(new_states, new_edges, p.caps)
    return out, TransformReport(p.content_hash(), move, {"inserted_after": {a0: star}})


# ---------------------------------------------------------------------------
# bipartite letter splitting


def split_letters(p: Presentation, expr: BipartiteExpression):
    """Split each letter a into the two-letter word expr(a) = (b, c).

    Returns the union shift (alternating first/second letters), the induced
    second shift (read from the midpoints, one pair-letter per step), and
    the report carrying both letter maps.
    """
    if set(expr.sources) != set(p.alphabet.symbols):
        raise ValidationError("bipartite expression must cover the alphabet exactly")
    if not p.sigma_surjective:
        raise ValidationError("letter splitting requires a shift-surjective presentation")

    states, edges = _as_labeled_graph(p)
    edges = sorted(edges)
    mids = {}
    union_states = list(states)
    used = set(states)
    union_edges = []
    for i, (q, r, sym) in enumerate(edges):
        b, c = expr.image(sym)
        mid = _fresh_name(f"m{i:04d}", used)
        mids[(q, r, sym, i)] = mid
        union_states.append(mid)
        union_edges.append((q, mid, b))
        union_edges.append((mid, r, c))
    union = SoficShift.build(union_states, union_edges, p.caps)

    second_edges = []
    second_map = {}
    by_source = {}
    for i, (q, r, sym) in enumerate(edges):
        by_source.setdefault(q, []).append((i, q, r, sym))
    for i, (q, r, sym) in enumerate(edges):
        _, c = expr.image(sym)
        for (j, q2, r2, sym2) in by_source.get(r, ()):
            b2, _ = expr.image(sym2)
            d = _join_names((c, b2))
            second_map[d] = [c, b2]
            second_edges.append((mids[(q, r, sym, i)], mids[(q2, r2, sym2, j)], d))
    second = SoficShift.build(list(mids.values()), second_edges, p.caps)

    report = TransformReport(
        p.content_hash(),
        {"move": "split", "f": expr.to_json()},
        {"first_alphabet": list(expr.first_symbols),
         "second_alphabet": list(expr.second_symbols),
         "induced_pairs": {d: second_map[d] for d in sorted(second_map)}},
    )
    return union, second, report
