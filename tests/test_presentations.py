import collections
import itertools
import random
import re

import pytest

from helpers import (
    DEAD_LETTER_FORMS,
    GOLDEN_FORMS,
    class_witnesses,
    forbidden_words,
    in_cylinder,
    inflated_forms,
    memory1_forms,
    oracle_memory,
    oracle_predecessors,
    oracle_state_set,
    oracle_window_graph,
    oracle_words,
    random_finite_shift,
    random_memory_sft,
    random_presentation,
    random_sofic,
    sft_contains,
    sparse_adjacency,
    window_ok,
)
from shiftk import (
    Alphabet,
    AlphabetMismatchError,
    ConsistencyError,
    FiniteShift,
    Point,
    ResourceCapError,
    SftShift,
    ValidationError,
    build_chain,
    dimension_triple,
    higher_block,
    k_groups,
    language,
    parse_presentation,
    predecessor_set,
    presentations,
)
from shiftk.partitions import chain_to_json, matrices_to_json
from shiftk.presentations import _live

from conftest import CORPUS_OBJECTS, make


# what an SFT holds once parsed: its live window graph at its own memory
HELD = {"alphabet", "memory", "window_graph"}


def words(p, k):
    return [p.alphabet.render_word(w) for w in language(p, k)]


def pt(p, pre, per):
    return Point.from_symbols(p.alphabet, pre, per)


# ---------------------------------------------------------------------------
# parsing


def test_parse_rejects_unknown_fields():
    with pytest.raises(ValidationError):
        parse_presentation({"type": "sft", "alphabet": ["0"], "forbidden": [], "extra": 1})
    with pytest.raises(ValidationError):
        parse_presentation({"type": "sft", "alphabet": ["0"]})
    with pytest.raises(ValidationError):
        parse_presentation({"type": "nonsense"})
    with pytest.raises(ValidationError):
        parse_presentation({"type": "finite", "alphabet": ["0"],
                            "points": [{"pre": [], "per": ["0"], "junk": 0}]})


def test_parse_rejects_bad_presentations():
    # empty-length forbidden word
    with pytest.raises(ValidationError):
        parse_presentation({"type": "sft", "alphabet": ["0"], "forbidden": [[]]})
    # not shift-closed
    with pytest.raises(ValidationError):
        parse_presentation({"type": "finite", "alphabet": ["0", "1"],
                            "points": [{"pre": ["1"], "per": ["0"]}]})
    # duplicate points after normalization
    with pytest.raises(ValidationError):
        parse_presentation({"type": "finite", "alphabet": ["0", "1"],
                            "points": [{"pre": [], "per": ["0"]},
                                       {"pre": ["0"], "per": ["0"]}]})
    # empty shift spaces are rejected
    with pytest.raises(ValidationError):
        parse_presentation({"type": "sft", "alphabet": ["0"], "forbidden": [["0"]]})
    with pytest.raises(ValidationError):
        parse_presentation({"type": "sofic", "states": ["a", "b"],
                            "edges": [["a", "b", "0"]]})


def test_sft_matrix_matches_explicit_vertex_sft():
    from_matrix = make("golden_mean_matrix")
    explicit = parse_presentation({
        "type": "sft", "alphabet": ["0", "1"], "forbidden": [["1", "1"]]})
    edges = {"type": "sft_edges", "alphabet": ["0", "1"],
             "edges": [["0", "0"], ["0", "1"], ["1", "0"]]}
    assert from_matrix.to_json() == explicit.to_json() == edges
    # every pair allowed is the full shift, of memory 0, as the all-ones matrix
    full = parse_presentation(dict(edges, edges=edges["edges"] + [["1", "1"]]))
    assert full.memory == 0 and full.to_json() == CORPUS_OBJECTS["full2"]


def test_sofic_trim_is_canonical():
    # state "c" has no return path and must be trimmed away
    p = parse_presentation({"type": "sofic", "states": ["b", "a", "c"],
                            "edges": [["a", "a", "0"], ["a", "b", "1"], ["b", "a", "0"],
                                      ["a", "c", "1"]]})
    assert p.states == ("a", "b")
    assert p.to_json()["edges"] == [["a", "a", "0"], ["a", "b", "1"], ["b", "a", "0"]]


def test_sofic_parse_holds_only_the_trimmed_graph():
    # the matrices, the Cayley table and the contexts are built on first use
    for name, obj in CORPUS_OBJECTS.items():
        if obj["type"] == "sofic":
            p = parse_presentation(obj)
            assert set(vars(p)) == {"states", "alphabet", "edges"}, name
            p.contexts
            assert {"_rows", "_monoid", "contexts"} <= set(vars(p)), name


@pytest.mark.parametrize("obj", [
    {"type": "finite", "alphabet": ["0"], "points": []},
    {"type": "sft", "alphabet": ["0", "1"], "forbidden": [["0"], ["1"]]},
    {"type": "sft_edges", "alphabet": ["0", "1", "2"], "edges": [["0", "1"], ["1", "2"]]},
    {"type": "sft_matrix", "adjacency": [[0, 1], [0, 0]]},
    {"type": "sofic", "states": ["a", "b", "c"], "edges": [["a", "b", "0"], ["b", "c", "1"]]},
], ids=lambda obj: obj["type"])
def test_every_kind_refuses_the_empty_shift_at_parse(obj):
    with pytest.raises(ValidationError, match="^presentation describes the empty shift space$"):
        parse_presentation(obj)


def test_the_full_2_shift_parses_at_every_given_memory():
    # all binary words of length 13 and of 14: 4096 and 8192 windows at the
    # memory given, one at the shift's own memory 0
    full2 = parse_presentation(CORPUS_OBJECTS["full2"]).canonical_bytes()
    assert full2 == b'{"type":"sft","alphabet":["0","1"],"forbidden":[]}'
    for length in (13, 14):
        obj = {"type": "sft_edges", "alphabet": ["0", "1"],
               "edges": [list(w) for w in itertools.product("01", repeat=length)]}
        assert parse_presentation(obj).canonical_bytes() == full2, length


def test_a_forbidden_word_search_past_the_cap_is_refused(monkeypatch):
    # the full 2-shift on 0 and 1, with 2 forbidden, given at memory 4: the
    # search meets 16 admissible windows, and its own memory has one
    obj = {"type": "sft", "alphabet": ["0", "1", "2"], "forbidden": [["2"], ["2"] * 5]}
    monkeypatch.setattr(presentations, "MAX_CONTEXTS", 15)
    with pytest.raises(ResourceCapError, match="^number of suffix windows exceeds cap 15$"):
        parse_presentation(obj)
    monkeypatch.setattr(presentations, "MAX_CONTEXTS", 16)
    assert parse_presentation(obj).to_json() == dict(obj, forbidden=[["2"]])


# ---------------------------------------------------------------------------
# language


def test_language_examples(full2, golden_mean):
    assert words(full2, 2) == ["00", "01", "10", "11"]
    assert words(golden_mean, 2) == ["00", "01", "10"]
    for name in CORPUS_OBJECTS:
        assert language(make(name), 0) == [()]


def test_language_factorial_property():
    # prefix truncation is always onto (points are right-infinite); suffix
    # truncation is onto exactly when every word extends to the left, i.e.
    # for shift-surjective presentations
    for name in CORPUS_OBJECTS:
        p = make(name)
        for k in range(3):
            lk = set(language(p, k))
            lk1 = language(p, k + 1)
            assert {w[:-1] for w in lk1} == lk
            suffixes = {w[1:] for w in lk1}
            assert suffixes <= lk
            if p.sigma_surjective:
                assert suffixes == lk


def test_language_suffix_projection_gap_without_surjectivity(pair):
    # the letter 1 occurs only at position 0 in {0^inf, 10^inf}
    assert {w[1:] for w in language(pair, 2)} == {(0,)}
    assert set(language(pair, 1)) == {(0,), (1,)}


def test_language_cap(monkeypatch):
    p = parse_presentation(CORPUS_OBJECTS["full4"])
    monkeypatch.setattr(presentations, "MAX_LANGUAGE_WORDS", 5)
    with pytest.raises(ResourceCapError):
        language(p, 3)


def test_sofic_subset_cap(monkeypatch):
    # the monoid of the even shift has 7 matrices: the graph parses under a
    # cap of 6, and its first use is refused
    monkeypatch.setattr(presentations, "MAX_CONTEXTS", 6)
    p = parse_presentation(CORPUS_OBJECTS["even"])
    with pytest.raises(ResourceCapError, match="^sofic subset construction exceeds cap 6$"):
        p.contexts


def test_sft_window_cap_counts_every_window(monkeypatch):
    # memory 1 with all 6 one-letter windows, and memory 2 with all 9 two-letter windows
    six = {"type": "sft_matrix", "adjacency": [[0] + [1] * 5] + [[1] * 6] * 5}
    nine = {"type": "sft", "alphabet": ["0", "1", "2"], "forbidden": [["0", "0", "0"]]}
    for obj, windows in ((six, 6), (nine, 9)):
        monkeypatch.setattr(presentations, "MAX_CONTEXTS", windows)
        assert len(parse_presentation(obj).contexts) == windows
        for cap in (2, windows - 2, windows - 1):
            monkeypatch.setattr(presentations, "MAX_CONTEXTS", cap)
            with pytest.raises(ResourceCapError):
                parse_presentation(obj)


def test_each_cap_refuses_one_past_it_with_its_own_message(monkeypatch):
    # every reader takes the cap at call time, so one setattr on
    # presentations reaches them all, the recoding in transforms included
    six = {"type": "sft_matrix", "adjacency": [[0] + [1] * 5] + [[1] * 6] * 5}
    # two states joined every way by 0: one block of length 3, but 8 paths of 2 edges
    zeros = parse_presentation({"type": "sofic", "states": ["a", "b"],
                                "edges": [[q, r, "0"] for q in "ab" for r in "ab"]})
    full2 = make("full2")
    # (cap, the count the call meets, call, message): refused at a cap of
    # count - 1, run through at a cap of count
    cases = [
        ("MAX_CONTEXTS", 6, lambda: parse_presentation(six),
         "number of suffix windows exceeds cap"),
        ("MAX_CONTEXTS", 7, lambda: parse_presentation(CORPUS_OBJECTS["even"]).contexts,
         "sofic subset construction exceeds cap"),
        ("MAX_CONTEXTS", 8, lambda: higher_block(full2, 3),
         "higher-block alphabet of 8 blocks exceeds cap"),
        ("MAX_CONTEXTS", 8, lambda: higher_block(zeros, 3),
         "higher-block path graph exceeds cap"),
        ("MAX_LANGUAGE_WORDS", 8, lambda: language(full2, 3),
         "language size exceeds cap"),
        ("MAX_LANGUAGE_WORDS", 8, lambda: predecessor_set(full2, full2.contexts[0], 3),
         "predecessor set exceeds cap"),
    ]
    for cap, count, call, message in cases:
        monkeypatch.setattr(presentations, cap, count - 1)
        with pytest.raises(ResourceCapError, match=f"^{message} {count - 1}$"):
            call()
        monkeypatch.setattr(presentations, cap, count)
        call()


def test_sft_matrix_rejects_bad_entries():
    with pytest.raises(ValidationError):
        parse_presentation({"type": "sft_matrix", "adjacency": [[1, 2], [1, 0]]})
    with pytest.raises(ValidationError):
        parse_presentation({"type": "sft_matrix", "adjacency": [[1, 1], [1]]})


def test_language_prunes_dead_prefixes():
    # after a 0 nothing can follow, so the only point is 1^infinity
    p = parse_presentation({"type": "sft", "alphabet": ["0", "1"],
                            "forbidden": [["0", "0"], ["0", "1"]]})
    assert words(p, 2) == ["11"]


def _random_vertex_sft(rng):
    """Vertex SFT of a random 0/1 matrix, zero rows and columns allowed."""
    n = rng.randint(1, 4)
    return {"type": "sft_matrix",
            "adjacency": [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]}


def _random_presentations(rng, per_kind=100):
    """``per_kind`` nonempty presentations from each random generator."""
    out = []
    for generate in (random_presentation,
                     lambda rng: random_memory_sft(rng, rng.randint(1, 4)),
                     _random_vertex_sft):
        made = 0
        while made < per_kind:
            try:
                out.append(parse_presentation(generate(rng)))
            except ValidationError:
                continue
            made += 1
    return out


def test_language_matches_the_union_of_oracle_predecessor_sets():
    # L_k is the union of P_k(x) over one witness x per context, each
    # predecessor set found by brute-force membership tests
    cases = [make(name) for name in CORPUS_OBJECTS] + _random_presentations(random.Random(41))
    assert {p.kind for p in cases} == {"finite", "sft", "sofic"}
    for p in cases:
        witnesses = class_witnesses(p)
        for ctx, x in witnesses:
            assert p.context_of(x) == ctx
        for k in range(6):
            oracle = sorted({u for _, x in witnesses for u in oracle_predecessors(p, x, k)})
            assert language(p, k) == oracle, (p.to_json(), k)


def test_window_graph_edges_are_the_words_of_length_memory_plus_one():
    rng = random.Random(43)
    cases = [make(name) for name in CORPUS_OBJECTS] + _random_presentations(rng, 30)
    for p in cases:
        if not isinstance(p, SftShift):
            continue
        graph = p.window_graph
        assert list(graph) == sorted(p.contexts)
        edges = [w + (a,) for w, out in graph.items() for a, w2 in out if w2 == (w + (a,))[1:]]
        assert edges == language(p, p.memory + 1), p.to_json()


def _random_sft(rng, m):
    """SFT of memory m over 1-3 letters: forbidden words of lengths 1..m+1, one
    of length m + 1 (at memory 0, half the time, no forbidden word at all)."""
    n = rng.randint(1, 3)
    alphabet = [str(i) for i in range(n)]
    forbidden = set()
    if m or rng.random() < 0.5:
        forbidden.add(tuple(rng.randrange(n) for _ in range(m + 1)))
        for _ in range(rng.randint(0, 3)):
            forbidden.add(tuple(rng.randrange(n) for _ in range(rng.randint(1, m + 1))))
    return {"type": "sft", "alphabet": alphabet,
            "forbidden": [[alphabet[a] for a in w] for w in sorted(forbidden)]}


def _sft_cases(seed, count=250):
    """The corpus SFTs, then ``count`` nonempty random SFTs of memory 0-4, each
    with the forbidden words it was given."""
    rng = random.Random(seed)
    objs = [obj for obj in CORPUS_OBJECTS.values() if obj["type"].startswith("sft")]
    cases = [(parse_presentation(obj), forbidden_words(obj)) for obj in objs]
    end = len(cases) + count
    while len(cases) < end:
        obj = _random_sft(rng, rng.randint(0, 4))
        try:
            cases.append((parse_presentation(obj), forbidden_words(obj)))
        except ValidationError:
            continue
    assert {p.memory for p, _ in cases} == {0, 1, 2, 3, 4}
    assert any(not forbidden for _, forbidden in cases) and any(p.memory == 0 and forbidden
                                                                for p, forbidden in cases)
    assert any(p.memory == 1 and (a,) in forbidden for p, forbidden in cases for a in p.alphabet)
    return cases


def test_sft_steps_match_prepending_to_each_window():
    # the table read off the window graph against prepending a to a point x
    # of each live window w: context (a.w)[:memory] when a.x has no factor
    # among the words the input forbids
    for p, forbidden in _sft_cases(47):
        idx = p.context_index
        expected = []
        for c in p.contexts:
            x = p.witness(c)
            assert sft_contains(forbidden, x) and x.prefix(p.memory) == c, p.to_json()
            expected.append(tuple((a, idx[((a,) + c)[:p.memory]])
                                  for a in p.alphabet if sft_contains(forbidden, x.prepend((a,)))))
        assert p.steps == tuple(expected), p.to_json()


def test_window_ok_is_the_brute_force_factor_check():
    # a point is in the shift exactly when no factor is a word the input
    # forbids, and no word of the language has one
    rng = random.Random(53)
    for p, forbidden in _sft_cases(59, 200):
        n = len(p.alphabet)
        for _ in range(10):
            x = Point(tuple(rng.randrange(n) for _ in range(rng.randint(0, 4))),
                      tuple(rng.randrange(n) for _ in range(rng.randint(1, 4))))
            assert p.contains(x) == sft_contains(forbidden, x), (p.to_json(), x)
        assert all(window_ok(forbidden, w) for k in range(6) for w in language(p, k)), p.to_json()


# ---------------------------------------------------------------------------
# context trims: one worklist pass against the round-based fixpoints


def _round_based_live(successors):
    """Greatest set in which every member has a successor member, by whole
    passes that drop members with none until a pass drops nothing."""
    alive = set(successors)
    changed = True
    while changed:
        changed = False
        for u in sorted(alive):
            if not any(v in alive for v in successors[u]):
                alive.discard(u)
                changed = True
    return alive


def _round_based_longest(successors, live):
    """The longest path of each node outside ``live``: the number of whole
    passes, shrinking the node set to the nodes with a successor left, that
    keep it."""
    cur, passes, longest = set(successors), 0, {}
    while cur != live:
        nxt = {u for u in cur if any(v in cur for v in successors[u])}
        longest.update(dict.fromkeys(cur - nxt, passes))
        cur, passes = nxt, passes + 1
    return longest


def test_live_is_the_round_based_greatest_fixpoint():
    rng = random.Random(67)
    for _ in range(500):
        n = rng.randint(0, 12)
        successors = {u: [rng.randrange(n) for _ in range(rng.randint(0, 3))] for u in range(n)}
        live = _round_based_live(successors)
        assert _live(successors) == (live, _round_based_longest(successors, live)), successors
    for _ in range(200):
        # edges down to smaller nodes and one more edge: long dying paths
        n = rng.randint(1, 40)
        successors = {u: [rng.randrange(u) for _ in range(rng.randint(0, 3) if u else 0)]
                      for u in range(n)}
        successors[rng.randrange(n)].append(rng.randrange(n))
        live = _round_based_live(successors)
        assert _live(successors) == (live, _round_based_longest(successors, live)), successors


def _dead_path(n):
    """Vertex SFT of a loop at 0 feeding the path 0 -> 1 -> ... -> n-1, whose
    last vertex has no successor: only the fixed point 0^inf is left."""
    return {"type": "sft_matrix",
            "adjacency": [[int(j == i + 1 or i == j == 0) for j in range(n)] for i in range(n)]}


def _round_based_window_graph(obj):
    """The window graph of an SFT given as JSON at the memory it was given,
    from its forbidden words alone: the number of admissible windows, and
    those trimmed by whole passes, each live window with its (letter, next
    live window) edges."""
    if obj["type"] == "sft_matrix":
        adj = obj["adjacency"]
        n = len(adj)
        forbidden = {(i, j) for i in range(n) for j in range(n) if not adj[i][j]}
    else:
        n = len(obj["alphabet"])
        idx = {s: i for i, s in enumerate(obj["alphabet"])}
        forbidden = {tuple(idx[s] for s in w) for w in obj["forbidden"]}
    m = max(map(len, forbidden), default=1) - 1
    windows = [w for w in itertools.product(range(n), repeat=m) if window_ok(forbidden, w)]

    def after(w, a):
        return (w + (a,))[-m:] if m else ()

    def edges(w, alive):
        return tuple((a, after(w, a)) for a in range(n)
                     if window_ok(forbidden, w + (a,)) and after(w, a) in alive)
    live = _round_based_live({w: [w2 for _, w2 in edges(w, windows)] for w in windows})
    return len(windows), {w: edges(w, live) for w in sorted(live)}


def test_sft_window_graph_is_the_round_based_trim(monkeypatch):
    # the trim at the given memory, then lowered to the least memory at which
    # the words of length given memory + 1 are those of its edges.  The cap
    # reads the live windows at that least memory; an `sft` file's search,
    # which its forbidden words do not bound, reads its admissible windows
    # at the given memory as it finds them
    rng = random.Random(71)
    objs = [obj for obj in CORPUS_OBJECTS.values() if obj["type"] in ("sft", "sft_matrix")]
    objs += [_dead_path(n) for n in (1, 2, 3, 7)]
    for i in range(300):
        objs.append(_random_sft(rng, rng.randint(0, 4)) if i % 2 else _random_vertex_sft(rng))
    seen = collections.Counter()
    for cap in (presentations.MAX_CONTEXTS, 5, 2):
        monkeypatch.setattr(presentations, "MAX_CONTEXTS", cap)
        for obj in objs:
            admissible, expected = _round_based_window_graph(obj)
            n = len(obj.get("alphabet") or obj["adjacency"])
            if obj["type"] == "sft" and admissible > cap:
                seen["search"] += 1
                with pytest.raises(ResourceCapError, match="suffix windows exceeds cap"):
                    parse_presentation(obj)
                continue
            if not expected:
                with pytest.raises(ValidationError, match="empty shift space"):
                    parse_presentation(obj)
                continue
            edges = {w + (a,) for w, out in expected.items() for a, _ in out}
            memory = oracle_memory(n, edges)
            graph = oracle_window_graph(edges, memory)
            if len(graph) > cap:
                seen["live"] += 1
                with pytest.raises(ResourceCapError, match="suffix windows exceeds cap"):
                    parse_presentation(obj)
                continue
            p = parse_presentation(obj)
            assert p.memory == memory and p.window_graph == graph, obj
            seen["over the cap only as given"] += admissible > cap
    assert min(seen.values()) >= 10, seen


def _explicit_vertex_sft(adjacency):
    """The vertex SFT of a 0/1 matrix as forbidden words: its zero entries."""
    n = len(adjacency)
    return SftShift(Alphabet(tuple(str(i) for i in range(n))),
                    [(i, j) for i in range(n) for j in range(n) if not adjacency[i][j]])


def test_sft_parse_tests_each_prefix_and_letter_once(monkeypatch):
    # the round-based trim retested every window and letter on every pass:
    # a path into a dead vertex took one pass per vertex.  The prefix search
    # tests each (prefix, letter) once, at parse; a matrix reads its window
    # graph off its rows and tests no prefix at all.
    calls = collections.Counter()   # lookups in the forbidden words, by word

    class Counting(frozenset):
        def __contains__(self, word):
            calls[word] += 1
            return frozenset.__contains__(self, word)
    search = presentations._forbidden_word_graph
    monkeypatch.setattr(presentations, "_forbidden_word_graph",
                        lambda alphabet, words, m: search(alphabet, Counting(words), m))
    dead = _dead_path(60)
    # 0^inf alone, of memory 0
    assert parse_presentation(dead).contexts == ((),)
    assert not calls
    assert _explicit_vertex_sft(dead["adjacency"]).contexts == ((),)
    assert max(calls.values()) == 1 and {len(w) for w in calls} == {2}
    # the dead path written with its forbidden words of length 3, given at
    # memory 2
    calls.clear()
    n = 20
    adj = _dead_path(n)["adjacency"]
    forbidden = {w for w in itertools.product(range(n), repeat=3)
                 if not (adj[w[0]][w[1]] and adj[w[1]][w[2]])}
    p = SftShift(Alphabet(tuple(str(i) for i in range(n))), forbidden)
    assert p.memory == 0 and p.contexts == ((),)
    assert max(calls.values()) == 1 and {len(w) for w in calls} == {3}
    assert all(window_ok(forbidden, word[:-1]) for word in calls)


def _random_adjacency(rng):
    """A random 0/1 matrix on 1-7 vertices at a random density, so zero rows
    and columns, dead vertices and the all-ones matrix all occur."""
    n = rng.randint(1, 7)
    density = rng.choice([0.15, 0.3, 0.5, 0.8, 1.0])
    return [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]


def test_sft_matrix_parse_is_the_forbidden_pair_sft():
    # the window graph read off the matrix against the prefix search over its
    # zero entries: the same shift, memory, contexts and bytes, and each
    # holds its window graph alone
    rng = random.Random(73)
    adjacencies = [obj["adjacency"] for obj in CORPUS_OBJECTS.values()
                   if obj["type"] == "sft_matrix"] + [_dead_path(n)["adjacency"] for n in (1, 5)]
    while len(adjacencies) < 260:
        adjacencies.append(_random_adjacency(rng))
    empty = 0
    zero_lines = 0
    for adj in adjacencies:
        obj = {"type": "sft_matrix", "adjacency": adj}
        try:
            q = _explicit_vertex_sft(adj)
            assert set(vars(q)) == HELD, adj
        except ValidationError as exc:
            with pytest.raises(ValidationError) as info:
                parse_presentation(obj)
            assert str(info.value) == str(exc)
            empty += 1
            continue
        p = parse_presentation(obj)
        assert set(vars(p)) == HELD, adj
        zero_lines += any(not any(row) for row in adj) or any(not any(col) for col in zip(*adj))
        assert p.memory == q.memory and p.window_graph == q.window_graph, adj
        assert p.contexts == q.contexts and p.steps == q.steps, adj
        n = len(adj)
        points = [x for _, x in class_witnesses(q)]
        for _ in range(20):
            points.append(Point(tuple(rng.randrange(n) for _ in range(rng.randint(0, 3))),
                                tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))))
        forbidden = forbidden_words(obj)
        for x in points:
            assert p.contains(x) == q.contains(x) == sft_contains(forbidden, x)
            if q.contains(x):
                assert p.context_of(x) == q.context_of(x)
        assert p.canonical_bytes() == q.canonical_bytes()
        assert p.content_hash() == q.content_hash()
        # the graph of the words of length 2, at the least memory they give
        words = oracle_words(n, forbidden, 2)
        assert p.memory == oracle_memory(n, words), adj
        assert p.window_graph == oracle_window_graph(words, p.memory), adj
    assert empty >= 5 and zero_lines >= 50, (empty, zero_lines)
    with pytest.raises(ValidationError, match="^presentation describes the empty shift space$"):
        parse_presentation({"type": "sft_matrix", "adjacency": [[0] * 3] * 3})


# ---------------------------------------------------------------------------
# one canonical form for SFTs of memory 1: the edge list


def _memory1_case(rng):
    """(letter count, allowed two-letter words, forbidden words) of a random
    shift given either by a 0/1 matrix (zero rows and columns, dead vertices
    and the all-ones matrix all occur) or by forbidden letters and pairs."""
    if rng.random() < 0.5:
        adj = _random_adjacency(rng)
        n = len(adj)
        allowed = {(a, b) for a in range(n) for b in range(n) if adj[a][b]}
        return n, allowed, sorted({(a, b) for a in range(n) for b in range(n)} - allowed)
    n = rng.randint(2, 7)
    letters = set(rng.sample(range(n), rng.randint(1, n - 1)))
    pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, n * n // 2))}
    allowed = {(a, b) for a in range(n) for b in range(n)
               if a not in letters and b not in letters and (a, b) not in pairs}
    return n, allowed, sorted((a,) for a in letters) + sorted(pairs)


def _invariant_outputs(p):
    """What the commands print of a shift besides its hash: K-groups, the
    triple, and the ``classes`` and ``matrices`` payloads."""
    limit, chain = build_chain(p, 1), build_chain(p, 3)
    kg = k_groups(limit)
    return (kg.k0.to_json(), kg.k1.to_json(), dimension_triple(limit).to_json(),
            chain_to_json(chain), matrices_to_json(chain))


def _assert_one_form(forms):
    """The SFT objects ``forms`` of one shift give one canonical form, hash,
    window graph and invariants, or, among the forms given at one memory,
    one refusal.  The cap counts the windows at the given memory, so forms
    given at different memories are not held to one refusal; at the default
    cap these small shifts meet none, and the empty shift refuses in every
    form.  Returns the first parse, or None when every form is refused."""
    parsed, refused = [], {}
    for obj in forms:
        try:
            parsed.append(parse_presentation(obj))
        except ValidationError as exc:
            memory = max(map(len, forbidden_words(obj)), default=1) - 1
            refused.setdefault(memory, set()).add(str(exc))
    assert all(len(messages) == 1 for messages in refused.values()), (forms, refused)
    assert not (parsed and refused), (forms, refused)
    if not parsed:
        return None
    first = parsed[0]
    for q in parsed[1:]:
        assert q.canonical_bytes() == first.canonical_bytes(), forms
        assert q.content_hash() == first.content_hash() and q == first, forms
        assert q.memory == first.memory and q.window_graph == first.window_graph, forms
        assert _invariant_outputs(q) == _invariant_outputs(first), forms
    return first


def test_memory1_forms_share_one_canonical_form():
    # a matrix, forbidden words (forbidden letters included) and an edge list
    # of one shift give the same canonical bytes, hash, window graph and
    # invariants, or the same refusal; so do its forms given at a higher
    # memory, and the canonical form is the edge list of the words of length
    # 2 that occur, or at memory 0 the letters that do not.  Then redundant
    # forbidden words, a dead letter three ways, and a memory-2 shift
    # against its forms at memories 3 and 4.
    memory2 = {"type": "sft", "alphabet": ["0", "1"], "forbidden": [["1", "0", "1"]]}
    rng = random.Random(2031)
    for forms, memory, canonical in (
            (GOLDEN_FORMS, 1, {"type": "sft_edges", "alphabet": ["0", "1"],
                               "edges": [["0", "1"], ["1", "0"], ["1", "1"]]}),
            (DEAD_LETTER_FORMS, 0, DEAD_LETTER_FORMS[2]),
            ([memory2] + inflated_forms(memory2, rng, 1) + inflated_forms(memory2, rng, 2), 2,
             {"type": "sft_edges", "alphabet": ["0", "1"],
              "edges": [list(w) for w in ("000", "001", "010", "011", "100", "110", "111")]})):
        first = _assert_one_form(forms)
        assert first.memory == memory and first.to_json() == canonical, forms
    rng = random.Random(2027)
    seen = collections.Counter()
    for _ in range(320):
        n, allowed, forbidden = _memory1_case(rng)
        forms = memory1_forms(n, allowed, forbidden)
        forms += inflated_forms(forms[0], rng, rng.randint(1, 2))
        first = _assert_one_form(forms)
        if first is None:
            seen["empty"] += 1
            continue
        words = oracle_words(n, set(forbidden), 2)
        assert first.memory == oracle_memory(n, words), forms
        symbols = forms[1]["alphabet"]
        if first.memory:
            assert first.to_json() == dict(forms[2], edges=[[symbols[a] for a in w]
                                                            for w in sorted(words)]), forms
        else:
            live = {w[0] for w in words}
            assert first.to_json() == dict(forms[1], forbidden=[
                [s] for a, s in enumerate(symbols) if a not in live]), forms
        seen["memory 1" if first.memory else "memory 0"] += 1
        seen["dead edge"] += len(words) < len(allowed)
        seen["forbidden letter"] += any(len(w) == 1 for w in forbidden)
    assert min(seen.values()) >= 5 and seen["memory 1"] >= 120, seen


def test_the_memory_is_the_least_step_of_the_shift():
    # the memory of a parse against the least M whose words of length M + 1
    # give the shift's words of length given memory + 1, on random SFTs of
    # given memory 0-4 and random matrices
    rng = random.Random(2033)
    lowered = collections.Counter()
    cases = 0
    while cases < 700:
        obj = _random_sft(rng, rng.randint(0, 4)) if cases % 7 else _random_vertex_sft(rng)
        forbidden = forbidden_words(obj)
        m = max(map(len, forbidden), default=1) - 1
        try:
            p = parse_presentation(obj)
        except ValidationError:
            continue
        cases += 1
        words = oracle_words(len(p.alphabet), forbidden, m + 1)
        assert p.memory == oracle_memory(len(p.alphabet), words), obj
        assert p.window_graph == oracle_window_graph(words, p.memory), obj
        lowered[m - p.memory] += 1
    assert lowered[0] >= 300 and sum(lowered.values()) - lowered[0] >= 100, lowered
    # {0^inf, 10^inf}: both letters are followed by 0 alone, but 11 never
    # occurs, so it is not 0-step, one-sided
    pair = parse_presentation({"type": "sft_matrix", "adjacency": [[1, 0], [1, 0]]})
    assert pair.memory == 1 and pair.window_graph == {(0,): ((0, (0,)),), (1,): ((0, (0,)),)}


def test_memory1_forms_hold_only_their_successor_lists(monkeypatch):
    # every form of an SFT of memory 1 is held as the successor lists of its
    # live windows alone, with no forbidden set; the forbidden words run the
    # prefix search once, at parse, and a matrix or an edge list runs none
    runs = []
    search = presentations._forbidden_word_graph
    monkeypatch.setattr(presentations, "_forbidden_word_graph",
                        lambda *args: runs.append(args) or search(*args))
    rng = random.Random(2029)
    seen = collections.Counter()
    while seen["memory 1"] < 100:
        n, allowed, forbidden = _memory1_case(rng)
        forms = memory1_forms(n, allowed, forbidden)
        try:
            if parse_presentation(forms[0]).memory != 1:
                continue
        except ValidationError:
            continue
        ps = []
        for obj in forms:
            runs.clear()
            ps.append(parse_presentation(obj))
            assert len(runs) == (obj["type"] == "sft"), obj
            assert set(vars(ps[-1])) == HELD, obj
            assert ps[-1].window_graph == ps[0].window_graph, forms
        seen["memory 1"] += 1
        seen["dead letter"] += len(ps[0].window_graph) < n
        seen["forbidden letter"] += any(len(w) == 1 for w in forbidden)
    assert min(seen.values()) >= 20, seen


def test_memory1_forms_meet_one_cap_rule(monkeypatch):
    # only the live windows of an SFT, at its own memory, count against the
    # context cap, in each form: three forbidden letters of five leave the
    # golden mean on 0 and 1, two windows, and so does its edge list at
    # memory 2.  Its forbidden words at memory 2 are searched at memory 2,
    # where at least the windows 00, 01 and 10 are admissible: more than 2.
    allowed = {(0, 0), (0, 1), (1, 0)}
    forms = memory1_forms(5, allowed, [(2,), (3,), (4,), (1, 1)])
    edges, *searched = inflated_forms(forms[1], random.Random(2039), 1)
    forms.append(edges)
    for cap, objs in ((1, forms), (2, searched)):
        monkeypatch.setattr(presentations, "MAX_CONTEXTS", cap)
        for obj in objs:
            with pytest.raises(ResourceCapError,
                               match=f"^number of suffix windows exceeds cap {cap}$"):
                parse_presentation(obj)
    assert len({parse_presentation(obj).canonical_bytes() for obj in forms}) == 1


def test_to_json_round_trips():
    # the canonical form of every kind parses back to the same presentation
    rng = random.Random(2028)
    objs = list(CORPUS_OBJECTS.values())
    while len(objs) < 250:
        objs.append(random_presentation(rng) if len(objs) % 2 else _random_vertex_sft(rng))
    kinds = collections.Counter()
    for obj in objs:
        try:
            p = parse_presentation(obj)
        except ValidationError:
            continue
        q = parse_presentation(p.to_json())
        assert q.canonical_bytes() == p.canonical_bytes() and q.contexts == p.contexts, obj
        assert q.steps == p.steps, obj
        kinds[q.to_json()["type"]] += 1
    assert set(kinds) == {"sft", "sft_edges", "sofic", "finite"}, kinds


def test_a_duplicated_edge_is_one_edge():
    once = {"type": "sft_edges", "alphabet": ["0", "1"],
            "edges": [["0", "0"], ["0", "1"], ["1", "0"]]}
    twice = dict(once, edges=once["edges"] + [["1", "0"], ["0", "0"]])
    canonical = parse_presentation(once).canonical_bytes()
    assert parse_presentation(twice).canonical_bytes() == canonical
    # as a duplicated forbidden word is one forbidden word
    forbidden = {"type": "sft", "alphabet": ["0", "1"], "forbidden": [["1", "1"], ["1", "1"]]}
    assert parse_presentation(forbidden).canonical_bytes() == canonical


@pytest.mark.parametrize("obj, message", [
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": 5},
     "edges must be a list of words"),
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": "01"},
     "edges must be a list of words"),
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": ["01"]},
     "edge '01' must be a list of two or more symbols"),
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": [["0"]]},
     "edge ['0'] must be a list of two or more symbols"),
    # a lone word of length 3 is a memory-2 edge list with no cycle
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": [["0", "1", "0"]]},
     "presentation describes the empty shift space"),
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": [["0", "0"], ["0", "1", "0"]]},
     "edges must have one length, not [2, 3]"),
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": [["0", "2"]]},
     "symbol '2' not in alphabet ['0', '1']"),
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": [["0", ["1"]]]},
     "symbol ['1'] not in alphabet ['0', '1']"),
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": [[0, "1"]]},
     "symbol 0 not in alphabet ['0', '1']"),
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": []},
     "presentation describes the empty shift space"),
    ({"type": "sft_edges", "alphabet": ["0", "1"], "edges": [["0", "1"]]},
     "presentation describes the empty shift space"),
    ({"type": "sft_edges", "alphabet": "01", "edges": [["0", "1"]]},
     "alphabet must be a list of symbols"),
    ({"type": "sft_edges", "alphabet": ["0", "0"], "edges": [["0", "0"]]},
     "alphabet symbols must be distinct"),
    ({"type": "sft_edges", "alphabet": ["0"]},
     "missing fields for type 'sft_edges': ['edges']"),
    ({"type": "sft_edges", "alphabet": ["0"], "edges": [], "forbidden": []},
     "unknown fields for type 'sft_edges': ['forbidden']"),
], ids=["edges-int", "edges-string", "edge-string", "edge-single", "edge-triple",
        "mixed-length", "unknown-symbol", "symbol-list", "symbol-int", "no-edge", "no-cycle",
        "alphabet-string", "alphabet-repeated", "missing-edges", "extra-field"])
def test_malformed_edge_lists_are_refused(obj, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_presentation(obj)


def test_canonical_bytes_grow_with_the_edges():
    # a sparse vertex SFT, 5 edges per vertex: as forbidden pairs its
    # canonical bytes were 14.4 MB
    n = 1024
    adjacency = sparse_adjacency(random.Random(n), n, 4)
    p = parse_presentation({"type": "sft_matrix", "adjacency": adjacency})
    assert set(vars(p)) == HELD
    assert len(p.canonical_bytes()) < 32 * sum(map(sum, adjacency)) + 16 * n
    # memory 2 over 64 letters: the paths of two steps of a sparse graph, one
    # in three dropped unless it follows the permutation; as forbidden
    # triples the bytes would grow with 64^3
    rng = random.Random(64)
    adjacency = sparse_adjacency(rng, 64, 2)
    succ = [[b for b in range(64) if row[b]] for row in adjacency]
    first = [row.index(1) for row in adjacency]
    triples = [(a, b, c) for a in range(64) for b in succ[a] for c in succ[b]
               if c == first[b] or rng.random() < 2 / 3]
    p = SftShift._from_words(Alphabet(tuple(map(str, range(64)))), triples, 3)
    q = parse_presentation(p.to_json())
    edges = sum(map(len, p.window_graph.values()))
    assert p.memory == 2 and set(vars(q)) == HELD and q.window_graph == p.window_graph
    assert len(p.canonical_bytes()) < 16 * edges + 16 * 64 < len(triples) * 20


def _round_based_trim(names, triples):
    """States kept by repeatedly dropping those without an in- and an out-edge."""
    alive = set(names)
    while True:
        outs = {q for (q, r, _) in triples if q in alive and r in alive}
        ins = {r for (q, r, _) in triples if q in alive and r in alive}
        if alive & outs & ins == alive:
            return alive
        alive &= outs & ins


def _round_based_good(p):
    _, masks, succ = p._monoid
    good = {i for i, mask in enumerate(masks) if mask}
    changed = True
    while changed:
        changed = False
        for i in list(good):
            if not any(j in good and masks[j] == masks[i] for j in succ[i]):
                good.discard(i)
                changed = True
    return good


def test_sofic_trim_and_good_set_are_the_round_based_fixpoints():
    rng = random.Random(73)
    objs = [CORPUS_OBJECTS["even"]] + [random_sofic(rng) for _ in range(400)]
    for obj in objs:
        kept = _round_based_trim(obj["states"], {tuple(e) for e in obj["edges"]})
        if not kept:
            with pytest.raises(ValidationError, match="empty shift space"):
                parse_presentation(obj)
            continue
        p = parse_presentation(obj)
        assert p.states == tuple(sorted(kept)), obj
        assert p._good == _round_based_good(p), obj


def test_finite_steps_are_prepending_to_each_point():
    rng = random.Random(79)
    cases = [p for p in map(make, CORPUS_OBJECTS) if isinstance(p, FiniteShift)]
    cases += [parse_presentation(random_finite_shift(rng, 3)) for _ in range(200)]
    for p in cases:
        idx = p.context_index
        expected = tuple(
            tuple((a, j) for a in p.alphabet
                  if (j := idx.get(c.prepend((a,)))) is not None)
            for c in p.contexts)
        assert p.steps == expected, p.to_json()


# ---------------------------------------------------------------------------
# membership


def test_contains_examples(golden_mean, pair):
    assert golden_mean.contains(pt(golden_mean, [], ["1", "0"]))
    assert not golden_mean.contains(pt(golden_mean, ["1", "1"], ["0"]))
    assert not pair.contains(pt(pair, ["0", "1"], ["0"]))
    assert pair.contains(pt(pair, ["1"], ["0"]))


def test_contains_normalization_invariance(golden_mean):
    a = Point((1, 0), (1, 0))
    b = Point((), (1, 0))
    assert a == b
    assert golden_mean.contains(a) == golden_mean.contains(b)


def test_sofic_contains_matches_state_sets(even):
    samples = [
        Point((), (0,)), Point((), (1,)), Point((0,), (1,)), Point((0, 0), (1,)),
        Point((), (0, 1)), Point((), (1, 0)), Point((1,), (0, 0, 1)),
        Point((0,), (0, 0, 1, 1)),
    ]
    for x in samples:
        assert even.contains(x) == bool(oracle_state_set(even, x))


def _round_based_state_set(p, x):
    """The states reading x: whole passes backward over the period until no
    mask changes (a greatest fixpoint from all states), then the head."""
    def pre_mask(a, mask):
        return sum(1 << q for q in range(len(p.states))
                   if any(mask >> r & 1 for (q2, r, b) in p.edges if q2 == q and b == a))
    c = [(1 << len(p.states)) - 1] * len(x.per)
    changed = True
    while changed:
        changed = False
        for j in reversed(range(len(x.per))):
            new = pre_mask(x.per[j], c[(j + 1) % len(x.per)])
            changed |= new != c[j]
            c[j] = new
    mask = c[0]
    for a in reversed(x.pre):
        mask = pre_mask(a, mask)
    return frozenset(q for q in range(len(p.states)) if mask >> q & 1)


def test_sofic_membership_and_context_read_the_cayley_table():
    rng = random.Random(83)
    graphs = [CORPUS_OBJECTS["even"]]
    for _ in range(500):
        states = [f"s{i}" for i in range(rng.randint(1, 6))]
        edges = {(rng.choice(states), rng.choice(states), rng.choice("012"[:rng.randint(1, 3)]))
                 for _ in range(rng.randint(1, 3 * len(states)))}
        graphs.append({"type": "sofic", "states": states, "edges": [list(e) for e in edges]})
    points = 0
    for obj in graphs:
        try:
            p = parse_presentation(obj)
        except (ValidationError, ResourceCapError):
            continue
        n = len(p.alphabet)
        for _ in range(40):
            x = Point(tuple(rng.randrange(n) for _ in range(rng.randint(0, 4))),
                      tuple(rng.randrange(n) for _ in range(rng.randint(1, 6))))
            states = _round_based_state_set(p, x)
            assert p.contains(x) == bool(states), (obj, x)
            if states:
                assert p.context_of(x) == states, (obj, x)
            else:
                with pytest.raises(ValidationError, match="not in the shift space"):
                    p.context_of(x)
            points += 1
    assert points > 10000


# ---------------------------------------------------------------------------
# contexts


def test_context_of_examples(golden_mean, pair, even):
    c = golden_mean.context_of(pt(golden_mean, ["0"], ["1", "0"]))
    assert c == (0,)
    x = pt(pair, ["1"], ["0"])
    assert pair.context_of(x) == x
    zeros = Point((), (0,))
    got = even.context_of(zeros)
    assert isinstance(got, frozenset)
    assert got == oracle_state_set(even, zeros)


def test_context_of_rejects_nonmembers(golden_mean):
    with pytest.raises(ValidationError):
        golden_mean.context_of(Point((1, 1), (0,)))


def test_points_with_letters_outside_the_alphabet_are_rejected(pair, golden_mean, even):
    for p in (pair, golden_mean, even):
        for bad in (Point((), (-1,)), Point((0,), (-1,)), Point((), (len(p.alphabet),))):
            for check in (type(p).contains, type(p).context_of,
                          lambda q, x: in_cylinder(q, (), (), x)):
                with pytest.raises(AlphabetMismatchError):
                    check(p, bad)
    with pytest.raises(AlphabetMismatchError):
        FiniteShift(pair.alphabet, [Point((), (0,)), Point((-1,), (0,))])


def test_realizable_contexts(full2, golden_mean, pair, even):
    assert len(full2.contexts) == 1
    assert golden_mean.contexts == ((0,), (1,))
    assert pair.contexts == pair.points and len(pair.contexts) == 2
    sets = {frozenset(even.states[q] for q in c) for c in even.contexts}
    assert sets == {frozenset({"e"}), frozenset({"o"}), frozenset({"e", "o"})}


def test_sofic_contexts_match_oracle_on_witnesses(even):
    for ctx in even.contexts:
        x = even.witness(ctx)
        assert oracle_state_set(even, x) == ctx


def test_sofic_contexts_are_the_oracle_state_sets_of_short_lassos():
    rng = random.Random(20261018)
    checked = 0
    while checked < 100:
        try:
            p = parse_presentation(random_sofic(rng))
        except ValidationError:
            continue
        checked += 1
        contexts = set(p.contexts)
        for ctx in p.contexts:
            assert oracle_state_set(p, p.witness(ctx)) == ctx
        short = [w for k in range(4) for w in p.alphabet.words_of_length(k)]
        for pre in short:
            for per in short:
                if per:
                    states = oracle_state_set(p, Point(pre, per))
                    assert not states or states in contexts, (p.to_json(), pre, per)


def test_sofic_witness_reports_an_inconsistent_good_set_as_internal():
    p = make("even")
    ctx = p.contexts[0]
    p._good = frozenset()
    with pytest.raises(ConsistencyError, match="inconsistent good set"):
        p.witness(ctx)


def test_witnesses_realize_their_contexts(corpus):
    for p in corpus.values():
        for ctx in p.contexts:
            x = p.witness(ctx)
            assert p.contains(x)
            assert p.context_of(x) == ctx


def test_sigma_surjectivity(corpus):
    expected = {
        "full2": True, "full3": True, "full4": True, "golden_mean": True,
        "golden_mean_matrix": True, "even": True, "single_point": True,
        "pair": False, "two_cycle": True, "two_cycle_fixed": True, "chain3": False,
    }
    for name, p in corpus.items():
        assert p.sigma_surjective == expected[name], name


# ---------------------------------------------------------------------------
# predecessor sets


def test_predecessor_examples(full2, golden_mean, pair):
    any_ctx = full2.contexts[0]
    assert predecessor_set(full2, any_ctx, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert predecessor_set(golden_mean, (1,), 2) == [(0, 0), (1, 0)]
    ctx = pair.context_of(pt(pair, ["1"], ["0"]))
    assert predecessor_set(pair, ctx, 1) == []


def test_predecessor_grade_zero_is_epsilon(corpus):
    for p in corpus.values():
        for ctx in p.contexts:
            assert predecessor_set(p, ctx, 0) == [()]


def test_predecessor_set_matches_oracle(corpus):
    for p in corpus.values():
        for ctx in p.contexts:
            x = p.witness(ctx)
            for k in range(5):
                assert predecessor_set(p, ctx, k) == oracle_predecessors(p, x, k)


def test_predecessors_agree_between_witnesses_of_one_context(golden_mean):
    # two different points with the same context have equal predecessor sets
    a = pt(golden_mean, [], ["0"])
    b = pt(golden_mean, ["0"], ["0", "1"])
    assert golden_mean.context_of(a) == golden_mean.context_of(b)
    for k in range(5):
        assert oracle_predecessors(golden_mean, a, k) == oracle_predecessors(golden_mean, b, k)


# ---------------------------------------------------------------------------
# cylinder sets


def test_cylinder_examples(full2, golden_mean):
    x = pt(full2, ["0"], ["1"])
    assert in_cylinder(full2, (1,), (0,), x)
    y = pt(golden_mean, ["1"], ["0"])
    assert not in_cylinder(golden_mean, (1,), (), y)
    for p in (full2, golden_mean):
        w = p.witness(p.contexts[0])
        assert in_cylinder(p, (), (), w)


def test_cylinder_requires_prefix(golden_mean):
    x = pt(golden_mean, [], ["0"])
    assert not in_cylinder(golden_mean, (), (1,), x)


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_round_trip(corpus):
    for p in corpus.values():
        again = parse_presentation(p.to_json())
        assert again.to_json() == p.to_json()
        assert again.content_hash() == p.content_hash()
