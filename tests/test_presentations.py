import random

import pytest

from helpers import (
    class_witnesses,
    oracle_predecessors,
    oracle_state_set,
    random_memory_sft,
    random_presentation,
    random_sofic,
)
from shiftk import (
    AlphabetMismatchError,
    Caps,
    ConsistencyError,
    FiniteShift,
    Point,
    ResourceCapError,
    SftShift,
    ValidationError,
    contains,
    context_of,
    in_cylinder,
    language,
    parse_presentation,
    predecessor_set,
    realizable_contexts,
)
from shiftk.presentations import PointContext, StateSetContext, SuffixContext

from conftest import CORPUS_OBJECTS, make


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
    assert from_matrix.to_json() == explicit.to_json()


def test_sofic_trim_is_canonical():
    # state "c" has no return path and must be trimmed away
    p = parse_presentation({"type": "sofic", "states": ["b", "a", "c"],
                            "edges": [["a", "a", "0"], ["a", "b", "1"], ["b", "a", "0"],
                                      ["a", "c", "1"]]})
    assert p.states == ("a", "b")
    assert p.to_json()["edges"] == [["a", "a", "0"], ["a", "b", "1"], ["b", "a", "0"]]


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


def test_language_cap():
    p = parse_presentation(CORPUS_OBJECTS["full4"], Caps(max_language_words=5))
    with pytest.raises(ResourceCapError):
        language(p, 3)


def test_sofic_subset_cap():
    with pytest.raises(ResourceCapError):
        parse_presentation(CORPUS_OBJECTS["even"], Caps(max_contexts=2)).contexts


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
            assert context_of(p, x) == ctx
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
        assert list(graph) == sorted(c.word for c in p.contexts)
        edges = [w + (a,) for w, out in graph.items() for a, w2 in out if w2 == (w + (a,))[1:]]
        assert edges == language(p, p.memory + 1), p.to_json()


# ---------------------------------------------------------------------------
# membership


def test_contains_examples(golden_mean, pair):
    assert contains(golden_mean, pt(golden_mean, [], ["1", "0"]))
    assert not contains(golden_mean, pt(golden_mean, ["1", "1"], ["0"]))
    assert not contains(pair, pt(pair, ["0", "1"], ["0"]))
    assert contains(pair, pt(pair, ["1"], ["0"]))


def test_contains_normalization_invariance(golden_mean):
    a = Point((1, 0), (1, 0))
    b = Point((), (1, 0))
    assert a == b
    assert contains(golden_mean, a) == contains(golden_mean, b)


def test_sofic_contains_matches_state_sets(even):
    samples = [
        Point((), (0,)), Point((), (1,)), Point((0,), (1,)), Point((0, 0), (1,)),
        Point((), (0, 1)), Point((), (1, 0)), Point((1,), (0, 0, 1)),
        Point((0,), (0, 0, 1, 1)),
    ]
    for x in samples:
        assert contains(even, x) == bool(oracle_state_set(even, x))


# ---------------------------------------------------------------------------
# contexts


def test_context_of_examples(golden_mean, pair, even):
    c = context_of(golden_mean, pt(golden_mean, ["0"], ["1", "0"]))
    assert c == SuffixContext((0,))
    x = pt(pair, ["1"], ["0"])
    assert context_of(pair, x) == PointContext(x)
    zeros = Point((), (0,))
    got = context_of(even, zeros)
    assert isinstance(got, StateSetContext)
    assert got.states == oracle_state_set(even, zeros)


def test_context_of_rejects_nonmembers(golden_mean):
    with pytest.raises(ValidationError):
        context_of(golden_mean, Point((1, 1), (0,)))


def test_points_with_letters_outside_the_alphabet_are_rejected(pair, golden_mean, even):
    for p in (pair, golden_mean, even):
        for bad in (Point((), (-1,)), Point((0,), (-1,)), Point((), (len(p.alphabet),))):
            for check in (contains, context_of, lambda q, x: in_cylinder(q, (), (), x)):
                with pytest.raises(AlphabetMismatchError):
                    check(p, bad)
    with pytest.raises(AlphabetMismatchError):
        FiniteShift(pair.alphabet, [Point((), (0,)), Point((-1,), (0,))])


def test_realizable_contexts(full2, golden_mean, pair, even):
    assert len(realizable_contexts(full2)) == 1
    assert {c.word for c in realizable_contexts(golden_mean)} == {(0,), (1,)}
    assert len(realizable_contexts(pair)) == 2
    sets = {frozenset(even.states[q] for q in c.states) for c in realizable_contexts(even)}
    assert sets == {frozenset({"e"}), frozenset({"o"}), frozenset({"e", "o"})}


def test_sofic_contexts_match_oracle_on_witnesses(even):
    for ctx in realizable_contexts(even):
        x = even.witness(ctx)
        assert oracle_state_set(even, x) == ctx.states


def test_sofic_contexts_are_the_oracle_state_sets_of_short_lassos():
    rng = random.Random(20261018)
    checked = 0
    while checked < 100:
        try:
            p = parse_presentation(random_sofic(rng))
        except ValidationError:
            continue
        checked += 1
        contexts = {ctx.states for ctx in p.contexts}
        for ctx in p.contexts:
            assert oracle_state_set(p, p.witness(ctx)) == ctx.states
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
        for ctx in realizable_contexts(p):
            x = p.witness(ctx)
            assert contains(p, x)
            assert context_of(p, x) == ctx


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
    any_ctx = realizable_contexts(full2)[0]
    assert predecessor_set(full2, any_ctx, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert predecessor_set(golden_mean, SuffixContext((1,)), 2) == [(0, 0), (1, 0)]
    ctx = context_of(pair, pt(pair, ["1"], ["0"]))
    assert predecessor_set(pair, ctx, 1) == []


def test_predecessor_grade_zero_is_epsilon(corpus):
    for p in corpus.values():
        for ctx in realizable_contexts(p):
            assert predecessor_set(p, ctx, 0) == [()]


def test_predecessor_set_matches_oracle(corpus):
    for p in corpus.values():
        for ctx in realizable_contexts(p):
            x = p.witness(ctx)
            for k in range(5):
                assert predecessor_set(p, ctx, k) == oracle_predecessors(p, x, k)


def test_predecessors_agree_between_witnesses_of_one_context(golden_mean):
    # two different points with the same context have equal predecessor sets
    a = pt(golden_mean, [], ["0"])
    b = pt(golden_mean, ["0"], ["0", "1"])
    assert context_of(golden_mean, a) == context_of(golden_mean, b)
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
        w = p.witness(realizable_contexts(p)[0])
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
