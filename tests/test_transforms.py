import random

import pytest

from helpers import block_forbidden_words, forbidden_words, random_memory_sft
from shiftk import (
    BipartiteExpression,
    Point,
    ResourceCapError,
    ValidationError,
    build_chain,
    higher_block,
    k_groups,
    language,
    parse_presentation,
    presentations,
    split_letters,
    symbolic_expansion,
)
from shiftk.presentations import FiniteShift, SftShift, SoficShift

from conftest import CORPUS_OBJECTS, make


def sym_words(p, k):
    return {"".join(p.alphabet.word_symbols(w)) for w in language(p, k)}


# ---------------------------------------------------------------------------
# higher block


def test_higher_block_full2():
    out, report = higher_block(make("full2"), 2)
    assert out.alphabet.symbols == ("00", "01", "10", "11")
    # exactly the overlap condition survives: block uv followed by vw
    assert sym_words(out, 2) == {
        "0000", "0001", "0110", "0111", "1000", "1001", "1110", "1111",
    }
    assert report.move == {"move": "higher_block", "n": 2}
    assert report.symbol_maps["blocks"]["01"] == ["0", "1"]


def test_higher_block_golden_mean():
    out, _ = higher_block(make("golden_mean"), 2)
    assert out.alphabet.symbols == ("00", "01", "10")


def test_higher_block_language_bijection():
    for name in ("full2", "golden_mean", "even", "full3"):
        p = make(name)
        for n in (2, 3):
            out, _ = higher_block(p, n)
            for k in range(1, 4):
                assert len(language(out, k)) == len(language(p, k + n - 1)), (name, n, k)


def test_higher_block_respects_longer_forbidden_words():
    # memory-2 SFT: no "101" factor; 2-block recoding must forbid it too
    p = parse_presentation({"type": "sft", "alphabet": ["0", "1"],
                            "forbidden": [["1", "0", "1"]]})
    out, _ = higher_block(p, 2)
    for k in range(1, 4):
        assert len(language(out, k)) == len(language(p, k + 1))


def _found_case():
    """24 letters, memory 2, 5 random forbidden words of length 3: recoded at
    n = 2 into 576 blocks and 13,819 edges."""
    rng = random.Random(7)
    symbols = [str(a) for a in range(24)]
    return {"type": "sft", "alphabet": symbols,
            "forbidden": [[rng.choice(symbols) for _ in range(3)] for _ in range(5)]}


def test_higher_block_builds_the_block_graph_of_an_sft():
    # the recoding is the shift that forbids every pair of blocks not
    # overlapping and each forbidden word longer than n as its blocks, on
    # SFTs of memory below n, equal to it and above it
    rng = random.Random(97)
    objs = [CORPUS_OBJECTS[name] for name in ("full2", "full3", "golden_mean",
                                              "golden_mean_matrix")]
    while len(objs) < 60:
        k = rng.randint(1, 4)
        objs.append({"type": "sft_matrix",
                     "adjacency": [[int(rng.random() < 0.5) for _ in range(k)] for _ in range(k)]})
    while len(objs) < 90:
        objs.append(random_memory_sft(rng, len(objs) % 3 + 2))
    cases = []
    for obj in objs:
        try:
            cases += [(obj, n) for n in (2, 3)]
            parse_presentation(obj)
        except ValidationError:
            del cases[-2:]
    assert {parse_presentation(obj).memory for obj, _ in cases} >= {0, 1, 2, 3, 4}
    for obj, n in cases + [(_found_case(), 2)]:
        p = parse_presentation(obj)
        out, _ = higher_block(p, n)
        blocks = language(p, n)
        oracle = SftShift(out.alphabet, block_forbidden_words(blocks, forbidden_words(obj), n))
        assert out.canonical_bytes() == oracle.canonical_bytes(), (obj, n)
        assert out.memory == oracle.memory and out.window_graph == oracle.window_graph
        assert out.steps == oracle.steps, (obj, n)
        assert out.memory == max(p.memory - n + 1, 1) or not out.memory, (obj, n)


def test_higher_block_refusals(monkeypatch):
    with pytest.raises(ValidationError):
        higher_block(make("pair"), 2)
    with pytest.raises(ValidationError):
        higher_block(make("full2"), 1)
    monkeypatch.setattr(presentations, "MAX_LANGUAGE_WORDS", 3)
    with pytest.raises(ResourceCapError):
        higher_block(make("full4"), 2)


def test_higher_block_refuses_more_blocks_than_contexts_before_building(monkeypatch):
    # full2 has 8 blocks of length 3, the even shift 12 of length 4 (and a
    # monoid of 7 matrices); one length shorter stays within the cap of 7
    monkeypatch.setattr(presentations, "MAX_CONTEXTS", 7)
    sft = make("full2")
    sofic = make("even")

    def built(*args, **kwargs):
        raise AssertionError("output presentation built")
    monkeypatch.setattr(SftShift, "__init__", built)
    # an SFT is recoded into its block graph, and a sofic graph is made by
    # build, its one constructor
    monkeypatch.setattr(SftShift, "_from_graph", classmethod(built))
    monkeypatch.setattr(SoficShift, "build", classmethod(built))
    for p, n in ((sft, 3), (sofic, 4)):
        assert len(language(p, n)) > 7 >= len(language(p, n - 1))
        with pytest.raises(ResourceCapError):
            higher_block(p, n)
        with pytest.raises(AssertionError, match="output presentation built"):
            higher_block(p, n - 1)


def test_higher_block_preserves_k_groups():
    for name in ("full3", "golden_mean", "even"):
        p = make(name)
        base = k_groups(build_chain(p, 6))
        for n in (2, 3):
            out, _ = higher_block(p, n)
            kg = k_groups(build_chain(out, 6))
            assert (kg.k0, kg.k1) == (base.k0, base.k1), (name, n)


# ---------------------------------------------------------------------------
# symbolic expansion


def test_expansion_local_rules():
    out, report = symbolic_expansion(make("full2"), "0", "*")
    assert set(out.alphabet.symbols) == {"*", "0", "1"}
    star = out.alphabet.index("*")
    zero = out.alphabet.index("0")
    for w in language(out, 2):
        if w[0] == zero:
            assert w[1] == star
        if w[1] == star:
            assert w[0] == zero
    assert report.move == {"move": "expand", "a0": "0", "star": "*"}


def test_expansion_single_point():
    out, _ = symbolic_expansion(make("single_point"), "0", "*")
    assert isinstance(out, FiniteShift)
    rendered = {p.render(out.alphabet) for p in out.points}
    assert rendered == {"(0*)*", "(*0)*"}


def test_expansion_membership_oracle():
    gm = make("golden_mean")
    out, _ = symbolic_expansion(gm, "1", "*")
    zero, one, star = (out.alphabet.index(s) for s in ("0", "1", "*"))

    def eta(word):
        # translate golden-mean letter indices to output indices, starring 1s
        res = []
        for a in word:
            res.append(out.alphabet.index(gm.alphabet.symbols[a]))
            if gm.alphabet.symbols[a] == "1":
                res.append(star)
        return tuple(res)

    # images of golden-mean points and their shifts belong to the expansion
    for pre, per in [((), (0,)), ((), (0, 1)), ((1,), (0,)), ((0, 1), (0,))]:
        x = Point(eta(pre), eta(per))
        assert out.contains(x), (pre, per)
        assert out.contains(x.shift())
    # boundary point that any factor-only encoding would wrongly accept:
    # *1*000... would need a 1 before position 0
    bad = Point((star, one, star), (zero,))
    assert not out.contains(bad)
    # star never doubles up or follows anything but 1
    assert not out.contains(Point((star, star), (zero,)))
    assert not out.contains(Point((zero, star), (zero,)))


def test_expansion_collapse_recovers_input():
    for name in ("full2", "golden_mean", "even", "two_cycle"):
        p = make(name)
        out, _ = symbolic_expansion(p, p.alphabet.symbols[0], "*")
        star = out.alphabet.index("*")
        back = {s: p.alphabet.index(s) for s in p.alphabet.symbols}

        def collapse(point):
            window = point.pre + point.per * 3
            letters = [back[out.alphabet.symbols[a]] for a in window if a != star]
            # the collapsed word is a factor of some input point
            return tuple(letters)

        for ctx in out.contexts:
            w = collapse(out.witness(ctx))
            k = min(len(w), 4)
            assert w[:k] in set(language(p, k))


def test_expansion_refusals():
    with pytest.raises(ValidationError):
        symbolic_expansion(make("pair"), "0", "*")          # not shift-surjective
    with pytest.raises(ValidationError):
        symbolic_expansion(make("full2"), "0", "1")         # star collides
    with pytest.raises(Exception):
        symbolic_expansion(make("full2"), "9", "*")         # unknown letter


def test_expansion_preserves_k0():
    for name in ("full3", "golden_mean"):
        p = make(name)
        out, _ = symbolic_expansion(p, p.alphabet.symbols[0], "*")
        assert k_groups(build_chain(out, 6)).k0 == k_groups(build_chain(p, 6)).k0


# ---------------------------------------------------------------------------
# bipartite splitting


def expr2():
    return BipartiteExpression.from_mapping({"0": ["b0", "c0"], "1": ["b1", "c1"]})


def test_split_full2_union_alternates():
    union, second, report = split_letters(make("full2"), expr2())
    first = {union.alphabet.index(s) for s in ("b0", "b1")}
    for w in language(union, 4):
        sides = [a in first for a in w]
        assert sides in ([True, False, True, False], [False, True, False, True])
    # every point starts on exactly one side
    for ctx in union.contexts:
        x = union.witness(ctx)
        assert (x.letter(0) in first) == (x.letter(1) not in first)
    assert report.move["move"] == "split"
    assert report.symbol_maps["first_alphabet"] == ["b0", "b1"]


def test_split_full2_second_shift_is_two_block_full2():
    _, second, report = split_letters(make("full2"), expr2())
    # the second shift reads pairs (c_i, b_{i+1}); for the full shift that is
    # the 2-block recoding of the full 2-shift
    assert len(second.alphabet) == 4
    kg = k_groups(build_chain(second, 5))
    base = k_groups(build_chain(make("full2"), 5))
    assert (kg.k0, kg.k1) == (base.k0, base.k1)
    assert set(report.symbol_maps["induced_pairs"]) == set(second.alphabet.symbols)


def test_split_single_point():
    p = make("single_point")
    expr = BipartiteExpression.from_mapping({"0": ["b", "c"]})
    union, second, _ = split_letters(p, expr)
    assert {x.render(union.alphabet) for ctx in union.contexts
            for x in [union.witness(ctx)]} == {"(bc)*", "(cb)*"}
    pts = [second.witness(c) for c in second.contexts]
    assert len(pts) == 1 and pts[0].per == (second.alphabet.index("cb"),)


def test_split_golden_mean_membership():
    gm = make("golden_mean")
    union, second, _ = split_letters(gm, expr2())
    b0, b1, c0, c1 = (union.alphabet.index(s) for s in ("b0", "b1", "c0", "c1"))
    # image of (10)* under the first letter map
    assert union.contains(Point((), (b1, c1, b0, c0)))
    # image of (10)* under the second map starts with c
    assert union.contains(Point((), (c1, b0, c0, b1)))
    # 11 is forbidden in the golden mean, so its image is missing
    assert not union.contains(Point((), (b1, c1)))
    # non-alternating points are never in the union
    assert not union.contains(Point((), (b0, b0)))


def test_split_refusals():
    with pytest.raises(ValidationError):
        split_letters(make("pair"), expr2())                 # not shift-surjective
    with pytest.raises(ValidationError):
        split_letters(make("full3"), expr2())                # does not cover alphabet
    with pytest.raises(ValidationError):
        BipartiteExpression.from_mapping({"0": ["b", "c"], "1": ["b", "c"]})
    with pytest.raises(ValidationError):
        BipartiteExpression.from_mapping({"0": ["x", "x"]})


def test_split_union_step_map_is_block_antidiagonal():
    union, _, _ = split_letters(make("full2"), expr2())
    chain = build_chain(union, 5)
    from shiftk import dimension_triple
    t = dimension_triple(chain)
    first = {union.alphabet.index(s) for s in ("b0", "b1")}
    level = chain.levels[chain.stabilization.level]
    side = []
    for cls in level.classes:
        starts = {union.witness(union.contexts[i]).letter(0) in first for i in cls}
        assert len(starts) == 1
        side.append(starts.pop())
    for i in range(t.rank):
        for j in range(t.rank):
            if t.step_map.entry(i, j):
                assert side[i] != side[j]


# ---------------------------------------------------------------------------
# argument checks and middle-state names


@pytest.mark.parametrize("call, message", [
    (lambda: higher_block(make("full2"), "2"), "higher_block n must be an integer, not '2'"),
    (lambda: higher_block(make("full2"), 2.0), "higher_block n must be an integer, not 2.0"),
    (lambda: higher_block(make("full2"), True), "higher_block n must be an integer, not True"),
    (lambda: symbolic_expansion(make("full2"), ["0"], "*"), "expand a0 and star must be strings"),
    (lambda: symbolic_expansion(make("full2"), "0", 1), "expand a0 and star must be strings"),
    (lambda: BipartiteExpression.from_mapping(["0"]),
     "split f must be an object from letters to [first, second]"),
], ids=["n-str", "n-float", "n-bool", "a0-list", "star-int", "f-list"])
def test_moves_check_their_own_arguments_with_the_cli_messages(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def named_edges(p):
    return {(p.states[q], p.states[r], p.alphabet.symbols[a]) for (q, r, a) in p.edges}


def test_middle_states_are_primed_past_existing_state_names():
    # sorted edges: 0 = m0000 -a-> m0000, 1 = m0000 -a-> m0001, 2 = m0001 -b-> m0000;
    # the middle state of edge i is m{i:04d}, primed while a state has that name
    p = parse_presentation({"type": "sofic", "states": ["m0000", "m0001"],
                            "edges": [["m0001", "m0000", "b"], ["m0000", "m0001", "a"],
                                      ["m0000", "m0000", "a"]]})
    expanded, _ = symbolic_expansion(p, "a", "*")
    assert named_edges(expanded) == {
        ("m0000", "m0000'", "a"), ("m0000'", "m0000", "*"),
        ("m0000", "m0001'", "a"), ("m0001'", "m0001", "*"), ("m0001", "m0000", "b")}

    expr = BipartiteExpression.from_mapping({"a": ["ba", "ca"], "b": ["bb", "cb"]})
    union, second, _ = split_letters(p, expr)
    assert named_edges(union) == {
        ("m0000", "m0000'", "ba"), ("m0000'", "m0000", "ca"),
        ("m0000", "m0001'", "ba"), ("m0001'", "m0001", "ca"),
        ("m0001", "m0002", "bb"), ("m0002", "m0000", "cb")}
    assert named_edges(second) == {
        ("m0000'", "m0000'", "ca-ba"), ("m0000'", "m0001'", "ca-ba"),
        ("m0001'", "m0002", "ca-bb"),
        ("m0002", "m0000'", "cb-ba"), ("m0002", "m0001'", "cb-ba")}
