import json
import random

import pytest

from helpers import (
    dense_chain,
    dense_class_maps,
    dense_level_matrices,
    dense_reach_sets,
    dense_steps,
    oracle_graded,
    oracle_partition,
    partition_as_context_groups,
    periodic_orbit,
    random_finite_shift,
    random_presentation,
    random_sofic,
)
from shiftk import (
    ConsistencyError,
    FiniteShift,
    SftShift,
    SoficShift,
    StraddleError,
    ValidationError,
    action_sum,
    build_chain,
    dimension_triple,
    higher_block,
    inclusion_matrix,
    k_groups,
    m_index_set,
    parse_presentation,
    past_partition,
    predecessor_set,
    restricted_maps,
)
from shiftk import partitions
from shiftk.partitions import (
    chain_to_json,
    class_signatures,
    matrices_to_json,
    persistent_classes,
)
from shiftk.presentations import SuffixContext, context_of

from conftest import CORPUS_OBJECTS, FINITE_MODEL_NAMES, make


def class_index_of_context(chain, level, ctx):
    return chain.levels[level].class_of[chain.presentation.context_index[ctx]]


def bowen_franks(chain, l):
    """The difference (Bowen-Franks) matrix of level l: inclusion minus summed action."""
    return inclusion_matrix(chain, l).sub(action_sum(chain, l))


# ---------------------------------------------------------------------------
# partitions


def test_full_shift_has_one_class(full2):
    for level in range(4):
        assert past_partition(full2, level).m == 1


def test_golden_mean_level_one(golden_mean):
    lv = past_partition(golden_mean, 1)
    assert lv.m == 2
    groups = partition_as_context_groups(golden_mean, lv)
    assert groups == frozenset({
        frozenset({SuffixContext((0,))}),
        frozenset({SuffixContext((1,))}),
    })


def test_pair_level_one_signatures(pair):
    chain = build_chain(pair, 3)
    assert chain.m(1) == 2
    # level-1 signatures are ({eps}, {0,1}) and ({eps}, {})
    sigs = {sig[:2] for sig in class_signatures(chain)}
    assert sigs == {
        (("w", ()), ("w",)),
        (("w", ()), ("w", (0,), (1,))),
    }


def test_signatures_elide_to_grade_rank(full2, golden_mean, monkeypatch):
    monkeypatch.setattr(partitions, "SIGNATURE_WORD_LIMIT", 2)
    chain = build_chain(full2, 3)
    assert class_signatures(chain) == (
        (("w", ()), ("w", (0,), (1,)), ("e", 0), ("e", 0)),
    )
    # ranks of grades past l0 + 1, ranked where shown, against the dense oracle
    for p in (full2, golden_mean):
        chain, want = build_chain(p, 6), dense_chain(p, 6)["grade_ranks"]
        assert len(chain.grade_ranks) == chain.stabilization.level + 2 < 6
        for cls, sig in zip(chain.levels[-1].classes, class_signatures(chain)):
            assert sig[-1][0] == "e"
            for k, entry in enumerate(sig):
                assert entry[0] == "w" or entry == ("e", want[k][cls.contexts[0]]), (p, k)


def test_chain_stabilization(corpus):
    expected = {
        "full2": (0, (1, 1, 1, 1, 1)),
        "full3": (0, (1, 1, 1, 1, 1)),
        "golden_mean": (1, (1, 2, 2, 2, 2)),
        "pair": (1, (1, 2, 2, 2, 2)),
        "even": (2, (1, 2, 3, 3, 3)),
        "chain3": (1, (1, 3, 3, 3, 3)),
    }
    for name, (level, ms) in expected.items():
        chain = build_chain(corpus[name], 4)
        assert chain.m_sequence == ms, name
        assert chain.stabilization.stable and chain.stabilization.level == level, name


def test_short_chain_reads_the_stable_level(even):
    # even stabilizes at level 2, past a chain of length 1: the chain shows
    # levels 0..1 but is refined to level 2 and reads its limit data there
    chain = build_chain(even, 1)
    assert chain.m_sequence == (1, 2)
    assert (chain.stabilization.stable, chain.stabilization.level,
            chain.stabilization.checked_to) == (True, 2, 3)
    long = build_chain(even, 40)
    assert k_groups(chain) == k_groups(long)
    assert dimension_triple(chain) == dimension_triple(long)


def test_refinement_stops_at_its_fixed_point(corpus):
    for name, p in corpus.items():
        l0 = build_chain(p, 40).stabilization.level
        chains = [build_chain(p, length) for length in (l0 + 1, 12, 40)]
        for chain in chains:
            assert chain.stabilization.stable and chain.stabilization.level == l0, name
            assert all(lv == chain.levels[l0] for lv in chain.levels[l0 + 1:]), name
        if l0 > 0:
            short = build_chain(p, l0)
            assert short.stabilization == chains[0].stabilization, name
            assert k_groups(short) == k_groups(chains[-1]), name
            assert dimension_triple(short) == dimension_triple(chains[-1]), name
            chains.insert(0, short)
        longest = chains[-1]
        for chain in chains[:-1]:
            common = chain.length + 1
            assert longest.m_sequence[:common] == chain.m_sequence, name
            assert longest.levels[:common] == chain.levels, name
            assert matrices_to_json(longest)[:chain.length] == matrices_to_json(chain), name
            for l in range(chain.length):
                assert inclusion_matrix(longest, l) == inclusion_matrix(chain, l), (name, l)


def test_stable_level_is_below_the_context_count(corpus):
    # each step before the fixed point adds a class, and there are at most
    # len(contexts) classes: the refinement needs no level cap to end (the
    # fuzz test checks the same bound on random presentations)
    for p in corpus.values():
        chain = build_chain(p, 1)
        assert chain.stabilization.level <= len(p.contexts) - 1
        assert chain.stabilization.level == build_chain(p, 40).stabilization.level
    for n in (13, 30):
        p = parse_presentation(periodic_orbit(n))
        assert len(p.contexts) == n
        assert build_chain(p, 12).stabilization.level == n - 1


# ---------------------------------------------------------------------------
# matrices


def test_inclusion_examples(full2, golden_mean):
    assert inclusion_matrix(build_chain(full2, 2), 0).to_lists() == [[1]]
    chain = build_chain(golden_mean, 3)
    assert inclusion_matrix(chain, 0).to_lists() == [[1], [1]]
    assert inclusion_matrix(chain, 1).to_lists() == [[1, 0], [0, 1]]
    assert inclusion_matrix(chain, 2).to_lists() == [[1, 0], [0, 1]]


def test_inclusion_rows_have_single_one(corpus):
    for p in corpus.values():
        chain = build_chain(p, 4)
        for l in range(chain.length):
            for row in inclusion_matrix(chain, l).entries:
                assert sum(row) == 1


def test_action_examples(full2, full3, golden_mean, pair):
    for p, n in ((full2, 2), (full3, 3)):
        chain = build_chain(p, 2)
        assert action_sum(chain, 1).to_lists() == [[n]]

    chain = build_chain(golden_mean, 3)
    # in the ordering (class "0", class "1") the summed action is
    # [[1,1],[1,0]]; locate the classes and check entry-wise
    i0 = class_index_of_context(chain, 2, SuffixContext((0,)))
    i1 = class_index_of_context(chain, 2, SuffixContext((1,)))
    a = action_sum(chain, 1)
    assert a.entry(i0, i0) == 1 and a.entry(i0, i1) == 1
    assert a.entry(i1, i0) == 1 and a.entry(i1, i1) == 0
    image = chain.maps[1].image
    assert image[i0] == ((0, i0), (1, i1))      # 0 maps the 0-class into itself, 1 into the 1-class
    assert image[i1] == ((0, i0),)              # nothing starts with 11

    chain = build_chain(pair, 3)
    p0 = context_of(pair, pair.points[0])       # (0)*
    p1 = context_of(pair, pair.points[1])       # 1(0)*
    i0 = class_index_of_context(chain, 2, p0)
    i1 = class_index_of_context(chain, 2, p1)
    a = action_sum(chain, 1)
    assert a.entry(i0, i0) == 1 and a.entry(i0, i1) == 1
    assert a.entries[i1] == (0, 0)


def test_action_sum_is_the_sum_of_the_symbol_matrices(corpus):
    # the dense builders against the matrices rebuilt from the exported class
    # maps: the action sum is the sum of the per-symbol 0/1 matrices
    for name, p in corpus.items():
        chain = build_chain(p, 6)
        for l, level in enumerate(matrices_to_json(chain)):
            dense = dense_level_matrices(level, p.alphabet.symbols)
            total = action_sum(chain, l)
            assert total.rows == chain.m(l + 1) and total.cols == chain.m(l), name
            assert dense["inclusion"] == inclusion_matrix(chain, l).to_lists(), (name, l)
            assert dense["action_sum"] == total.to_lists(), (name, l)
            assert dense["bowen_franks"] == bowen_franks(chain, l).to_lists(), (name, l)


def test_bowen_franks_examples(full2, golden_mean):
    assert bowen_franks(build_chain(full2, 2), 1).to_lists() == [[-1]]
    single = make("single_point")
    assert bowen_franks(build_chain(single, 2), 1).to_lists() == [[0]]
    chain = build_chain(golden_mean, 3)
    i0 = class_index_of_context(chain, 2, SuffixContext((0,)))
    i1 = class_index_of_context(chain, 2, SuffixContext((1,)))
    b = bowen_franks(chain, 1)
    assert b.entry(i0, i0) == 0 and b.entry(i0, i1) == -1
    assert b.entry(i1, i0) == -1 and b.entry(i1, i1) == 1


# ---------------------------------------------------------------------------
# M-sets and restricted maps


def test_m_index_sets(golden_mean, pair):
    chain = build_chain(golden_mean, 3)
    assert m_index_set(chain, 1, 1) == (0, 1)
    assert m_index_set(chain, 0, 2) == (0, 1)

    chain = build_chain(pair, 3)
    assert m_index_set(chain, 0, 1) == (0, 1)
    keep = class_index_of_context(chain, 1, context_of(pair, pair.points[0]))
    assert m_index_set(chain, 1, 1) == (keep,)
    assert m_index_set(chain, 2, 2) == (keep,)


def test_restricted_maps(golden_mean, pair):
    chain = build_chain(golden_mean, 3)
    rm = restricted_maps(chain, 0, 1)
    assert rm.action.entries == action_sum(chain, 1).entries
    assert rm.delta.to_lists() == [[1, 0], [0, 1]]       # surjective: identity

    chain = build_chain(pair, 3)
    rm = restricted_maps(chain, 0, 1)
    keep = m_index_set(chain, 1, 1)[0]
    # delta keeps only the persistent coordinate
    expected = [[1 if j == keep else 0 for j in range(2)]]
    assert rm.delta.to_lists() == expected
    assert rm.domain == (0, 1) and rm.delta_range == (keep,)


def _with_maps(chain, l, **fields):
    """Replace ``fields`` of the class maps of level l+1 -> l in ``chain``."""
    maps = list(chain.maps)
    maps[l] = partitions.ClassMaps(**{**vars(maps[l]), **fields})
    chain.maps = tuple(maps)


def test_restricted_maps_refuse_maps_that_leave_the_coordinates(pair):
    # at l = 1, M_1^2 is the inclusion range for k = 1 and the action range
    # for k = 0; a broken map sends a class of level 2 outside it into the domain
    l = 1
    chain = build_chain(pair, 3)
    outside = next(i for i in range(chain.m(l + 1)) if i not in m_index_set(chain, 1, l + 1))
    parent = list(chain.maps[l].parent)
    parent[outside] = m_index_set(chain, 1, l)[0]
    _with_maps(chain, l, parent=tuple(parent))
    with pytest.raises(ConsistencyError, match=r"^inclusion leaves the grade-k coordinates$"):
        restricted_maps(chain, 1, l)

    chain = build_chain(pair, 3)
    image = list(chain.maps[l].image)
    image[outside] = ((0, m_index_set(chain, 0, l)[0]),)
    _with_maps(chain, l, image=tuple(image))
    with pytest.raises(ConsistencyError,
                       match=r"^action leaves the grade-\(k\+1\) coordinates$"):
        restricted_maps(chain, 0, l)


def test_persistent_classes(pair, golden_mean):
    chain = build_chain(pair, 3)
    keep = class_index_of_context(chain, 1, context_of(pair, pair.points[0]))
    assert persistent_classes(chain, 1) == (keep,)
    chain = build_chain(golden_mean, 3)
    assert persistent_classes(chain, 1) == (0, 1)


def test_reach_limit_is_the_round_based_fixpoint():
    # contexts with a predecessor word of every length, against shrinking the
    # whole context set by whole passes until a pass drops nothing
    rng = random.Random(83)
    cases = [make(name) for name in CORPUS_OBJECTS]
    while len(cases) < 300:
        try:
            cases.append(parse_presentation(random_presentation(rng)))
        except ValidationError:
            continue
    for p in cases:
        steps = p.steps
        cur = frozenset(range(len(steps)))
        while (nxt := frozenset(i for i in cur
                                if any(j in cur for _, j in steps[i]))) != cur:
            cur = nxt
        assert build_chain(p, 2).reach_limit == cur, p.to_json()


def _tower_cases(seed: int, n_random: int) -> list:
    """The corpus, ``n_random`` seeded random presentations of every kind (SFTs
    by forbidden words and by adjacency, sofic graphs, finite shifts), and the
    2-block recodings of those that have one."""
    rng = random.Random(seed)
    cases = [make(name) for name in CORPUS_OBJECTS]
    objs = []
    while len(objs) < n_random:
        kind = rng.randrange(4)
        if kind == 0:
            obj = random_presentation(rng)
        elif kind == 1:
            n = rng.randint(1, 6)
            obj = {"type": "sft_matrix",
                   "adjacency": [[int(rng.random() < 0.4) for _ in range(n)] for _ in range(n)]}
        elif kind == 2:
            obj = random_sofic(rng)
        else:
            obj = random_finite_shift(rng, 3)
        try:
            objs.append(parse_presentation(obj))
        except ValidationError:
            continue
    cases += objs
    for p in list(cases):
        try:
            cases.append(higher_block(p, 2)[0])
        except ValidationError:
            continue
    return cases


def _image_per_symbol(image, n_letters: int) -> tuple:
    """Class-map image pairs rendered as one tuple per symbol, None where undefined."""
    return tuple(tuple(dict(row).get(a) for row in image) for a in range(n_letters))


def test_sparse_tower_matches_the_dense_oracle():
    cases = _tower_cases(89, 400)
    assert {p.kind for p in cases} == {"sft", "sofic", "finite"}
    assert sum(isinstance(p, SftShift) and p.memory == 1 for p in cases) > 50
    for p in cases:
        chain, want = build_chain(p, 3), dense_chain(p, 3)
        # grades 0..l0+1; later ones are ranked only where a signature shows them
        assert len(chain.grade_ranks) == chain.stabilization.level + 2, p.to_json()
        assert chain.grade_ranks == want["grade_ranks"][:len(chain.grade_ranks)], p.to_json()
        assert tuple(lv.class_of for lv in chain.tower) == want["class_of"], p.to_json()
        for maps, (parent, image) in zip(chain.maps, want["maps"], strict=True):
            assert maps.parent == parent, p.to_json()
            assert _image_per_symbol(maps.image, len(p.alphabet)) == image, p.to_json()
        assert [chain.reach_set(k) for k in range(4)] == list(want["reach"]), p.to_json()
        assert chain.reach_limit == want["reach_limit"], p.to_json()


def test_reach_sets_are_the_round_based_shrink():
    # the reach sets and the reach limit, read off one trim, against shrinking
    # the whole context set pass by pass, at every length up to 250; the
    # vertex SFT whose vertices 199 -> 198 -> ... -> 1 run into a loop at 0
    # has contexts whose longest paths take every length 0..198.  Grade K,
    # the first whose set is the limit, is the longest finite path plus one;
    # the chain holds grades 0..min(K, length) and no more
    path = parse_presentation({"type": "sft_matrix", "adjacency": [
        [int(j == i - 1 or i == j == 0) for j in range(200)] for i in range(200)]})
    cases = _tower_cases(103, 200) + [path]
    for p in cases:
        want, limit = dense_reach_sets(dense_steps(p), len(p.alphabet), 250)
        for length in (1, 3, 250):
            chain = build_chain(p, length)
            assert [chain.reach_set(k) for k in range(length + 1)] == list(want[:length + 1]), \
                p.to_json()
            assert len(chain.reach) == min(want.index(limit), length) + 1, p.to_json()
            assert chain.reach_limit == limit, p.to_json()
    chain = build_chain(path, 250)
    assert len(chain.reach) == 200      # K = 199: the longest finite path has 198 steps
    assert [len(chain.reach_set(k)) for k in range(251)] == [200 - k for k in range(200)] + [1] * 51


def test_class_maps_raise_as_the_dense_oracle_does():
    # random sparse tables under random fine and coarse partitions, most of
    # them not single-valued: the same maps, or the same error and message
    rng = random.Random(101)
    outcomes = set()
    for _ in range(3000):
        n, n_letters = rng.randint(1, 6), rng.randint(1, 4)
        steps = tuple(tuple((a, rng.randrange(n)) for a in range(n_letters) if rng.random() < 0.6)
                      for _ in range(n))
        coarse = partitions._level(_canonical_ids([rng.randrange(2) for _ in range(n)]))
        fine = partitions._level(_canonical_ids([
            c * 3 + rng.randrange(1 + (rng.random() < 0.3)) for c in coarse.class_of]))
        dense = tuple(tuple(dict(row).get(a) for a in range(n_letters)) for row in steps)
        try:
            want = dense_class_maps(dense, n_letters, fine, coarse)
        except (ConsistencyError, StraddleError) as exc:
            with pytest.raises(type(exc)) as info:
                partitions._class_maps(steps, fine, coarse)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc)), steps
            outcomes.add(type(exc).__name__)
            continue
        got = partitions._class_maps(steps, fine, coarse)
        assert (got.parent, _image_per_symbol(got.image, n_letters)) == want, steps
        outcomes.add("maps")
    assert len(outcomes) == 3, outcomes


def _canonical_ids(ids: list) -> tuple:
    """Class ids renumbered 0, 1, ... in order of first appearance."""
    first = {}
    return tuple(first.setdefault(i, len(first)) for i in ids)


def test_steps_hold_one_pair_per_transition():
    # an SFT has one pair per window-graph edge, a finite shift one per point
    # (its prepend that lands on it) and a sofic shift one per letter and
    # context whose preimage mask is nonempty
    for p in _tower_cases(97, 200):
        pairs = sum(map(len, p.steps))
        if isinstance(p, SftShift):
            assert pairs == sum(map(len, p.window_graph.values())), p.to_json()
        elif isinstance(p, FiniteShift):
            assert pairs == len(p.points), p.to_json()
        else:
            assert isinstance(p, SoficShift)
            masks = [p._mask_of(c) for c in p.contexts]
            assert pairs == sum(bool(p._pre_mask(a, m)) for m in masks for a in p.alphabet), \
                p.to_json()
        assert len(p.steps) == len(p.contexts)
        for row in p.steps:
            assert all(type(a) is int and type(t) is int for a, t in row), p.to_json()
            assert all(a < b for (a, _), (b, _) in zip(row, row[1:])), p.to_json()


# ---------------------------------------------------------------------------
# commuting diagrams (full sweep lives in the acceptance suite)


def diagrams_hold(p, length, with_delta_action):
    chain = build_chain(p, length)
    for l in range(length - 1):
        for k in range(l + 1):
            rm = restricted_maps(chain, k, l)
            rm_up = restricted_maps(chain, k, l + 1)
            rm_k1 = restricted_maps(chain, k + 1, l + 1)
            if rm_up.action.mul(rm.inclusion).entries != rm_k1.inclusion.mul(rm.action).entries:
                return False
        for k in range(l):
            rm = restricted_maps(chain, k, l)
            rm_up = restricted_maps(chain, k, l + 1)
            rm_k1 = restricted_maps(chain, k + 1, l)
            if rm_up.delta.mul(rm.inclusion).entries != rm_k1.inclusion.mul(rm.delta).entries:
                return False
            if with_delta_action:
                rm_k1_l1 = restricted_maps(chain, k + 1, l + 1)
                if rm_k1_l1.delta.mul(rm.action).entries != rm_k1.action.mul(rm.delta).entries:
                    return False
    return True


def test_diagrams_on_surjective_corpus(corpus):
    for name, p in corpus.items():
        if p.sigma_surjective:
            assert diagrams_hold(p, 5, with_delta_action=True), name


def test_inclusion_action_and_delta_inclusion_squares_hold_everywhere(corpus):
    for name, p in corpus.items():
        assert diagrams_hold(p, 5, with_delta_action=False), name


def test_delta_action_square_fails_on_pair(pair):
    # the delta/action compatibility square is not an identity in general:
    # it breaks below the grade where the nonempty-past masks stabilize on
    # non-surjective shifts; this pins the minimal counterexample
    chain = build_chain(pair, 3)
    rm = restricted_maps(chain, 0, 1)
    rm_k1 = restricted_maps(chain, 1, 1)
    rm_k1_l1 = restricted_maps(chain, 1, 2)
    lhs = rm_k1_l1.delta.mul(rm.action)
    rhs = rm_k1.action.mul(rm.delta)
    assert lhs.entries != rhs.entries


def test_bowen_franks_diagram(corpus):
    for p in corpus.values():
        chain = build_chain(p, 4)
        for l in range(chain.length - 1):
            lhs = bowen_franks(chain, l + 1).mul(inclusion_matrix(chain, l))
            rhs = inclusion_matrix(chain, l + 1).mul(bowen_franks(chain, l))
            assert lhs.entries == rhs.entries


# ---------------------------------------------------------------------------
# oracle agreement and straddle re-check


def test_partition_matches_oracle(corpus):
    for name, p in corpus.items():
        for level in range(3):
            got = partition_as_context_groups(p, past_partition(p, level))
            assert got == oracle_partition(p, level), (name, level)


def test_no_straddling_oracle_recheck(corpus):
    # prepending a letter to all witnesses of a class lands in a single class
    for name, p in corpus.items():
        chain = build_chain(p, 4)
        for l in range(3):
            fine, coarse = chain.levels[l + 1], chain.levels[l]
            for cls in fine.classes:
                for a in p.alphabet:
                    images = []
                    defined = []
                    for i in cls.contexts:
                        x = p.witness(p.contexts[i]).prepend((a,))
                        if p.contains(x):
                            defined.append(True)
                            images.append(oracle_graded(p, x, l))
                        else:
                            defined.append(False)
                    assert len(set(defined)) <= 1, (name, l, a)
                    assert len(set(images)) <= 1, (name, l, a)


def test_class_maps_reject_inconsistent_levels(golden_mean):
    # golden mean: contexts 0 and 1; prepending 1 is defined on context 0 only
    steps = golden_mean.steps
    one_class, singletons = partitions._level((0, 0)), partitions._level((0, 1))
    with pytest.raises(ConsistencyError, match="^a refined class straddles two coarser classes$"):
        partitions._class_maps(steps, one_class, singletons)
    with pytest.raises(ConsistencyError,
                       match="^prepending symbol 1 is defined on part of a class only$"):
        partitions._class_maps(steps, one_class, one_class)
    # a corrupted table sends the class {0, 1} to contexts 2 and 1, which lie
    # in two coarser classes
    corrupted = (((0, 2),), ((0, 1),), ((0, 0),))
    level = partitions._level((0, 0, 1))
    with pytest.raises(StraddleError, match="^prepending symbol 0 moves one class into two classes$"):
        partitions._class_maps(corrupted, level, level)
    assert partitions._class_maps(steps, singletons, one_class) == partitions.ClassMaps(
        (0, 0), (((0, 0), (1, 0)), ((0, 0),)))


# ---------------------------------------------------------------------------
# determinism and export


def test_chain_json_deterministic(golden_mean):
    a = json.dumps(chain_to_json(build_chain(golden_mean, 4)))
    b = json.dumps(chain_to_json(build_chain(make("golden_mean"), 4)))
    assert a == b


def test_chain_json_shape(even):
    chain = build_chain(even, 3)
    data = chain_to_json(chain)
    assert data["m_sequence"] == [1, 2, 3, 3]
    assert data["stabilization"]["stable"] is True
    assert len(data["levels"]) == 4
    assert "matrices" not in data and len(matrices_to_json(chain)) == 3
    assert {len(lv["classes"]) for lv in data["levels"]} == {1, 2, 3}


def test_chain_json_renders_each_class_signature(corpus):
    # each signature is listed once; a class of level l shows the first l + 1
    # grades of its representative's, the predecessor sets of its first context
    for p in corpus.values():
        chain = build_chain(p, 4)
        data = chain_to_json(chain)
        assert data["signatures"] == [
            [{"grade": k, "words": [p.alphabet.render_word(w) for w in entry[1:]]}
             for k, entry in enumerate(sig)]
            for sig in class_signatures(chain)], p
        for l, level in enumerate(data["levels"]):
            for cls, shown in zip(chain.levels[l].classes, level["classes"], strict=True):
                rep = cls.contexts[0]
                assert shown["representative"] == chain.levels[-1].class_of[rep]
                ctx = p.contexts[rep]
                assert data["signatures"][shown["representative"]][:l + 1] == [
                    {"grade": k, "words": [p.alphabet.render_word(w)
                                           for w in predecessor_set(p, ctx, k)]}
                    for k in range(l + 1)], (p, l)


def test_chain_ranks_no_grade_past_the_stable_level_unless_shown(corpus, monkeypatch):
    # the refinement ranks grades 1..l0+1; the export ranks a later grade only
    # for an elided signature entry, which needs every grade up to the length
    calls = []
    next_grade = partitions._next_grade
    monkeypatch.setattr(partitions, "_next_grade",
                        lambda steps, prev: calls.append(1) or next_grade(steps, prev))
    for name, p in corpus.items():
        calls.clear()
        chain = build_chain(p, 40)
        data = chain_to_json(chain)
        elided = any("elided" in entry for sig in data["signatures"] for entry in sig)
        assert len(calls) == (40 if elided else chain.stabilization.level + 1), name
        assert elided == (name not in FINITE_MODEL_NAMES), name


def test_level_bounds(golden_mean):
    chain = build_chain(golden_mean, 2)
    with pytest.raises(ValidationError):
        inclusion_matrix(chain, 2)
    with pytest.raises(ValidationError):
        m_index_set(chain, 2, 1)
    with pytest.raises(ValidationError):
        build_chain(golden_mean, 0)
