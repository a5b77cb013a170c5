import json
import random

import pytest

from helpers import (
    oracle_graded,
    oracle_partition,
    partition_as_context_groups,
    periodic_orbit,
    random_presentation,
)
from shiftk import (
    ConsistencyError,
    StraddleError,
    ValidationError,
    action_matrices,
    action_sum,
    bowen_franks_matrix,
    build_chain,
    dimension_triple,
    inclusion_matrix,
    k_groups,
    m_index_set,
    parse_presentation,
    past_partition,
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

from conftest import CORPUS_OBJECTS, make


def class_index_of_context(chain, level, ctx):
    return chain.levels[level].class_of[chain.presentation.context_index[ctx]]


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
    chain = build_chain(pair, 1)
    assert chain.m(1) == 2
    # signatures are ({eps}, {0,1}) and ({eps}, {})
    sigs = set(class_signatures(chain, 1))
    assert sigs == {
        (("w", ()), ("w",)),
        (("w", ()), ("w", (0,), (1,))),
    }


def test_signatures_elide_to_grade_rank(full2, monkeypatch):
    monkeypatch.setattr(partitions, "SIGNATURE_WORD_LIMIT", 2)
    chain = build_chain(full2, 3)
    assert class_signatures(chain, 3) == (
        (("w", ()), ("w", (0,), (1,)), ("e", 0), ("e", 0)),
    )


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
            for l in range(chain.length):
                assert inclusion_matrix(longest, l) == inclusion_matrix(chain, l), (name, l)
                assert action_matrices(longest, l) == action_matrices(chain, l), (name, l)


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
    per_symbol = action_matrices(chain, 1)
    assert per_symbol[0].entry(i0, i0) == 1     # 0 maps the 0-class into itself
    assert per_symbol[1].entry(i0, i1) == 1     # 1 maps the 0-class into the 1-class
    assert per_symbol[1].entries[i1] == (0, 0)  # nothing starts with 11

    chain = build_chain(pair, 3)
    p0 = context_of(pair, pair.points[0])       # (0)*
    p1 = context_of(pair, pair.points[1])       # 1(0)*
    i0 = class_index_of_context(chain, 2, p0)
    i1 = class_index_of_context(chain, 2, p1)
    a = action_sum(chain, 1)
    assert a.entry(i0, i0) == 1 and a.entry(i0, i1) == 1
    assert a.entries[i1] == (0, 0)


def test_action_sum_is_the_sum_of_the_symbol_matrices(corpus):
    for name, p in corpus.items():
        chain = build_chain(p, 6)
        for l in range(chain.length):
            per_symbol = action_matrices(chain, l)
            total = action_sum(chain, l)
            assert total.rows == chain.m(l + 1) and total.cols == chain.m(l), name
            assert [
                [sum(per_symbol[a].entry(i, j) for a in per_symbol) for j in range(total.cols)]
                for i in range(total.rows)
            ] == total.to_lists(), (name, l)


def test_bowen_franks_examples(full2, golden_mean):
    assert bowen_franks_matrix(build_chain(full2, 2), 1).to_lists() == [[-1]]
    single = make("single_point")
    assert bowen_franks_matrix(build_chain(single, 2), 1).to_lists() == [[0]]
    chain = build_chain(golden_mean, 3)
    i0 = class_index_of_context(chain, 2, SuffixContext((0,)))
    i1 = class_index_of_context(chain, 2, SuffixContext((1,)))
    b = bowen_franks_matrix(chain, 1)
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
                                if any(j is not None and j in cur for j in steps[i]))) != cur:
            cur = nxt
        assert build_chain(p, 2).reach_limit == cur, p.to_json()


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
            lhs = bowen_franks_matrix(chain, l + 1).mul(inclusion_matrix(chain, l))
            rhs = inclusion_matrix(chain, l + 1).mul(bowen_franks_matrix(chain, l))
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
        partitions._class_maps(steps, 2, one_class, singletons)
    with pytest.raises(ConsistencyError,
                       match="^prepending symbol 1 is defined on part of a class only$"):
        partitions._class_maps(steps, 2, one_class, one_class)
    # a corrupted table sends the class {0, 1} to contexts 2 and 1, which lie
    # in two coarser classes
    corrupted = ((2,), (1,), (0,))
    level = partitions._level((0, 0, 1))
    with pytest.raises(StraddleError, match="^prepending symbol 0 moves one class into two classes$"):
        partitions._class_maps(corrupted, 1, level, level)
    assert partitions._class_maps(steps, 2, singletons, one_class) == partitions.ClassMaps(
        (0, 0), ((0, 0), (0, None)))


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
    # every level repeats its classes' lower grades; each class shows its own words
    for p in corpus.values():
        chain = build_chain(p, 4)
        for l, level in enumerate(chain_to_json(chain)["levels"]):
            shown = [cls["signature"] for cls in level["classes"]]
            assert shown == [
                [{"grade": k, "words": [p.alphabet.render_word(w) for w in entry[1:]]}
                 for k, entry in enumerate(sig)]
                for sig in class_signatures(chain, l)], (p, l)


def test_level_bounds(golden_mean):
    chain = build_chain(golden_mean, 2)
    with pytest.raises(ValidationError):
        inclusion_matrix(chain, 2)
    with pytest.raises(ValidationError):
        m_index_set(chain, 2, 1)
    with pytest.raises(ValidationError):
        build_chain(golden_mean, 0)
