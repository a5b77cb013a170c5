import json
import random
import signal
from contextlib import contextmanager

from shiftk import (
    FgAbelianGroup,
    IntMatrix,
    build_chain,
    compare_triples,
    dimension_triple,
    higher_block,
    k_groups,
)
from shiftk.intlinalg import matrix_rank
from shiftk import invariants
from shiftk.invariants import StationarySystem, _Search, eventual_rank
from shiftk.presentations import parse_presentation

from conftest import make
from helpers import intertwines, permutation_compare, random_essential_adjacency, triple_invariants


def test_k_group_examples():
    expected = {
        "full2": (FgAbelianGroup(0), FgAbelianGroup(0)),
        "full3": (FgAbelianGroup(0, (2,)), FgAbelianGroup(0)),
        "full4": (FgAbelianGroup(0, (3,)), FgAbelianGroup(0)),
        "golden_mean": (FgAbelianGroup(0), FgAbelianGroup(0)),
        "golden_mean_matrix": (FgAbelianGroup(0), FgAbelianGroup(0)),
        "single_point": (FgAbelianGroup(1), FgAbelianGroup(1)),
        "pair": (FgAbelianGroup(1), FgAbelianGroup(1)),
    }
    for name, (k0, k1) in expected.items():
        kg = k_groups(build_chain(make(name), 5))
        assert (kg.k0, kg.k1) == (k0, k1), name


def test_k_groups_level_independent():
    for name in ("golden_mean", "even", "pair", "full3"):
        p = make(name)
        short = k_groups(build_chain(p, 4))
        long = k_groups(build_chain(p, 8))
        assert short == long


def test_dimension_triple_examples():
    t = dimension_triple(build_chain(make("single_point"), 3))
    assert t.rank == 1 and t.step_map.to_lists() == [[1]] and t.delta_mask == (0,)

    gm = make("golden_mean")
    t = dimension_triple(build_chain(gm, 4))
    assert t.rank == 2 and t.delta_mask == (0, 1)
    # classes in canonical order are ("1"-class, "0"-class); in the other
    # order the matrix reads [[1,1],[1,0]]
    assert t.step_map.to_lists() == [[0, 1], [1, 1]]

    pair = make("pair")
    chain = build_chain(pair, 4)
    t = dimension_triple(chain)
    keep = chain.levels[1].class_of[pair.context_index[pair.context_of(pair.points[0])]]
    assert t.rank == 2 and t.delta_mask == (keep,)
    assert t.step_map.to_lists()[keep] == [1, 1]
    other = 1 - keep
    assert t.step_map.to_lists()[other] == [0, 0]


def test_one_stationary_system_per_chain(monkeypatch):
    from shiftk import intlinalg

    calls = []
    real = intlinalg.invariant_factors
    monkeypatch.setattr(intlinalg, "invariant_factors", lambda m: calls.append(m) or real(m))
    chain = build_chain(make("full3"), 4)
    kg = k_groups(chain)
    s = dimension_triple(chain)
    assert dimension_triple(chain) is s
    assert s.k_groups is kg
    assert len(calls) == 1


def test_dimension_triple_at_short_length():
    # even stabilizes at level 2; a chain of length 1 still reads the triple there
    for name in ("even", "pair", "chain3"):
        p = make(name)
        short, long = build_chain(p, 1), build_chain(p, 40)
        assert dimension_triple(short) == dimension_triple(long), name


def test_eventual_rank():
    assert eventual_rank(IntMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert eventual_rank(IntMatrix.from_rows([[0, 1], [0, 0]])) == 0
    assert eventual_rank(IntMatrix.identity(3)) == 3
    assert eventual_rank(IntMatrix.from_rows([[2]])) == 1


def _conjugate_by_permutation(rows, perm):
    n = len(rows)
    return [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _random_eventual_rank_cases(rng):
    """Nilpotent, idempotent, singular, nonsingular and mixed square matrices."""
    n = rng.randint(1, 7)
    kind = rng.choice(("nilpotent", "idempotent", "singular", "nonsingular", "mixed"))
    if kind == "nilpotent":
        rows = [[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
    elif kind == "idempotent":
        r = rng.randint(0, n)
        rows = [[(1 if i == j else 0) if j < r else (rng.randint(-2, 2) if i < r else 0)
                 for j in range(n)] for i in range(n)]
    elif kind == "singular":
        r = rng.randint(0, n - 1)
        left = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        rows = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
                for i in range(n)]
    elif kind == "nonsingular":
        # unit lower triangular times upper triangular with a nonzero diagonal
        lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)]
                 for i in range(n)]
        upper = [[rng.choice((-2, -1, 1, 3)) if i == j else rng.randint(-2, 2) if j > i else 0
                  for j in range(n)] for i in range(n)]
        rows = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
    else:
        # a nilpotent block beside an invertible one: the rank falls, then stays
        k = rng.randint(0, n)
        rows = [[0] * n for _ in range(n)]
        for i in range(k):
            for j in range(i + 1, k):
                rows[i][j] = rng.randint(-2, 2)
        for i in range(k, n):
            for j in range(k, n):
                rows[i][j] = rng.randint(-2, 2) + (3 if i == j else 0)
    perm = list(range(n))
    rng.shuffle(perm)
    return kind, IntMatrix.from_rows(_conjugate_by_permutation(rows, perm))


def test_eventual_rank_matches_rank_of_the_dimension_power():
    rng = random.Random(7331)
    kinds = {}
    cases = [("empty", IntMatrix.from_rows([]))]
    cases += [_random_eventual_rank_cases(rng) for _ in range(240)]
    for kind, m in cases:
        power = IntMatrix.identity(m.rows)
        for _ in range(m.rows):
            power = power.mul(m)
        assert eventual_rank(m) == matrix_rank(power), (kind, m.to_lists())
        kinds.setdefault(kind, set()).add((matrix_rank(m), matrix_rank(power), m.rows))
    assert set(kinds) == {"empty", "nilpotent", "idempotent", "singular", "nonsingular", "mixed"}
    # the rank must fall after the first power on some matrices
    assert any(r1 > r_n > 0 for seen in kinds.values() for r1, r_n, _ in seen)


def test_compare_identical_is_equivalent():
    t = dimension_triple(build_chain(make("golden_mean"), 4))
    out = compare_triples(t, t)
    assert out.verdict == "equivalent" and out.witness == "identity intertwiner"


def test_compare_full_shifts_distinguished():
    t2 = dimension_triple(build_chain(make("full2"), 3))
    t3 = dimension_triple(build_chain(make("full3"), 3))
    out = compare_triples(t2, t3)
    assert out.verdict == "distinguished"
    assert "k0" in out.witness


def test_compare_golden_mean_with_two_block():
    gm = make("golden_mean")
    blocked, _ = higher_block(gm, 2)
    ta = dimension_triple(build_chain(gm, 5))
    tb = dimension_triple(build_chain(blocked, 5))
    out = compare_triples(ta, tb)
    assert triple_invariants(ta) == triple_invariants(tb)
    assert out.verdict == "equivalent"         # a permutation intertwiner exists


def test_compare_respects_mask():
    a = StationarySystem(2, IntMatrix.from_rows([[1, 0], [0, 1]]), (0, 1))
    b = StationarySystem(2, IntMatrix.from_rows([[1, 0], [0, 1]]), (0,))
    out = compare_triples(a, b)
    # limit ranks differ (2 vs 1): genuinely distinguishable
    assert out.verdict == "distinguished"
    assert "limit_rank" in out.witness


def test_triple_invariants_content():
    t = dimension_triple(build_chain(make("full3"), 3))
    assert triple_invariants(t) == {"k0": {"free_rank": 0, "torsion": [2]},
                                    "k1_rank": 0, "limit_rank": 1}
    assert t.k_groups.k0.to_json() == {"free_rank": 0, "torsion": [2]}
    assert t.k_groups.k1.free_rank == 0
    assert eventual_rank(t.core_map()) == 1


# ---------------------------------------------------------------------------
# the intertwiner search of compare_triples


def _system(rows, mask=None) -> StationarySystem:
    n = len(rows)
    return StationarySystem(n, IntMatrix.from_rows(rows),
                            tuple(range(n)) if mask is None else tuple(sorted(mask)))


def _relabelled(s: StationarySystem, rng) -> StationarySystem:
    """s with its coordinates renamed by a random permutation."""
    perm = list(range(s.rank))
    rng.shuffle(perm)
    where = {old: new for new, old in enumerate(perm)}
    return _system(_conjugate_by_permutation(s.step_map.to_lists(), perm),
                   [where[i] for i in s.delta_mask])


def _cycles(lengths) -> list:
    n = sum(lengths)
    rows, start = [[0] * n for _ in range(n)], 0
    for length in lengths:
        for k in range(length):
            rows[start + k][start + (k + 1) % length] += 1
        start += length
    return rows


def _circulant(n, offsets) -> list:
    return [[1 if (j - i) % n in offsets else 0 for j in range(n)] for i in range(n)]


def _regular_adjacency(rng, n, d) -> list:
    """Random d-in, d-out regular 0/1 matrix, drawn as the benchmark draws them."""
    p, q = list(range(n)), list(range(n))
    rng.shuffle(p)
    rng.shuffle(q)
    return [[1 if (q[j] - p[i]) % n < d else 0 for j in range(n)] for i in range(n)]


def _vertex_system(adjacency) -> StationarySystem:
    p = parse_presentation({"type": "sft_matrix", "adjacency": adjacency})
    return dimension_triple(build_chain(p, 2))


def _random_mask(rng, n):
    return [i for i in range(n) if rng.random() < 0.7] if rng.random() < 0.5 else range(n)


def _small_pair(rng):
    """Two systems of one rank 1-7: random, relabelled, relabelled and then
    changed in one entry, unions of equal cycles, or constant matrices."""
    n = rng.randint(1, 7)
    kind = rng.choice(("random", "relabelled", "changed", "cycles", "constant"))
    mask = _random_mask(rng, n)
    if kind == "cycles":
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        d, e = rng.choice(divisors), rng.choice(divisors)
        return (kind, _system(_cycles([d] * (n // d)), mask),
                _relabelled(_system(_cycles([e] * (n // e)), mask), rng))
    if kind == "constant":
        c = rng.randint(0, 2)
        mask2 = _random_mask(rng, n)
        if rng.random() < 0.7:
            mask2 = rng.sample(range(n), len(list(mask)))
        return kind, _system([[c] * n] * n, mask), _system([[rng.choice((c, c, c + 1))] * n] * n, mask2)
    weights = rng.choice(((0, 1), (0, 0, 1), (0, 1, 2), (0, 0, 1, 3)))
    s1 = _system([[rng.choice(weights) for _ in range(n)] for _ in range(n)], mask)
    if kind == "random":
        return kind, s1, _system([[rng.choice(weights) for _ in range(n)] for _ in range(n)],
                                 _random_mask(rng, n))
    s2 = _relabelled(s1, rng)
    if kind == "changed":
        rows = s2.step_map.to_lists()
        rows[rng.randrange(n)][rng.randrange(n)] += 1
        s2 = _system(rows, s2.delta_mask)
    return kind, s1, s2


def test_compare_matches_the_permutation_oracle_up_to_rank_7():
    rng = random.Random(2024)
    seen = set()
    for _ in range(2400):
        kind, s1, s2 = _small_pair(rng)
        out = compare_triples(s1, s2)
        expected = permutation_compare(s1, s2)
        assert (out.verdict, out.witness) == expected, (kind, s1, s2)
        seen.add((kind, out.verdict))
    assert seen >= {("random", "equivalent"), ("random", "distinguished"),
                    ("random", "inconclusive"), ("relabelled", "equivalent"),
                    ("changed", "inconclusive"), ("cycles", "equivalent"),
                    ("cycles", "distinguished"), ("constant", "equivalent")}, seen


def _witness_permutation(out):
    prefix = "coordinate permutation "
    assert out.verdict == "equivalent" and out.witness.startswith(prefix), out
    return json.loads(out.witness[len(prefix):])


def _relabelled_pairs():
    """Vertex systems and weighted systems of ranks 8-64, each with a relabelling."""
    rng = random.Random(99)
    pairs = []
    for n in (10, 14, 18, 24, 33, 48, 64):
        adjacency = random_essential_adjacency(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        pairs.append((_vertex_system(adjacency),
                      _vertex_system(_conjugate_by_permutation(adjacency, perm))))
    for n in (8, 9, 13, 20, 32, 47, 64):
        weights = rng.choice(((0, 1), (0, 0, 1), (0, 1, 2)))
        s1 = _system([[rng.choice(weights) for _ in range(n)] for _ in range(n)],
                     _random_mask(rng, n))
        pairs.append((s1, _relabelled(s1, rng)))
    return pairs


def test_relabelled_pairs_are_equivalent_at_any_rank():
    for s1, s2 in _relabelled_pairs():
        assert 8 <= s1.rank <= 64 and s1 != s2
        out = compare_triples(s1, s2)
        assert intertwines(s1, s2, _witness_permutation(out))


def test_an_equivalent_verdict_computes_no_invariant(monkeypatch):
    def refuse(m):
        raise AssertionError("a limit rank was computed")
    monkeypatch.setattr(invariants, "eventual_rank", refuse)
    t = dimension_triple(build_chain(make("golden_mean"), 4))
    pairs = [(t, t)] + _relabelled_pairs()
    for s1, s2 in pairs:
        assert compare_triples(s1, s2).verdict == "equivalent"
        assert "k_groups" not in s2.__dict__


def _walk_profile(s: StationarySystem):
    """Per coordinate: mask membership and the diagonal entries of S, S^2, S^3, S^4,
    as a sorted list; unequal profiles prove two systems non-isomorphic."""
    powers, power = [], s.step_map
    for _ in range(4):
        powers.append(power)
        power = power.mul(s.step_map)
    mask = set(s.delta_mask)
    return sorted((i in mask, *(m.entry(i, i) for m in powers)) for i in range(s.rank))


def test_non_isomorphic_pairs_with_equal_line_sums_are_never_equivalent():
    rng = random.Random(5)
    tested = 0
    for _ in range(600):
        n = rng.randint(2, 16)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        # move a unit around a rectangle: every row and column sum stays
        i, k, j, l = rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if i == k or j == l or not rows[i][j] or not rows[k][l]:
            continue
        other = [row[:] for row in rows]
        other[i][j] -= 1
        other[k][l] -= 1
        other[i][l] += 1
        other[k][j] += 1
        mask = _random_mask(rng, n)
        s1, s2 = _system(rows, mask), _relabelled(_system(other, mask), rng)
        if _walk_profile(s1) == _walk_profile(s2):
            continue
        tested += 1
        assert compare_triples(s1, s2).verdict != "equivalent", (s1, s2)
    assert tested >= 50, tested


def test_orbit_pruning_uses_only_automorphisms_fixing_the_earlier_images():
    # A refuted image prunes its orbit only under the automorphisms that fix
    # every target coordinate already paired.  On the undirected 4-cycle the
    # rotation moves every coordinate and the reflection fixes 0 and 2.
    search = _Search(_system(_circulant(4, {1, 3})))
    search.automorphisms = [[1, 2, 3, 0], [0, 3, 2, 1]]
    assert search._orbits({0}, []) == {0, 1, 2, 3}
    assert search._orbits({1}, [0]) == {1, 3}
    assert search._orbits({0}, [2]) == {0}


@contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError("the intertwiner search did not finish")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_symmetric_inputs_stay_fast():
    # Colour refinement alone cannot split these: every coordinate looks alike
    # until one is individualized, and unions of equal components need the
    # automorphisms of the target to prune refuted images.  Each system is
    # compared with a relabelling of itself and with a system that is not
    # isomorphic to it: a union of cycles with another count of cycles (so
    # another K0), the circulant with offsets {0, 1, 4}, which no multiplier
    # maps onto {0, 1, 3} (so not isomorphic at prime n, Turner 1967, where
    # the invariants agree), or another regular matrix with another K0.
    rng = random.Random(11)
    cases = []
    for k, length in ((1, 64), (2, 32), (4, 16), (8, 8), (16, 4), (32, 2), (3, 21), (21, 3)):
        other = [length] * (k - 2) + [2 * length] if k >= 2 else [length // 2] * 2
        cases.append((f"{k} x C{length}", _system(_cycles([length] * k)),
                      _system(_cycles(other)), "distinguished"))
    for n in (24, 37, 50, 61, 64):
        cases.append((f"circulant {n}", _system(_circulant(n, {0, 1, 3})),
                      _system(_circulant(n, {0, 1, 4})),
                      "inconclusive" if n in (37, 61) else "distinguished"))
    for n, d in ((24, 2), (24, 3), (40, 2), (64, 2), (64, 3)):
        cases.append((f"regular {n}/{d}", _vertex_system(_regular_adjacency(rng, n, d)),
                      _vertex_system(_regular_adjacency(rng, n, d)), "distinguished"))
    for name, s1, other, verdict in cases:
        for s2, expected in ((_relabelled(s1, rng), "equivalent"),
                             (_relabelled(other, rng), verdict)):
            with _deadline(10):
                out = compare_triples(s1, s2)
            assert out.verdict == expected, (name, out.witness)
            if expected == "equivalent":
                assert intertwines(s1, s2, _witness_permutation(out)), name
