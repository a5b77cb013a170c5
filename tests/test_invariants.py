import random

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
from shiftk.invariants import StationarySystem, eventual_rank, triple_invariants
from shiftk.presentations import context_of

from conftest import make


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
    keep = chain.levels[1].class_of[pair.context_index[context_of(pair, pair.points[0])]]
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
    assert triple_invariants(s)["k0"] == kg.k0.to_json()
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
    assert out.verdict != "distinguished"
    assert out.invariants[0] == out.invariants[1]
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
    inv = triple_invariants(t)
    assert inv["k0"] == {"free_rank": 0, "torsion": [2]}
    assert inv["k1_rank"] == 0
    assert inv["limit_rank"] == 1
