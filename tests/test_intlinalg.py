import math
import random
import signal

import pytest

from helpers import random_unimodular
from shiftk import FgAbelianGroup, IntMatrix, ValidationError, cokernel, kernel, smith_normal_form
from shiftk import ConsistencyError, intlinalg
from shiftk.intlinalg import determinant, invariant_factors, matrix_rank


def rows(*rs):
    return IntMatrix.from_rows(rs)


def test_snf_examples():
    assert smith_normal_form(IntMatrix.identity(2)).diagonal == (1, 1)
    assert smith_normal_form(rows([0, -1], [-1, 1])).diagonal == (1, 1)
    assert smith_normal_form(rows([2, 0], [0, 0])).diagonal == (2, 0)


def test_snf_transforms_multiply_back():
    m = rows([4, 6, 2], [2, 8, 10])
    snf = smith_normal_form(m)
    assert snf.u.mul(m).mul(snf.v).entries == snf.d.entries
    assert abs(determinant(snf.u)) == 1
    assert abs(determinant(snf.v)) == 1


def test_cokernel_examples():
    assert cokernel(rows([-1])) == FgAbelianGroup(0)            # full 2-shift
    assert cokernel(rows([-2])) == FgAbelianGroup(0, (2,))      # full 3-shift
    assert cokernel(rows([-3])) == FgAbelianGroup(0, (3,))      # full 4-shift
    assert cokernel(rows([0, -1], [-1, 1])) == FgAbelianGroup(0)
    assert cokernel(rows([0])) == FgAbelianGroup(1)


def test_kernel_examples():
    assert kernel(rows([-1]))[0] == 0
    rank, basis = kernel(rows([0]))
    assert rank == 1 and [abs(x) for x in basis[0]] == [1]
    rank, basis = kernel(rows([0, 0], [-1, 1]))
    assert rank == 1
    v = basis[0]
    assert v[0] == v[1] and abs(v[0]) == 1


def test_group_canonical_form():
    g = FgAbelianGroup(2, (2, 6))
    assert g.render() == "Z^2 + Z/2 + Z/6"
    assert FgAbelianGroup(0).render() == "0"
    assert FgAbelianGroup(1).render() == "Z"
    assert FgAbelianGroup(0, (5,)).order() == 5
    with pytest.raises(ValidationError):
        FgAbelianGroup(0, (4, 6))     # 4 does not divide 6
    with pytest.raises(ValidationError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(ValidationError):
        FgAbelianGroup(1).order()


def test_determinant_matches_cofactor_expansion():
    m = rows([2, -1, 3], [0, 4, 1], [5, 2, -2])
    # 2*(4*-2 - 1*2) - (-1)*(0*-2 - 1*5) + 3*(0*2 - 4*5)
    assert determinant(m) == 2 * (-10) + 1 * (-5) + 3 * (-20)
    assert determinant(IntMatrix.identity(4)) == 1


def test_matrix_power_and_apply():
    m = rows([1, 1], [1, 0])
    power = IntMatrix.identity(2)
    for _ in range(5):
        power = power.mul(m)
    assert power.entries == ((8, 5), (5, 3))
    assert m.apply((2, 3)) == (5, 2)


def test_random_property_suite():
    rng = random.Random(98765)
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        snf = smith_normal_form(m)
        # re-verification of the factorization
        assert snf.u.mul(m).mul(snf.v).entries == snf.d.entries
        assert abs(determinant(snf.u)) == 1
        assert abs(determinant(snf.v)) == 1
        # rank-nullity over the integers
        rank, basis = kernel(m)
        assert rank + snf.rank == c
        for b in basis:
            assert all(x == 0 for x in m.apply(b))
        # cokernel invariant under unimodular row/column operations
        pm = IntMatrix.from_rows(random_unimodular(rng, r))
        qm = IntMatrix.from_rows(random_unimodular(rng, c))
        assert cokernel(pm.mul(m).mul(qm)) == cokernel(m)


def test_matrix_validation():
    with pytest.raises(ValidationError):
        IntMatrix(1, 2, ((1,),))
    with pytest.raises(ValidationError):
        rows([1, 2]).mul(rows([1, 2]))
    with pytest.raises(ValidationError):
        determinant(rows([1, 2]))


def snf_factors(m):
    snf = smith_normal_form(m)
    return snf.rank, tuple(x for x in snf.diagonal if x)


def random_matrix(rng, kind, r, c):
    """Seeded matrices of three kinds: dense, low rank, and I - A for a 0/1 matrix A."""
    if kind == "dense":
        return IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
    if kind == "low-rank":
        k = rng.randint(0, min(r, c))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
        right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
        return IntMatrix.from_rows(
            [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(c)]
             for i in range(r)])
    return IntMatrix.from_rows(
        [[(i == j) - (rng.random() < 0.35) for j in range(r)] for i in range(r)])


def test_invariant_factors_match_sympy_and_smith():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors
    rng = random.Random(20261018)
    seen = {"nonsingular": 0, "singular": 0, "rectangular": 0}
    for _ in range(300):
        kind = rng.choice(["dense", "low-rank", "i-minus-a"])
        r = rng.randint(1, 9)
        c = r if kind == "i-minus-a" or rng.random() < 0.5 else rng.randint(1, 9)
        m = random_matrix(rng, kind, r, c)
        rank, factors = invariant_factors(m)
        assert (rank, factors) == snf_factors(m)
        assert rank == matrix_rank(m)
        expected = sympy_factors(sympy.Matrix(m.to_lists()), domain=sympy.ZZ)
        assert factors + (0,) * (min(r, c) - rank) == tuple(abs(int(x)) for x in expected)
        if r != c:
            seen["rectangular"] += 1
        else:
            seen["nonsingular" if rank == r else "singular"] += 1
    assert min(seen.values()) >= 30, seen
    for r, c in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (4, 4)]:
        zero = IntMatrix.from_rows([[0] * c for _ in range(r)]) if r else IntMatrix(0, c, ())
        assert invariant_factors(zero) == (0, ()) == snf_factors(zero)
        assert cokernel(zero) == FgAbelianGroup(r)


def test_kernel_bases_are_saturated():
    """Each basis is annihilated, fills the nullity, and spans a direct summand."""
    rng = random.Random(20261019)
    kinds = ["dense", "low-rank", "i-minus-a", "rectangular"]
    seen = dict.fromkeys(kinds, 0)
    for _ in range(300):
        kind = rng.choice(kinds)
        seen[kind] += 1
        r = rng.randint(1, 9)
        if kind == "rectangular":
            m = random_matrix(rng, rng.choice(["dense", "low-rank"]), r, rng.randint(1, 9))
        else:
            m = random_matrix(rng, kind, r, r)
        k, basis = kernel(m)
        assert k == len(basis) == m.cols - matrix_rank(m)
        for b in basis:
            assert not any(m.apply(b))
        # the basis vectors extend to a basis of Z^cols exactly when every
        # invariant factor of the matrix they form is 1
        b = IntMatrix.from_rows(basis) if basis else IntMatrix(0, m.cols, ())
        assert invariant_factors(b) == (k, (1,) * k)
    assert min(seen.values()) >= 50, seen


def rank_mod(m, p):
    """Rank over GF(p) by plain Gaussian elimination."""
    a = [[x % p for x in row] for row in m.entries]
    rank = 0
    for c in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, p)
        top = [x * inv % p for x in a[rank]]
        a[rank] = top
        for i in range(rank + 1, m.rows):
            f = a[i][c]
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], top)]
        rank += 1
    return rank


@pytest.mark.parametrize("n", [64, 96])
def test_invariant_factors_of_large_difference_matrices(n):
    rng = random.Random(n)
    b = random_matrix(rng, "i-minus-a", n, n)
    det = determinant(b)
    assert det != 0
    rank, factors = invariant_factors(b)
    assert rank == n
    assert math.prod(factors) == abs(det)
    for p in (2, 3, 5, 7):
        assert sum(1 for d in factors if d % p == 0) == n - rank_mod(b, p)


def test_pivot_one_is_cleared_by_a_quotient():
    # Clearing an entry that the pivot divides by a gcd step instead of a
    # quotient multiple (_gcdex(1, 1) has s == 0, which swaps the two lines)
    # moves entries back into the pivot row and column forever on this matrix.
    def expire(signum, frame):
        raise TimeoutError("modular elimination did not finish")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        check_det_five_matrix()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def check_det_five_matrix():
    b = rows([1, -1, 0, -1, 0, 0, 0, 0], [0, 0, 0, 0, 0, -1, 0, 0],
             [0, -1, 1, -1, 0, 0, 0, -1], [0, -1, 0, 1, -1, 0, 0, 0],
             [0, -1, 0, 0, 1, 0, 0, -1], [0, 0, -1, 0, 0, 1, 0, 0],
             [0, 0, 0, -1, 0, 0, 1, 0], [0, -1, -1, 0, 0, 0, 0, 1])
    assert determinant(b) == -5
    assert invariant_factors(b) == (8, (1,) * 7 + (5,)) == snf_factors(b)


@pytest.mark.parametrize("matrix, patch, check", [
    ([[2, 0], [0, 3]], ("_diagonal_mod", lambda m, modulus: []), "product equals |det|"),
    ([[2, 4], [4, 8]], ("_diagonal_mod", lambda m, modulus: [1, 1]), "rank count"),
    ([[4, 0, 0], [0, 4, 2]], ("_diagonal_mod", lambda m, modulus: [8, 8]),
     "product divides the minor"),
    ([[2, 0], [0, 3]], ("_divisibility_chain", lambda diag: [6, 1]), "divisibility chain"),
])
def test_certificate_failures_name_check_shape_and_modulus(monkeypatch, matrix, patch, check):
    m = IntMatrix.from_rows(matrix)
    invariant_factors(m)
    monkeypatch.setattr(intlinalg, *patch)
    with pytest.raises(ConsistencyError) as info:
        invariant_factors(m)
    message = str(info.value)
    assert check in message
    assert f"{m.rows}x{m.cols} matrix" in message
    assert "modulus of" in message and "bits" in message


def test_caller_data_is_checked_and_results_are_plain_matrices():
    with pytest.raises(ValidationError):
        rows([1, 2], [3])
    with pytest.raises(ValidationError):
        IntMatrix(1, 1, ((1.5,),))
    for data in ([[1.5, 2.9]], [["3", "-4"]], [[True, 0]]):
        with pytest.raises(ValidationError):
            IntMatrix.from_rows(data)
    a, b = rows([1, 2], [3, 4]), rows([0, 1], [1, 0])
    for result, expected in [(a.mul(b), ((2, 1), (4, 3))),
                             (a.sub(b), ((1, 1), (2, 4))), (a.transpose(), ((1, 3), (2, 4))),
                             (a.submatrix((1,), (0, 1)), ((3, 4),))]:
        assert result == IntMatrix(len(expected), len(expected[0]), expected)
        assert hash(result) == hash(IntMatrix(len(expected), len(expected[0]), expected))
