import random

import pytest

from helpers import random_unimodular
from shiftk import FgAbelianGroup, IntMatrix, ValidationError, cokernel, kernel, smith_normal_form
from shiftk.intlinalg import determinant


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
