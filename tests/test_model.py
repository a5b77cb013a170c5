import random
from fractions import Fraction

import pytest

from shiftk import FiniteModel, ValidationError, run_all_checks
from shiftk import model as model_module
from shiftk.model import (
    Matrix,
    RationalSpan,
    fn_compose_shift,
    fn_prepend,
    fn_transfer,
    flatten,
    indicator_cylinder,
    mat_add,
    mat_diag,
    mat_identity,
    mat_mul,
    mat_zero,
    monomial,
    monomial_span,
    op_diagonal,
    op_lambda_shift,
    op_word,
    preimage_count_function,
)

from conftest import FINITE_MODEL_NAMES, make
from helpers import model_check_counts, oracle_cylinder_indicators

F = Fraction


def model(name):
    return FiniteModel(make(name))


def dense(m):
    """Row tuples of a sparse model matrix, zeros included."""
    return tuple(tuple(m.entries.get((i, j), F(0)) for j in range(m.n)) for i in range(m.n))


def as_int_lists(m):
    return [[int(x) for x in row] for row in dense(m)]


# ---------------------------------------------------------------------------
# operators


def test_word_operator_examples():
    pair = model("pair")
    # basis order is ((0)*, 1(0)*)
    assert as_int_lists(op_word(pair, (1,))) == [[0, 0], [1, 0]]
    assert as_int_lists(op_word(pair, (0,))) == [[1, 0], [0, 0]]
    assert op_word(pair, ()) == mat_identity(2)


def test_diagonal_operator_examples():
    pair = model("pair")
    assert op_diagonal(pair, (F(1), F(1))) == mat_identity(2)
    z1 = indicator_cylinder(pair, (), (1,))
    assert as_int_lists(op_diagonal(pair, z1)) == [[0, 0], [0, 1]]
    c1 = indicator_cylinder(pair, (1,), ())
    assert as_int_lists(op_diagonal(pair, c1)) == [[1, 0], [0, 0]]


def test_function_examples():
    pair = model("pair")
    ones = (F(1), F(1))
    assert fn_transfer(pair, ones) == (F(1), F(0))
    assert fn_prepend(pair, (1,), ones) == (F(1), F(0))
    single = model("single_point")
    f = (F(3, 7),)
    assert fn_compose_shift(single, f) == f


def test_preimage_counts():
    pair = model("pair")
    assert preimage_count_function(pair, 1) == (F(2), F(2))
    chain3 = model("chain3")
    # shift^2 maps everything to (0)*, so every point has three 2-step siblings
    assert preimage_count_function(chain3, 2) == (F(3), F(3), F(3))


def test_transfer_is_flat_not_iterated():
    pair = model("pair")
    f = (F(1), F(0))
    two_step = fn_transfer(pair, f, 2)
    iterated = fn_transfer(pair, fn_transfer(pair, f))
    assert two_step == (F(1, 2), F(0))
    assert iterated == (F(1, 4), F(0))
    assert two_step != iterated


# ---------------------------------------------------------------------------
# identity suites


@pytest.mark.parametrize("name", FINITE_MODEL_NAMES)
def test_all_identity_checks_pass(name):
    reports = run_all_checks(model(name), 3)
    for rep in reports:
        assert rep.ok, f"{name}: {rep.render()}"
        assert rep.checks > 0


@pytest.mark.parametrize("max_len", [1, 2, 3])
@pytest.mark.parametrize("name", FINITE_MODEL_NAMES)
def test_check_counts_follow_closed_form(name, max_len):
    m = model(name)
    a = len(m.shift.alphabet)
    n_words = sum(a ** k for k in range(max_len + 1))
    # the distinct cylinder indicators plus three random functions
    n_funcs = len(oracle_cylinder_indicators(m.shift, max_len)) + 3
    counts = {rep.name: rep.checks for rep in run_all_checks(m, max_len)}
    assert counts == model_check_counts(n_words, a, n_funcs, max_len)


def _mutant_reports(monkeypatch, name, attr, mutant, max_len=2):
    """Reports with ``attr`` of the model module replaced; a mutant changes no check count."""
    m = model(name)
    clean = {rep.name: rep.checks for rep in run_all_checks(m, max_len)}
    monkeypatch.setattr(model_module, attr, mutant)
    reports = {rep.name: rep for rep in run_all_checks(m, max_len)}
    assert {rep.name: rep.checks for rep in reports.values()} == clean
    return reports


def _violated(report, prefix):
    return any(v.startswith(prefix) for v in report.violations)


def test_checker_catches_iterated_transfer(monkeypatch):
    def iterated(m, f, steps=1):
        for _ in range(steps):
            f = fn_transfer(m, f)
        return f

    reports = _mutant_reports(monkeypatch, "pair", "fn_transfer", iterated)
    assert _violated(reports["composition rules"], "transfer formula")


def test_checker_catches_swapped_basis_columns(monkeypatch):
    def swapped(m, u):
        swap = {0: 1, 1: 0}
        t = op_word(m, u)
        return Matrix(t.n, {(i, swap.get(j, j)): v for (i, j), v in t.entries.items()})

    reports = _mutant_reports(monkeypatch, "two_cycle_fixed", "op_word", swapped)
    assert (_violated(reports["representation"], "composition")
            or _violated(reports["structure"], "range projection"))


def test_checker_catches_compose_without_shift(monkeypatch):
    reports = _mutant_reports(monkeypatch, "chain3", "fn_compose_shift", lambda m, f: f)
    assert _violated(reports["composition rules"], "compose commutation")


def test_model_rejects_foreign_points():
    pair = model("pair")
    from shiftk import Point
    with pytest.raises(ValidationError):
        pair.index(Point((), (1, 0)))


# ---------------------------------------------------------------------------
# monomial span and related linear algebra


@pytest.mark.parametrize("name", ["pair", "two_cycle_fixed"])
def test_monomial_products_stay_in_span(name):
    m = model(name)
    span = monomial_span(m, 2)
    words = m.words_upto(1)
    fs = [indicator_cylinder(m, u, v) for u in words for v in words][:6]
    mons = [monomial(m, u, f, v) for u in words for v in words for f in fs[:3]]
    for x in mons[:12]:
        for y in mons[:12]:
            assert span.contains(flatten(mat_mul(x, y)))


def test_diagonal_embedding_injective():
    m = model("chain3")
    span = RationalSpan(m.n * m.n)
    for i in range(m.n):
        e = tuple(F(1) if j == i else F(0) for j in range(m.n))
        assert span.add(flatten(op_diagonal(m, e)))
    assert span.rank == m.n


def test_lambda_shift_examples():
    single = model("single_point")
    x = mat_diag((F(5),))
    assert dense(op_lambda_shift(single, x)) == ((F(5),),)
    pair = model("pair")
    zero = mat_zero(2)
    assert dense(op_lambda_shift(pair, zero)) == ((F(0), F(0)), (F(0), F(0)))
    # (T_0 + T_1)^t I (T_0 + T_1) with S = [[1,0],[1,0]]
    got = op_lambda_shift(pair, mat_identity(2))
    assert as_int_lists(got) == [[2, 0], [0, 0]]


def test_rational_span_reduction():
    span = RationalSpan(3)
    assert span.add((F(1), F(2), F(0)))
    assert span.add((F(0), F(1), F(1)))
    assert not span.add((F(1), F(0), F(-2)))
    assert span.contains((F(2), F(5), F(1)))
    assert not span.contains((F(0), F(0), F(1)))


# ---------------------------------------------------------------------------
# sparse storage against a dense reference


def _random_sparse(rng, n):
    entries = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                entries[i, j] = F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2, 3]))
    return Matrix(n, entries)


def _dense_mul(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), F(0)) for j in range(n))
                 for i in range(n))


def _dense_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def test_sparse_arithmetic_matches_dense_reference():
    rng = random.Random(7)
    cancelled = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        a, b = _random_sparse(rng, n), _random_sparse(rng, n)
        da, db = dense(a), dense(b)
        product = _dense_mul(da, db)
        for got, want in ((mat_mul(a, b), product), (mat_add(a, b), _dense_add(da, db))):
            assert dense(got) == want
            assert all(v != 0 for v in got.entries.values())
        # entries whose products or sums cancel to zero are dropped
        cancelled += sum(
            1 for i in range(n) for j in range(n)
            if product[i][j] == 0 and any(da[i][k] and db[k][j] for k in range(n)))
        negated = Matrix(n, {key: -v for key, v in a.entries.items()})
        assert mat_add(a, negated) == mat_zero(n)
        assert flatten(a) == tuple(x for row in da for x in row)
    assert cancelled > 0
    assert Matrix(2, {(0, 0): F(0), (1, 0): F(3)}) == Matrix(2, {(1, 0): F(3)})
