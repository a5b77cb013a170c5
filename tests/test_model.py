import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from shiftk import (
    FiniteModel,
    Point,
    ResourceCapError,
    ValidationError,
    parse_presentation,
    presentations,
    run_all_checks,
)
from shiftk import model as model_module
from shiftk.model import (
    Matrix,
    fn_compose_shift,
    fn_prepend,
    fn_transfer,
    indicator_cylinder,
    mat_identity,
    mat_mul,
    mat_zero,
    op_diagonal,
    op_word,
    preimage_count_function,
)

from conftest import FINITE_MODEL_NAMES, make
from helpers import (
    RationalSpan,
    flatten,
    in_cylinder,
    model_check_counts,
    monomial,
    monomial_span,
    op_lambda_shift,
    oracle_cylinder_indicators,
    random_finite_shift,
)

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


def test_a_model_needs_a_finite_shift():
    with pytest.raises(ValidationError) as info:
        FiniteModel(make("golden_mean"))
    assert str(info.value) == "model verification needs a finite presentation"


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
    # zeros are not stored, ints and Fractions are stored as given, and other
    # numbers become Fractions
    d = op_diagonal(pair, (0, 2))
    assert d.entries == {(1, 1): 2} and type(d.entries[1, 1]) is int
    assert d == Matrix(2, {(0, 0): F(0), (1, 1): F(2)})
    h = op_diagonal(pair, (0.5, F(1, 3)))
    assert h.entries == {(0, 0): F(1, 2), (1, 1): F(1, 3)}
    assert {type(v) for v in h.entries.values()} == {F}


def test_words_upto_is_in_length_then_lexicographic_order():
    for name in FINITE_MODEL_NAMES:
        m = model(name)
        n = len(m.shift.alphabet)
        for max_len in range(4):
            words = m.words_upto(max_len)
            assert words == sorted(words, key=lambda w: (len(w), w))
            assert len(set(words)) == len(words) == sum(n ** k for k in range(max_len + 1))
            assert all(0 <= a < n for w in words for a in w)


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


def _summary(reports):
    """Per report: the number of violations, the first one and a digest of all of
    them in order."""
    return {name: (len(rep.violations), rep.violations[0] if rep.violations else None,
                   hashlib.sha256("".join(v + "\n" for v in rep.violations).encode())
                   .hexdigest()[:16])
            for name, rep in reports.items()}


_NO_VIOLATIONS = (0, None, "e3b0c44298fc1c14")


def test_checker_catches_iterated_transfer(monkeypatch):
    def iterated(m, f, steps=1):
        for _ in range(steps):
            f = fn_transfer(m, f)
        return f

    reports = _mutant_reports(monkeypatch, "pair", "fn_transfer", iterated)
    assert _violated(reports["composition rules"], "transfer formula")
    assert _summary(reports) == {
        "representation": _NO_VIOLATIONS,
        "structure": _NO_VIOLATIONS,
        "composition rules": (6, "transfer formula fails at n=2", "4f728a887ad0a8c4"),
    }


def test_checker_catches_swapped_basis_columns(monkeypatch):
    def swapped(m, u):
        swap = {0: 1, 1: 0}
        t = op_word(m, u)
        return Matrix(t.n, {(i, swap.get(j, j)): v for (i, j), v in t.entries.items()})

    reports = _mutant_reports(monkeypatch, "two_cycle_fixed", "op_word", swapped)
    assert (_violated(reports["representation"], "composition")
            or _violated(reports["structure"], "range projection"))
    assert _summary(reports) == {
        "representation": (20, "composition: T_u T_v != T_uv at u=e v=e", "19f69b397e31190b"),
        "structure": (6, "unit: T_epsilon is not the identity", "9d8f688ad36efe6c"),
        "composition rules": (114, "prepend rule fails at w=e", "fa00364495620b69"),
    }


def test_checker_catches_compose_without_shift(monkeypatch):
    reports = _mutant_reports(monkeypatch, "chain3", "fn_compose_shift", lambda m, f: f)
    assert _violated(reports["composition rules"], "compose commutation")
    assert _summary(reports) == {
        "representation": _NO_VIOLATIONS,
        "structure": _NO_VIOLATIONS,
        "composition rules": (37, "compose commutation fails at w=1", "7904b37a2bd3ab9e"),
    }


def test_checker_names_only_the_test_function_whose_transfer_is_wrong(monkeypatch):
    # over Q^K the transfer formula is one identity for all K test functions;
    # when it fails, each function is still checked, and only the wrong one fails
    chain3 = model("chain3")
    target = model_module._test_functions(model_module._Operators(chain3, 3))[5]
    real = model_module.fn_transfer

    def wrong_for_one(m, f, steps=1):
        out = real(m, f, steps)
        return (out[0] + F(1, 3),) + out[1:] if f == target else out

    reports = _mutant_reports(monkeypatch, "chain3", "fn_transfer", wrong_for_one, max_len=3)
    assert reports["composition rules"].violations == [
        f"transfer formula fails at n={n}" for n in (1, 2, 3)]
    assert reports["representation"].ok and reports["structure"].ok


def test_checker_catches_a_corrupted_prepend_index(monkeypatch):
    # op_word and fn_prepend share the model's prepend index; the cylinder
    # indicators and T_uv for other splittings must still catch a wrong one
    real = FiniteModel.prepend_index

    def corrupted(m, w):
        idx = real(m, w)
        return (idx[1], idx[0]) + idx[2:] if w == (1,) else idx

    clean = {rep.name: rep.checks for rep in run_all_checks(model("chain3"), 2)}
    monkeypatch.setattr(FiniteModel, "prepend_index", corrupted)
    reports = {rep.name: rep for rep in run_all_checks(model("chain3"), 2)}
    assert {rep.name: rep.checks for rep in reports.values()} == clean
    assert (_violated(reports["representation"], "composition")
            or _violated(reports["structure"], "range projection")
            or _violated(reports["representation"], "cylinder projection"))


def test_each_indicator_and_prepend_is_computed_once(monkeypatch):
    m = model("two_cycle_fixed")
    max_len = 3
    cylinder, prepends = Counter(), Counter()
    real_indicator = model_module.indicator_cylinder
    real_normal_form = model_module.prepend_normal_form

    def counting_indicator(md, u, v):
        cylinder[u, v] += 1
        return real_indicator(md, u, v)

    def counting_normal_form(w, pre, per):
        # the model prepends w to the basis point x = pre + per^inf
        prepends[w, Point(pre, per)] += 1
        return real_normal_form(w, pre, per)

    monkeypatch.setattr(model_module, "indicator_cylinder", counting_indicator)
    monkeypatch.setattr(model_module, "prepend_normal_form", counting_normal_form)
    assert all(rep.ok for rep in run_all_checks(m, max_len))
    words = m.words_upto(max_len)
    assert set(cylinder) == {(u, v) for u in words for v in words}
    assert max(cylinder.values()) == 1
    # T_uv is built for every word up to length 2L, each from one normal form per point
    assert set(prepends) == {(w, x) for w in m.words_upto(2 * max_len) for x in m.basis}
    assert max(prepends.values()) == 1


def _indicator_models():
    """The corpus finite models, then 48 seeded random finite shifts over 1-3 letters."""
    rng = random.Random(31)
    return ([model(name) for name in FINITE_MODEL_NAMES]
            + [FiniteModel(parse_presentation(random_finite_shift(rng, max_letters=3)))
               for _ in range(48)])


def test_indicators_match_the_shift_membership_test():
    tested = 0
    for m in _indicator_models():
        max_len = 3 if len(m.shift.alphabet) <= 2 else 2
        words = m.words_upto(max_len)
        for u in words:
            for v in words:
                got = indicator_cylinder(m, u, v)
                assert got == tuple(F(in_cylinder(m.shift, u, v, x)) for x in m.basis), (u, v)
                tested += m.n
    assert tested > 40000


def test_indicators_take_neither_prepend_nor_the_prepend_index(monkeypatch):
    # the indicators are the independent oracle of op_word and fn_prepend, which
    # share the prepend index: they read only the shift map and point prefixes
    prepends = []
    real_prepend, real_normal_form = Point.prepend, model_module.prepend_normal_form

    def counting_prepend(x, w):
        prepends.append((x, w))
        return real_prepend(x, w)

    def counting_normal_form(w, pre, per):
        prepends.append((w, pre, per))
        return real_normal_form(w, pre, per)

    def no_prepend_index(m, w):
        raise AssertionError("indicator built from the prepend index")

    models = _indicator_models()
    monkeypatch.setattr(Point, "prepend", counting_prepend)
    monkeypatch.setattr(model_module, "prepend_normal_form", counting_normal_form)
    monkeypatch.setattr(FiniteModel, "prepend_index", no_prepend_index)
    for m in models:
        words = m.words_upto(2)
        indicators = {indicator_cylinder(m, u, v) for u in words for v in words}
        assert all(len(f) == m.n for f in indicators)
    assert prepends == []


# seeded random finite shifts at L = 1, 2, 3: per report, the summed check and
# violation counts and a digest of the violation messages, unpatched and with
# every cylinder indicator rotated by one basis point (computed before the
# indicators moved to the shift map and point prefixes)
PINNED_TOTALS = {
    False: ({"representation": (13584, 0), "structure": (4608, 0),
             "composition rules": (32194, 0)}, "e3b0c44298fc1c14"),
    True: ({"representation": (13584, 2546), "structure": (4608, 740),
            "composition rules": (32194, 0)}, "30fe1592ec878219"),
}


@pytest.mark.parametrize("rotated", [False, True])
def test_report_totals_over_random_shifts_are_pinned(monkeypatch, rotated):
    real = model_module.indicator_cylinder

    def rotated_indicator(m, u, v):
        f = real(m, u, v)
        return f[1:] + f[:1]

    if rotated:
        monkeypatch.setattr(model_module, "indicator_cylinder", rotated_indicator)
    rng = random.Random(2024)
    totals, digest = {}, hashlib.sha256()
    for _ in range(24):
        m = FiniteModel(parse_presentation(random_finite_shift(rng)))
        for max_len in (1, 2, 3):
            for rep in run_all_checks(m, max_len):
                checks, violations = totals.get(rep.name, (0, 0))
                totals[rep.name] = (checks + rep.checks, violations + len(rep.violations))
                for message in rep.violations:
                    digest.update(message.encode() + b"\n")
    assert (totals, digest.hexdigest()[:16]) == PINNED_TOTALS[rotated]


def test_run_all_checks_refuses_a_negative_word_length():
    pair = model("pair")
    with pytest.raises(ValidationError, match="^maximum word length must be >= 0$"):
        run_all_checks(pair, -1)
    # L = 0: the empty word alone, and four test functions (the all-ones
    # indicator and the three seeded ones)
    reports = run_all_checks(pair, 0)
    assert all(r.ok for r in reports)
    assert {r.name: r.checks for r in reports} == model_check_counts(
        n_words=1, n_letters=2, n_funcs=4, max_len=0)


def test_word_lengths_past_the_language_cap_are_refused_before_anything_is_built(monkeypatch):
    # T_w is built for every word of length up to 2L: over two letters at L = 2,
    # the 1 + 2 + 4 + 8 + 16 = 31 words up to length 4
    pair = model("pair")
    built = []
    real = model_module.op_word
    monkeypatch.setattr(model_module, "op_word", lambda m, u: built.append(u) or real(m, u))
    monkeypatch.setattr(presentations, "MAX_LANGUAGE_WORDS", 31)
    reports = run_all_checks(pair, 2)
    assert all(rep.ok for rep in reports) and len(built) == 31
    assert {rep.name: rep.checks for rep in reports} == {
        "representation": 98, "structure": 44, "composition rules": 177}
    built.clear()
    monkeypatch.setattr(presentations, "MAX_LANGUAGE_WORDS", 30)
    with pytest.raises(ResourceCapError, match=(
            "^model verification at L = 2 needs an operator per word of length up to 4; "
            "the words up to length 4 already number 31, which exceeds cap 30$")):
        run_all_checks(pair, 2)
    assert built == []
    # at the real cap the count stops at the first length past it, however long
    # the words asked for: one letter has one word per length
    monkeypatch.undo()
    with pytest.raises(ResourceCapError, match=(
            "^model verification at L = 1000000000 needs an operator per word of length up "
            "to 2000000000; the words up to length 200000 already number 200001, "
            "which exceeds cap 200000$")):
        run_all_checks(model("single_point"), 10 ** 9)


_MATRIX_BUILDERS = ("op_word", "op_diagonal", "mat_identity", "mat_zero", "mat_transpose",
                    "mat_mul", "_sum", "diag_inverse", "_stack")


def test_every_matrix_the_checks_build_stores_nonzero_ints_and_fractions(monkeypatch):
    # no float and no stored zero in any matrix of run_all_checks, on the corpus
    # models and 50 seeded random finite shifts at L = 2 and 3: an entry is a
    # nonzero int or Fraction, or a Vec of ints and Fractions that are not all 0
    built, kinds = Counter(), set()

    def checked(name, real):
        def build(*args):
            m = real(*args)
            for v in m.entries.values():
                if type(v) is model_module.Vec:
                    assert all(type(x) in (int, F) for x in v) and any(v), (name, v)
                else:
                    assert type(v) in (int, F) and v != 0, (name, v)
                kinds.add(type(v))
            built[name] += 1
            return m
        return build

    rng = random.Random(53)
    models = ([model(name) for name in FINITE_MODEL_NAMES]
              + [FiniteModel(parse_presentation(random_finite_shift(rng))) for _ in range(50)])
    for name in _MATRIX_BUILDERS:
        monkeypatch.setattr(model_module, name, checked(name, getattr(model_module, name)))
    for m in models:
        for max_len in (2, 3):
            assert all(rep.ok for rep in run_all_checks(m, max_len))
    assert set(built) == set(_MATRIX_BUILDERS)
    assert kinds == {int, F, model_module.Vec}


def test_model_rejects_foreign_points():
    pair = model("pair")
    for foreign in (Point((), (1, 0)), "(0)*"):
        with pytest.raises(ValidationError):
            pair.index(foreign)


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
    x = Matrix(1, {(0, 0): F(5)})
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
    """Entries drawn from small fractions, with the model's shared one object among them."""
    entries = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                if rng.random() < 0.3:
                    entries[i, j] = model_module._ONE
                else:
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
        total = model_module._sum(n, (a, b))
        for got, want in ((mat_mul(a, b), product), (total, _dense_add(da, db))):
            assert dense(got) == want
            assert all(v != 0 for v in got.entries.values())
        # entries whose products or sums cancel to zero are dropped
        cancelled += sum(
            1 for i in range(n) for j in range(n)
            if product[i][j] == 0 and any(da[i][k] and db[k][j] for k in range(n)))
        negated = Matrix(n, {key: -v for key, v in a.entries.items()})
        assert model_module._sum(n, (a, negated)) == mat_zero(n)
        assert flatten(a) == tuple(x for row in da for x in row)
    assert cancelled > 0
    assert Matrix(2, {(0, 0): F(0), (1, 0): F(3)}) == Matrix(2, {(1, 0): F(3)})
    # one right factor in many products: its row grouping is built once and reused
    for _ in range(60):
        n = rng.randint(1, 5)
        b = _random_sparse(rng, n)
        db = dense(b)
        for _ in range(8):
            a = _random_sparse(rng, n)
            got = mat_mul(a, b)
            assert dense(got) == _dense_mul(dense(a), db)
            assert got == mat_mul(a, Matrix(n, dict(b.entries)))
            assert mat_mul(b, got) == mat_mul(Matrix(n, dict(b.entries)), got)
        fresh = Matrix(n, dict(b.entries))
        assert b.rows is b.rows
        assert b == fresh and fresh == b
        assert fresh.rows == b.rows
    # products of word operators join entries that are all the shared one
    for name in FINITE_MODEL_NAMES:
        m = model(name)
        ops = [op_word(m, u) for u in m.words_upto(2)]
        for a in ops:
            for b in ops:
                got = mat_mul(a, b)
                assert dense(got) == _dense_mul(dense(a), dense(b))
                assert all(v is model_module._ONE for v in got.entries.values())
