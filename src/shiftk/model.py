"""Exact finite-dimensional operator model of a finite shift space.

For a finite shift space the word operators

    T_u e_x = e_{u.x}   when u.x stays in the shift, else 0

and the diagonal operators ``phi(f) e_x = f(x) e_x`` form a representation
on the rational span of the points.  Every identity the word operators are
supposed to satisfy becomes an exact matrix identity here, checked in
rational arithmetic with no floating point anywhere.

Matrices are sparse and exact: a ``Matrix`` stores only its nonzero
Fraction entries, keyed by (row, col), and never stores a zero, so two
matrices of one size are equal exactly when their stored nonzero entries
are equal.  A word operator is a partial injection with at most n entries, and a product
costs time in the stored entries it joins, not n^3.

The graded transfer operator appearing in the composition formula averages
over n-step preimages in a single step (it is not the n-fold composite of
the one-step transfer; the two differ as soon as preimage counts vary).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .errors import ConsistencyError, ValidationError
from .presentations import FiniteShift, _in_cylinder
from .words import EPSILON, Word

Func = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FiniteModel:
    """The shift's points in canonical order as an orthonormal basis."""

    shift: FiniteShift
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.shift.points)})

    @property
    def basis(self):
        return self.shift.points

    @property
    def n(self) -> int:
        return len(self.shift.points)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise ValidationError("point is not in the model's shift space") from None

    @cached_property
    def shift_indices(self) -> tuple[int, ...]:
        """Basis index of the shift of each basis point."""
        return tuple(self.index(x.shift()) for x in self.basis)

    def words_upto(self, max_len: int) -> list[Word]:
        out = [EPSILON]
        frontier = [EPSILON]
        for _ in range(max_len):
            frontier = [w + (a,) for w in frontier for a in self.shift.alphabet]
            out.extend(frontier)
        return out


# ---------------------------------------------------------------------------
# sparse rational matrices


class Matrix:
    """Square n x n rational matrix stored as its nonzero entries.

    ``entries`` maps ``(row, col)`` to a nonzero Fraction and a missing key
    is a zero entry.  The constructor drops zeros, so no matrix ever stores
    one and ``==`` (same size, same stored entries) is exact matrix equality.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: dict | None = None):
        self.n = n
        self.entries = {k: v for k, v in entries.items() if v} if entries else {}

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self) -> str:
        return f"Matrix({self.n}, {self.entries!r})"


def mat_identity(n: int) -> Matrix:
    return Matrix(n, {(i, i): _ONE for i in range(n)})


def mat_zero(n: int) -> Matrix:
    return Matrix(n)


def mat_diag(values: Func) -> Matrix:
    return Matrix(len(values), {(i, i): v for i, v in enumerate(values)})


def mat_transpose(m: Matrix) -> Matrix:
    return Matrix(m.n, {(j, i): v for (i, j), v in m.entries.items()})


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Sparse join: each stored a[i, k] meets the stored entries of row k of b."""
    b_rows: dict[int, list] = {}
    for (k, j), y in b.entries.items():
        b_rows.setdefault(k, []).append((j, y))
    out: dict[tuple[int, int], Fraction] = {}
    for (i, k), x in a.entries.items():
        for j, y in b_rows.get(k, ()):
            if (i, j) in out:
                out[i, j] += x * y
            else:
                out[i, j] = x * y
    return Matrix(a.n, out)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    out = dict(a.entries)
    for key, y in b.entries.items():
        out[key] = out[key] + y if key in out else y
    return Matrix(a.n, out)


def diag_inverse(m: Matrix) -> Matrix:
    if any(i != j for (i, j) in m.entries):
        raise ConsistencyError("matrix expected to be diagonal is not")
    if len(m.entries) != m.n:
        raise ConsistencyError("diagonal operator expected invertible has a zero entry")
    return Matrix(m.n, {key: _ONE / v for key, v in m.entries.items()})


# ---------------------------------------------------------------------------
# operators and functions


def op_word(model: FiniteModel, u: Word) -> Matrix:
    """Matrix of e_x -> e_{u.x} (zero column when u.x leaves the shift)."""
    u = tuple(u)
    model.shift.alphabet.check_word(u)
    entries = {}
    for j, x in enumerate(model.basis):
        i = model._index.get(x.prepend(u))
        if i is not None:
            entries[i, j] = _ONE
    return Matrix(model.n, entries)


def op_diagonal(model: FiniteModel, f: Func) -> Matrix:
    if len(f) != model.n:
        raise ValidationError("function length does not match the basis")
    return mat_diag(tuple(v if isinstance(v, Fraction) else Fraction(v) for v in f))


def generator_sum(model: FiniteModel, n: int = 1) -> Matrix:
    total = mat_zero(model.n)
    for u in model.words_upto(n):
        if len(u) == n:
            total = mat_add(total, op_word(model, u))
    return total


def op_lambda_shift(model: FiniteModel, x: Matrix) -> Matrix:
    """Conjugation by the summed one-letter generators: (sum T_a)^t x (sum T_b)."""
    s = generator_sum(model, 1)
    return mat_mul(mat_transpose(s), mat_mul(x, s))


def indicator_cylinder(model: FiniteModel, u: Word, v: Word) -> Func:
    u, v = tuple(u), tuple(v)
    model.shift.alphabet.check_word(u)
    model.shift.alphabet.check_word(v)
    return tuple(
        _ONE if _in_cylinder(model.shift, u, v, x) else _ZERO for x in model.basis)


def fn_compose_shift(model: FiniteModel, f: Func) -> Func:
    """f after the shift map."""
    return tuple(f[i] for i in model.shift_indices)


def fn_prepend(model: FiniteModel, w: Word, f: Func) -> Func:
    """x -> f(w.x) when w.x stays in the shift, else 0."""
    out = []
    for x in model.basis:
        wx = x.prepend(tuple(w))
        i = model._index.get(wx)
        out.append(f[i] if i is not None else _ZERO)
    return tuple(out)


def fn_transfer(model: FiniteModel, f: Func, steps: int = 1) -> Func:
    """Average of f over the n-step preimages; 0 outside the n-step image."""
    preimages: dict = {}
    for i, x in enumerate(model.basis):
        preimages.setdefault(x.shift_by(steps), []).append(i)
    out = []
    for x in model.basis:
        pre = preimages.get(x)
        if pre:
            out.append(sum(f[i] for i in pre) / len(pre))
        else:
            out.append(_ZERO)
    return tuple(out)


def preimage_count_function(model: FiniteModel, steps: int) -> Func:
    """x -> number of points with the same n-step image as x (always >= 1)."""
    shifted = [x.shift_by(steps) for x in model.basis]
    counts = Counter(shifted)
    return tuple(Fraction(counts[s]) for s in shifted)


# ---------------------------------------------------------------------------
# identity checking


@dataclass
class CheckReport:
    name: str
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.violations.append(message)

    def render(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violations; first: {self.violations[0]}"
        return f"{self.name}: {self.checks} checks, {status}"


def _word_label(model: FiniteModel, w: Word) -> str:
    return model.shift.alphabet.render_word(w)


def verify_representation(model: FiniteModel, max_len: int) -> CheckReport:
    """Both representation axioms as exact matrix identities."""
    rep = CheckReport("representation")
    words = model.words_upto(max_len)
    ops = {u: op_word(model, u) for u in words}
    for u in words:
        for v in words:
            lbl = f"u={_word_label(model, u)} v={_word_label(model, v)}"
            rep.record(mat_mul(ops[u], ops[v]) == op_word(model, u + v),
                       f"composition: T_u T_v != T_uv at {lbl}")
            lhs = op_diagonal(model, indicator_cylinder(model, u, v))
            tu_t = mat_transpose(ops[u])
            rhs = mat_mul(ops[v], mat_mul(tu_t, mat_mul(ops[u], mat_transpose(ops[v]))))
            rep.record(lhs == rhs, f"cylinder projection: axiom (2) fails at {lbl}")
    return rep


def verify_structure(model: FiniteModel, max_len: int) -> CheckReport:
    """Unit, range/support projections, partial isometry, orthogonality."""
    rep = CheckReport("structure")
    words = model.words_upto(max_len)
    ops = {u: op_word(model, u) for u in words}
    eye = mat_identity(model.n)
    t_eps = ops[EPSILON]
    rep.record(t_eps == eye, "unit: T_epsilon is not the identity")
    rep.record(mat_mul(t_eps, t_eps) == t_eps, "unit: T_epsilon not idempotent")
    for u in words:
        t, tt = ops[u], mat_transpose(ops[u])
        lbl = _word_label(model, u)
        rep.record(mat_mul(t, tt) == op_diagonal(model, indicator_cylinder(model, EPSILON, u)),
                   f"range projection of T_{lbl} is not the u-cylinder indicator")
        rep.record(mat_mul(tt, t) == op_diagonal(model, indicator_cylinder(model, u, EPSILON)),
                   f"support projection of T_{lbl} is not the u-extendability indicator")
        rep.record(mat_mul(t, mat_mul(tt, t)) == t, f"T_{lbl} is not a partial isometry")
        rep.record(mat_mul(tt, mat_mul(t, tt)) == tt, f"T_{lbl}^t is not a partial isometry")
    by_len: dict[int, list[Word]] = {}
    for u in words:
        by_len.setdefault(len(u), []).append(u)
    zero = mat_zero(model.n)
    for length, group in sorted(by_len.items()):
        if length == 0:
            continue
        for u in group:
            for v in group:
                if u != v:
                    rep.record(mat_mul(mat_transpose(ops[u]), ops[v]) == zero,
                               f"orthogonality fails at |u|=|v|={length}")
    return rep


def _test_functions(model: FiniteModel, max_len: int, seed: int) -> list[Func]:
    words = model.words_upto(max_len)
    seen = {}
    for u in words:
        for v in words:
            f = indicator_cylinder(model, u, v)
            seen.setdefault(f, None)
    rng = random.Random(seed)
    for _ in range(3):
        f = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(model.n))
        seen.setdefault(f, None)
    return list(seen)


def verify_composition_rules(model: FiniteModel, max_len: int, seed: int = 20240311) -> CheckReport:
    """Prepend/compose/transfer identities against the word operators."""
    rep = CheckReport("composition rules")
    words = model.words_upto(max_len)
    ops = {u: op_word(model, u) for u in words}
    funcs = _test_functions(model, max_len, seed)

    for w in words:
        tw, tw_t = ops[w], mat_transpose(ops[w])
        lbl = _word_label(model, w)
        for f in funcs:
            phi_f = op_diagonal(model, f)
            lam = op_diagonal(model, fn_prepend(model, w, f))
            rep.record(lam == mat_mul(tw_t, mat_mul(phi_f, tw)),
                       f"prepend rule fails at w={lbl}")
            rep.record(mat_mul(tw_t, phi_f) == mat_mul(lam, tw_t),
                       f"prepend commutation fails at w={lbl}")
            g = f
            for _ in range(len(w)):
                g = fn_compose_shift(model, g)
            rep.record(mat_mul(tw, phi_f) == mat_mul(op_diagonal(model, g), tw),
                       f"compose commutation fails at w={lbl}")

    for n in range(1, max_len + 1):
        level = [u for u in words if len(u) == n]
        for f in funcs:
            phi_f = op_diagonal(model, f)
            total = mat_zero(model.n)
            for u in level:
                total = mat_add(total, mat_mul(ops[u], mat_mul(phi_f, mat_transpose(ops[u]))))
            g = f
            for _ in range(n):
                g = fn_compose_shift(model, g)
            rep.record(op_diagonal(model, g) == total,
                       f"compose expansion fails at n={n}")

        dsum = mat_zero(model.n)
        for u in level:
            for v in level:
                tu, tv = ops[u], ops[v]
                dsum = mat_add(dsum, mat_mul(
                    tu, mat_mul(mat_transpose(tv), mat_mul(tv, mat_transpose(tu)))))
        counts = preimage_count_function(model, n)
        rep.record(dsum == op_diagonal(model, counts),
                   f"preimage-count operator fails at n={n}")
        if any(c == 0 for c in counts):
            raise ConsistencyError("preimage-count function has a zero entry")
        dinv = diag_inverse(dsum)
        s = generator_sum(model, n)
        st = mat_transpose(s)
        for f in funcs:
            lhs = op_diagonal(model, fn_transfer(model, f, n))
            rhs = mat_mul(st, mat_mul(dinv, mat_mul(op_diagonal(model, f), s)))
            rep.record(lhs == rhs, f"transfer formula fails at n={n}")
    return rep


def run_all_checks(model: FiniteModel, max_len: int, seed: int = 20240311) -> list[CheckReport]:
    return [
        verify_representation(model, max_len),
        verify_structure(model, max_len),
        verify_composition_rules(model, max_len, seed),
    ]


# ---------------------------------------------------------------------------
# monomial span (exact residual-zero decomposition)


class RationalSpan:
    """Incremental row space over the rationals with exact reduction."""

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: dict[int, tuple[Fraction, ...]] = {}

    def _reduce(self, vec: list[Fraction]) -> list[Fraction]:
        for col, row in self.pivots.items():
            coeff = vec[col]
            if coeff:
                for i in range(self.dim):
                    vec[i] -= coeff * row[i]
        return vec

    def add(self, vec) -> bool:
        vec = self._reduce([Fraction(x) for x in vec])
        for col in range(self.dim):
            if vec[col]:
                inv = _ONE / vec[col]
                row = tuple(x * inv for x in vec)
                for c2 in self.pivots:
                    coeff = self.pivots[c2][col]
                    if coeff:
                        self.pivots[c2] = tuple(
                            x - coeff * y for x, y in zip(self.pivots[c2], row))
                self.pivots[col] = row
                return True
        return False

    def contains(self, vec) -> bool:
        vec = self._reduce([Fraction(x) for x in vec])
        return all(x == 0 for x in vec)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def flatten(m: Matrix) -> tuple[Fraction, ...]:
    """The dense row-major vector of all n * n entries."""
    return tuple(m.entries.get((i, j), _ZERO) for i in range(m.n) for j in range(m.n))


def monomial(model: FiniteModel, u: Word, f: Func, v: Word) -> Matrix:
    return mat_mul(op_word(model, u), mat_mul(op_diagonal(model, f), mat_transpose(op_word(model, v))))


def monomial_span(model: FiniteModel, max_len: int) -> RationalSpan:
    """Span of all T_u phi(e_x) T_v^t with |u|, |v| up to max_len."""
    span = RationalSpan(model.n * model.n)
    words = model.words_upto(max_len)
    for u in words:
        for v in words:
            for i in range(model.n):
                e = tuple(_ONE if j == i else _ZERO for j in range(model.n))
                span.add(flatten(monomial(model, u, e, v)))
    return span
