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

``run_all_checks`` builds each object once per model: one word operator
per word and per distinct concatenation, one transpose per word, one
cylinder indicator per word pair, one diagonal per test function and per
shifted test function.  They are built through the module's functions and
kept for one call only.  The model itself keeps the data below those
functions: the basis index of w.x per word w (shared by ``op_word`` and
``fn_prepend``), and per k the basis index of the k-fold shift, the k-step
preimage groups, the k-prefix of each point and the k-prefixes of each
point's k-fold preimages.  Cylinder indicators read only the shift map and
the prefixes (x is in C(u, v) when its |v|-prefix is v and u is the
|u|-prefix of a |u|-fold preimage of its |v|-fold shift), never the prepend
index, so they check the word operators independently.

The graded transfer operator appearing in the composition formula averages
over n-step preimages in a single step (it is not the n-fold composite of
the one-step transfer; the two differ as soon as preimage counts vary).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .errors import ConsistencyError, ValidationError
from .presentations import FiniteShift
from .words import EPSILON, Word

Func = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FiniteModel:
    """The shift's points in canonical order as an orthonormal basis."""

    shift: FiniteShift
    _index: dict = field(default=None, compare=False, repr=False)
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    def _cached(self, key, build):
        """The value kept under ``key``, built by ``build()`` on first use."""
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = build()
        return out

    @cached_property
    def shift_indices(self) -> tuple[int, ...]:
        """Basis index of the shift of each basis point."""
        return tuple(self.index(x.shift()) for x in self.basis)

    def shift_image(self, steps: int) -> tuple[int, ...]:
        """Basis index of the steps-fold shift of each basis point."""
        def build():
            if steps == 0:
                return tuple(range(self.n))
            return tuple(self.shift_indices[i] for i in self.shift_image(steps - 1))
        return self._cached(("image", steps), build)

    def prepend_index(self, w: Word) -> tuple:
        """Basis index of w.x for each basis point x, None where w.x leaves the shift."""
        return self._cached(("prepend", w), lambda: tuple(
            self._index.get(x.prepend(w)) for x in self.basis))

    def preimage_groups(self, steps: int) -> tuple[tuple[int, ...], ...]:
        """For each basis point, the basis indices of its steps-fold shift preimages."""
        def build():
            groups = [[] for _ in range(self.n)]
            for i, y in enumerate(self.shift_image(steps)):
                groups[y].append(i)
            return tuple(map(tuple, groups))
        return self._cached(("preimages", steps), build)

    def prefixes(self, k: int) -> tuple[Word, ...]:
        """The k-prefix of each basis point."""
        return self._cached(("prefixes", k), lambda: tuple(x.prefix(k) for x in self.basis))

    def preimage_prefixes(self, k: int) -> tuple[frozenset, ...]:
        """For each basis point y, the k-prefixes of its k-fold shift preimages,
        that is the length-k words u with u.y in the shift."""
        def build():
            pre = self.prefixes(k)
            return tuple(frozenset(pre[i] for i in group) for group in self.preimage_groups(k))
        return self._cached(("preimage prefixes", k), build)

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
    A matrix is never changed after it is built, so ``rows`` groups the
    entries by row once, on first use; ``==`` ignores that grouping.
    """

    __slots__ = ("n", "entries", "_rows")

    def __init__(self, n: int, entries: dict | None = None):
        self.n = n
        self.entries = {k: v for k, v in entries.items() if v} if entries else {}
        self._rows = None

    @property
    def rows(self) -> dict[int, list]:
        """Row index -> [(col, value), ...] of the stored entries of that row."""
        if self._rows is None:
            rows: dict[int, list] = {}
            for (k, j), y in self.entries.items():
                rows.setdefault(k, []).append((j, y))
            self._rows = rows
        return self._rows

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self) -> str:
        return f"Matrix({self.n}, {self.entries!r})"


def _trusted(n: int, entries: dict) -> Matrix:
    """A Matrix over entries already known to be nonzero (no zero filter)."""
    m = Matrix.__new__(Matrix)
    m.n = n
    m.entries = entries
    m._rows = None
    return m


def mat_identity(n: int) -> Matrix:
    return _trusted(n, {(i, i): _ONE for i in range(n)})


def mat_zero(n: int) -> Matrix:
    return Matrix(n)


def mat_diag(values: Func) -> Matrix:
    return Matrix(len(values), {(i, i): v for i, v in enumerate(values)})


def mat_transpose(m: Matrix) -> Matrix:
    return _trusted(m.n, {(j, i): v for (i, j), v in m.entries.items()})


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Sparse join: each stored a[i, k] meets the stored entries of row k of b
    (``b.rows``, grouped once per matrix).

    A factor that is the shared ``_ONE`` gives the other factor itself, and
    only entries that summed two products can cancel to zero:

    >>> t = Matrix(2, {(1, 0): _ONE})
    >>> mat_mul(t, mat_transpose(t)).entries[1, 1] is _ONE
    True
    >>> mat_mul(t, t) == mat_zero(2)
    True
    >>> a = Matrix(2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    >>> b = Matrix(2, {(0, 0): Fraction(3), (1, 0): Fraction(-3)})
    >>> mat_mul(a, b) == mat_zero(2)
    True
    >>> mat_mul(b, a).entries[1, 1]
    Fraction(-3, 2)
    """
    b_rows = b.rows
    out: dict[tuple[int, int], Fraction] = {}
    summed = False
    for (i, k), x in a.entries.items():
        for j, y in b_rows.get(k, ()):
            xy = y if x is _ONE else x if y is _ONE else x * y
            if (i, j) in out:
                out[i, j] += xy
                summed = True
            else:
                out[i, j] = xy
    return Matrix(a.n, out) if summed else _trusted(a.n, out)


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
    return _trusted(model.n, {(i, j): _ONE for j, i in enumerate(model.prepend_index(u))
                              if i is not None})


def op_diagonal(model: FiniteModel, f: Func) -> Matrix:
    if len(f) != model.n:
        raise ValidationError("function length does not match the basis")
    return mat_diag(tuple(v if isinstance(v, Fraction) else Fraction(v) for v in f))


def _sum(n: int, terms) -> Matrix:
    total = mat_zero(n)
    for t in terms:
        total = mat_add(total, t)
    return total


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
    """Indicator of {v.y : y and u.y in the shift}: x is in it when its |v|-prefix
    is v and u is the |u|-prefix of some |u|-fold preimage of its |v|-fold shift."""
    u, v = tuple(u), tuple(v)
    model.shift.alphabet.check_word(u)
    model.shift.alphabet.check_word(v)
    extends = model.preimage_prefixes(len(u))
    return tuple(_ONE if p == v and u in extends[y] else _ZERO
                 for p, y in zip(model.prefixes(len(v)), model.shift_image(len(v))))


def fn_compose_shift(model: FiniteModel, f: Func) -> Func:
    """f after the shift map."""
    return tuple(f[i] for i in model.shift_indices)


def fn_prepend(model: FiniteModel, w: Word, f: Func) -> Func:
    """x -> f(w.x) when w.x stays in the shift, else 0."""
    return tuple(_ZERO if i is None else f[i] for i in model.prepend_index(tuple(w)))


def fn_transfer(model: FiniteModel, f: Func, steps: int = 1) -> Func:
    """Average of f over the n-step preimages; 0 outside the n-step image."""
    return tuple(sum(f[i] for i in pre) / len(pre) if pre else _ZERO
                 for pre in model.preimage_groups(steps))


def preimage_count_function(model: FiniteModel, steps: int) -> Func:
    """x -> number of points with the same n-step image as x (always >= 1)."""
    counts = [None] * model.n
    for pre in model.preimage_groups(steps):
        for i in pre:
            counts[i] = Fraction(len(pre))
    return tuple(counts)


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


class _Operators:
    """What the checks of one model read, each built once through the module's functions.

    ``word`` holds T_w for the words up to ``max_len`` and their
    concatenations; ``t`` and ``support`` hold T_u^t and T_u^t T_u, and
    ``labels`` the rendered words, for the words up to ``max_len``.
    ``diagonal`` maps each distinct cylinder indicator, in first-seen order,
    to its diagonal and ``cylinder`` maps each word pair (u, v) to the
    diagonal of its indicator.  ``run_all_checks`` builds one of these for
    its three checks.
    """

    def __init__(self, model: FiniteModel, max_len: int):
        self.model = model
        self.max_len = max_len
        self.words = model.words_upto(max_len)
        self.word = {w: op_word(model, w)
                     for w in dict.fromkeys(u + v for u in self.words for v in self.words)}
        self.t = {u: mat_transpose(self.word[u]) for u in self.words}
        self.support = {u: mat_mul(self.t[u], self.word[u]) for u in self.words}
        self.labels = {u: model.shift.alphabet.render_word(u) for u in self.words}
        self.diagonal: dict[Func, Matrix] = {}
        self.cylinder: dict[tuple[Word, Word], Matrix] = {}
        for u in self.words:
            for v in self.words:
                f = indicator_cylinder(model, u, v)
                d = self.diagonal.get(f)
                if d is None:
                    d = self.diagonal[f] = op_diagonal(model, f)
                self.cylinder[u, v] = d


def verify_representation(ops: _Operators) -> CheckReport:
    """Both representation axioms as exact matrix identities."""
    rep = CheckReport("representation")
    for u in ops.words:
        for v in ops.words:
            lbl = f"u={ops.labels[u]} v={ops.labels[v]}"
            rep.record(mat_mul(ops.word[u], ops.word[v]) == ops.word[u + v],
                       f"composition: T_u T_v != T_uv at {lbl}")
            rhs = mat_mul(ops.word[v], mat_mul(ops.support[u], ops.t[v]))
            rep.record(ops.cylinder[u, v] == rhs, f"cylinder projection: axiom (2) fails at {lbl}")
    return rep


def verify_structure(ops: _Operators) -> CheckReport:
    """Unit, range/support projections, partial isometry, orthogonality."""
    rep = CheckReport("structure")
    n = ops.model.n
    t_eps = ops.word[EPSILON]
    rep.record(t_eps == mat_identity(n), "unit: T_epsilon is not the identity")
    rep.record(mat_mul(t_eps, t_eps) == t_eps, "unit: T_epsilon not idempotent")
    for u in ops.words:
        t, tt, sup = ops.word[u], ops.t[u], ops.support[u]
        lbl = ops.labels[u]
        rng = mat_mul(t, tt)
        rep.record(rng == ops.cylinder[EPSILON, u],
                   f"range projection of T_{lbl} is not the u-cylinder indicator")
        rep.record(sup == ops.cylinder[u, EPSILON],
                   f"support projection of T_{lbl} is not the u-extendability indicator")
        rep.record(mat_mul(t, sup) == t, f"T_{lbl} is not a partial isometry")
        rep.record(mat_mul(tt, rng) == tt, f"T_{lbl}^t is not a partial isometry")
    by_len: dict[int, list[Word]] = {}
    for u in ops.words:
        by_len.setdefault(len(u), []).append(u)
    zero = mat_zero(n)
    for length, group in sorted(by_len.items()):
        if length == 0:
            continue
        for u in group:
            for v in group:
                if u != v:
                    rep.record(mat_mul(ops.t[u], ops.word[v]) == zero,
                               f"orthogonality fails at |u|=|v|={length}")
    return rep


def _test_functions(ops: _Operators, seed: int) -> list[Func]:
    """The distinct cylinder indicators in first-seen order, then three seeded random functions."""
    seen = dict.fromkeys(ops.diagonal)
    rng = random.Random(seed)
    for _ in range(3):
        f = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ops.model.n))
        seen.setdefault(f, None)
    return list(seen)


def verify_composition_rules(ops: _Operators, seed: int = 20240311) -> CheckReport:
    """Prepend/compose/transfer identities against the word operators."""
    rep = CheckReport("composition rules")
    model, max_len = ops.model, ops.max_len
    funcs = _test_functions(ops, seed)
    phis = [ops.diagonal[f] if f in ops.diagonal else op_diagonal(model, f) for f in funcs]
    # diagonals of f after the k-fold shift, k = 0..max_len, one row per test function
    composed = []
    for f, phi_f in zip(funcs, phis):
        row, g = [phi_f], f
        for _ in range(max_len):
            g = fn_compose_shift(model, g)
            row.append(op_diagonal(model, g))
        composed.append(row)

    for w in ops.words:
        tw, tw_t = ops.word[w], ops.t[w]
        lbl = ops.labels[w]
        for f, phi_f, row in zip(funcs, phis, composed):
            lam = op_diagonal(model, fn_prepend(model, w, f))
            tw_t_phi = mat_mul(tw_t, phi_f)
            rep.record(lam == mat_mul(tw_t_phi, tw), f"prepend rule fails at w={lbl}")
            rep.record(tw_t_phi == mat_mul(lam, tw_t),
                       f"prepend commutation fails at w={lbl}")
            rep.record(mat_mul(tw, phi_f) == mat_mul(row[len(w)], tw),
                       f"compose commutation fails at w={lbl}")

    for n in range(1, max_len + 1):
        level = [u for u in ops.words if len(u) == n]
        for phi_f, row in zip(phis, composed):
            total = _sum(model.n, (mat_mul(ops.word[u], mat_mul(phi_f, ops.t[u]))
                                   for u in level))
            rep.record(row[n] == total, f"compose expansion fails at n={n}")

        # sum over u, v of T_u T_v^t T_v T_u^t, with the sum over v taken first
        supports = _sum(model.n, (ops.support[v] for v in level))
        dsum = _sum(model.n, (mat_mul(ops.word[u], mat_mul(supports, ops.t[u]))
                              for u in level))
        counts = preimage_count_function(model, n)
        rep.record(dsum == op_diagonal(model, counts),
                   f"preimage-count operator fails at n={n}")
        if any(c == 0 for c in counts):
            raise ConsistencyError("preimage-count function has a zero entry")
        s = _sum(model.n, (ops.word[u] for u in level))
        st_dinv = mat_mul(mat_transpose(s), diag_inverse(dsum))
        for f, phi_f in zip(funcs, phis):
            lhs = op_diagonal(model, fn_transfer(model, f, n))
            rep.record(lhs == mat_mul(st_dinv, mat_mul(phi_f, s)),
                       f"transfer formula fails at n={n}")
    return rep


def run_all_checks(model: FiniteModel, max_len: int, seed: int = 20240311) -> list[CheckReport]:
    ops = _Operators(model, max_len)
    return [verify_representation(ops), verify_structure(ops),
            verify_composition_rules(ops, seed)]


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
