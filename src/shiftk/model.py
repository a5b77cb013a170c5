"""Exact finite-dimensional operator model of a finite shift space.

For a finite shift space the word operators

    T_u e_x = e_{u.x}   when u.x stays in the shift, else 0

and the diagonal operators ``phi(f) e_x = f(x) e_x`` form a representation
on the rational span of the points.  Every identity the word operators are
supposed to satisfy becomes an exact matrix identity here, checked in
rational arithmetic with no floating point anywhere.

Matrices are sparse and exact: a ``Matrix`` stores only its nonzero
entries, keyed by (row, col), and never stores a zero, so two matrices of
one size are equal exactly when their stored nonzero entries are equal.
An entry is an int or a Fraction, or a ``Vec`` of them (below).  Word
operators, their transposes and supports, cylinder indicators and
preimage counts hold ints (0/1 for all but the counts), so their products
are int products; the seeded test functions are Fractions, and every
division (``diag_inverse``, ``fn_transfer``) goes through ``Fraction``, so
no float can appear.  A word operator is a partial injection with at most
n entries, and a product costs time in the stored entries it joins, not
n^3.

The checks of a family of identities run over the product ring Q^K (K
copies of Q, added and multiplied componentwise), whose elements are
``Vec``s: the K test functions f_1..f_K stack into one function F whose
value at each point is the ``Vec`` (f_1(x), ..., f_K(x)), and the K word
operators T_u of the representation axioms stack the same way.  This is
exact, not an approximation: an identity over Q^K holds iff it holds in
each component, and component k of a sum or product of matrices over Q^K
is the sum or product of the component-k matrices, because every ring
operation on a ``Vec`` acts on each component alone.  So one product over
Q^K does the work of K products over Q, and when a Q^K identity fails,
comparing component k of each side tells exactly which of the K identities
fail.  Every product that meets a ``Vec`` has a scalar on its other side,
so a product of two nonzero entries stays nonzero (Q^K has zero divisors,
Q does not) and ``mat_mul`` stores no zero.  Each identity still records
one check per test function (or word pair), with the message and in the
order of the K scalar checks.

``run_all_checks`` builds each object once per model: one word operator
per word and per distinct concatenation, one transpose per word, one
cylinder indicator per word pair, one diagonal per distinct indicator,
and, over Q^K, one diagonal of F per shift and per prepended word and one
product T_w phi(F) per word.  They are built through the module's
functions and kept for one call only.  The word operators are built for
every word of length up to twice the checked length, so a length whose
words would number more than ``presentations.MAX_LANGUAGE_WORDS`` is
refused before anything is built.
The model itself keeps the data below those functions: the basis index of
w.x per word w (shared by ``op_word`` and ``fn_prepend``), and per k the
basis index of the k-fold shift (k = 1 is the shift map that
``fn_compose_shift`` reads), the k-step preimage groups, the k-prefix of
each point and the k-prefixes of each point's k-fold preimages.  The
basis is keyed by each point's normal form (pre, per), and w.x is looked
up by the normal form ``words.prepend_normal_form`` gives it (the rule
``Point`` itself normalises with), so no ``Point`` is built per word and
point.  Each w.x is found from w and x alone, never by composing letter
maps, so ``T_u T_v == T_uv`` is a real check.  Cylinder indicators read
only the shift map and the prefixes (x is in C(u, v) when its |v|-prefix
is v and u is the |u|-prefix of a |u|-fold preimage of its |v|-fold
shift), never the prepend index, so they check the word operators
independently.  Words come in the alphabet's order
(``Alphabet.words_of_length``, shorter first), and every sum of matrices
goes through ``_sum``.

The graded transfer operator appearing in the composition formula averages
over n-step preimages in a single step (it is not the n-fold composite of
the one-step transfer; the two differ as soon as preimage counts vary).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul

from . import presentations
from .errors import ConsistencyError, ResourceCapError, ValidationError
from .presentations import FiniteShift
from .words import EPSILON, Word, prepend_normal_form



class Vec(tuple):
    """An element of the product ring Q^K: K exact rationals, added and
    multiplied componentwise.

    An int or a Fraction times a ``Vec`` scales each component (a plain
    tuple would repeat), and a ``Vec`` is falsy when every component is 0,
    so a ``Matrix`` drops it like a zero entry:

    >>> v, w = Vec((1, Fraction(1, 2), 0)), Vec((2, 2, 5))
    >>> v + w, v * w
    (Vec((3, Fraction(5, 2), 5)), Vec((2, Fraction(1, 1), 0)))
    >>> 3 * v, Fraction(1, 2) * v == Vec((Fraction(1, 2), Fraction(1, 4), 0))
    (Vec((3, Fraction(3, 2), 0)), True)
    >>> bool(Vec((0, Fraction(0)))), Matrix(1, {(0, 0): Vec((0, 0)), (0, 1): w}).entries
    (False, {(0, 1): Vec((2, 2, 5))})
    """

    __slots__ = ()

    def __add__(self, other):
        return Vec(map(add, self, other))

    def __mul__(self, other):
        if isinstance(other, Vec):
            return Vec(map(mul, self, other))
        return Vec([x * other for x in self])

    def __rmul__(self, other):
        return Vec([other * x for x in self])

    def __bool__(self):
        return any(self)

    def __repr__(self) -> str:
        return f"Vec({tuple.__repr__(self)})"


Func = tuple[int | Fraction | Vec, ...]

_ONE = 1   # the one int 1 object of CPython, which ``mat_mul`` tests by identity


@dataclass(frozen=True)
class FiniteModel:
    """The shift's points in canonical order as an orthonormal basis."""

    shift: FiniteShift
    _index: dict = field(default=None, init=False, compare=False, repr=False)
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.shift, FiniteShift):
            raise ValidationError("model verification needs a finite presentation")
        object.__setattr__(self, "_index", {(p.pre, p.per): i for i, p in enumerate(self.shift.points)})

    @property
    def basis(self):
        return self.shift.points

    @property
    def n(self) -> int:
        return len(self.shift.points)

    def index(self, point) -> int:
        try:
            return self._index[point.pre, point.per]
        except (KeyError, AttributeError):   # AttributeError: not a Point
            raise ValidationError("point is not in the model's shift space") from None

    def _cached(self, key, build):
        """The value kept under ``key``, built by ``build()`` on first use."""
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = build()
        return out

    def shift_image(self, steps: int) -> tuple[int, ...]:
        """Basis index of the steps-fold shift of each basis point."""
        def build():
            if steps == 0:
                return tuple(range(self.n))
            return tuple(self.index(self.basis[i].shift()) for i in self.shift_image(steps - 1))
        return self._cached(("image", steps), build)

    def prepend_index(self, w: Word) -> tuple:
        """Basis index of w.x for each basis point x, None where w.x leaves the shift."""
        return self._cached(("prepend", w), lambda: tuple(
            self._index.get(prepend_normal_form(w, x.pre, x.per)) for x in self.basis))

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
        """All words of length up to max_len, shorter first, each length in
        lexicographic order."""
        return [w for k in range(max_len + 1) for w in self.shift.alphabet.words_of_length(k)]


# ---------------------------------------------------------------------------
# sparse rational matrices


class Matrix:
    """Square n x n rational matrix stored as its nonzero entries.

    ``entries`` maps ``(row, col)`` to a nonzero int or Fraction and a
    missing key is a zero entry.  The constructor drops zeros, so no matrix
    ever stores one and ``==`` (same size, same stored entries) is exact
    matrix equality: an int and a Fraction of one value are equal.  A matrix
    is never changed after it is built, so ``rows`` groups the entries by row
    once, on first use; ``==`` ignores that grouping.
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
    return _trusted(n, {(i, i): 1 for i in range(n)})


def mat_zero(n: int) -> Matrix:
    return Matrix(n)


def mat_transpose(m: Matrix) -> Matrix:
    return _trusted(m.n, {(j, i): v for (i, j), v in m.entries.items()})


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Sparse join: each stored a[i, k] meets the stored entries of row k of b
    (``b.rows``, grouped once per matrix).

    A factor that is the int 1 gives the other factor itself, and only
    entries that summed two products can cancel to zero:

    >>> t = Matrix(2, {(1, 0): 1})
    >>> mat_mul(t, mat_transpose(t)).entries
    {(1, 1): 1}
    >>> mat_mul(t, t) == mat_zero(2)
    True
    >>> a = Matrix(2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    >>> b = Matrix(2, {(0, 0): 3, (1, 0): -3})
    >>> mat_mul(a, b) == mat_zero(2)
    True
    >>> mat_mul(b, a).entries[1, 1]
    Fraction(-3, 2)
    """
    b_rows = b.rows
    out: dict = {}
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


def _sum(n: int, terms) -> Matrix:
    """The sum of the n x n matrices ``terms``, accumulated in one dict."""
    out: dict = {}
    for t in terms:
        for key, y in t.entries.items():
            out[key] = out[key] + y if key in out else y
    return Matrix(n, out)


def diag_inverse(m: Matrix) -> Matrix:
    if any(i != j for (i, j) in m.entries):
        raise ConsistencyError("matrix expected to be diagonal is not")
    if len(m.entries) != m.n:
        raise ConsistencyError("diagonal operator expected invertible has a zero entry")
    return _trusted(m.n, {key: Fraction(1, v) for key, v in m.entries.items()})


# ---------------------------------------------------------------------------
# operators and functions


def op_word(model: FiniteModel, u: Word) -> Matrix:
    """Matrix of e_x -> e_{u.x} (zero column when u.x leaves the shift)."""
    u = tuple(u)
    model.shift.alphabet.check_word(u)
    return _trusted(model.n, {(i, j): 1 for j, i in enumerate(model.prepend_index(u))
                              if i is not None})


def op_diagonal(model: FiniteModel, f: Func) -> Matrix:
    """phi(f): ints, Fractions and ``Vec``s are stored as given, any other
    number as its Fraction."""
    if len(f) != model.n:
        raise ValidationError("function length does not match the basis")
    return _trusted(model.n, {(i, i): v if isinstance(v, (int, Fraction, Vec)) else Fraction(v)
                              for i, v in enumerate(f) if v})


def indicator_cylinder(model: FiniteModel, u: Word, v: Word) -> Func:
    """Indicator of {v.y : y and u.y in the shift}: x is in it when its |v|-prefix
    is v and u is the |u|-prefix of some |u|-fold preimage of its |v|-fold shift."""
    u, v = tuple(u), tuple(v)
    model.shift.alphabet.check_word(u)
    model.shift.alphabet.check_word(v)
    extends = model.preimage_prefixes(len(u))
    return tuple(1 if p == v and u in extends[y] else 0
                 for p, y in zip(model.prefixes(len(v)), model.shift_image(len(v))))


def fn_compose_shift(model: FiniteModel, f: Func) -> Func:
    """f after the shift map."""
    return tuple(f[i] for i in model.shift_image(1))


def fn_prepend(model: FiniteModel, w: Word, f: Func) -> Func:
    """x -> f(w.x) when w.x stays in the shift, else 0."""
    return tuple(0 if i is None else f[i] for i in model.prepend_index(tuple(w)))


def fn_transfer(model: FiniteModel, f: Func, steps: int = 1) -> Func:
    """Average of f over the n-step preimages; 0 outside the n-step image."""
    return tuple(Fraction(sum(f[i] for i in pre), len(pre)) if pre else 0
                 for pre in model.preimage_groups(steps))


def preimage_count_function(model: FiniteModel, steps: int) -> Func:
    """x -> number of points with the same n-step image as x (always >= 1)."""
    counts = [None] * model.n
    for pre in model.preimage_groups(steps):
        for i in pre:
            counts[i] = len(pre)
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
    diagonal of its indicator.  All of these are scalar matrices, one per
    word or pair; ``verify_representation`` stacks them over the words u
    into matrices over Q^K, and the indicators (the keys of ``diagonal``)
    are the first test functions that ``verify_composition_rules`` stacks.
    ``run_all_checks`` builds one of these for its three checks.
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


def _stack(n: int, mats: list[Matrix]) -> Matrix:
    """The n x n matrix over Q^K, K = len(mats), whose component k is ``mats[k]``."""
    size = len(mats)
    cols: dict = {}
    for k, m in enumerate(mats):
        for key, v in m.entries.items():
            col = cols.get(key)
            if col is None:
                col = cols[key] = [0] * size
            col[k] = v
    return _trusted(n, {key: Vec(col) for key, col in cols.items()})


def _component(m: Matrix, k: int) -> dict:
    """The stored entries of component k of a matrix over Q^K."""
    return {key: v[k] for key, v in m.entries.items() if v[k]}


def _holds(lhs: Matrix, rhs: Matrix, size: int) -> list[bool] | None:
    """None when lhs == rhs over Q^size, else whether each component k < size holds."""
    if lhs == rhs:
        return None
    return [_component(lhs, k) == _component(rhs, k) for k in range(size)]


def _record(rep: CheckReport, size: int, held: list, message) -> None:
    """Record check j of ``held`` at each component k < size, k-major, under
    ``message(k, j)``: all at once when every Q^K identity held (``None``)."""
    if all(h is None for h in held):
        rep.checks += size * len(held)
        return
    for k in range(size):
        for j, h in enumerate(held):
            rep.record(h is None or h[k], message(k, j))


_AXIOMS = ("composition: T_u T_v != T_uv", "cylinder projection: axiom (2) fails")


def verify_representation(ops: _Operators) -> CheckReport:
    """Both representation axioms as exact matrix identities, over Q^K with
    T_u stacked over the K words u: per word v, one product T_u T_v for every
    u against the stacked T_uv, and one T_v (T_u^t T_u) T_v^t against the
    stacked cylinder diagonals.  Each (u, v) still records its two checks, in
    the order u, then v, then the axiom."""
    rep = CheckReport("representation")
    n, words, size = ops.model.n, ops.words, len(ops.words)
    word = _stack(n, [ops.word[u] for u in words])
    support = _stack(n, [ops.support[u] for u in words])
    held = []
    for v in words:
        t_v = ops.word[v]
        held.append(_holds(mat_mul(word, t_v), _stack(n, [ops.word[u + v] for u in words]), size))
        held.append(_holds(_stack(n, [ops.cylinder[u, v] for u in words]),
                           mat_mul(t_v, mat_mul(support, ops.t[v])), size))
    _record(rep, size, held, lambda k, j: (
        f"{_AXIOMS[j % 2]} at u={ops.labels[words[k]]} v={ops.labels[words[j // 2]]}"))
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
    zero = mat_zero(n)
    for u in ops.words:
        for v in ops.words:
            if u and u != v and len(u) == len(v):
                rep.record(mat_mul(ops.t[u], ops.word[v]) == zero,
                           f"orthogonality fails at |u|=|v|={len(u)}")
    return rep


def _test_functions(ops: _Operators) -> list[Func]:
    """The distinct cylinder indicators in first-seen order, then three seeded random functions."""
    seen = dict.fromkeys(ops.diagonal)
    rng = random.Random(20240311)
    for _ in range(3):
        f = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ops.model.n))
        seen.setdefault(f, None)
    return list(seen)


_WORD_RULES = ("prepend rule", "prepend commutation", "compose commutation")


def verify_composition_rules(ops: _Operators) -> CheckReport:
    """Prepend/compose/transfer identities against the word operators, over
    Q^K for the K test functions f_1..f_K: phi(F) of the stacked function
    F = (f_1, ..., f_K) takes five products per word and three per level.
    Each identity still records one check per test function, in the order
    word (or level), then test function, then identity."""
    rep = CheckReport("composition rules")
    model, max_len = ops.model, ops.max_len
    funcs = _test_functions(ops)
    size = len(funcs)
    stacked = tuple(map(Vec, zip(*funcs)))   # F, one Vec per basis point
    phi = op_diagonal(model, stacked)
    # diagonals of F after the k-fold shift, k = 0..max_len
    composed, g = [phi], stacked
    for _ in range(max_len):
        g = fn_compose_shift(model, g)
        composed.append(op_diagonal(model, g))

    # T_w phi(F) per word, read again by the compose expansion
    tw_phi: dict[Word, Matrix] = {}
    for w in ops.words:
        tw, tw_t = ops.word[w], ops.t[w]
        lam = op_diagonal(model, fn_prepend(model, w, stacked))
        tw_t_phi = mat_mul(tw_t, phi)
        tw_phi[w] = mat_mul(tw, phi)
        held = [_holds(lam, mat_mul(tw_t_phi, tw), size),
                _holds(tw_t_phi, mat_mul(lam, tw_t), size),
                _holds(tw_phi[w], mat_mul(composed[len(w)], tw), size)]
        _record(rep, size, held, lambda k, j: f"{_WORD_RULES[j]} fails at w={ops.labels[w]}")

    for n in range(1, max_len + 1):
        level = [u for u in ops.words if len(u) == n]
        total = _sum(model.n, (mat_mul(tw_phi[u], ops.t[u]) for u in level))
        _record(rep, size, [_holds(composed[n], total, size)],
                lambda k, j: f"compose expansion fails at n={n}")

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
        transfer = tuple(map(Vec, zip(*(fn_transfer(model, f, n) for f in funcs))))
        _record(rep, size, [_holds(op_diagonal(model, transfer),
                                   mat_mul(st_dinv, mat_mul(phi, s)), size)],
                lambda k, j: f"transfer formula fails at n={n}")
    return rep


def run_all_checks(model: FiniteModel, max_len: int) -> list[CheckReport]:
    """The three check families over the words of length up to ``max_len``."""
    if max_len < 0:
        raise ValidationError("maximum word length must be >= 0")
    # T_w is built for every word of length up to 2 * max_len (the concatenations):
    # count them length by length and refuse at the first length past the cap
    cap, letters, count = presentations.MAX_LANGUAGE_WORDS, len(model.shift.alphabet), 0
    for k in range(2 * max_len + 1):
        count += letters ** k
        if count > cap:
            raise ResourceCapError(
                f"model verification at L = {max_len} needs an operator per word of length up"
                f" to {2 * max_len}; the words up to length {k} already number {count},"
                f" which exceeds cap {cap}")
    ops = _Operators(model, max_len)
    return [verify_representation(ops), verify_structure(ops), verify_composition_rules(ops)]

