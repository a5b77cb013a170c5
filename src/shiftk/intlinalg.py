"""Exact integer linear algebra: invariant factors, Smith normal form, kernels.

Everything runs on Python's arbitrary-precision integers; no fixed-width
arithmetic is used anywhere.

Ranks, cokernels and K-groups need only the rank and the invariant factors,
which ``invariant_factors`` computes without unimodular transforms: one
fraction-free (Bareiss) pass gives the rank r and a nonzero r x r minor
Delta, and the row and column elimination then runs with every entry reduced
modulo Delta (Domich-Kannan-Trotter 1987, Hafner-McCurley 1991), so entries
never grow past Delta.  Each nonzero invariant factor divides Delta, so the
reduction loses none of them.  The result is certified by a divisibility
chain, a rank count and the product of the factors against Delta (equal to
|det| on a square nonsingular matrix).  Only ``kernel`` reads a transform: V
from ``smith_normal_form``, which eliminates once on [[M, I], [I, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
import operator

from .errors import ConsistencyError, ValidationError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or len(self.entries) != self.rows:
            raise ValidationError("inconsistent matrix dimensions")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValidationError("ragged matrix rows")
            for x in row:
                if type(x) is not int:      # bool is an int subclass; refuse it too
                    raise ValidationError(f"non-integer entry {x!r}")

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries) -> "IntMatrix":
        """A matrix of int entries already known to have this shape; no checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = tuple(map(tuple, rows))
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        if not self.entries:
            return IntMatrix._trusted(self.cols, self.rows, tuple(() for _ in range(self.cols)))
        return IntMatrix._trusted(self.cols, self.rows, tuple(zip(*self.entries)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValidationError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.transpose().entries
        out = tuple(tuple(sum(map(operator.mul, row, col)) for col in ot) for row in self.entries)
        return IntMatrix._trusted(self.rows, other.cols, out)

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("shape mismatch in sub")
        return IntMatrix._trusted(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def apply(self, vector: tuple[int, ...]) -> tuple[int, ...]:
        if len(vector) != self.cols:
            raise ValidationError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.entries)

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        rows = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        return IntMatrix._trusted(len(row_idx), len(col_idx), rows)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def _echelon(m: IntMatrix) -> tuple[int, int]:
    """Rank r and last pivot of a fraction-free (Bareiss) row elimination.

    The pivot is the r x r minor on the pivot rows and columns, signed by the
    row swaps (1 when r == 0), so it is the determinant of a square
    nonsingular matrix.  Every division is exact.
    """
    a = [list(r) for r in m.entries]
    rows = m.rows
    rank, sign, prev = 0, 1, 1
    for c in range(m.cols):
        pivot_row = next((i for i in range(rank, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            a[rank], a[pivot_row] = a[pivot_row], a[rank]
            sign = -sign
        top = a[rank][c + 1:]
        p = a[rank][c]
        for i in range(rank + 1, rows):
            row = a[i]
            f = row[c]
            if f or p != prev:
                row[c + 1:] = [(x * p - f * y) // prev for x, y in zip(row[c + 1:], top)]
        prev = p
        rank += 1
        if rank == rows:
            break
    return rank, sign * prev


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square():
        raise ValidationError("determinant of non-square matrix")
    rank, pivot = _echelon(m)
    return pivot if rank == m.rows else 0


def matrix_rank(m: IntMatrix) -> int:
    """Rank over Q, from the fraction-free elimination alone."""
    return _echelon(m)[0]


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    # returns (s, t, g) with s*a + t*b == g == gcd(a, b) >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_s, old_t, old_r


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V == D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _combine(a, i, j, x, y, z, w):
    # lines i, j <- x*line_i + y*line_j, z*line_i + w*line_j
    pairs = list(zip(a[i], a[j]))
    a[i] = [x * e + y * f for e, f in pairs]
    a[j] = [z * e + w * f for e, f in pairs]


def _clear_below(a, t, lines):
    # zero a[i][t] for t < i < lines with line t: a quotient multiple when the
    # pivot divides the entry, else a gcd step, which changes line t
    for i in range(t + 1, lines):
        p, b = a[t][t], a[i][t]
        if b % p:
            s, u, g = _gcdex(p, b)
            _combine(a, t, i, s, u, -b // g, p // g)
        elif b:
            q = b // p
            a[i] = [f - q * e for e, f in zip(a[t], a[i])]


def _transpose(a):
    return list(map(list, zip(*a)))


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms, verified post-hoc.

    One elimination on [[M, I], [I, 0]]: row operations build U on the right,
    column operations (row operations on the transpose) build V below, and M
    becomes D.  U*M*V == D, |det U| == |det V| == 1 and the divisibility chain
    are checked on every call; a failure is a bug, so it raises ConsistencyError.

    >>> m = IntMatrix.from_rows([[2, 0], [0, 3]])
    >>> snf = smith_normal_form(m)
    >>> snf.diagonal, snf.u.mul(m).mul(snf.v) == snf.d
    ((1, 6), True)
    """
    rows, cols = m.rows, m.cols
    a = [list(row) + [int(i == k) for k in range(rows)] for i, row in enumerate(m.entries)]
    a += [[int(j == k) for k in range(rows + cols)] for j in range(cols)]
    limit = min(rows, cols)
    r, c, flipped = rows, cols, False      # flipped: a holds [[M^T, I], [I, 0]]
    for t in range(limit):
        pos = next(((i, j) for i in range(t, r) for j in range(t, c) if a[i][j]), None)
        if pos is None:
            break
        i, j = pos
        a[t], a[i] = a[i], a[t]
        for line in a if j != t else ():
            line[t], line[j] = line[j], line[t]
        # clear column t, then transpose to clear row t, and so on; keeping the
        # last orientation for the next pivot keeps U and V far smaller
        _clear_below(a, t, r)
        while any(a[t][t + 1:c]):
            a, r, c, flipped = _transpose(a), c, r, not flipped
            _clear_below(a, t, r)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    if flipped:
        a = _transpose(a)

    # diag(x, y) ~ diag(gcd, lcm), zeros last: row i += row j, a gcd step on
    # columns i and j, then a quotient step on row j, as one 2x2 step a side
    for i in range(limit):
        for j in range(i + 1, limit):
            x, y = a[i][i], a[j][j]
            if (y % x if x else y) == 0:
                continue
            s, u, g = _gcdex(x, y)
            _combine(a, i, j, 1, 1, -u * y // g, s * x // g)
            a = _transpose(a)
            _combine(a, i, j, s, u, -y // g, x // g)
            a = _transpose(a)
    diag = tuple(a[t][t] for t in range(limit))
    um = IntMatrix._trusted(rows, rows, tuple(tuple(line[cols:]) for line in a[:rows]))
    vm = IntMatrix._trusted(cols, cols, tuple(tuple(line[:cols]) for line in a[rows:]))
    dm = IntMatrix._trusted(rows, cols, tuple(tuple(line[:cols]) for line in a[:rows]))

    # post-hoc verification
    if um.mul(m).mul(vm).entries != dm.entries:
        raise ConsistencyError("smith reduction failed: U*M*V != D")
    if rows and abs(determinant(um)) != 1:
        raise ConsistencyError("smith reduction failed: U not unimodular")
    if cols and abs(determinant(vm)) != 1:
        raise ConsistencyError("smith reduction failed: V not unimodular")
    for i in range(len(diag) - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            raise ConsistencyError("smith reduction failed: zero before nonzero")
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            raise ConsistencyError("smith reduction failed: divisibility chain broken")
    for i in range(rows):
        for j in range(cols):
            if i != j and dm.entries[i][j] != 0:
                raise ConsistencyError("smith reduction failed: D not diagonal")
    return SmithDecomposition(um, dm, vm, diag)


def _diagonal_mod(m: IntMatrix, modulus: int) -> list[int]:
    """Diagonal of a row and column reduction of m over Z/modulus.

    The pivot only shrinks (a gcd step replaces it by a proper divisor) and
    an entry it divides is cleared by a quotient multiple, so the loop ends.
    The list stops where the remaining block is zero.
    """
    rows, cols = m.rows, m.cols
    a = [[x % modulus for x in r] for r in m.entries]
    diag = []
    for t in range(min(rows, cols)):
        pos = next(((i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]), None)
        if pos is None:
            break
        i, j = pos
        a[t], a[i] = a[i], a[t]
        for row in a[t:]:
            row[t], row[j] = row[j], row[t]
        top = a[t]
        while True:
            for row in a[t + 1:]:
                b = row[t]
                if not b:
                    continue
                p = top[t]
                q, r = divmod(b, p)
                if r == 0:
                    row[t:] = [(f - q * e) % modulus for e, f in zip(top[t:], row[t:])]
                else:
                    s, u, g = _gcdex(p, b)
                    x, y = p // g, b // g
                    pairs = list(zip(top[t:], row[t:]))
                    top[t:] = [(s * e + u * f) % modulus for e, f in pairs]
                    row[t:] = [(x * f - y * e) % modulus for e, f in pairs]
            # column t is now zero below the pivot, so a column operation with
            # a quotient multiple only clears row t; a gcd step refills column t
            refilled = False
            for j in range(t + 1, cols):
                e = top[j]
                if not e:
                    continue
                p = top[t]
                q, r = divmod(e, p)
                if r == 0:
                    if refilled:
                        for row in a[t + 1:]:
                            row[j] = (row[j] - q * row[t]) % modulus
                    top[j] = 0
                else:
                    s, u, g = _gcdex(p, e)
                    x, y = p // g, e // g
                    for row in a[t:]:
                        e0, e1 = row[t], row[j]
                        row[t] = (s * e0 + u * e1) % modulus
                        row[j] = (x * e1 - y * e0) % modulus
                    refilled = True
            if not refilled:
                break
        diag.append(top[t])
    return diag


def _divisibility_chain(diag: list[int]) -> list[int]:
    """The invariant factors of a diagonal matrix: diag(x, y) ~ diag(gcd, lcm)."""
    chain = [x for x in diag if x != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            x, y = chain[i], chain[j]
            g = gcd(x, y)
            chain[i], chain[j] = g, x // g * y
    return [1] * (len(diag) - len(chain)) + chain


def invariant_factors(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Rank r and the r nonzero invariant factors d1 | d2 | ... | dr of m.

    The diagonal of the reduction modulo Delta, a nonzero r x r minor, gives
    gcd(di, Delta) = di for i <= r and Delta for the zero factors; missing
    diagonal entries of a rectangular matrix count as zero, so it needs no
    padding, and gcd/lcm exchanges order the diagonal into a chain.  The
    result is certified (chain, rank count, product against Delta) and a
    failure raises ConsistencyError naming the check.

    >>> invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]]))
    (2, (2, 4))
    """
    rank, minor = _echelon(m)
    delta = abs(minor)
    diag = [gcd(x, delta) for x in _diagonal_mod(m, delta)]
    diag += [delta] * (min(m.rows, m.cols) - len(diag))
    diag = _divisibility_chain(diag)
    factors = tuple(diag[:rank])

    def fail(check: str):
        raise ConsistencyError(
            f"invariant factors failed the {check} check on a {m.rows}x{m.cols} matrix "
            f"(modulus of {delta.bit_length()} bits)")

    if any(y % x for x, y in zip(factors, factors[1:])):
        fail("divisibility chain")
    if len(factors) != rank or any(x != delta for x in diag[rank:]):
        fail("rank count")
    if rank == m.rows == m.cols:
        if prod(factors) != delta:
            fail("product equals |det|")
    elif delta % prod(factors):
        fail("product divides the minor")
    return rank, factors


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``free_rank`` copies of Z plus cyclic factors Z/d1 + Z/d2 + ... with
    d1 | d2 | ... and every di >= 2.  The representation is unique, so
    equality of values is isomorphism of groups.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValidationError("free rank must be >= 0")
        prev = 1
        for d in self.torsion:
            if not isinstance(d, int) or d < 2:
                raise ValidationError("torsion invariant factors must be integers >= 2")
            if d % prev != 0:
                raise ValidationError("torsion invariants must form a divisibility chain")
            prev = d

    def order(self) -> int:
        """Group order; only defined when the free rank is zero."""
        if self.free_rank:
            raise ValidationError("infinite group has no order")
        return prod(self.torsion)

    def render(self) -> str:
        """ASCII text form: "0", "Z", "Z^2 + Z/2 + Z/4", ...

        >>> FgAbelianGroup(1, (2,)).render()
        'Z + Z/2'
        """
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def cokernel(m: IntMatrix) -> FgAbelianGroup:
    """Z^rows / im(M) in canonical invariant-factor form."""
    rank, factors = invariant_factors(m)
    return FgAbelianGroup(m.rows - rank, tuple(d for d in factors if d > 1))


def kernel(m: IntMatrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Rank and an integral basis of ker(M); each basis vector is verified."""
    snf = smith_normal_form(m)
    r = snf.rank
    basis = []
    for j in range(r, m.cols):
        vec = tuple(snf.v.entries[i][j] for i in range(m.cols))
        if any(x != 0 for x in m.apply(vec)):
            raise ConsistencyError("kernel basis vector fails M*b == 0")
        basis.append(vec)
    if len(basis) + r != m.cols:
        raise ConsistencyError("rank-nullity violated in kernel computation")
    return len(basis), tuple(basis)
