"""Exact integer linear algebra: Smith normal form, kernels, cokernels.

Everything runs on Python's arbitrary-precision integers; intermediate
entries of a Smith reduction can blow up far past machine words, so no
fixed-width arithmetic is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
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
                if not isinstance(x, int):
                    raise ValidationError(f"non-integer entry {x!r}")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        if not self.entries:
            return IntMatrix(self.cols, self.rows, tuple(() for _ in range(self.cols)))
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValidationError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.transpose().entries
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, out)

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("shape mismatch in add")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("shape mismatch in sub")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def apply(self, vector: tuple[int, ...]) -> tuple[int, ...]:
        if len(vector) != self.cols:
            raise ValidationError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.entries)

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        rows = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        return IntMatrix(len(row_idx), len(col_idx), rows)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square():
        raise ValidationError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _combine_rows(a, i, j, x, y, z, w):
    # row_i, row_j <- x*row_i + y*row_j, z*row_i + w*row_j
    for k in range(len(a[0])):
        e, f = a[i][k], a[j][k]
        a[i][k] = x * e + y * f
        a[j][k] = z * e + w * f


def _combine_cols(a, i, j, x, y, z, w):
    for row in a:
        e, f = row[i], row[j]
        row[i] = x * e + y * f
        row[j] = z * e + w * f


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

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(x for x in self.diagonal if x > 1)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms, verified post-hoc.

    The verification (U*M*V == D, |det U| == |det V| == 1, divisibility
    chain) is recomputed on every call; a failure is a bug, not an input
    condition, so it raises ConsistencyError.
    """
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def clear_position(t):
        # make a[t][t] the gcd of row t / column t and zero the rest
        while True:
            pivot_i = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j] != 0:
                        pivot_i = (i, j)
                        break
                if pivot_i:
                    break
            if pivot_i is None:
                return False
            i, j = pivot_i
            if i != t:
                _swap_rows(a, t, i)
                _swap_rows(u, t, i)
            if j != t:
                _swap_cols(a, t, j)
                _swap_cols(v, t, j)
            while True:
                done = True
                for i in range(t + 1, rows):
                    if a[i][t] == 0:
                        continue
                    done = False
                    q, r = divmod(a[i][t], a[t][t])
                    if r == 0:
                        _combine_rows(a, t, i, 1, 0, -q, 1)
                        _combine_rows(u, t, i, 1, 0, -q, 1)
                    else:
                        s, tt, g = _gcdex(a[t][t], a[i][t])
                        x, y = a[t][t] // g, a[i][t] // g
                        _combine_rows(a, t, i, s, tt, -y, x)
                        _combine_rows(u, t, i, s, tt, -y, x)
                for j in range(t + 1, cols):
                    if a[t][j] == 0:
                        continue
                    done = False
                    q, r = divmod(a[t][j], a[t][t])
                    if r == 0:
                        _combine_cols(a, t, j, 1, 0, -q, 1)
                        _combine_cols(v, t, j, 1, 0, -q, 1)
                    else:
                        s, tt, g = _gcdex(a[t][t], a[t][j])
                        x, y = a[t][t] // g, a[t][j] // g
                        _combine_cols(a, t, j, s, tt, -y, x)
                        _combine_cols(v, t, j, s, tt, -y, x)
                if done:
                    break
            # pivot must divide the whole remaining block, else fold a bad
            # row into row t and redo
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                return True
            _combine_rows(a, t, offender, 1, 1, 0, 1)
            _combine_rows(u, t, offender, 1, 1, 0, 1)

    limit = min(rows, cols)
    for t in range(limit):
        if not clear_position(t):
            break
        if a[t][t] < 0:
            for k in range(cols):
                a[t][k] = -a[t][k]
            for k in range(rows):
                u[t][k] = -u[t][k]

    diag = tuple(a[i][i] for i in range(limit))
    um = IntMatrix.from_rows(u)
    vm = IntMatrix.from_rows(v) if cols else IntMatrix(0, 0, ())
    dm = IntMatrix.from_rows(a) if rows else IntMatrix(0, cols, ())

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


def matrix_rank(m: IntMatrix) -> int:
    return smith_normal_form(m).rank


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

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int:
        """Group order; only defined when the free rank is zero."""
        if self.free_rank:
            raise ValidationError("infinite group has no order")
        n = 1
        for d in self.torsion:
            n *= d
        return n

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
    snf = smith_normal_form(m)
    return FgAbelianGroup(m.rows - snf.rank, snf.invariant_factors)


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
