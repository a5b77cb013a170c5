"""Expected answers computed by the benchmark alone, without shiftk.

* Bowen-Franks data of a vertex shift: for the 0/1 matrix A, the order of
  K0 = coker(I - A) is |det(I - A)| when that is nonzero, and the free ranks
  of K0 and K1 are both n - rank(I - A).  Both come from one exact Fraction
  elimination.
* Check counts of the operator model: the identity families run over every
  word of length <= L and over the distinct cylinder indicator functions plus
  three random functions; the counts below follow from that, with the
  cylinder indicators computed here on the benchmark's own point arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def det_and_rank(matrix: list[list[int]]) -> tuple[int, int]:
    """Determinant and rank of an integer matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    det = Fraction(1)
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if a[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        p = a[rank][col]
        det *= p
        for r in range(rank + 1, n_rows):
            f = a[r][col] / p
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    if rank < n_rows:
        det = Fraction(0)
    return int(det), rank


def vertex_k_groups(adjacency: list[list[int]]) -> dict:
    """Canonical K0/K1 facts of a vertex shift, from I - A."""
    n = len(adjacency)
    b = [[(1 if i == j else 0) - adjacency[i][j] for j in range(n)] for i in range(n)]
    det, rank = det_and_rank(b)
    return {"free_rank": n - rank, "order": abs(det) if det else None}


def group_matches(group: dict, expected: dict) -> bool:
    """``group`` is {"free_rank", "torsion"} as the program prints it."""
    if group["free_rank"] != expected["free_rank"]:
        return False
    if expected["order"] is None:
        return True
    order = 1
    for d in group["torsion"]:
        order *= d
    return order == expected["order"]


# ---------------------------------------------------------------------------
# finite shifts: points are (pre, per) strings in normal form


def normal_point(pre: str, per: str) -> tuple[str, str]:
    """Primitive period, shortest preperiod."""
    for d in range(1, len(per) + 1):
        if len(per) % d == 0 and per == per[:d] * (len(per) // d):
            per = per[:d]
            break
    while pre and pre[-1] == per[-1]:
        pre, per = pre[:-1], per[-1] + per[:-1]
    return pre, per


def _prefix(point, k: int) -> str:
    pre, per = point
    reps = k // len(per) + 1
    return (pre + per * reps)[:k]


def _shift_by(point, k: int):
    pre, per = point
    for _ in range(k):
        if pre:
            pre = pre[1:]
        else:
            per = per[1:] + per[0]
    return pre, per


def cylinder_indicators(points, alphabet, max_len: int) -> set:
    """Distinct indicators of {v.y : y and u.y in the shift} over |u|, |v| <= max_len."""
    pts = sorted(points)
    members = set(pts)
    words = [""] + ["".join(w) for k in range(1, max_len + 1)
                    for w in product(alphabet, repeat=k)]
    out = set()
    for u in words:
        for v in words:
            row = []
            for x in pts:
                inside = False
                if _prefix(x, len(v)) == v:
                    pre, per = _shift_by(x, len(v))
                    inside = normal_point(u + pre, per) in members
                row.append(inside)
            out.add(tuple(row))
    return out


def model_check_counts(points, alphabet, max_len: int) -> dict[str, int]:
    """Number of identities each report of ``run_all_checks`` must record."""
    a = len(alphabet)
    words = sum(a ** k for k in range(max_len + 1))
    funcs = len(cylinder_indicators(points, alphabet, max_len)) + 3
    orthogonal = sum(a ** k * (a ** k - 1) for k in range(1, max_len + 1))
    return {
        "representation": 2 * words * words,
        "structure": 2 + 4 * words + orthogonal,
        "composition rules": 3 * words * funcs + max_len * (2 * funcs + 1),
    }
