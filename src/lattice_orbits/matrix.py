"""Exact integer matrix helpers.

Matrices are immutable tuples of tuples of Python ints, so every product and
determinant is exact at any size.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInteger

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def is_int(x) -> bool:
    """True for an int that is not a bool; the one integer test, at every door."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_ints(values, what: str) -> None:
    """Refuse, with NotInteger, a sequence holding a value is_int refuses."""
    if not all(map(is_int, values)):
        bad = next(x for x in values if not is_int(x))
        raise NotInteger(f"{what} must be an integer, got {bad!r}")


def freeze(rows) -> IntMatrix:
    """Copy a row iterable into an immutable matrix; the entries are not converted."""
    return tuple(map(tuple, rows))


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def is_symmetric(m: IntMatrix) -> bool:
    return all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


def mat_vec(m: IntMatrix, v: IntVector) -> IntVector:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination.

    All intermediate divisions are exact, so the result is an exact int for any
    integer matrix. The empty matrix has determinant 1.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def ldl(gram: IntMatrix) -> tuple[list[Fraction], list[list[tuple[int, Fraction]]]]:
    """The one symmetric (LDL^T) elimination, over the rationals: pivots d, multipliers c.

    Entries stay ints until an elimination step touches them: each pivot
    becomes a Fraction once, so the multipliers it divides and the entries a
    step rewrites come out as Fractions, and so does every d[k] and c_kj.
    c[k] holds the nonzero (j, c_kj), j > k. With no zero diagonal on the way,
    as for every definite form, Q(v) = sum_k d[k] (v_k + sum_j c_kj v_j)^2. A
    zero diagonal is first swapped with a later nonzero one, else row and
    column j, the first with a_kj != 0, are added to k, leaving 2 a_kj on the
    pivot. The pivot signs are the inertia either way (Sylvester), zero pivots
    counting the radical. A step touches only its pivot row's nonzero entries.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    d, c = [], []
    for k in range(n):
        if a[k][k] == 0:
            j = next((t for t in range(k + 1, n) if a[t][t] != 0), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((t for t in range(k + 1, n) if a[k][t] != 0), None)
                if j is not None:
                    # both diagonals vanish, so this leaves 2*a[k][j] on the pivot
                    for t in range(n):
                        a[k][t] += a[j][t]
                    for row in a:
                        row[k] += row[j]
        row = a[k]
        p = Fraction(row[k])
        d.append(p)
        # a zero pivot left here has a zero row: a radical vector, nothing to eliminate
        nonzero = [(j, row[j]) for j in range(k + 1, n) if row[j]]
        multipliers = [(j, x / p) for j, x in nonzero]
        c.append(multipliers)
        # a_ij -= a_ki c_kj on the trailing block, each symmetric pair once
        for s, (i, x) in enumerate(nonzero):
            ai = a[i]
            for j, m in multipliers[s:]:
                ai[j] = a[j][i] = ai[j] - x * m
    return d, c
