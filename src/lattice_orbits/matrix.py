"""Exact integer matrix helpers.

Matrices are immutable tuples of tuples of Python ints, so every product and
determinant is exact at any size.
"""

from __future__ import annotations

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def is_int(x) -> bool:
    """True for an int that is not a bool; the test applied to outside input."""
    return isinstance(x, int) and not isinstance(x, bool)


def freeze(rows) -> IntMatrix:
    """Copy a row iterable into an immutable integer matrix."""
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


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
