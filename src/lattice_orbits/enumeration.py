"""Exact vector enumeration.

Two engines: a coordinate box walker (any lattice, lexicographic order) and a
recursive short-vector enumerator for definite forms.

The box walker takes one ascending list of allowed values per axis. Given a
Gram matrix and a norm it walks only the first rank - 1 axes and solves the
last coordinate exactly: for a fixed prefix the norm is g*x^2 + L*x + Q in the
last coordinate x, a linear equation when g = 0 (every U and U(2) block) and
otherwise a quadratic with an integer square root and a perfect-square check.
Every root must still be an allowed value of its axis.

The definite engine completes the square over the rationals once, then bounds
each coordinate by an exact interval, so no vector is missed regardless of how
skew the basis is; integer square roots only ever widen the candidate interval
and every candidate is accepted by an exact comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .errors import LatticeShapeMismatch, NegativeCount
from .lattices import Lattice, gram_terms


def check_counts(**counts: int) -> None:
    """Refuse the first negative count, by its keyword name, with NegativeCount."""
    for name, value in counts.items():
        if value < 0:
            raise NegativeCount(f"{name} must be non-negative, got {value}")


def box_range(bound: int) -> range:
    """The integers in [-bound, bound]; a negative bound is refused."""
    check_counts(bound=bound)
    return range(-bound, bound + 1)


def box_vectors(rank: int, bound: int):
    """All coordinate tuples in [-bound, bound]^rank, lexicographic order."""
    return box_walk([box_range(bound)] * rank)


def box_walk(axes, form=None):
    """Tuples of the product of the per-axis value lists, in lexicographic order.

    Each axis is an ascending sequence of distinct integers. With form =
    (gram, norm), only the tuples c with c^T gram c == norm are yielded, and
    the last coordinate is solved instead of walked.
    """
    axes = [tuple(axis) for axis in axes]
    if form is None:
        return product(*axes)
    gram, value = form
    return _norm_walk(axes, gram, value)


def _norm_walk(axes, gram, value):
    *prefix, allowed = axes
    last = len(prefix)
    members = frozenset(allowed)
    g = gram[last][last]
    if last == 0:  # rank 1: g*x^2 = value
        yield from ((x,) for x in allowed if g * x * x == value)
        return
    # the prefix is (head, y), y on axis pen: Q = Qh + (cy + gyy*y)*y and
    # L = Lh + ly*y, where Qh, Lh and cy are sparse sums over the head
    pen = last - 1
    gyy, ly = gram[pen][pen], 2 * gram[last][pen]
    rows = gram_terms(gram)
    quad = [(i, j, g if i == j else 2 * g) for i in range(pen) for j, g in rows[i] if i <= j < pen]
    cross = [(i, 2 * g) for i, g in rows[pen] if i < pen]
    lin = [(i, 2 * g) for i, g in rows[last] if i < pen]
    for head in product(*prefix[:-1]):
        qh = sum(c * head[i] * head[j] for i, j, c in quad) - value
        lh = sum(c * head[i] for i, c in lin)
        cy = sum(c * head[i] for i, c in cross)
        for y in prefix[-1]:
            roots = _integer_roots(g, lh + ly * y, qh + (cy + gyy * y) * y)
            for x in allowed if roots is None else roots:
                if x in members:
                    yield (*head, y, x)


def _integer_roots(a: int, b: int, c: int):
    """Ascending integer roots of a*x^2 + b*x + c; None when every x is a root."""
    if a == 0:
        if b == 0:
            return None if c == 0 else ()
        return () if c % b else (-c // b,)
    disc = b * b - 4 * a * c
    s = math.isqrt(max(disc, 0))
    if s * s != disc:
        return ()
    return sorted({(d - b) // (2 * a) for d in (s, -s) if (d - b) % (2 * a) == 0})


def _completed_square(gram) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Positive definite gram -> (d, c) with Q(v) = sum_i d[i]*(v_i + sum_{j>i} c[i][j] v_j)^2."""
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    c = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        d[k] = a[k][k]
        if d[k] <= 0:
            raise LatticeShapeMismatch("form is not positive definite")
        for j in range(k + 1, n):
            c[k][j] = a[k][j] / d[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= a[i][k] * a[k][j] / d[k]
    return d, c


def _sqrt_upper(x: Fraction) -> Fraction:
    # any rational >= sqrt(x); off by at most 1/denominator
    return Fraction(math.isqrt(x.numerator * x.denominator) + 1, x.denominator)


def short_vectors_definite(lattice: Lattice, target: int) -> tuple[tuple[int, ...], ...]:
    """All nonzero v with <v, v> == target in a definite lattice, sorted.

    Works for either sign of definiteness; a target of the wrong sign gives the
    empty tuple.
    """
    n = lattice.rank
    lead = lattice.gram[0][0]
    if lead == 0:
        raise LatticeShapeMismatch(f"{lattice.name} is not definite")
    if lead > 0:
        gram, goal = lattice.gram, target
    else:
        gram = tuple(tuple(-x for x in row) for row in lattice.gram)
        goal = -target
    if goal < 0:
        return ()
    d, c = _completed_square(gram)
    found: list[tuple[int, ...]] = []
    v = [0] * n

    def descend(i: int, rem: Fraction):
        if i < 0:
            if rem == 0 and any(v):
                found.append(tuple(v))
            return
        center = sum(c[i][j] * v[j] for j in range(i + 1, n))
        radius = _sqrt_upper(rem / d[i])
        lo = math.ceil(-center - radius)
        hi = math.floor(-center + radius)
        for x in range(lo, hi + 1):
            used = d[i] * (x + center) ** 2
            if used <= rem:
                v[i] = x
                descend(i - 1, rem - used)
        v[i] = 0

    descend(n - 1, Fraction(goal))
    return tuple(sorted(found))
