"""Exact vector enumeration.

Two engines: a coordinate box walker (any lattice, lexicographic order) and a
recursive short-vector enumerator for definite forms.

The box walker takes one ascending list of allowed values per axis. Given a
Gram matrix and a norm it walks only the first rank - 1 axes and solves the
last coordinate exactly: for a fixed prefix the norm is g*x^2 + L*x + Q in the
last coordinate x. When g = 0 (every U and U(2) block) that is a linear
equation, solved inline by one exact division (every x when L = Q = 0);
otherwise it is a quadratic with an integer square root and a perfect-square
check. Every root must still be an allowed value of its axis.

A prefix is a head (every coordinate before the last two) and y. The head
enters the equation only through three sums, the key (Qh, Lh, cy), so the
y-loop runs once per distinct key and every later head with that key reuses
its (y, x) tails. A norm walk costs heads + distinct keys * |y-axis| + hits.
Its memo is local to the walk and keeps at most one (y, xs) group per head,
each of which it also yields; "every x" is kept as the axis itself, and a key
whose groups might not fit is streamed instead, so a lone head (rank 2) keeps
nothing. Rank 1 solves g*x^2 = norm directly.

Every walk has one budget, WALK_BUDGET tuples: the product of the walked axis
lengths, leaving out the solved last axis when a norm is given. A larger walk
is refused with BoxTooLarge before it starts, read off the lengths of the
axes as given, so a huge bound allocates nothing before its refusal. A range
axis is never copied, since it iterates and answers `in` as it is, so a huge
solved axis allocates nothing either.

The definite engine takes the pivots d and multipliers c of `matrix.ldl`,
Q(v) = sum_i d_i (v_i + sum_{j>i} c_ij v_j)^2, and scales them by the lcm S
of their denominators. The descent then runs on integers only: it keeps
rem * S^3 and S * center as ints, and coordinate i takes exactly the x with
|S x + S center| <= isqrt(rem * S^3 // (S d_i)), an exact bound because the
left side is an integer. So no vector is missed however skew the basis is, and
no candidate needs a second comparison. The descent is a generator, so a
count holds no shell. A pivot of the wrong sign refuses the form first; every
norm is a multiple of the form's content gcd(G_ii, 2 G_ij), so any other
target then gives nothing without a descent.
"""

from __future__ import annotations

import math
from itertools import product

from . import matrix
from .errors import BoxTooLarge, LatticeShapeMismatch, NegativeCount
from .lattices import Lattice, gram_terms

# walked tuples per box walk, a few seconds of work; the largest walk the test
# suite makes is wall_scan(3, 3, 3), 7^6 = 117649 tuples
WALK_BUDGET = 10**6


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


def check_budget(axes) -> int:
    """The number of tuples in the product of the axes; BoxTooLarge past WALK_BUDGET.

    Read off the lengths of the axes as given, so nothing is copied first; a
    range is measured from its ends, since len() overflows past sys.maxsize.
    """
    walked = math.prod(
        max(0, -((a.start - a.stop) // a.step)) if isinstance(a, range) else len(a) for a in axes
    )
    if walked > WALK_BUDGET:
        raise BoxTooLarge(f"box walk of {walked} tuples exceeds the budget of {WALK_BUDGET}")
    return walked


def box_walk(axes, form=None):
    """Tuples of the product of the per-axis value lists, in lexicographic order.

    Each axis is an ascending sequence of distinct integers. With form =
    (gram, norm), only the tuples c with c^T gram c == norm are yielded, and
    the last coordinate is solved instead of walked. A walk of more than
    WALK_BUDGET tuples raises BoxTooLarge, before any axis is copied; a range
    axis is never copied.
    """
    axes = list(axes)
    check_budget(axes if form is None else axes[:-1])
    axes = [axis if isinstance(axis, range) else tuple(axis) for axis in axes]
    if form is None:
        return product(*axes)
    gram, value = form
    return _norm_walk(axes, gram, value)


def _norm_walk(axes, gram, value):
    *prefix, allowed = axes
    last = len(prefix)
    members = allowed if isinstance(allowed, range) else frozenset(allowed)
    g = gram[last][last]
    if last == 0:  # rank 1: g*x^2 = value, every x when g = value = 0
        if g:
            yield from ((x,) for x in _integer_roots(g, 0, -value) if x in members)
        elif value == 0:
            yield from ((x,) for x in allowed)
        return
    # the prefix is (head, y), y on axis pen: Q = Qh + (cy + gyy*y)*y and
    # L = Lh + ly*y, where Qh, Lh and cy are sparse sums over the head
    pen = last - 1
    gyy, ly = gram[pen][pen], 2 * gram[last][pen]
    rows = gram_terms(gram)
    quad = [(i, j, g if i == j else 2 * g) for i in range(pen) for j, g in rows[i] if i <= j < pen]
    cross = [(i, 2 * g) for i, g in rows[pen] if i < pen]
    lin = [(i, 2 * g) for i, g in rows[last] if i < pen]
    ys = prefix[-1]

    def tails(qh, lh, cy):
        """(y, xs) for each y with a root x; xs is the last axis itself when every x is one."""
        for y in ys:
            b, c = lh + ly * y, qh + (cy + gyy * y) * y
            if g:
                xs = [x for x in _integer_roots(g, b, c) if x in members]
            elif b:  # L*x + Q = 0
                xs = (x,) if c % b == 0 and (x := -c // b) in members else ()
            else:
                xs = allowed if c == 0 else ()
            if xs:
                yield y, xs

    # one y-loop per distinct key; the memo keeps at most one (y, xs) per
    # head, and a key whose groups might not fit in that room is streamed
    memo = {}
    room = math.prod(map(len, prefix[:-1]))
    for head in product(*prefix[:-1]):
        key = (
            sum(c * head[i] * head[j] for i, j, c in quad) - value,
            sum(c * head[i] for i, c in lin),
            sum(c * head[i] for i, c in cross),
        )
        found = memo.get(key)
        if found is None:
            found = tails(*key)
            if len(ys) <= room:
                found = memo[key] = list(found)
                room -= len(found)
        for y, xs in found:
            for x in xs:
                yield (*head, y, x)


def _integer_roots(a: int, b: int, c: int):
    """Ascending integer roots of a*x^2 + b*x + c, for a != 0."""
    disc = b * b - 4 * a * c
    s = math.isqrt(max(disc, 0))
    if s * s != disc:
        return ()
    return sorted({(d - b) // (2 * a) for d in (s, -s) if (d - b) % (2 * a) == 0})


def definite_vectors(lattice: Lattice, target: int):
    """Each nonzero v with <v, v> == target in a definite lattice, once, as found.

    Works for either sign of definiteness, which the sign of G_00 picks. At
    the call, a form that is not definite raises LatticeShapeMismatch whatever
    the target; a target of the other sign, or off the form's content
    gcd(G_ii, 2 G_ij), then gives an empty iterator without a descent.
    """
    sign = 1 if lattice.gram[0][0] > 0 else -1
    d, c = matrix.ldl(lattice.gram)
    d = [sign * p for p in d]
    if min(d) <= 0:
        raise LatticeShapeMismatch("form is not positive definite")
    goal = sign * target
    if goal < 0 or goal % math.gcd(*(k for _, _, k in lattice.upper_terms)):
        return iter(())
    return _descend(d, c, goal)


def short_vectors_definite(lattice: Lattice, target: int) -> tuple[tuple[int, ...], ...]:
    """All nonzero v with <v, v> == target in a definite lattice, sorted; see definite_vectors."""
    return tuple(sorted(definite_vectors(lattice, target)))


def _descend(d, c, goal: int):
    """Each nonzero integer v with sum_i d_i (v_i + sum_j c_ij v_j)^2 == goal, once.

    d holds positive pivots and c[i] the nonzero (j, c_ij), j > i, as
    `matrix.ldl` gives them.
    """
    n = len(d)
    # D_i = S d_i and C_ij = S c_ij, all integers
    scale = math.lcm(*(x.denominator for x in d), *(x.denominator for row in c for _, x in row))
    dd = [int(scale * x) for x in d]
    cc = [[(j, int(scale * x)) for j, x in row] for row in c]
    v = [0] * n

    def descend(i: int, rem: int):
        cs = sum([k * v[j] for j, k in cc[i]])
        # D_i (S x + cs)^2 <= rem, i.e. |S x + cs| <= isqrt(rem // D_i), exactly
        radius = math.isqrt(rem // dd[i])
        for x in range(-((cs + radius) // scale), (radius - cs) // scale + 1):
            t = scale * x + cs
            v[i] = x
            if i:
                yield from descend(i - 1, rem - dd[i] * t * t)
            elif rem == dd[0] * t * t and any(v):  # the last coordinate, checked in place
                yield tuple(v)
        v[i] = 0

    return descend(n - 1, goal * scale**3)
