"""Independent recomputations used to check the library's answers.

Nothing here imports lattice_orbits. Gram matrices are rebuilt from the block
conventions in the README, and every invariant is recomputed from its
definition: norms from Gram dot products, the characteristic property from
the basis-parity test, counts of primitive vectors by Moebius inversion or by
solving the norm equation. These run outside the timed spans.
"""

from __future__ import annotations

import math
from itertools import product

# Dynkin diagram of E8, nodes 1..8: chain 1-3-4-5-6-7-8 with node 2 on node 4.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
_U = ((0, 1), (1, 0))


def _e8():
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = -2
    for a, b in _E8_EDGES:
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = 1
    return rows


def _scaled(block, k):
    return [[k * x for x in row] for row in block]


def _block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(row)] = row
        at += len(b)
    return tuple(tuple(row) for row in rows)


GRAMS = {
    "Lminus": _block_sum(_scaled(_e8(), 2), _scaled(_U, 2), _U),
    "U2U": _block_sum(_scaled(_U, 2), _U),
    "Lplus": _block_sum(_scaled(_e8(), 2), _scaled(_U, 2)),
}


def gram_vec(gram, c):
    return tuple(sum(g * x for g, x in zip(row, c)) for row in gram)


def form(gram, c) -> int:
    return sum(x * y for x, y in zip(c, gram_vec(gram, c)))


def is_characteristic(gram, c) -> bool:
    """<c, e_i> = <e_i, e_i> mod 2 for every basis vector e_i."""
    gc = gram_vec(gram, c)
    return all((gc[i] - gram[i][i]) % 2 == 0 for i in range(len(gram)))


def label(gram, c) -> str:
    n = form(gram, c) // 2
    if n % 2 != 0:
        return "odd"
    return "even_characteristic" if is_characteristic(gram, c) else "even_ordinary"


def doubled_image(c) -> tuple[int, ...]:
    """Doubled coordinates of the norm-halving image of a base(2) + U vector."""
    b1, b2 = c[-2], c[-1]
    return tuple(2 * a for a in c[:-2]) + (b1 + b2, b1 - b2)


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b):
    cols = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def preserves_form(gram, m) -> bool:
    """M^T G M == G; with G nondegenerate this also forces det M = +-1."""
    return mat_mul(transpose(m), mat_mul(gram, m)) == gram


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def primitive_box_count(rank: int, bound: int) -> int:
    """Nonzero vectors with gcd 1 in [-bound, bound]^rank, by Moebius inversion."""
    return sum(_mobius(d) * ((2 * (bound // d) + 1) ** rank - 1) for d in range(1, bound + 1))


def u2u_norm_count(bound: int, value: int) -> int:
    """Primitive (x1, x2, y1, y2) in the box with 4*x1*x2 + 2*y1*y2 == value.

    The last coordinate is solved from the norm equation instead of walked.
    """
    axis = range(-bound, bound + 1)
    count = 0
    for x1, x2, y1 in product(axis, repeat=3):
        rest = value - 4 * x1 * x2
        if y1 == 0:
            candidates = axis if rest == 0 else ()
        elif rest % (2 * y1) == 0 and abs(rest // (2 * y1)) <= bound:
            candidates = (rest // (2 * y1),)
        else:
            candidates = ()
        for y2 in candidates:
            if math.gcd(x1, x2, y1, y2) == 1:
                count += 1
    return count


def witness_ok(v, w) -> bool:
    """w in Lplus has v's norm, is primitive, and (e, -e, u, -u, b) + (f, f, t, t, 0)
    lies in 2*Lambda, i.e. w matches v's leading coordinates mod 2 and b is even."""
    if form(GRAMS["Lplus"], w) != form(GRAMS["Lminus"], v) or math.gcd(*w) != 1:
        return False
    return all((a - b) % 2 == 0 for a, b in zip(v[:10], w)) and all(x % 2 == 0 for x in v[10:])


def witness_in_box(v, bound: int) -> bool:
    """Whether any witness for v has every coordinate in [-bound, bound]."""
    axes = [[x for x in range(-bound, bound + 1) if (x - c) % 2 == 0] for c in v[:10]]
    return any(any(w) and witness_ok(v, w) for w in product(*axes))
