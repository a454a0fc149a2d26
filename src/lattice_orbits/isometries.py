"""Isometries of a lattice, and deterministic random words in them.

An isometry is an integer matrix M with M^T G M = G and |det M| = 1, acting on
coordinate columns. Construction always certifies; there is no way to hold an
uncertified Isometry.

Certification forms G M row by row, one scaled-row update per nonzero Gram
term, and compares the upper triangle of M^T (G M) with G. That is a complete
check of M^T G M = G, because M^T G M is symmetric whenever G is. When
det G != 0 the equation forces det(M)^2 = 1, so the Bareiss |det M| = 1 check
can never fail; it is skipped only where det G != 0 is known without
computing it, on the built-in lattices (every fixed built-in is nondegenerate
and I_s_t has det +-1). Every other lattice, degenerate ones included, keeps
the check.

Random words are drawn only on the two lattices the suites sample, Lminus and
U2U, each from a fixed generator recipe: reflections in short vectors (a pool
scanned once per name), hyperbolic block swaps, global negation, and
transvections along an isotropic basis vector of the unimodular U block,
each block read off the split tag (_blocks). Every other lattice, I_s_t and
the half targets included, is refused with NoGeneratorRecipe before anything
is built. Sampling is reproducible: the same seed and length give the same
matrix.

A word is composed from checked generators and certified once, at the end.
Each pool reflection is certified when it is built, as the rank-one update
I - delta c^T that it is stored as, in O(n^2) integer operations and without
building the matrix (_certify_rank_one). Each transvection's preconditions are
checked when it is drawn, and every step is applied to the word as a sparse
row update (a row swap or a low-rank update of the rows it moves); the
negations only flip one sign, applied once at the end. The finished matrix
then goes through Isometry like any other, so every matrix a caller can apply
is still a certified isometry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from . import matrix as intmat
from .enumeration import box_walk, check_counts, short_vectors_definite
from .errors import (
    IsotropicReflectionVector,
    LatticeMismatch,
    LimitExceeded,
    NoGeneratorRecipe,
    NotIntegralReflection,
    NotIsometry,
    NotIsotropic,
    NotOrthogonal,
    OddLattice,
    RankMismatch,
)
from .lattices import Lattice, gram_vec, is_builtin, is_even, quadratic, resolve
from .matrix import require_ints
from .vectors import LatticeVector


@dataclass(frozen=True)
class Isometry:
    lattice: Lattice
    matrix: intmat.IntMatrix

    def __post_init__(self):
        lattice = self.lattice
        g = lattice.gram
        m = self.matrix
        n = lattice.rank
        if len(m) != n or any(len(row) != n for row in m):
            raise NotIsometry(f"matrix is not {n}x{n}")
        gm = []  # G M by rows: row i is the sum of g * (row j of M) over the nonzero G_ij
        for terms in lattice.terms:
            acc = [0] * n
            for j, k in terms:
                acc = [a + k * x for a, x in zip(acc, m[j])]
            gm.append(acc)
        gm_cols = list(zip(*gm))
        for a, col in enumerate(zip(*m)):  # the upper triangle of M^T (G M)
            for b in range(a, n):
                if sum(map(mul, col, gm_cols[b])) != g[a][b]:
                    raise NotIsometry("matrix does not preserve the form")
        # built-ins have det G != 0, where the form check forces det(M)^2 = 1
        if not is_builtin(lattice) and abs(intmat.det(m)) != 1:
            raise NotIsometry("matrix is not invertible over the integers")


def certify(lattice: Lattice, rows) -> Isometry:
    """Validate an untrusted matrix; the only door for external input."""
    rows = tuple(tuple(row) for row in rows)
    for row in rows:
        for x in row:
            if not intmat.is_int(x):
                raise NotIsometry(f"matrix entries must be integers, got {x!r}")
    return Isometry(lattice, rows)


def apply(g: Isometry, v: LatticeVector) -> LatticeVector:
    if v.lattice != g.lattice:
        raise LatticeMismatch("isometry and vector live in different lattices")
    return LatticeVector(g.lattice, intmat.mat_vec(g.matrix, v.coords))


def compose(g: Isometry, h: Isometry) -> Isometry:
    """g after h."""
    if g.lattice != h.lattice:
        raise LatticeMismatch("cannot compose isometries of different lattices")
    return Isometry(g.lattice, intmat.mat_mul(g.matrix, h.matrix))


def identity(lattice: Lattice) -> Isometry:
    return Isometry(lattice, intmat.identity(lattice.rank))


def negation(lattice: Lattice) -> Isometry:
    return Isometry(
        lattice,
        tuple(tuple(-1 if i == j else 0 for j in range(lattice.rank)) for i in range(lattice.rank)),
    )


def _reflection_coeffs(lattice: Lattice, delta: tuple[int, ...]) -> list[int]:
    """2<e_i, delta>/<delta, delta> for every basis vector e_i, checked integral."""
    if len(delta) != lattice.rank:
        raise RankMismatch(f"expected {lattice.rank} coordinates")
    nd = quadratic(lattice, delta)
    if nd == 0:
        raise IsotropicReflectionVector("cannot reflect in an isotropic vector")
    coeffs = []
    for i, gd in enumerate(gram_vec(lattice, delta)):
        twice = 2 * gd
        if twice % nd != 0:
            raise NotIntegralReflection(
                f"2<e_{i}, delta> = {twice} is not divisible by <delta, delta> = {nd}"
            )
        coeffs.append(twice // nd)
    return coeffs


def reflection(lattice: Lattice, delta) -> Isometry:
    """Reflection in a non-isotropic vector, when it is integral on the lattice.

    w -> w - (2<w, delta>/<delta, delta>) delta. Integrality is checked against
    every basis vector before the matrix is assembled.
    """
    delta = tuple(delta)
    require_ints(delta, "each coordinate")
    coeffs = _reflection_coeffs(lattice, delta)
    rows = tuple(
        tuple((1 if r == cidx else 0) - coeffs[cidx] * delta[r] for cidx in range(lattice.rank))
        for r in range(lattice.rank)
    )
    return Isometry(lattice, rows)


def _transvection_terms(lattice: Lattice, e, x):
    """G e, G x and <x,x>/2 for the transvection along e and x, after its checks."""
    if not is_even(lattice):
        raise OddLattice("transvections need an even lattice")
    if len(e) != lattice.rank or len(x) != lattice.rank:
        raise RankMismatch(f"expected {lattice.rank} coordinates")
    ge = gram_vec(lattice, e)
    if sum(map(mul, e, ge)) != 0:
        raise NotIsotropic("e must be isotropic")
    if sum(map(mul, x, ge)) != 0:
        raise NotOrthogonal("x must be orthogonal to e")
    gx = gram_vec(lattice, x)
    return ge, gx, sum(map(mul, x, gx)) // 2


def transvection(lattice: Lattice, e, x) -> Isometry:
    """Eichler transvection w -> w - <x,w>e + <e,w>x - (<x,x>/2)<e,w>e.

    Needs an even lattice, isotropic e, and x orthogonal to e; then the matrix
    is integral and certifies.
    """
    e, x = tuple(e), tuple(x)
    require_ints(e + x, "each coordinate")
    ge, gx, half = _transvection_terms(lattice, e, x)
    rows = tuple(
        tuple(
            (1 if r == c else 0) - gx[c] * e[r] + ge[c] * x[r] - half * ge[c] * e[r]
            for c in range(lattice.rank)
        )
        for r in range(lattice.rank)
    )
    return Isometry(lattice, rows)


def block_swap(lattice: Lattice, start: int) -> Isometry:
    """Exchange basis vectors start and start+1 (hyperbolic block swap)."""
    n = lattice.rank
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[start][start] = rows[start + 1][start + 1] = 0
    rows[start][start + 1] = rows[start + 1][start] = 1
    return Isometry(lattice, intmat.freeze(rows))


# the built-ins the suites sample; every other lattice has no generator recipe
_SAMPLED = ("Lminus", "U2U")
# both lattices draw every kind; the order fixes which kind each draw picks
_KINDS = ("reflection", "transvection", "swap", "negation")

_REFLECTION_NORMS = (-1, 1, -2, 2, -4, 4)
_POOL_BOX = 3


def _blocks(lattice: Lattice):
    """(windows, definite blocks, swap starts, transvection start), read off the tag.

    With r the base rank, U(2) and U start at r - 2 and r (both sampled bases
    end in U): each is a reflection window and a swap, and transvections run
    along U. The leading r - 2 coordinates, E8(2) on Lminus, are definite.
    """
    r = lattice.shape.base.rank
    definite = ((0, r - 2),) if r > 2 else ()
    return ((r - 2, r - 1), (r, r + 1)), definite, (r - 2, r), r


def _reflection_candidates(lattice: Lattice):
    n = lattice.rank
    values = range(-_POOL_BOX, _POOL_BOX + 1)
    windows, definite, _, _ = _blocks(lattice)
    for window in windows:
        axes = [values if i in window else (0,) for i in range(n)]
        yield from filter(any, box_walk(axes))
    for start, stop in definite:
        block = Lattice(
            f"{lattice.name}[{start}:{stop}]",
            stop - start,
            tuple(tuple(row[start:stop]) for row in lattice.gram[start:stop]),
        )
        for target in _REFLECTION_NORMS:
            hits = short_vectors_definite(block, target)
            if not hits:
                continue
            for small in hits:
                delta = [0] * n
                delta[start : start + len(small)] = small
                yield tuple(delta)
            break  # smallest usable norm is enough; deeper shells add thousands


_Terms = list[tuple[int, int]]  # (index, value) pairs of a vector's nonzero entries
# A sparse step: the matrix I + sum of u v^T over its (u, v) pairs. Applied to
# a word on the left, it rewrites only the rows where some u is nonzero.
_RowUpdate = tuple[tuple[_Terms, _Terms], ...]


def _nonzero(values) -> _Terms:
    # a list, not tuple(generator): CPython resizes such tuples, which fills the
    # free list of every length a word step produces (about 1 MB held on Lminus)
    return [(i, x) for i, x in enumerate(values) if x]


class _PoolReflection(NamedTuple):
    delta: tuple[int, ...]
    update: _RowUpdate  # I - delta c^T, with c the reflection coefficients


def _certify_rank_one(lattice: Lattice, delta, coeffs) -> None:
    """Certify M = I - delta c^T, with c = coeffs, without building M.

    With u = G delta and nd = <delta, delta>, M^T G M = G - u c^T - c u^T +
    nd c c^T for any delta and c, and det M = 1 - c . delta (the matrix
    determinant lemma). So M is an isometry exactly when the upper triangle of
    -u c^T - c u^T + nd c c^T is zero and |1 - c . delta| = 1. Only rows and
    columns where u or c is nonzero can break the first check.
    """
    u = gram_vec(lattice, delta)
    nd = sum(map(mul, delta, u))
    support = [a for a in range(lattice.rank) if u[a] or coeffs[a]]
    for k, a in enumerate(support):
        w = nd * coeffs[a] - u[a]  # entry (a, b) is w c_b - c_a u_b
        for b in support[k:]:
            if w * coeffs[b] != coeffs[a] * u[b]:
                raise NotIsometry("matrix does not preserve the form")
    if abs(1 - sum(map(mul, coeffs, delta))) != 1:
        raise NotIsometry("matrix is not invertible over the integers")


@lru_cache(maxsize=len(_SAMPLED))
def _recipe_pool(name: str) -> tuple[_PoolReflection, ...]:
    """Certified reflections in a sampled lattice's candidates, deterministic order, sign-deduped.

    Scanned once per sampled name. Each entry is certified as the rank-one
    update it is stored as.
    """
    lattice = resolve(name)
    pool = []
    seen = set()
    for delta in _reflection_candidates(lattice):
        if math.gcd(*delta) != 1:  # also drops the zero vector
            continue
        first = next(c for c in delta if c)
        canonical = delta if first > 0 else tuple(-x for x in delta)
        if canonical in seen:
            continue
        seen.add(canonical)
        if quadratic(lattice, canonical) not in _REFLECTION_NORMS:
            continue
        try:
            coeffs = _reflection_coeffs(lattice, canonical)
        except (IsotropicReflectionVector, NotIntegralReflection):
            continue
        _certify_rank_one(lattice, canonical, coeffs)  # the matrix the update stands for
        pool.append(_PoolReflection(canonical, ((_nonzero(-d for d in canonical), _nonzero(coeffs)),)))
    return tuple(pool)


def _random_transvection(lattice: Lattice, start: int, rng: random.Random) -> _RowUpdate:
    which = rng.choice((0, 1))
    e = [0] * lattice.rank
    e[start + which] = 1
    partner = start + (1 - which)
    x = [rng.randint(-2, 2) for _ in range(lattice.rank)]
    x[partner] = 0  # kills <x, e>
    ge, gx, half = _transvection_terms(lattice, e, x)
    # the transvection matrix is I + (x - half e) ge^T - e gx^T
    return (
        (_nonzero(a - half * b for a, b in zip(x, e)), _nonzero(ge)),
        (_nonzero(-b for b in e), _nonzero(gx)),
    )


def _apply_update(word: list[list[int]], update: _RowUpdate) -> None:
    """word <- (I + sum of u v^T) word, in place."""
    combos = []
    for u, v in update:
        acc = [0] * len(word)
        for c, k in v:
            acc = [a + k * w for a, w in zip(acc, word[c])]
        combos.append((u, acc))
    for u, acc in combos:
        for r, k in u:
            word[r] = [w + k * a for w, a in zip(word[r], acc)]


# a word's cost is quadratic in its length, its entries gaining about 0.68 bits
# a step: 10^4 generators on Lminus take about 0.5-0.7 s, 6.5 * 10^4 about 12 s
MAX_WORD_LENGTH = 10**4


def check_word_length(length: int) -> None:
    """Refuse a word past MAX_WORD_LENGTH with LimitExceeded, before anything is drawn."""
    if length > MAX_WORD_LENGTH:
        raise LimitExceeded(f"isometry words hold at most {MAX_WORD_LENGTH} generators, got {length}")


# generator steps one suite draws, its word count times max(word length, 1), so
# a word of length 0 still counts one step; the default suites take 8,000
# (invariance) and 40,000 (connectivity) steps
SUITE_WORD_BUDGET = 10**5


def check_word_budget(words: int, length: int) -> None:
    """Refuse, with LimitExceeded, a word past MAX_WORD_LENGTH, then a suite past SUITE_WORD_BUDGET."""
    check_word_length(length)
    if words * max(length, 1) > SUITE_WORD_BUDGET:
        raise LimitExceeded(
            f"suites draw at most {SUITE_WORD_BUDGET} generators in all, got {words} words of length {length}"
        )


def sample_word(lattice: Lattice, seed: int, length: int) -> Isometry:
    """Deterministic product of `length` random generators; length 0 is the identity.

    The product is accumulated as mutable rows, one sparse update per step, and
    certified once when the Isometry is built. A length past MAX_WORD_LENGTH is
    refused with LimitExceeded, and a lattice other than the built-in Lminus
    and U2U with NoGeneratorRecipe, before any pool is scanned.
    """
    check_counts(length=length)
    check_word_length(length)
    if lattice.name not in _SAMPLED or not is_builtin(lattice):
        raise NoGeneratorRecipe(f"no sampling recipe for lattice {lattice.name!r}")
    pool = _recipe_pool(lattice.name)
    _, _, swaps, transvection_start = _blocks(lattice)
    rng = random.Random(seed)
    word = [list(row) for row in intmat.identity(lattice.rank)]
    sign = 1  # -I commutes with every step, so the negations are applied once, at the end
    for _ in range(length):  # word <- step . word
        kind = rng.choice(_KINDS)
        if kind == "reflection":
            _apply_update(word, rng.choice(pool).update)
        elif kind == "transvection":
            _apply_update(word, _random_transvection(lattice, transvection_start, rng))
        elif kind == "swap":
            s = rng.choice(swaps)
            word[s], word[s + 1] = word[s + 1], word[s]
        else:
            sign = -sign
    if sign < 0:
        word = [[-w for w in row] for row in word]
    return Isometry(lattice, tuple(map(tuple, word)))
