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

Random words are drawn from curated generator recipes per built-in lattice:
reflections in short vectors (precomputed pools), hyperbolic block swaps,
global negation, and (on even lattices) transvections along an isotropic basis
vector of the unimodular hyperbolic block. Sampling is reproducible: the same
seed and length give the same matrix. The pools of the four fixed recipe
lattices are scanned once per name; an I_s_t pool is closed form, so entry k
is worked out from k when it is drawn and nothing else is built.

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
from .lattices import I_NAME, Lattice, gram_vec, inner, is_builtin, is_even, resolve
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
    nd = inner(lattice, delta, delta)
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
    delta = tuple(int(x) for x in delta)
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
    e = tuple(int(c) for c in e)
    x = tuple(int(c) for c in x)
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


@dataclass(frozen=True)
class _Recipe:
    # coordinate windows scanned with a box of 3 for reflection vectors
    windows: tuple[tuple[int, ...], ...]
    # (start, stop) definite blocks whose short vectors are enumerated exactly
    definite_blocks: tuple[tuple[int, int], ...]
    # start indices of swappable hyperbolic blocks
    swap_blocks: tuple[int, ...]
    # start index of the unimodular U block used for transvections, if any
    transvection_block: int | None


_RECIPES = {
    "Lminus": _Recipe(((8, 9), (10, 11)), ((0, 8),), (8, 10), 10),
    "U2U": _Recipe(((0, 1), (2, 3)), (), (0, 2), 2),
    "E8_U_I11": _Recipe(((8, 9), (10, 11)), ((0, 8),), (8,), None),
    "U_I11": _Recipe(((0, 1), (2, 3)), (), (0,), None),
}

# I_s_t: reflections only, from the closed-form pool of _DiagonalPool
_DIAGONAL_RECIPE = _Recipe((), (), (), None)

_REFLECTION_NORMS = (-1, 1, -2, 2, -4, 4)
_POOL_BOX = 3


def _recipe_for(lattice: Lattice) -> _Recipe:
    if is_builtin(lattice):
        known = _RECIPES.get(lattice.name)
        if known is not None:
            return known
        if I_NAME.fullmatch(lattice.name):
            return _DIAGONAL_RECIPE
    raise NoGeneratorRecipe(f"no sampling recipe for lattice {lattice.name!r}")


def _is_primitive_tuple(coords) -> bool:
    return math.gcd(*coords) == 1


def _reflection_candidates(lattice: Lattice, recipe: _Recipe):
    n = lattice.rank
    values = range(-_POOL_BOX, _POOL_BOX + 1)
    for window in recipe.windows:
        axes = [values if i in window else (0,) for i in range(n)]
        yield from filter(any, box_walk(axes))
    for start, stop in recipe.definite_blocks:
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


def _pool_entry(lattice: Lattice, delta: tuple[int, ...]) -> _PoolReflection:
    coeffs = _reflection_coeffs(lattice, delta)
    _certify_rank_one(lattice, delta, coeffs)  # the matrix the update stands for
    return _PoolReflection(delta, ((_nonzero(-d for d in delta), _nonzero(coeffs)),))


def _generator_pool(lattice: Lattice):
    """Certified reflections for the lattice, deterministic order, sign-deduped.

    A tuple for the fixed recipes; for I_s_t a _DiagonalPool, which builds
    and certifies an entry each time it is indexed.
    """
    if _recipe_for(lattice) is _DIAGONAL_RECIPE:
        return _DiagonalPool(lattice)
    return _recipe_pool(lattice.name)


@lru_cache(maxsize=len(_RECIPES))
def _recipe_pool(name: str) -> tuple[_PoolReflection, ...]:
    """The scanned pool of a fixed recipe lattice, kept once per recipe name."""
    return _scan_pool(resolve(name), _RECIPES[name])


class _DiagonalPool:
    """The pool of I_s_t in closed form, one per call; entry k worked out from k when drawn.

    The basis vectors in order, then e_i + e_j and e_i - e_j for each i < j of
    equal sign: the pool, in its order, that a scan of every one- and
    two-coordinate window finds. Indexing decodes k into a unit vector or into
    (i, j, sign) and builds and certifies that entry, so a word certifies only
    the reflections it draws and holds none of the rest. len and indexing are
    all that rng.choice uses, so the draws match those from the full tuple.
    """

    def __init__(self, lattice: Lattice):
        n = lattice.rank
        self.lattice = lattice
        self.s = s = sum(lattice.gram[i][i] > 0 for i in range(n))
        self.size = n + s * (s - 1) + (n - s) * (n - s - 1)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> _PoolReflection:
        if not 0 <= k < self.size:  # IndexError past the end also ends iteration
            raise IndexError(f"pool index {k} is not in range({self.size})")
        n, s = self.lattice.rank, self.s
        delta = [0] * n
        if k < n:
            delta[k] = 1
        else:
            pair, minus = divmod(k - n, 2)
            i = 0
            while pair >= (row := (s if i < s else n) - 1 - i):  # row i: its pairs (i, j) of equal sign
                pair -= row
                i += 1
            delta[i] = 1
            delta[i + 1 + pair] = -1 if minus else 1
        return _pool_entry(self.lattice, tuple(delta))


def _scan_pool(lattice: Lattice, recipe: _Recipe) -> tuple[_PoolReflection, ...]:
    """Reflections in the recipe's window and definite-block candidates."""
    pool = []
    seen = set()
    for delta in _reflection_candidates(lattice, recipe):
        if not _is_primitive_tuple(delta):
            continue
        canonical = delta
        for c in delta:
            if c != 0:
                if c < 0:
                    canonical = tuple(-x for x in delta)
                break
        if canonical in seen:
            continue
        seen.add(canonical)
        if inner(lattice, canonical, canonical) not in _REFLECTION_NORMS:
            continue
        try:
            pool.append(_pool_entry(lattice, canonical))
        except (IsotropicReflectionVector, NotIntegralReflection):
            continue
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
    refused with LimitExceeded.
    """
    check_counts(length=length)
    check_word_length(length)
    recipe = _recipe_for(lattice)
    pool = _generator_pool(lattice)
    kinds = []
    if pool:
        kinds.append("reflection")
    if recipe.transvection_block is not None and is_even(lattice):
        kinds.append("transvection")
    if recipe.swap_blocks:
        kinds.append("swap")
    kinds.append("negation")
    rng = random.Random(seed)
    word = [list(row) for row in intmat.identity(lattice.rank)]
    sign = 1  # -I commutes with every step, so the negations are applied once, at the end
    for _ in range(length):  # word <- step . word
        kind = rng.choice(kinds)
        if kind == "reflection":
            _apply_update(word, rng.choice(pool).update)
        elif kind == "transvection":
            _apply_update(word, _random_transvection(lattice, recipe.transvection_block, rng))
        elif kind == "swap":
            s = rng.choice(recipe.swap_blocks)
            word[s], word[s + 1] = word[s + 1], word[s]
        else:
            sign = -sign
    if sign < 0:
        word = [[-w for w in row] for row in word]
    return Isometry(lattice, tuple(map(tuple, word)))
