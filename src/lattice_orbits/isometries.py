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

Each generator is written once, as the sparse step sample_word applies: the
rank-one I - delta c^T of a reflection, the rank-two update of a transvection,
the exchange of rows s and s + 1 for a block swap, and one sign flag for the
negations (-I commutes with every step). The public generators apply that
step to the identity and certify the result; tests check each step against
its textbook formula.

Words are drawn only on Lminus and U2U, the lattices the suites sample, from
one generator table per name (_generators) whose blocks are read off the
split tag: reflections in a fixed list of roots (the window roots, and on
Lminus the Coxeter roots of E8(2) + U(2) = E10(2)), block swaps, negation,
and transvections along the U block. Every other lattice, I_s_t and the half
targets included, is refused with NoGeneratorRecipe before anything is built.
The same seed and length give the same matrix.

A word is certified once, at the end, through Isometry like any other matrix.
Each pool reflection is certified when the table is built, as the rank-one
step it is stored as, in O(n^2) integer operations (_certify_rank_one); each
transvection's preconditions are checked when it is drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import matrix as intmat
from .enumeration import check_counts
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


_Terms = list[tuple[int, int]]  # (index, value) pairs of a vector's nonzero entries
# A sparse step: the matrix I + sum of u v^T over its (u, v) pairs. Applied to
# a word on the left, it rewrites only the rows where some u is nonzero.
_RowUpdate = tuple[tuple[_Terms, _Terms], ...]


def _nonzero(values) -> _Terms:
    # a list, not tuple(generator): CPython resizes such tuples, which fills the
    # free list of every length a word step produces (about 1 MB held on Lminus)
    return [(i, x) for i, x in enumerate(values) if x]


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


def _swap_rows(word: list, s: int) -> None:
    """word <- P word, in place, with P the exchange of basis vectors s and s + 1."""
    word[s], word[s + 1] = word[s + 1], word[s]


def _step_isometry(lattice: Lattice, update: _RowUpdate) -> Isometry:
    """The matrix of a step, built by applying it to the identity, then certified."""
    rows = [list(row) for row in intmat.identity(lattice.rank)]
    _apply_update(rows, update)
    return Isometry(lattice, intmat.freeze(rows))


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


def _reflection_step(delta, coeffs) -> _RowUpdate:
    """The reflection in delta as the rank-one step I - delta c^T, c = coeffs."""
    return ((_nonzero(-d for d in delta), _nonzero(coeffs)),)


def reflection(lattice: Lattice, delta) -> Isometry:
    """Reflection in a non-isotropic vector, when it is integral on the lattice.

    w -> w - (2<w, delta>/<delta, delta>) delta. Integrality is checked against
    every basis vector before the step is built.
    """
    delta = tuple(delta)
    require_ints(delta, "each coordinate")
    return _step_isometry(lattice, _reflection_step(delta, _reflection_coeffs(lattice, delta)))


def _transvection_step(lattice: Lattice, e, x) -> _RowUpdate:
    """The transvection along e and x, after its checks, as I + (x - (<x,x>/2) e)(G e)^T - e (G x)^T."""
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
    half = sum(map(mul, x, gx)) // 2
    return (
        (_nonzero(a - half * b for a, b in zip(x, e)), _nonzero(ge)),
        (_nonzero(-b for b in e), _nonzero(gx)),
    )


def transvection(lattice: Lattice, e, x) -> Isometry:
    """Eichler transvection w -> w - <x,w>e + <e,w>x - (<x,x>/2)<e,w>e.

    Needs an even lattice, isotropic e, and x orthogonal to e; then the matrix
    is integral and certifies.
    """
    e, x = tuple(e), tuple(x)
    require_ints(e + x, "each coordinate")
    return _step_isometry(lattice, _transvection_step(lattice, e, x))


def block_swap(lattice: Lattice, start: int) -> Isometry:
    """Exchange basis vectors start and start+1 (hyperbolic block swap); 0 <= start <= rank - 2."""
    require_ints((start,), "the swap start")
    n = lattice.rank
    if not 0 <= start <= n - 2:
        raise RankMismatch(f"cannot swap basis vectors {start} and {start + 1} of a rank-{n} lattice")
    rows = list(intmat.identity(n))
    _swap_rows(rows, start)
    return Isometry(lattice, tuple(rows))


# the built-ins the suites sample; every other lattice has no generator recipe
_SAMPLED = ("Lminus", "U2U")
# both lattices draw every kind; the order fixes which kind each draw picks
_KINDS = ("reflection", "transvection", "swap", "negation")

# the highest root of E8 on make_e8's Bourbaki simple roots
_E8_HIGHEST_ROOT = (2, 3, 4, 6, 5, 4, 3, 2)


def _blocks(lattice: Lattice):
    """(windows, definite blocks, swap starts, transvection start), read off the tag.

    With r the base rank, U(2) and U start at r - 2 and r (both sampled bases
    end in U): each is a reflection window and a swap, and transvections run
    along U. The leading r - 2 coordinates, E8(2) on Lminus, are definite.
    """
    r = lattice.shape.base.rank
    definite = ((0, r - 2),) if r > 2 else ()
    return ((r - 2, r - 1), (r, r + 1)), definite, (r - 2, r), r


def _roots(lattice: Lattice, windows, definite):
    """(1, 1) and (1, -1) in each window, then the Coxeter roots of the E8(2) + U(2) block.

    E8(2) + U(2) is E10(2), and E10 is reflective with the T_{2,3,7} diagram
    (Vinberg, 1972). Its simple roots are the 8 unit vectors of E8(2), theta
    + e with theta the highest root and e the first U(2) basis vector, and
    f - e, which the U(2) window's (1, -1) already is. Those reflections
    generate every E8(2) root reflection, and theta + e mixes the E8(2) and
    U(2) parts of the discriminant group.
    """
    n = lattice.rank
    for a, b in windows:
        for sign in (1, -1):
            delta = [0] * n
            delta[a], delta[b] = 1, sign
            yield tuple(delta)
    for start, stop in definite:
        for i in range(start, stop):
            yield tuple(int(j == i) for j in range(n))
        delta = [0] * n
        delta[start:stop] = _E8_HIGHEST_ROOT
        delta[windows[0][0]] = 1
        yield tuple(delta)


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
def _generators(name: str) -> tuple[tuple[_RowUpdate, ...], tuple[int, ...], int]:
    """A sampled lattice's generator table: (reflection steps, swap starts, transvection start).

    Built once per sampled name, its blocks read off the tag once. The pool
    holds the reflection steps of _roots in order; each is certified as the
    rank-one step it is stored as, and a root that fails raises.
    """
    lattice = resolve(name)
    windows, definite, swaps, transvection_start = _blocks(lattice)
    pool = []
    for delta in _roots(lattice, windows, definite):
        coeffs = _reflection_coeffs(lattice, delta)
        _certify_rank_one(lattice, delta, coeffs)  # the matrix the step stands for
        pool.append(_reflection_step(delta, coeffs))
    return tuple(pool), swaps, transvection_start


def _random_transvection(lattice: Lattice, start: int, rng: random.Random) -> _RowUpdate:
    which = rng.choice((0, 1))
    e = [0] * lattice.rank
    e[start + which] = 1
    x = [rng.randint(-2, 2) for _ in range(lattice.rank)]
    x[start + 1 - which] = 0  # kills <x, e>
    return _transvection_step(lattice, e, x)


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
    and U2U with NoGeneratorRecipe, before any generator table is built.
    """
    check_counts(length=length)
    check_word_length(length)
    if lattice.name not in _SAMPLED or not is_builtin(lattice):
        raise NoGeneratorRecipe(f"no sampling recipe for lattice {lattice.name!r}")
    pool, swaps, transvection_start = _generators(lattice.name)
    rng = random.Random(seed)
    word = [list(row) for row in intmat.identity(lattice.rank)]
    sign = 1  # -I commutes with every step, so the negations are applied once, at the end
    for _ in range(length):  # word <- step . word
        kind = rng.choice(_KINDS)
        if kind == "reflection":
            _apply_update(word, rng.choice(pool))
        elif kind == "transvection":
            _apply_update(word, _random_transvection(lattice, transvection_start, rng))
        elif kind == "swap":
            _swap_rows(word, rng.choice(swaps))
        else:
            sign = -sign
    if sign < 0:
        word = [[-w for w in row] for row in word]
    return Isometry(lattice, tuple(map(tuple, word)))
