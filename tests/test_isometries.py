import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_orbits import isometries
from lattice_orbits.errors import (
    IsotropicReflectionVector,
    LatticeMismatch,
    NegativeCount,
    NoGeneratorRecipe,
    NotIntegralReflection,
    NotIsometry,
    NotIsotropic,
    NotOrthogonal,
    OddLattice,
)
from lattice_orbits.isometries import (
    Isometry,
    apply,
    block_swap,
    certify,
    compose,
    identity,
    negation,
    reflection,
    sample_word,
    transvection,
)
from lattice_orbits.lattices import Lattice, inner, is_even, make_i, resolve
from lattice_orbits.matrix import det, freeze, mat_mul, mat_vec, transpose
from lattice_orbits.matrix import identity as eye
from lattice_orbits.vectors import VectorType, is_primitive, norm, pair, vec, vector_type

LMINUS = resolve("Lminus")


def test_certify_accepts_identity_and_negation():
    certify(LMINUS, eye(12))
    certify(LMINUS, negation(LMINUS).matrix)
    swap = block_swap(LMINUS, 10)
    assert apply(swap, vec(LMINUS, (0,) * 10 + (1, 3))).coords == (0,) * 10 + (3, 1)


def test_certify_rejects_bad_matrices():
    with pytest.raises(NotIsometry):
        certify(LMINUS, tuple(tuple(2 if i == j else 0 for j in range(12)) for i in range(12)))
    with pytest.raises(NotIsometry):
        certify(LMINUS, ((1,),))
    rows = [[1.0 if i == j else 0 for j in range(12)] for i in range(12)]
    with pytest.raises(NotIsometry):
        certify(LMINUS, rows)


def test_certify_rejects_booleans():
    with pytest.raises(NotIsometry, match="^matrix entries must be integers, got True$"):
        certify(resolve("U"), [[True, False], [False, True]])
    with pytest.raises(NotIsometry, match="^matrix entries must be integers, got 1.0$"):
        certify(resolve("U"), [[1.0, 0], [0, 1]])


def test_reflection_in_hyperbolic_root():
    sigma = reflection(LMINUS, (0,) * 10 + (1, -1))
    assert apply(sigma, vec(LMINUS, (0,) * 10 + (1, 3))).coords == (0,) * 10 + (3, 1)
    assert apply(sigma, vec(LMINUS, (0,) * 10 + (1, -1))).coords == (0,) * 10 + (-1, 1)


def test_reflection_in_twisted_summands():
    delta = (1,) + (0,) * 11  # norm -4 vector of the E8(2) block
    sigma = reflection(LMINUS, delta)
    assert apply(sigma, vec(LMINUS, delta)).coords == tuple(-c for c in delta)
    reflection(LMINUS, (0,) * 8 + (1, 1, 0, 0))  # norm 4 in the U(2) block


def test_reflection_preconditions():
    with pytest.raises(IsotropicReflectionVector):
        reflection(LMINUS, (0,) * 10 + (1, 0))
    with pytest.raises(NotIntegralReflection):
        reflection(resolve("U"), (1, 2))


def test_reflection_is_involution():
    rng = random.Random(31)
    for delta in ((0,) * 10 + (1, -1), (1,) + (0,) * 11, (0,) * 8 + (1, 1, 0, 0)):
        sigma = reflection(LMINUS, delta)
        assert compose(sigma, sigma).matrix == eye(12)
        v = vec(LMINUS, tuple(rng.randint(-3, 3) for _ in range(12)))
        assert apply(sigma, apply(sigma, v)) == v


def test_transvection_identity_case():
    e = (0,) * 10 + (1, 0)
    assert transvection(LMINUS, e, (0,) * 12).matrix == eye(12)


def test_transvection_moves_expected_blocks():
    e = (0,) * 10 + (1, 0)
    x = (1,) + (0,) * 11
    t = transvection(LMINUS, e, x)
    moved = apply(t, vec(LMINUS, (0,) * 8 + (1, 1, 0, 1)))
    assert moved.coords == (1,) + (0,) * 7 + (1, 1, 2, 1)
    assert moved.coords[8:10] == (1, 1)  # U(2) coordinates untouched


def test_transvection_preconditions():
    with pytest.raises(NotIsotropic):
        transvection(LMINUS, (0,) * 10 + (1, 1), (0,) * 12)
    with pytest.raises(NotOrthogonal):
        transvection(LMINUS, (0,) * 10 + (1, 0), (0,) * 10 + (0, 1))
    with pytest.raises(OddLattice):
        transvection(resolve("I_1_1"), (1, 1), (0, 0))


def test_transvection_additivity():
    rng = random.Random(7)
    e = (0,) * 10 + (1, 0)
    for _ in range(30):
        x = [rng.randint(-2, 2) for _ in range(12)]
        y = [rng.randint(-2, 2) for _ in range(12)]
        x[11] = y[11] = 0  # keeps both orthogonal to e
        lhs = compose(transvection(LMINUS, e, x), transvection(LMINUS, e, y))
        rhs = transvection(LMINUS, e, tuple(a + b for a, b in zip(x, y)))
        assert lhs.matrix == rhs.matrix


def test_apply_contracts():
    rng = random.Random(13)
    for _ in range(50):
        g = sample_word(LMINUS, rng.randrange(2**32), 6)
        v = vec(LMINUS, tuple(rng.randint(-3, 3) for _ in range(12)))
        w = vec(LMINUS, tuple(rng.randint(-3, 3) for _ in range(12)))
        gv, gw = apply(g, v), apply(g, w)
        assert norm(gv) == norm(v)
        assert pair(gv, gw) == pair(v, w)
        assert vector_type(gv) is vector_type(v)
        if any(v.coords):
            assert is_primitive(gv) == is_primitive(v)
    with pytest.raises(LatticeMismatch):
        apply(identity(LMINUS), vec(resolve("U2U"), (0, 0, 1, 0)))


def test_compose_contracts():
    rng = random.Random(17)
    g = sample_word(LMINUS, 1, 5)
    h = sample_word(LMINUS, 2, 5)
    v = vec(LMINUS, tuple(rng.randint(-3, 3) for _ in range(12)))
    assert apply(compose(g, h), v) == apply(g, apply(h, v))
    with pytest.raises(LatticeMismatch):
        compose(identity(LMINUS), identity(resolve("U2U")))


def test_sample_word_determinism():
    for name in ("Lminus", "U2U", "I_2_2", "U_I11", "E8_U_I11"):
        lattice = resolve(name)
        assert sample_word(lattice, 0, 0).matrix == eye(lattice.rank)
        a = sample_word(lattice, 99, 8)
        b = sample_word(lattice, 99, 8)
        assert a.matrix == b.matrix


def test_sample_word_certifies_everywhere():
    rng = random.Random(41)
    for name in ("Lminus", "U2U", "I_2_2", "U_I11", "E8_U_I11", "I_1_2"):
        lattice = resolve(name)
        for _ in range(100):
            word = sample_word(lattice, rng.randrange(2**32), 8)
            assert isinstance(word, Isometry)  # construction already certified
            certify(lattice, word.matrix)


def test_sample_word_mixes_vectors():
    seen = {
        apply(sample_word(LMINUS, seed, 8), vec(LMINUS, (0,) * 10 + (1, 3))).coords
        for seed in range(40)
    }
    assert len(seen) > 5


def test_no_recipe():
    with pytest.raises(NoGeneratorRecipe):
        sample_word(resolve("Lambda"), 1, 3)
    with pytest.raises(NoGeneratorRecipe):
        sample_word(resolve("E8"), 1, 3)


def test_sample_word_rejects_negative_length():
    with pytest.raises(NegativeCount):
        sample_word(LMINUS, 1, -1)


# sha256 over f"{seed} {length} {matrix!r}\n" for seeds 0-49 and lengths 0, 1, 4,
# 8, 16, recorded from the dense per-step product that sample_word computed
# before words were composed as sparse row updates
PINNED_WORD_DIGESTS = {
    "Lminus": "bc198cb38342549b8d6e7c3eb4c07eb99cba66725d7c0a4cccefc6e784df4e44",
    "U2U": "b55a8d4ed5f8309d033869861df8eca432e4ad2e7de65616a2bc13a030ef64be",
    "U_I11": "3cea26b5c43b3a27de37d770e7eaae8423494e74da062efb9d0fc37afe0d230e",
    "E8_U_I11": "feb023b59c874970dad6d08412a746011df6f9e6b38a0e17eec094b504914ab0",
    "I_2_2": "3db915436893b0b712025b9b121704d6eda74bc51e117f12aa4bc2db273ae8c6",
    "I_1_2": "f0c131c754550a5e1bb98e2ecbefdc3d4b117b6703627203d437c0e37dd01e4a",
}


@pytest.mark.parametrize("name", sorted(PINNED_WORD_DIGESTS))
def test_sample_word_pinned_digest(name):
    lattice = resolve(name)
    digest = hashlib.sha256()
    for seed in range(50):
        for length in (0, 1, 4, 8, 16):
            digest.update(f"{seed} {length} {sample_word(lattice, seed, length).matrix!r}\n".encode())
    assert digest.hexdigest() == PINNED_WORD_DIGESTS[name]


def dense_word(lattice, seed, length):
    """The word as a dense product of certified public generators.

    Draws the RNG in the same order as sample_word: the kind, then the pool
    entry, the transvection's (which, x) or the swap block.
    """
    recipe = isometries._recipe_for(lattice)
    pool = [reflection(lattice, entry.delta) for entry in isometries._generator_pool(lattice)]
    kinds = []
    if pool:
        kinds.append("reflection")
    if recipe.transvection_block is not None and is_even(lattice):
        kinds.append("transvection")
    if recipe.swap_blocks:
        kinds.append("swap")
    kinds.append("negation")
    rng = random.Random(seed)
    n = lattice.rank
    word = identity(lattice)
    for _ in range(length):
        kind = rng.choice(kinds)
        if kind == "reflection":
            step = rng.choice(pool)
        elif kind == "transvection":
            start = recipe.transvection_block
            which = rng.choice((0, 1))
            e = [0] * n
            e[start + which] = 1
            x = [rng.randint(-2, 2) for _ in range(n)]
            x[start + 1 - which] = 0
            step = transvection(lattice, e, x)
        elif kind == "swap":
            step = block_swap(lattice, rng.choice(recipe.swap_blocks))
        else:
            step = negation(lattice)
        word = compose(step, word)
    return word.matrix


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(PINNED_WORD_DIGESTS)),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 20),
)
def test_sample_word_matches_dense_product(name, seed, length):
    lattice = resolve(name)
    assert sample_word(lattice, seed, length).matrix == dense_word(lattice, seed, length)


def test_warm_sample_word_certifies_once(monkeypatch):
    sample_word(LMINUS, 0, 1)  # builds and certifies the reflection pool
    certified = []
    post_init = Isometry.__post_init__

    def counted(self):
        certified.append(self)
        post_init(self)

    monkeypatch.setattr(Isometry, "__post_init__", counted)
    for seed, length in ((3, 0), (4, 1), (5, 8), (6, 16), (7, 40)):
        certified.clear()
        word = sample_word(LMINUS, seed, length)
        assert certified == [word]


@pytest.mark.parametrize(
    "name, seed, length, size",
    [("I_12_8", 3, 8, 20 + 2 * (12 * 11 // 2 + 8 * 7 // 2)), ("I_2_1", 5, 40, 3 + 2)],
)
def test_warm_i_s_t_word_certifies_only_its_draws(monkeypatch, name, seed, length, size):
    lattice = resolve(name)
    before = sample_word(lattice, seed, length)  # warms every cache a word may use
    pools = []
    certified = []
    post_init = Isometry.__post_init__

    class RecordedPool(isometries._DiagonalPool):
        def __init__(self, lattice):
            super().__init__(lattice)
            pools.append(self)

    def counted(self):
        certified.append(self)
        post_init(self)

    monkeypatch.setattr(isometries, "_DiagonalPool", RecordedPool)
    monkeypatch.setattr(Isometry, "__post_init__", counted)
    word = sample_word(lattice, seed, length)
    assert word == before
    [pool] = pools
    assert len(pool) == size
    # one certification per distinct drawn reflection, then the word itself
    assert 0 < len(pool.entries) <= min(size, length)
    assert len(certified) == len(pool.entries) + 1 and certified[-1] is word


def test_corrupt_sparse_step_is_refused(monkeypatch):
    real = isometries._apply_update
    corrupted = []

    def flip_one_row_once(word, update):
        real(word, update)
        if not corrupted:
            row = update[0][0][0][0]  # first row the step moves
            word[row] = [-w for w in word[row]]  # det stays +-1; only the form check sees it
            corrupted.append(row)

    monkeypatch.setattr(isometries, "_apply_update", flip_one_row_once)
    for seed in range(5):
        corrupted.clear()
        with pytest.raises(NotIsometry):
            sample_word(LMINUS, seed, 16)
        assert corrupted  # the word did contain a sparse step


def test_det_check_runs_where_det_g_is_not_known():
    # M^T G M = G holds for each of these, but det M = 2
    with pytest.raises(NotIsometry, match="invertible"):
        Isometry(Lattice("Z0", 1, ((0,),)), ((2,),))
    with pytest.raises(NotIsometry, match="invertible"):
        Isometry(Lattice("Lminus", 2, ((0, 0), (0, 0))), ((2, 0), (0, 1)))
    rows = [list(row) for row in LMINUS.gram]  # Lminus with e_0 in the radical
    rows[0] = [0] * 12
    for row in rows:
        row[0] = 0
    degenerate = Lattice("Lminus", 12, freeze(rows))
    scaled = [list(row) for row in eye(12)]
    scaled[0][0] = 2
    with pytest.raises(NotIsometry, match="invertible"):
        certify(degenerate, scaled)


def _dense_isometry(gram, m) -> bool:
    return mat_mul(transpose(m), mat_mul(gram, m)) == gram and abs(det(m)) == 1


@st.composite
def _lattice_and_matrix(draw):
    builtin = draw(st.none() | st.sampled_from(("U", "U2", "U2U", "U_I11", "I_1_1", "I_2_1", "I_1_3")))
    if builtin is None:
        n = draw(st.integers(1, 5))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(st.integers(-2, 2))
        radical = draw(st.none() | st.integers(0, n - 1))
        if radical is not None:  # a degenerate form
            rows[radical] = [0] * n
            for row in rows:
                row[radical] = 0
        lattice = Lattice(draw(st.sampled_from(("T", "Z0", "Lminus", "U"))), n, freeze(rows))
    else:
        lattice = resolve(builtin)
    n = lattice.rank
    kind = draw(st.sampled_from(("random", "signed permutation", "scaled axis", "shear")))
    if kind == "random":
        m = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    elif kind == "signed permutation":
        perm = draw(st.permutations(range(n)))
        m = [[draw(st.sampled_from((1, -1))) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    else:
        m = [list(row) for row in eye(n)]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "scaled axis":
            m[i][i] = draw(st.integers(-3, 3))
        elif i != j:
            m[i][j] = draw(st.integers(-2, 2))
    v = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    w = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    return lattice, freeze(m), v, w


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_lattice_and_matrix())
@example((Lattice("Z0", 1, ((0,),)), ((2,),), (1,), (1,)))  # form kept, det 2
@example((Lattice("T", 2, ((0, 0), (0, 0))), ((1, 1), (0, 1)), (1, 0), (0, 1)))  # accepted
@example((resolve("U"), ((0, 1), (1, 0)), (1, 1), (1, -1)))  # accepted, det check skipped
def test_sparse_forms_agree_with_dense_definitions(case):
    lattice, m, v, w = case
    g = lattice.gram
    n = lattice.rank
    assert inner(lattice, v, w) == sum(v[i] * g[i][j] * w[j] for i in range(n) for j in range(n))
    gv = mat_vec(g, v)
    characteristic = all((gv[i] - g[i][i]) % 2 == 0 for i in range(n))
    assert (vector_type(vec(lattice, v)) is VectorType.CHARACTERISTIC) is characteristic
    try:
        Isometry(lattice, m)
        accepted = True
    except NotIsometry:
        accepted = False
    assert accepted is _dense_isometry(g, m)


def test_diagonal_pool_matches_the_window_scan():
    for s in range(5):
        for t in range(5):
            if s + t == 0:
                continue
            lattice = make_i(s, t)
            idx = range(s + t)
            windows = tuple((i,) for i in idx) + tuple((i, j) for i in idx for j in idx if i < j)
            scanned = isometries._scan_pool(lattice, isometries._Recipe(windows, (), (), None))
            assert tuple(isometries._generator_pool(lattice)) == scanned, (s, t)


def test_pools_are_kept_per_recipe_name_only():
    for s in range(1, 5):
        sample_word(make_i(s, 1), 0, 3)
    for name in isometries._RECIPES:
        sample_word(resolve(name), 0, 1)
    info = isometries._recipe_pool.cache_info()
    assert info.currsize == info.maxsize == len(isometries._RECIPES)
