import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_orbits import isometries, lattices
from lattice_orbits.errors import (
    IsotropicReflectionVector,
    LatticeError,
    LatticeMismatch,
    LimitExceeded,
    NegativeCount,
    NoGeneratorRecipe,
    NotInteger,
    NotIntegralReflection,
    NotIsometry,
    NotIsotropic,
    NotOrthogonal,
    OddLattice,
    RankMismatch,
)
from lattice_orbits.isometries import (
    MAX_WORD_LENGTH,
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
from lattice_orbits.lattices import Lattice, inner, resolve, twisted_plus_u
from lattice_orbits.matrix import det, freeze, mat_mul, mat_vec
from lattice_orbits.matrix import identity as eye
from lattice_orbits.vectors import VectorType, is_primitive, norm, pair, vec, vector_type
from support import SAMPLING_BLOCKS, textbook_reflection, textbook_swap, textbook_transvection, transpose

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


def test_generators_refuse_non_integer_coordinates():
    # before, reflection(U, (1.7, -1.2)) reflected in (1, -1)
    u = resolve("U")
    with pytest.raises(NotInteger, match="^each coordinate must be an integer, got 1.7$"):
        reflection(u, (1.7, -1.2))
    with pytest.raises(NotInteger, match="^each coordinate must be an integer, got True$"):
        reflection(u, (True, -1))
    e = (0,) * 10 + (1, 0)
    with pytest.raises(NotInteger, match="^each coordinate must be an integer, got 1.0$"):
        transvection(LMINUS, e[:10] + (1.0, 0), (0,) * 12)
    with pytest.raises(NotInteger, match="^each coordinate must be an integer, got '1'$"):
        transvection(LMINUS, e, ("1",) + (0,) * 11)
    assert reflection(u, [1, -1]).matrix == ((0, 1), (1, 0))  # any int sequence still reads


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


def test_block_swap_checks_its_start():
    u = resolve("U")
    assert block_swap(u, 0).matrix == ((0, 1), (1, 0))
    for lattice, start in ((u, 1), (LMINUS, 11), (LMINUS, -2), (LMINUS, -1)):
        with pytest.raises(RankMismatch, match=(
            f"^cannot swap basis vectors {start} and {start + 1} of a rank-{lattice.rank} lattice$"
        )):
            block_swap(lattice, start)
    for start in (2.0, True, "10"):
        with pytest.raises(NotInteger, match=f"^the swap start must be an integer, got {start!r}$"):
            block_swap(LMINUS, start)


def test_rank_refusals_come_before_any_step_or_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("a step or a matrix was built")

    monkeypatch.setattr(isometries, "_nonzero", refuse)
    monkeypatch.setattr(isometries, "_step_isometry", refuse)
    with pytest.raises(RankMismatch, match="^expected 12 coordinates$"):
        reflection(LMINUS, (1, 0))
    with pytest.raises(RankMismatch, match="^expected 12 coordinates$"):
        transvection(LMINUS, (0,) * 10 + (1, 0), (1, 0))
    monkeypatch.setattr(lattices, "gram_terms", refuse)
    with pytest.raises(RankMismatch, match="^gram matrix is not 2x2$"):
        Lattice("x", 2, ((0, 1), (1,)))


def test_a_corrupted_step_fails_the_public_generators(monkeypatch):
    # the public generators build their matrix with the sampler's step, then
    # certify it; a step that went wrong is refused, not handed out
    real = isometries._apply_update
    corrupted = []

    def flip_first_moved_row(rows, update):
        real(rows, update)
        row = update[0][0][0][0]
        rows[row] = [-w for w in rows[row]]  # det stays +-1; only the form check sees it
        corrupted.append(row)

    monkeypatch.setattr(isometries, "_apply_update", flip_first_moved_row)
    with pytest.raises(NotIsometry, match="^matrix does not preserve the form$"):
        reflection(LMINUS, (0,) * 10 + (1, -1))
    with pytest.raises(NotIsometry, match="^matrix does not preserve the form$"):
        transvection(LMINUS, (0,) * 10 + (1, 0), (1,) + (0,) * 11)
    assert corrupted == [10, 0]


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
    for name in ("Lminus", "U2U"):
        lattice = resolve(name)
        assert sample_word(lattice, 0, 0).matrix == eye(lattice.rank)
        a = sample_word(lattice, 99, 8)
        b = sample_word(lattice, 99, 8)
        assert a.matrix == b.matrix


def test_sample_word_certifies_everywhere():
    rng = random.Random(41)
    for name in ("Lminus", "U2U"):
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


def test_no_recipe(monkeypatch):
    def refuse(name):
        raise AssertionError("a generator table was built")

    monkeypatch.setattr(isometries, "_generators", refuse)
    refused = [resolve(name) for name in ("Lambda", "E8", "I_2_2", "E8_U_I11", "U_I11")]
    refused.append(twisted_plus_u(resolve("U"), name="V2V"))  # tagged like U2U, but not a built-in
    refused.append(twisted_plus_u(resolve("U"), name="Lminus"))  # a recipe name on another lattice
    for lattice in refused:
        with pytest.raises(NoGeneratorRecipe, match=f"^no sampling recipe for lattice '{lattice.name}'$"):
            sample_word(lattice, 1, 3)


def test_sample_word_rejects_negative_length():
    with pytest.raises(NegativeCount):
        sample_word(LMINUS, 1, -1)


def test_sample_word_refuses_a_word_past_the_cap_before_any_work(monkeypatch):
    u2u = resolve("U2U")
    assert sample_word(u2u, 1, MAX_WORD_LENGTH).lattice == u2u  # the cap itself runs

    def refuse(name):
        raise AssertionError("the generator table was built")

    monkeypatch.setattr(isometries, "_generators", refuse)
    with pytest.raises(LimitExceeded, match=r"^isometry words hold at most 10000 generators, got 10001$"):
        sample_word(LMINUS, 1, MAX_WORD_LENGTH + 1)


# sha256 over f"{seed} {length} {matrix!r}\n" for seeds 0-49 and lengths 0, 1, 4,
# 8, 16, recorded from the dense per-step product that sample_word computed
# before words were composed as sparse row updates
PINNED_WORD_DIGESTS = {
    "Lminus": "bc198cb38342549b8d6e7c3eb4c07eb99cba66725d7c0a4cccefc6e784df4e44",
    "U2U": "b55a8d4ed5f8309d033869861df8eca432e4ad2e7de65616a2bc13a030ef64be",
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
    """The word as a dense product of the textbook generator matrices.

    Draws the RNG in the same order as sample_word: the kind, then the pool
    entry, the transvection's (which, x) or the swap block. Only the pool's
    deltas come from the library's table.
    """
    _, _, swaps, transvection_start = SAMPLING_BLOCKS[lattice.name]
    n = lattice.rank
    pool = [textbook_reflection(lattice, _step_terms(step, n)[0]) for step in isometries._generators(lattice.name)[0]]
    kinds = ("reflection", "transvection", "swap", "negation")
    rng = random.Random(seed)
    word = eye(n)
    for _ in range(length):
        kind = rng.choice(kinds)
        if kind == "reflection":
            step = rng.choice(pool)
        elif kind == "transvection":
            start = transvection_start
            which = rng.choice((0, 1))
            e = [0] * n
            e[start + which] = 1
            x = [rng.randint(-2, 2) for _ in range(n)]
            x[start + 1 - which] = 0
            step = textbook_transvection(lattice, e, x)
        elif kind == "swap":
            step = textbook_swap(lattice, rng.choice(swaps))
        else:
            step = tuple(tuple(-x for x in row) for row in eye(n))
        word = mat_mul(step, word)
    return word


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


@st.composite
def _generator_case(draw):
    """(lattice, public generator, its textbook matrix, arguments), valid or not."""
    source = draw(st.sampled_from(("Lminus", "U2U", "U", "random")))
    if source == "random":  # mostly an even form, degenerate ones included; odd ones meet OddLattice
        n = draw(st.integers(1, 5))
        diagonal = st.sampled_from((-2, 0, 2)) if draw(st.integers(0, 4)) else st.integers(-2, 2)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = draw(diagonal)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = draw(st.integers(-2, 2))
        lattice = Lattice("T", n, freeze(rows))
    else:
        lattice = resolve(source)
    n, g = lattice.rank, lattice.gram
    size = draw(st.sampled_from((n,) * 8 + (n - 1, n + 1)))  # mostly the right rank
    coords = st.lists(st.integers(-2, 2), min_size=size, max_size=size).map(tuple)
    kind = draw(st.sampled_from(("reflection", "transvection", "swap")))
    if kind == "reflection":
        delta = draw(coords)
        if len(delta) == n and draw(st.booleans()):  # e_i or e_i +- e_j, more often integral
            i, j, s = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.sampled_from((0, 1, -1)))
            delta = tuple(int(k == i) + (s if k == j != i else 0) for k in range(n))
        return lattice, reflection, textbook_reflection, (delta,)
    if kind == "swap":
        start = draw(st.sampled_from((1.0, True)) if draw(st.integers(0, 5)) == 0 else st.integers(-2, n))
        return lattice, block_swap, textbook_swap, (start,)
    isotropic = [i for i in range(n) if g[i][i] == 0]
    x = draw(coords)
    if isotropic and draw(st.booleans()):  # an isotropic basis vector, and mostly an x orthogonal to it
        i = draw(st.sampled_from(isotropic))
        e = tuple(int(j == i) for j in range(n))
        if len(x) == n and draw(st.booleans()):
            x = tuple(0 if g[i][j] else c for j, c in enumerate(x))
    else:
        e = draw(coords)
    return lattice, transvection, textbook_transvection, (e, x)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_generator_case())
@example((resolve("U"), block_swap, textbook_swap, (1,)))
@example((LMINUS, block_swap, textbook_swap, (3,)))  # a permutation that breaks the E8(2) form
@example((LMINUS, transvection, textbook_transvection, ((0,) * 10 + (1, 0), (1,) + (0,) * 9 + (2, 0))))
@example((resolve("U_I11"), transvection, textbook_transvection, ((1, 0), (0, 0))))  # odd before rank
def test_public_generators_are_their_textbook_matrices(case):
    lattice, public, textbook, args = case
    try:
        expected = textbook(lattice, *args)
    except LatticeError as exc:
        with pytest.raises(LatticeError) as refused:
            public(lattice, *args)
        assert type(refused.value) is type(exc)
        return
    if not _dense_isometry(lattice.gram, expected):
        with pytest.raises(NotIsometry):
            public(lattice, *args)
        return
    assert public(lattice, *args).matrix == expected


def test_i_s_t_word_holds_no_pool():
    # I_s_t has no recipe, so a word on a large one is refused before anything is built
    lattice = resolve("I_150_0")
    tracemalloc.start()
    try:
        with pytest.raises(NoGeneratorRecipe):
            sample_word(lattice, 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_pools_are_kept_per_recipe_name_only():
    for name in ("I_2_1", "U_I11", "E8_U_I11"):
        with pytest.raises(NoGeneratorRecipe):
            sample_word(resolve(name), 0, 3)
    for name in SAMPLING_BLOCKS:
        sample_word(resolve(name), 0, 1)
    info = isometries._generators.cache_info()
    assert info.currsize == info.maxsize == len(SAMPLING_BLOCKS) == 2


@pytest.mark.parametrize("name", sorted(SAMPLING_BLOCKS))
def test_blocks_read_off_the_tag_match_the_pinned_literals(name):
    assert isometries._blocks(resolve(name)) == SAMPLING_BLOCKS[name]
    _, swaps, transvection_start = isometries._generators(name)
    assert (swaps, transvection_start) == SAMPLING_BLOCKS[name][2:]


def test_sampling_reads_its_blocks_only_off_the_tag(monkeypatch):
    # the table asks _blocks once and sample_word reads only the table; a
    # second table of block indices would leave one of them unasked
    asked = []
    blocks = isometries._blocks
    monkeypatch.setattr(isometries, "_blocks", lambda lattice: asked.append(lattice.name) or blocks(lattice))
    for name in sorted(SAMPLING_BLOCKS):
        sample_word(resolve(name), 0, 1)  # the cached table is built by now
        asked.clear()
        sample_word(resolve(name), 0, 4)
        assert asked == []
        assert isometries._generators.__wrapped__(name) == isometries._generators(name)
        assert asked == [name]
        asked.clear()


def _rank_one_rows(delta, coeffs):
    """The dense matrix I - delta c^T that a pool entry's update stands for."""
    n = len(delta)
    return freeze([[int(r == c) - delta[r] * coeffs[c] for c in range(n)] for r in range(n)])


def _step_terms(step, n):
    """(delta, c) of a pool step I - delta c^T, read off its one (u, v) pair, u = -delta."""
    [(u, v)] = step
    delta, coeffs = [0] * n, [0] * n
    for i, k in u:
        delta[i] = -k
    for i, k in v:
        coeffs[i] = k
    return tuple(delta), coeffs


def _pool_entries():
    """(lattice, delta, c) for every reflection step of the two generator tables."""
    return [(resolve(name), *_step_terms(step, resolve(name).rank)) for name in sorted(SAMPLING_BLOCKS)
            for step in isometries._generators(name)[0]]


def test_rank_one_certificate_agrees_with_dense_reflection():
    cases = _pool_entries()
    assert len(cases) == 124 + 4
    for lattice, delta, coeffs in cases:
        isometries._certify_rank_one(lattice, delta, coeffs)
        assert textbook_reflection(lattice, delta) == _rank_one_rows(delta, coeffs)


def test_rank_one_certificate_refuses_a_corrupted_entry():
    for lattice, delta, coeffs in _pool_entries():
        n = lattice.rank
        k = next(i for i in range(n) if coeffs[i])
        bumped = coeffs[:k] + [coeffs[k] + 1] + coeffs[k + 1:]
        moved = delta[:k] + (delta[k] + 1,) + delta[k + 1:]
        for d, c in ((delta, bumped), (moved, coeffs)):
            with pytest.raises(NotIsometry):
                isometries._certify_rank_one(lattice, d, c)
            with pytest.raises(NotIsometry):  # the dense check agrees
                Isometry(lattice, _rank_one_rows(d, c))


@st.composite
def _rank_one_case(draw):
    lattice, _, delta, coeffs = draw(_lattice_and_matrix())
    nd = inner(lattice, delta, delta)
    twice = [2 * x for x in mat_vec(lattice.gram, delta)]
    if nd and all(x % nd == 0 for x in twice) and draw(st.booleans()):
        coeffs = tuple(x // nd for x in twice)  # the reflection in delta
    return lattice, delta, coeffs


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_rank_one_case())
@example((Lattice("Z0", 1, ((0,),)), (1,), (-1,)))  # form kept on a degenerate line, det 2
@example((resolve("U"), (1, 1), (1, 1)))  # the reflection in a norm-2 vector
def test_rank_one_certificate_matches_the_dense_check(case):
    lattice, delta, coeffs = case
    try:
        isometries._certify_rank_one(lattice, delta, coeffs)
        accepted = True
    except NotIsometry:
        accepted = False
    assert accepted is _dense_isometry(lattice.gram, _rank_one_rows(delta, coeffs))
