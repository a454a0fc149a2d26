import ast
import copy
import dataclasses
import hashlib
import io
import json
import pickle
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_orbits import jsonio, lattices, matrix
from lattice_orbits.cli import run
from lattice_orbits.dilatation import HalfVector, dilate, half_target
from lattice_orbits.errors import (
    EmptyLattice,
    LatticeError,
    LatticeShapeMismatch,
    NotInteger,
    RankMismatch,
    UnknownLattice,
    ZeroTwist,
)
from lattice_orbits.lattices import (
    Lattice,
    Signature,
    base_plus_i11,
    builtin_names,
    direct_sum,
    inner,
    is_builtin,
    is_even,
    make_e8,
    make_i,
    make_u,
    quadratic,
    resolve,
    signature,
    signature_and_determinant,
    twist,
    twisted_plus_u,
)
from lattice_orbits.orbits import (
    ClassificationReport,
    HeegnerComponent,
    HeegnerReport,
    OrbitLabel,
    WitnessResult,
    classify,
    is_even_type,
)
from lattice_orbits.vectors import LatticeVector, VectorType, vec
from support import Twins, transpose, wall_congruence_holds


def test_u_gram_and_determinant():
    u = make_u()
    assert u.gram == ((0, 1), (1, 0))
    assert signature_and_determinant(u)[1] == -1
    assert is_even(u) and abs(signature_and_determinant(u)[1]) == 1


def test_e8_shape():
    e8 = make_e8()
    assert e8.rank == 8
    assert all(e8.gram[i][i] == -2 for i in range(8))
    assert signature_and_determinant(e8)[1] == 1
    sig = signature(e8)
    assert (sig.positive, sig.negative, sig.zero) == (0, 8, 0)
    assert is_even(e8) and abs(signature_and_determinant(e8)[1]) == 1


def test_e8_offdiagonal_entries():
    e8 = make_e8()
    ones = sum(
        1 for i in range(8) for j in range(i + 1, 8) if e8.gram[i][j] == 1
    )
    assert ones == 7  # tree with 8 nodes
    assert all(
        e8.gram[i][j] in (0, 1) for i in range(8) for j in range(8) if i != j
    )


def test_make_i():
    i11 = make_i(1, 1)
    assert i11.gram == ((1, 0), (0, -1))
    assert not is_even(i11)
    sig = signature(make_i(3, 2))
    assert (sig.positive, sig.negative, sig.zero) == (3, 2, 0)
    with pytest.raises(EmptyLattice):
        make_i(0, 0)
    with pytest.raises(RankMismatch):
        make_i(-1, 2)


def test_twist():
    u2 = twist(make_u(), 2)
    assert u2.gram == ((0, 2), (2, 0))
    assert abs(signature_and_determinant(u2)[1]) != 1
    assert twist(make_u(), 1) == make_u()
    e82 = twist(make_e8(), 2)
    assert all(e82.gram[i][i] == -4 for i in range(8))
    with pytest.raises(ZeroTwist):
        twist(make_u(), 0)


def test_direct_sum_blocks():
    s = direct_sum(make_u(), make_i(1, 1))
    assert s.rank == 4
    for i in range(2):
        for j in range(2, 4):
            assert s.gram[i][j] == 0 and s.gram[j][i] == 0
    assert s.gram[0][1] == 1 and s.gram[2][2] == 1 and s.gram[3][3] == -1


def test_direct_sum_signature_additive():
    rng = random.Random(3)
    for _ in range(20):
        a = make_i(rng.randint(0, 2) + 1, rng.randint(0, 2))
        b = make_i(rng.randint(0, 2), rng.randint(0, 2) + 1)
        sa, sb = signature(a), signature(b)
        ss = signature(direct_sum(a, b))
        assert (ss.positive, ss.negative) == (
            sa.positive + sb.positive,
            sa.negative + sb.negative,
        )


def test_lminus_structure():
    lminus = resolve("Lminus")
    assert lminus.rank == 12
    sig = signature(lminus)
    assert (sig.positive, sig.negative, sig.zero) == (2, 10, 0)
    assert signature_and_determinant(lminus)[1] == 1024  # 2^8 * 1 * (-4) * (-1)
    assert is_even(lminus)
    # block layout: E8(2) at 0..7, U(2) at 8..9, U at 10..11
    assert lminus.gram[0][0] == -4
    assert lminus.gram[8][9] == 2
    assert lminus.gram[10][11] == 1


def test_lambda_structure():
    lam = resolve("Lambda")
    assert lam.rank == 22
    assert is_even(lam) and abs(signature_and_determinant(lam)[1]) == 1
    sig = signature(lam)
    assert (sig.positive, sig.negative) == (3, 19)


def test_inner_values():
    u = make_u()
    assert inner(u, (1, 0), (0, 1)) == 1
    lminus = resolve("Lminus")
    for n in (-2, 0, 3, 7):
        v = (0,) * 10 + (1, n)
        assert inner(lminus, v, v) == 2 * n
    assert inner(u, (0, 0), (5, -3)) == 0
    with pytest.raises(RankMismatch):
        inner(u, (1, 0, 0), (0, 1))


def test_inner_symmetric_bilinear():
    lminus = resolve("Lminus")
    rng = random.Random(11)
    for _ in range(50):
        v = tuple(rng.randint(-4, 4) for _ in range(12))
        w = tuple(rng.randint(-4, 4) for _ in range(12))
        x = tuple(rng.randint(-4, 4) for _ in range(12))
        assert inner(lminus, v, w) == inner(lminus, w, v)
        vw = tuple(a + b for a, b in zip(v, w))
        assert inner(lminus, vw, x) == inner(lminus, v, x) + inner(lminus, w, x)


def test_is_even_matches_random_norms():
    rng = random.Random(5)
    for name in ("U", "E8", "I_2_2", "Lminus", "U2U"):
        lattice = resolve(name)
        even = is_even(lattice)
        for _ in range(1000):
            v = tuple(rng.randint(-3, 3) for _ in range(lattice.rank))
            if inner(lattice, v, v) % 2 != 0:
                assert not even
                break
        else:
            assert even


def test_signature_degenerate():
    flat = Lattice("flat", 2, ((0, 0), (0, 0)))
    sig = signature(flat)
    assert sig.zero == 2
    line = Lattice("line", 2, ((2, 2), (2, 2)))
    sig = signature(line)
    assert (sig.positive, sig.negative, sig.zero) == (1, 0, 1)


def test_signature_zero_diagonal_pivot():
    sig = signature(make_u())
    assert (sig.positive, sig.negative, sig.zero) == (1, 1, 0)
    u2u = resolve("U2U")
    sig = signature(u2u)
    assert (sig.positive, sig.negative, sig.zero) == (2, 2, 0)


def test_lattice_validation():
    with pytest.raises(LatticeShapeMismatch):
        Lattice("bad", 2, ((0, 1), (2, 0)))
    with pytest.raises(RankMismatch):
        Lattice("bad", 3, ((0, 1), (1, 0)))
    with pytest.raises(EmptyLattice):
        Lattice("bad", 0, ())


@pytest.mark.parametrize(
    "rank, gram, message",
    [
        (2, ((0.5, 1), (1, 0)), "each gram entry must be an integer, got 0.5"),
        (2, ((0, 1), (1, 0.0)), "each gram entry must be an integer, got 0.0"),
        (2, ((0, True), (True, 0)), "each gram entry must be an integer, got True"),
        (2, ((0, "1"), ("1", 0)), "each gram entry must be an integer, got '1'"),
        (2.0, ((0, 1), (1, 0)), "the lattice rank must be an integer, got 2.0"),
    ],
)
def test_lattice_refuses_a_non_integer_rank_or_gram_entry(rank, gram, message):
    # before, the first was accepted and quadratic((1, 1)) read 2.5 on it
    with pytest.raises(NotInteger, match=f"^{message}$"):
        Lattice("x", rank, gram)


def test_built_lattices_keep_their_entries_and_refuse_non_integers():
    assert matrix.freeze([[1.5, 2]]) == ((1.5, 2),)  # a copy; the Lattice door refuses it
    with pytest.raises(NotInteger):
        twist(make_u(), 0.5)


def test_resolve_names():
    assert resolve("U") == make_u()
    with pytest.raises(UnknownLattice):
        resolve("B_U")  # the alias of U is gone, so no name hands out another's value
    out = io.StringIO()
    assert run(["info", "--lattice", "B_U"], stdout=out) == 2
    assert json.loads(out.getvalue())["error"] == "UnknownLattice"
    assert resolve("U2").gram == ((0, 2), (2, 0))
    assert resolve("E8_2").gram[0][0] == -4
    assert resolve("I_4_2") == make_i(4, 2)
    with pytest.raises(UnknownLattice):
        resolve("A_7")
    names = builtin_names()
    for expected in ("U", "E8", "Lminus", "Lambda", "U2U", "I_s_t"):
        assert expected in names


@pytest.mark.parametrize("name", builtin_names()[:-1])
def test_resolve_hands_out_one_value_per_builtin_name(name):
    assert resolve(name) is resolve(name)
    assert resolve(name).name == name  # messages name the lattice the argv named
    assert is_builtin(resolve(name))


def test_resolve_bounds_i_s_t_rank():
    assert resolve("I_999_1").rank == 1000
    assert resolve("I_002_03") == make_i(2, 3)  # leading zeros read as before
    for name in ("I_1000_1", "I_0_1001", "I_10000_0", "I_00000000000001001_0"):
        with pytest.raises(RankMismatch, match=r"need s \+ t <= 1000"):
            resolve(name)


def test_resolve_builds_i_s_t_on_each_call():
    assert resolve("I_2_3") == resolve("I_2_3") == make_i(2, 3)
    assert is_builtin(make_i(2, 3))


@pytest.mark.parametrize(
    "lattice, builtin",
    [
        (twisted_plus_u(make_u(), name="U2U"), True),  # equal to the built-in value
        (twisted_plus_u(make_u(), name="MyU2U"), False),  # unknown name
        (Lattice("U", 2, ((0, -1), (-1, 0))), False),  # known name, other form
        (Lattice("U2U", 4, resolve("U2U").gram), False),  # same form, no shape tag
        (Lattice("I_2_1", 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))), False),
        (Lattice("I_0_0", 1, ((1,),)), False),  # resolve refuses the name with EmptyLattice
        (Lattice("I_600_0", 1, ((1,),)), False),  # the name spells another rank
        (Lattice("I_" + "9" * 5000 + "_0", 1, ((1,),)), False),  # past int()'s digit limit
        (Lattice("I_02_1", 3, make_i(2, 1).gram), False),  # resolve names it I_2_1
    ],
)
def test_is_builtin(lattice, builtin):
    assert is_builtin(lattice) is builtin


def test_is_builtin_against_a_given_name():
    u2u = resolve("U2U")
    assert is_builtin(u2u, "U2U") and is_builtin(make_i(2, 3), "I_2_3")
    for name in ("Lminus", "nope", "I_2_2", "I_0_0", "I_1000_1"):
        assert not is_builtin(u2u, name)
    assert not is_builtin(twisted_plus_u(make_u(), name="V2V"), "U2U")  # equal Gram and tag, other name


def test_is_builtin_refuses_i_s_t_of_another_rank():
    small = Lattice("I_600_0", 1, ((1,),))
    assert not is_builtin(small)
    assert jsonio.lattice_ref(small) == jsonio.lattice_to_json(small)


def test_is_builtin_reads_i_s_t():
    i_12_8, i_2_1 = make_i(12, 8), make_i(2, 1)
    tagged = Lattice("I_2_1", 3, i_2_1.gram, lattices.SplitShape(lattices.BASE_PLUS_I11, make_u()))
    assert is_builtin(i_12_8)
    assert not is_builtin(Lattice("I_1_2", 3, i_2_1.gram))  # signs in the wrong order
    assert not is_builtin(Lattice("I_2_1", 3, ((1, 0, 0), (0, 1, 1), (0, 1, -1))))
    assert not is_builtin(tagged)  # the right name and diagonal, but a shape tag


def test_fixed_builtins_are_nondegenerate():
    # Isometry skips its |det M| = 1 check on built-ins because det G != 0
    for name in builtin_names()[:-1]:
        assert matrix.det(resolve(name).gram) != 0, name
    for s in range(4):
        for t in range(4):
            if s + t:
                assert abs(matrix.det(make_i(s, t).gram)) == 1


def test_terms_are_derived_at_construction_and_outside_equality():
    gram = ((2, 0, -1), (0, 0, 0), (-1, 0, 4))
    lattice = Lattice("T", 3, gram)
    # set by __init__, as slots outside the fields
    assert {"terms", "upper_terms"} <= set(Lattice.__slots__) and not hasattr(lattice, "__dict__")
    assert Lattice._fields == ("name", "rank", "gram", "shape")
    assert lattice.terms == [[(0, 2), (2, -1)], [], [(0, -1), (2, 4)]]
    assert lattice.upper_terms == [(0, 0, 2), (0, 2, -2), (2, 2, 4)]  # off-diagonal doubled
    twin = Lattice("T", 3, gram)
    assert lattice == twin and hash(lattice) == hash(twin) and repr(lattice) == repr(twin)
    assert "terms" not in repr(lattice)
    # a changed field goes through the constructor: checked again, terms rebuilt
    assert Lattice("U", lattice.rank, lattice.gram, lattice.shape).terms == lattice.terms
    changed = Lattice("T", 3, ((2, 0, -1), (0, 6, 0), (-1, 0, 4)))
    assert changed != lattice and changed.terms[1] == [(1, 6)]
    assert changed.upper_terms == [(0, 0, 2), (0, 2, -2), (1, 1, 6), (2, 2, 4)]
    with pytest.raises(LatticeShapeMismatch, match="gram matrix is not symmetric"):
        Lattice("T", 3, ((2, 0, -1), (0, 0, 0), (1, 0, 4)))
    with pytest.raises(RankMismatch, match="gram matrix is not 2x2"):
        Lattice("T", 2, gram)


def test_a_list_gram_is_frozen_before_it_is_checked():
    u = Lattice("U", 2, [[0, 1], [1, 0]])
    assert u == resolve("U") and hash(u) == hash(resolve("U")) and is_builtin(u)
    assert type(u.gram) is tuple and all(type(row) is tuple for row in u.gram)
    with pytest.raises(TypeError):
        u.gram[0][1] = 5
    rows = [[2, -1], [-1, 2]]
    a2 = Lattice("A2", 2, rows)
    rows[0][1] = rows[1][0] = 5  # the caller's lists no longer reach the lattice
    assert a2.gram == ((2, -1), (-1, 2)) and quadratic(a2, (1, 1)) == 2 == inner(a2, (1, 1), (1, 1))
    # the checks read the frozen rows, in the same order and with the same text
    with pytest.raises(RankMismatch, match="gram matrix is not 2x2"):
        Lattice("X", 2, [[0, 1], [1]])
    with pytest.raises(NotInteger, match="each gram entry must be an integer"):
        Lattice("X", 2, [[0, 1.0], [1.0, 0]])
    with pytest.raises(LatticeShapeMismatch):
        Lattice("X", 2, [[0, 1], [2, 0]])


@pytest.mark.parametrize("n", range(1, 21))
def test_identity_is_the_textbook_identity(n):
    eye = matrix.identity(n)
    assert eye == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert type(eye) is tuple and all(type(row) is tuple for row in eye)


def _dense_inertia(gram) -> Signature:
    """Reference inertia: a dense symmetric elimination with every entry a Fraction.

    Kept here, apart from the library's sparse `matrix.ldl`, as its oracle.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
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
                    for c in range(n):
                        a[k][c] += a[j][c]
                    for r in range(n):
                        a[r][k] += a[r][j]
        p = a[k][k]
        if p == 0:
            zero += 1
            continue
        if p > 0:
            pos += 1
        else:
            neg += 1
        col = [a[i][k] for i in range(n)]
        for i in range(k + 1, n):
            if col[i] == 0:
                continue
            for j in range(k + 1, n):
                a[i][j] -= col[i] * col[j] / p
        for i in range(k + 1, n):
            a[i][k] = a[k][i] = Fraction(0)
    return Signature(pos, neg, zero)


def _dense_ldl(gram):
    """Reference LDL^T: the library's elimination with every entry made a Fraction up front.

    Kept here as the oracle for `matrix.ldl`, which converts only what it divides or rewrites.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
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
                    for t in range(n):
                        a[k][t] += a[j][t]
                    for row in a:
                        row[k] += row[j]
        row = a[k]
        p = row[k]
        d.append(p)
        nonzero = [(j, row[j]) for j in range(k + 1, n) if row[j]]
        multipliers = [(j, x / p) for j, x in nonzero]
        c.append(multipliers)
        for s, (i, x) in enumerate(nonzero):
            ai = a[i]
            for j, m in multipliers[s:]:
                ai[j] = a[j][i] = ai[j] - x * m
    return d, c


@st.composite
def _symmetric_gram(draw):
    """A symmetric integer matrix of rank 1..8, entries -3..3, drawn to reach every branch of ldl."""
    n = draw(st.integers(1, 8))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    for k in draw(st.sets(st.integers(0, n - 1))):  # zero diagonals, swapped with a later one
        rows[k][k] = 0
    if n > 1 and draw(st.booleans()):
        # a both-zero hyperbolic pair with no nonzero diagonal after it: the row-and-column fix-up
        k = draw(st.integers(0, n - 2))
        j = draw(st.integers(k + 1, n - 1))
        for t in range(k, n):
            rows[t][t] = 0
        rows[k][j] = rows[j][k] = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    for k in draw(st.sets(st.integers(0, n - 1), max_size=2)):  # radical rows
        rows[k] = [0] * n
        for row in rows:
            row[k] = 0
    return matrix.freeze(rows)


def _assert_ldl_is_the_dense_elimination(gram):
    d, c = matrix.ldl(gram)
    assert (d, c) == _dense_ldl(gram)
    # equal is not enough: an int pivot or a float multiplier also compares equal
    assert all(type(p) is Fraction for p in d)
    assert all(type(m) is Fraction for row in c for _, m in row)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_symmetric_gram())
def test_ldl_matches_the_dense_fraction_elimination(gram):
    _assert_ldl_is_the_dense_elimination(gram)


@pytest.mark.parametrize("name", [*builtin_names()[:-1], "I_3_2", "I_0_1"])
def test_ldl_of_every_builtin_matches_the_dense_fraction_elimination(name):
    _assert_ldl_is_the_dense_elimination(resolve(name).gram)


def test_diagonal_determinant_and_signature_match_general_paths():
    rng = random.Random(6)
    lattices_seen = [make_i(s, t) for s in range(4) for t in range(4) if s + t]
    for _ in range(300):
        n = rng.randint(1, 5)
        diagonal = rng.random() < 0.5
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i == j or not diagonal:
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        if rng.random() < 0.25:  # put a basis vector in the radical
            k = rng.randrange(n)
            rows[k] = [0] * n
            for row in rows:
                row[k] = 0
        lattices_seen.append(Lattice("T", n, matrix.freeze(rows)))
    kinds = set()
    for lattice in lattices_seen:
        n = lattice.rank
        diagonal = all(lattice.gram[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        kinds.add((diagonal, signature_and_determinant(lattice)[1] == 0))
        assert signature_and_determinant(lattice)[1] == matrix.det(lattice.gram)
        assert signature(lattice) == _dense_inertia(lattice.gram)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


@st.composite
def _form_and_unimodular(draw):
    """A block-diagonal Gram of rank 2..7 with zero diagonals and U blocks, and a unimodular P."""
    blocks = []
    while sum(map(len, blocks)) < 2 or (sum(map(len, blocks)) < 6 and draw(st.booleans())):
        kind = draw(st.sampled_from(("U", "zero diagonal", "random")))
        m = 2 if kind == "U" else draw(st.integers(1, 3))
        block = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                if kind == "U":
                    block[i][j] = block[j][i] = int(i != j)
                elif i != j or kind == "random":
                    block[i][j] = block[j][i] = draw(st.integers(-3, 3))
        blocks.append(block)
    n = sum(map(len, blocks))
    gram = [[0] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            gram[start + i][start:start + len(row)] = row
        start += len(block)
    return matrix.freeze(gram), draw(_unimodular(n))


@st.composite
def _unimodular(draw, n):
    """A random n x n integer matrix of determinant +-1: permuted lower times upper unitriangular."""
    lower = [[int(i == j) if j >= i else draw(st.integers(-2, 2)) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) if j <= i else draw(st.integers(-2, 2)) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return matrix.mat_mul([lower[k] for k in perm], upper)


def _congruent(gram, p):
    return matrix.mat_mul(transpose(p), matrix.mat_mul(gram, p))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_form_and_unimodular())
def test_signature_is_invariant_under_unimodular_change_of_basis(case):
    # Sylvester's law of inertia: sig(P^T G P) = sig(G) for every invertible P
    gram, p = case
    moved = _congruent(gram, p)
    form, congruent = Lattice("G", len(gram), gram), Lattice("PGP", len(moved), moved)
    sig = signature(form)
    assert sig == _dense_inertia(gram)
    assert signature(congruent) == sig
    # det(P^T G P) = det(P)^2 det(G) = det(G), read off the same pivots as the signature
    assert signature_and_determinant(congruent)[1] == signature_and_determinant(form)[1] == matrix.det(gram)


# (block, (positive, negative)) for the even unimodular blocks U, E8 and E8(-1)
_EVEN_UNIMODULAR_BLOCKS = ((make_u(), (1, 1)), (make_e8(), (0, 8)), (twist(make_e8(), -1), (8, 0)))


@st.composite
def _even_unimodular(draw):
    """A sum of even unimodular blocks in a random unimodular basis, and its signature."""
    blocks = draw(st.lists(st.sampled_from(_EVEN_UNIMODULAR_BLOCKS), min_size=1, max_size=3))
    body = blocks[0][0]
    for block, _ in blocks[1:]:
        body = direct_sum(body, block)
    moved = _congruent(body.gram, draw(_unimodular(body.rank)))
    positive, negative = (sum(counts) for counts in zip(*(sig for _, sig in blocks)))
    return Lattice("G", body.rank, moved), Signature(positive, negative, 0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_even_unimodular())
def test_even_unimodular_forms_have_signature_zero_mod_8(case):
    # van der Blij: an even unimodular form has signature difference 0 mod 8, so
    # _check_split_base's third test cannot fire; this recomputes it from the forms
    lattice, expected = case
    sig = signature(lattice)
    assert sig == expected and (sig.positive - sig.negative) % 8 == 0
    assert is_even(lattice) and abs(signature_and_determinant(lattice)[1]) == 1
    tagged = twisted_plus_u(lattice, name="T")
    assert tagged.shape.base == lattice
    # the tag carries the half target, equal to the one built on its own
    assert tagged.shape.image == base_plus_i11(lattice, name=f"{lattice.name}_I11")


def test_split_proofs_run_one_elimination(monkeypatch):
    # the ldl pivots give both the determinant and the signature of a split base
    def refuse(m):
        raise AssertionError("matrix.det was called")

    eliminated = []
    honest_ldl = matrix.ldl

    def counting_ldl(gram):
        eliminated.append(gram)
        return honest_ldl(gram)

    monkeypatch.setattr(matrix, "det", refuse)
    monkeypatch.setattr(matrix, "ldl", counting_ldl)
    e8_u = direct_sum(make_e8(), make_u())
    for build in (twisted_plus_u, base_plus_i11):
        eliminated.clear()
        assert build(e8_u, name="T").shape.base == e8_u
        assert eliminated == [e8_u.gram]
    # the built-ins prove each split base once: Lminus's E8 + U, then U2U's U
    eliminated.clear()
    lattices._builtins()
    assert eliminated == [e8_u.gram, make_u().gram]
    lminus = resolve("Lminus")
    eliminated.clear()
    assert half_target(lminus) is resolve("E8_U_I11")
    assert eliminated == [e8_u.gram]
    assert classify(vec(lminus, (0,) * 10 + (1, 5))).label is OrbitLabel.ODD
    assert classify(vec(resolve("U2U"), (0, 0, 1, 4))).label is OrbitLabel.EVEN_ORDINARY

    # no half target is rebuilt per call, and each call proves its base once
    def refuse_build(base, name):
        raise AssertionError("base_plus_i11 was called")

    monkeypatch.setattr(lattices, "base_plus_i11", refuse_build)
    for v in (vec(lminus, (0,) * 8 + (1, 1, 0, 0)), vec(resolve("U2U"), (0, 0, 2, 1))):
        for call in (classify, dilate, is_even_type):
            eliminated.clear()
            call(v)
            assert eliminated == [v.lattice.shape.base.gram], call


def test_info_and_wall_congruence_run_one_elimination(monkeypatch):
    # both need the signature and the determinant of a non-diagonal Gram matrix
    eliminated = []
    honest_ldl = matrix.ldl

    def counting_ldl(gram):
        eliminated.append(gram)
        return honest_ldl(gram)

    monkeypatch.setattr(matrix, "ldl", counting_ldl)
    out = io.StringIO()
    assert run(["info", "--lattice", "Lminus"], stdout=out) == 0
    assert eliminated == [resolve("Lminus").gram]
    assert json.loads(out.getvalue())["determinant"] == 2**10
    eliminated.clear()
    e8_u_i11 = resolve("E8_U_I11")
    assert wall_congruence_holds(vec(e8_u_i11, (0,) * 10 + (1, 1)))
    assert eliminated == [e8_u_i11.gram]


def test_only_matrix_imports_fractions():
    # one rational elimination, matrix.ldl; every other module stays on ints
    importers = set()
    for path in sorted(Path(lattices.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "fractions" for module in modules):
                importers.add(path.name)
    assert importers == {"matrix.py"}


def test_shape_tags():
    u2u = resolve("U2U")
    assert u2u.shape is not None and u2u.shape.base == make_u()
    target = resolve("U_I11")
    assert target.shape is not None and target.shape.base == make_u()
    assert resolve("Lminus").shape.base.name == "E8_U"
    # a tag builds its half target when it is made, but equality, hashing and
    # repr read only the kind and the base
    bare = lattices.SplitShape(lattices.TWISTED_PLUS_U, make_u())
    assert u2u.shape.image is resolve("U_I11")
    assert bare.image == resolve("U_I11") and bare.image is not resolve("U_I11")
    assert lattices.SplitShape(lattices.BASE_PLUS_I11, make_u()).image is None
    assert u2u.shape == bare and hash(u2u.shape) == hash(bare) and repr(u2u.shape) == repr(bare)
    assert Lattice("U2U", 4, u2u.gram, bare) == u2u
    # the repr of a Lminus vector shows no image; the digest pins it byte for byte
    text = repr(vec(resolve("Lminus"), (0,) * 10 + (1, 5)))
    assert "I11" not in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "44d2349407a413e1e202f8de622c7a28849d691862a553f812edcdd8fa6359a1"
    )


def test_split_constructors_reject_bad_bases():
    with pytest.raises(LatticeShapeMismatch, match=r"^base I_1_1 is not even$"):
        twisted_plus_u(make_i(1, 1), name="bad")
    with pytest.raises(LatticeShapeMismatch, match=r"^base U\(2\) is not unimodular$"):
        base_plus_i11(twist(make_u(), 2), name="bad")


# every fixed built-in, several I_s_t, and a custom non-diagonal lattice
_FORM_LATTICES = [resolve(name) for name in builtin_names()[:-1]] + [
    make_i(s, t) for s, t in ((1, 0), (0, 1), (2, 1), (3, 3), (12, 8))
] + [direct_sum(twist(make_e8(), -3), Lattice("A2", 2, ((2, -1), (-1, 2))), name="custom")]


@st.composite
def _lattice_and_coords(draw):
    lattice = draw(st.sampled_from(_FORM_LATTICES))
    coords = draw(st.lists(st.integers(-50, 50), min_size=lattice.rank, max_size=lattice.rank))
    return lattice, tuple(coords)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lattice_and_coords())
def test_quadratic_matches_inner_and_dense_form(case):
    lattice, c = case
    dense = sum(c[i] * lattice.gram[i][j] * c[j]
                for i in range(lattice.rank) for j in range(lattice.rank))
    assert quadratic(lattice, c) == inner(lattice, c, c) == dense


# The hand-written value classes against their dataclass twins in
# tests/support.py. Each strategy draws a builder that makes one value from a
# family of classes: the library's or the twins'.
_REAL = SimpleNamespace(
    Lattice=Lattice, LatticeVector=LatticeVector, ClassificationReport=ClassificationReport,
    SplitShape=lattices.SplitShape, Signature=Signature, HalfVector=HalfVector,
    WitnessResult=WitnessResult, HeegnerComponent=HeegnerComponent, HeegnerReport=HeegnerReport,
)
# the slots each class derives outside its fields
_DERIVED = {"Lattice": ("terms", "upper_terms"), "SplitShape": ("image",)}
_SMALL_INTS = st.integers(-2, 2)
_SOME_VECTORS = st.sampled_from([  # the first two equal, but not the same object
    vec(resolve("U"), (1, 0)), vec(resolve("U"), (1, 0)), vec(resolve("U2U"), (0, 0, 1, 2)),
    vec(resolve("Lminus"), (0,) * 10 + (1, 5)),
])
_COMPONENTS = st.lists(st.tuples(st.sampled_from(list(OrbitLabel)), _SOME_VECTORS), max_size=2)


def _half_vector(base, lead, b1, b2, defects):
    """A builder of the doubled image of (lead, b1, b2) in base, spoilt by the defects."""
    coords = [2 * a for a in lead[: base.rank - 2]] + [b1 + b2, b1 - b2]
    if "odd leading" in defects:
        coords[0] += 1
    if "split parity" in defects:
        coords[-1] += 1
    if "short" in defects:
        coords.pop()
    if "float" in defects:
        coords[-1] = float(coords[-1])
    if "untagged" in defects:
        base = resolve("U2U")
    return lambda family: family.HalfVector(base, tuple(coords))


# none, one, or two at once, so the order of the checks shows too
_DEFECTS = [
    (), ("odd leading",), ("split parity",), ("short",), ("float",), ("untagged",),
    ("float", "untagged"), ("short", "untagged"), ("float", "short"), ("odd leading", "split parity"),
]

# Grams as tuples and as lists, and some refused: a short row, a float, a
# bool, an asymmetric entry
_GRAMS = [
    ((0, 1), (1, 0)), [[0, 1], [1, 0]], [(2, -1), [-1, 2]], ((2,),), [[-4]], ((0, 1), (1,)),
    ((1, 0.5), (0.5, 1)), ((True,),), ((1, 2), (3, 4)),
]


def _lattice(name, rank, gram, shape):
    """A builder of the lattice; a rank of None is the Gram's length."""
    rank = len(gram) if rank is None else rank
    return lambda family: family.Lattice(name, rank, gram, shape)


_VALUE_BUILDERS = {
    "Lattice": st.builds(
        _lattice, st.sampled_from(["U", "T"]), st.sampled_from([None, None, 1, 0, -1, 2.0, True]),
        st.sampled_from(_GRAMS), st.sampled_from([None, resolve("U2U").shape])),
    "LatticeVector": st.builds(
        lambda lattice, coords: lambda family: family.LatticeVector(lattice, coords),
        st.sampled_from([resolve("U"), Lattice("U", 2, [[0, 1], [1, 0]]), resolve("U2U")]),
        st.lists(_SMALL_INTS, min_size=0, max_size=4).map(tuple)),
    "ClassificationReport": st.builds(
        lambda v, norm, n, p, t, i, label: lambda family: family.ClassificationReport(v, norm, n, p, t, i, label),
        _SOME_VECTORS, _SMALL_INTS, _SMALL_INTS, st.booleans(), st.sampled_from(list(VectorType)),
        st.booleans(), st.sampled_from(list(OrbitLabel))),
    "SplitShape": st.builds(
        lambda kind, base: lambda family: family.SplitShape(kind, base),
        st.sampled_from([lattices.TWISTED_PLUS_U, lattices.BASE_PLUS_I11]),
        # two even unimodular bases, one even base of determinant 4, one odd base
        st.sampled_from([resolve("U"), resolve("E8"), resolve("U2"), resolve("I_1_1")])),
    "Signature": st.builds(
        lambda p, n, z: lambda family: family.Signature(p, n, z), _SMALL_INTS, _SMALL_INTS, _SMALL_INTS),
    "HalfVector": st.builds(
        _half_vector, st.sampled_from([resolve("U_I11"), resolve("E8_U_I11")]),
        st.lists(_SMALL_INTS, min_size=10, max_size=10), _SMALL_INTS, _SMALL_INTS,
        st.sampled_from(_DEFECTS)),
    "WitnessResult": st.builds(
        lambda w, p: lambda family: family.WitnessResult(w, p), st.none() | _SOME_VECTORS, st.booleans()),
    "HeegnerComponent": st.builds(
        lambda label, v: lambda family: family.HeegnerComponent(label, v),
        st.sampled_from(list(OrbitLabel)), _SOME_VECTORS),
    "HeegnerReport": st.builds(
        lambda n, norm, comps: lambda family: family.HeegnerReport(
            n, norm, tuple(family.HeegnerComponent(label, v) for label, v in comps)),
        _SMALL_INTS, _SMALL_INTS, _COMPONENTS),
}


def _made(builder, family):
    """The value the builder makes, or the (class, message) of what it raises."""
    try:
        return builder(family)
    except (LatticeError, NotInteger) as exc:
        return type(exc), str(exc)


def _refusal(action, *args):
    with pytest.raises(dataclasses.FrozenInstanceError) as info:
        action(*args)
    return type(info.value), str(info.value)


def _untwin(text: str) -> str:
    return text.replace("Twins.", "")


@pytest.mark.parametrize("name", sorted(_VALUE_BUILDERS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hand_written_values_match_their_dataclass_twins(name, data):
    first, second = (data.draw(_VALUE_BUILDERS[name]) for _ in range(2))
    value, twin = _made(first, _REAL), _made(first, Twins)
    if isinstance(twin, tuple):  # a refused construction is refused alike
        assert value == twin
        return
    assert type(value).__name__ == name and not dataclasses.is_dataclass(value)
    assert not hasattr(value, "__dict__")
    assert repr(value) == _untwin(repr(twin))
    assert hash(value) == hash(twin)
    other, other_twin = _made(second, _REAL), _made(second, Twins)
    if not isinstance(other_twin, tuple):
        assert (value == other, value != other) == (twin == other_twin, twin != other_twin)
        assert (hash(value) == hash(other)) == (hash(twin) == hash(other_twin))
    # another class never compares equal, even the twin
    assert value.__eq__(twin) is NotImplemented and twin.__eq__(value) is NotImplemented
    assert value != twin and value.__eq__(object()) is NotImplemented
    for attr in (*value._fields, *_DERIVED.get(name, ()), "extra"):
        assert _refusal(setattr, value, attr, 1) == _refusal(setattr, twin, attr, 1)
        assert _refusal(delattr, value, attr) == _refusal(delattr, twin, attr)
    for trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        back, twin_back = trip(value), trip(twin)
        assert type(back) is type(value) and back == value and hash(back) == hash(value)
        assert twin_back == twin and repr(back) == _untwin(repr(twin_back))
        for attr in _DERIVED.get(name, ()):
            assert getattr(back, attr) == getattr(value, attr) == getattr(twin, attr)


@pytest.mark.parametrize("defects", [defects for defects in _DEFECTS if defects])
def test_half_vectors_refuse_as_their_twin_does(defects):
    # every defect and pair of defects, which the draws above may miss
    for base in (resolve("U_I11"), resolve("E8_U_I11")):
        build = _half_vector(base, [1] * 10, 1, 0, defects)
        assert _made(build, _REAL) == _made(build, Twins)
