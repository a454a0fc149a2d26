import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lattice_orbits import enumeration
from lattice_orbits.enumeration import (
    WALK_BUDGET,
    box_range,
    box_walk,
    check_counts,
    short_vectors_definite,
)
from lattice_orbits.errors import BoxTooLarge, LatticeError, LatticeShapeMismatch, NegativeCount
from lattice_orbits.isometries import sample_word
from lattice_orbits.lattices import Lattice, inner, resolve
from lattice_orbits.matrix import det, ldl, mat_mul
from lattice_orbits.oracle import enumerate_primitive, wall_scan
from support import transpose


def test_box_walk_order_and_count():
    got = list(box_walk([box_range(1)] * 2))
    assert len(got) == 9
    assert got[0] == (-1, -1)
    assert got == sorted(got)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: box_range(-1), "bound must be non-negative, got -1"),
        (lambda: check_counts(samples=3, walks=-2, bound=-1), "walks must be non-negative, got -2"),
        (lambda: sample_word(resolve("U2U"), 1, -1), "length must be non-negative, got -1"),
    ],
)
def test_negative_count_message_names_the_count(call, message):
    with pytest.raises(NegativeCount) as info:
        call()
    assert str(info.value) == message


def test_negative_bound_is_refused():
    assert list(box_range(0)) == [0]
    with pytest.raises(NegativeCount):
        box_range(-1)
    with pytest.raises(NegativeCount):
        box_walk([box_range(-2)] * 3)


def _form(gram, c):
    return sum(c[i] * gram[i][j] * c[j] for i in range(len(c)) for j in range(len(c)))


def _filtered_product(axes, gram, value):
    return [c for c in product(*axes) if _form(gram, c) == value]


@st.composite
def _axis(draw):
    """An ascending axis: a window, a sparse subset, or one parity class of a window."""
    bound = draw(st.integers(0, 4))
    window = range(-bound, bound + 1)
    kind = draw(st.sampled_from(("window", "subset", "parity")))
    if kind == "window":
        return window
    if kind == "subset":
        return sorted(draw(st.sets(st.integers(-5, 5), max_size=6)))
    residue = draw(st.integers(0, 1))
    return [x for x in window if (x - residue) % 2 == 0]


# head axes of ranks 5 and 6: few values, symmetric or a single one
_HEAD_AXES = (range(-1, 2), (-1, 1), (0,), (-2, 0, 2), range(0, 2))


@st.composite
def _walk_case(draw):
    rank = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = draw(entry)
    last = rank - 1
    gram[last][last] = draw(st.sampled_from((0, 1, 2, 3, -1, -2, -3)))
    if draw(st.booleans()):  # last coordinate decoupled from the rest: L = 0
        for i in range(last):
            gram[i][last] = gram[last][i] = 0
    if rank < 5:
        return [draw(_axis()) for _ in range(rank)], gram, draw(st.integers(-12, 12))
    # the head (all but the last two coordinates) enters the walk only through
    # its key (Qh, Lh, cy): a head coordinate with no Gram entries, or sign-
    # symmetric head axes with the head uncoupled from y and x, repeat keys
    head = rank - 2
    for i in draw(st.sets(st.integers(0, head - 1), min_size=1, max_size=head)):
        for j in range(rank):
            gram[i][j] = gram[j][i] = 0
    if draw(st.booleans()):
        for i in range(head):
            for j in (head, last):
                gram[i][j] = gram[j][i] = 0
    axes = [draw(st.sampled_from(_HEAD_AXES)) for _ in range(head)] + [draw(_axis()), draw(_axis())]
    return axes, gram, draw(st.integers(-12, 12))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_walk_case())
def test_box_walk_solves_the_norm_exactly(case):
    axes, gram, value = case
    assert list(box_walk(axes, (gram, value))) == _filtered_product(axes, gram, value)
    assert list(box_walk(axes)) == list(product(*axes))


@pytest.mark.parametrize(
    "gram, axes",
    [
        # 6 heads and 3 keys (Qh = h0^2): the key with Qh = value has "every x"
        # at all 5 values of y, which leaves no room for another such key
        ([[1, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4], [(0, 1, 2), (0, 1), range(-2, 3), range(-2, 3)]),
        # 9 heads and 3 keys (Qh = h0^2 + h1^2): at Qh = value every y has a group
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [range(-1, 2)] * 2 + [range(-3, 4)] * 2),
        # a lone head on a long y axis: nothing fits, every group is streamed
        ([[1, 0, 1], [0, 0, 1], [1, 1, 1]], [(1,), range(-9, 10), range(-9, 10)]),
    ],
)
def test_norm_walk_reuses_and_streams_tails(gram, axes):
    for value in (-2, 0, 1, 2, 4):
        assert list(box_walk(axes, (gram, value))) == _filtered_product(axes, gram, value)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_unfiltered_scan_is_the_gcd_filtered_box(rank):
    # rank 2 has an empty head, and rank 1 no y axis either
    lattice = resolve(f"I_{rank}_0")
    for bound in range(4 if rank < 5 else 3):
        axes = [range(-bound, bound + 1)] * rank
        want = [c for c in product(*axes) if math.gcd(*c) == 1]
        assert [v.coords for v in enumerate_primitive(lattice, bound).vectors] == want


@pytest.mark.parametrize(
    "name, bound, value",
    [
        ("I_1_0", 10**6, 1),  # rank 1: g*x^2 = value is solved, not walked
        ("U", 2 * 10**4, 2),  # rank 2: the solved last axis is a range, not a copy
        ("U", 2 * 10**4, 0),  # rank 2 with "every x" at y = 0, kept lazy
    ],
)
def test_norm_scans_hold_no_copy_of_the_solved_axis(name, bound, value):
    # the solved axis lies outside the walk budget, so a norm scan must not
    # copy it: its traced peak may not grow with the bound
    lattice = resolve(name)
    tracemalloc.start()
    try:
        scan = enumerate_primitive(lattice, bound, value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 <= len(scan.vectors) <= 4
    assert peak < 10**5


@pytest.mark.parametrize(
    "gram, value, axes, expected",
    [
        # g = 0 and L = 0: every allowed x once Q matches, none otherwise
        (((1, 0), (0, 0)), 4, [(-2, 2), (-1, 1)], [(-2, -1), (-2, 1), (2, -1), (2, 1)]),
        (((1, 0), (0, 0)), 3, [(-2, 2), (-1, 1)], []),
        # g = 0, L != 0: one division, kept only when exact and allowed
        (((0, 1), (1, 0)), 6, [(1, 2, 3), (-3, 1, 3)], [(1, 3), (3, 1)]),
        (((0, 1), (1, 0)), 5, [(1, 2), range(-3, 4)], []),
        # g != 0: both roots, ascending for either sign of g
        (((1,),), 9, [range(-3, 4)], [(-3,), (3,)]),
        (((-2,),), -8, [range(-3, 4)], [(-2,), (2,)]),
        # a square discriminant with one integral root, and a non-square one
        (((0, 1), (1, 4)), 4, [(-3,), range(-3, 4)], [(-3, 2)]),
        (((1, 1), (1, -1)), 0, [(1,), range(-3, 4)], []),
    ],
)
def test_box_walk_branches(gram, value, axes, expected):
    assert list(box_walk(axes, (gram, value))) == expected
    assert _filtered_product(axes, gram, value) == expected


def _brute(lattice, target, bound):
    hits = []
    for coords in product(range(-bound, bound + 1), repeat=lattice.rank):
        if any(coords) and inner(lattice, coords, coords) == target:
            hits.append(coords)
    return sorted(hits)


def test_diagonal_counts():
    square = resolve("I_2_0")
    assert len(short_vectors_definite(square, 1)) == 4
    assert len(short_vectors_definite(square, 2)) == 4
    assert len(short_vectors_definite(square, 5)) == 8
    assert short_vectors_definite(square, 3) == ()
    assert short_vectors_definite(square, -1) == ()


def test_skew_positive_definite_matches_brute_force():
    hexagonal = Lattice("hex", 2, ((2, 1), (1, 2)))
    for target in (2, 4, 6, 8):
        fast = short_vectors_definite(hexagonal, target)
        assert list(fast) == _brute(hexagonal, target, 6)
    assert len(short_vectors_definite(hexagonal, 2)) == 6


def test_negative_definite_side():
    neg = Lattice("neghex", 2, ((-2, -1), (-1, -2)))
    assert len(short_vectors_definite(neg, -2)) == 6
    assert short_vectors_definite(neg, 2) == ()


def _sigma3(k):
    return sum(d**3 for d in range(1, k + 1) if k % d == 0)


def test_e8_shells():
    e8 = resolve("E8")
    roots = short_vectors_definite(e8, -2)
    assert all(inner(e8, v, v) == -2 for v in roots)
    for k in range(1, 8):  # down to norm -14, the lowest that oracle-e8 enumerates
        assert len(short_vectors_definite(e8, -2 * k)) == 240 * _sigma3(k), k
    assert (240 * _sigma3(1), 240 * _sigma3(2), 240 * _sigma3(7)) == (240, 2160, 82560)
    assert short_vectors_definite(e8, -1) == ()
    assert short_vectors_definite(e8, -3) == ()


def test_target_off_the_content_is_empty_at_once(monkeypatch):
    # every norm is a multiple of gcd(G_ii, 2 G_ij): 4 on E8(2), 2 on E8
    e8_2 = Lattice("E8(2)", 8, tuple(tuple(row[:8]) for row in resolve("Lminus").gram[:8]))
    assert len(short_vectors_definite(e8_2, -4)) == 240

    def no_descent(d, c, goal):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(enumeration, "_descend", no_descent)
    for lattice, target in ((e8_2, -1), (e8_2, -2), (e8_2, -6), (resolve("E8"), -13)):
        assert short_vectors_definite(lattice, target) == ()


def _inverse_diagonal(gram):
    """The diagonal of gram^-1, exactly: each principal (n-1)-minor over det(gram)."""
    n = len(gram)
    minors = [det([row[:i] + row[i + 1:] for k, row in enumerate(gram) if k != i]) for i in range(n)]
    return [Fraction(m, det(gram)) for m in minors]


@st.composite
def _definite_case(draw):
    """A definite Gram B B^T of rank <= 3, skewed by a unimodular change of basis, and a target."""
    n = draw(st.integers(1, 3))
    b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        b[i][i] = draw(st.integers(1, 3))
    assume(det(b) != 0)  # so B B^T is positive definite
    shear = [[int(i == j) if j <= i else draw(st.integers(-2, 2)) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    u = [shear[p] for p in perm]  # unimodular: a row permutation of a unitriangular matrix
    gram = mat_mul(transpose(u), mat_mul(mat_mul(b, transpose(b)), u))
    sign = draw(st.sampled_from((1, -1)))
    target = sign * draw(st.integers(-2, 14))
    return Lattice("T", n, tuple(tuple(sign * x for x in row) for row in gram)), sign, target


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_definite_case())
def test_short_vectors_match_a_bounding_box(case):
    lattice, sign, target = case
    reach = sign * target  # the norm on the positive definite side
    positive = [[sign * x for x in row] for row in lattice.gram]
    # |v_i| <= sqrt(Q (A^-1)_ii) on the ellipsoid v^T A v <= Q, with A = sign * gram
    bounds = [math.isqrt(math.floor(max(reach, 0) * x)) for x in _inverse_diagonal(positive)]
    assume(math.prod(2 * b + 1 for b in bounds) <= 20000)
    box = product(*(range(-b, b + 1) for b in bounds))
    expected = sorted(v for v in box if any(v) and inner(lattice, v, v) == target)
    assert list(short_vectors_definite(lattice, target)) == expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_definite_case(), st.data())
def test_ldl_completes_the_square_of_a_definite_form(case, data):
    lattice, sign, _ = case
    n = lattice.rank
    d, c = ldl(lattice.gram)
    # the pivots are the ratios of successive leading principal minors
    minors = [1] + [det([row[:k] for row in lattice.gram[:k]]) for k in range(1, n + 1)]
    assert d == [Fraction(minors[k + 1], minors[k]) for k in range(n)]
    assert all(sign * p > 0 for p in d)
    assert all(i < j and x for i, row in enumerate(c) for j, x in row)
    v = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    completed = sum(d[i] * (v[i] + sum(x * v[j] for j, x in c[i])) ** 2 for i in range(n))
    assert completed == inner(lattice, v, v)


def test_output_sorted_and_nonzero():
    e8 = resolve("E8")
    roots = short_vectors_definite(e8, -2)
    assert list(roots) == sorted(roots)
    assert all(any(v) for v in roots)


def test_indefinite_rejected():
    with pytest.raises(LatticeShapeMismatch):
        short_vectors_definite(resolve("U"), 2)
    with pytest.raises(LatticeShapeMismatch):
        short_vectors_definite(resolve("I_1_1"), 1)


def test_indefinite_rejected_before_the_shortcuts():
    # G_00 > 0; -1 has the other sign, and 1, -1 and 3 lie off the content 2
    skew = Lattice("x", 2, ((2, 1), (1, -2)))
    for target in (1, -1, 3, 0):
        with pytest.raises(LatticeShapeMismatch):
            short_vectors_definite(skew, target)


def test_walk_budget_counts_walked_tuples():
    # a product walk counts every axis; a norm walk leaves out the solved last one
    edge = (0,) * 10  # 10^6 = WALK_BUDGET tuples from six such axes
    assert WALK_BUDGET == 10**6
    walk = box_walk([edge] * 6)  # lazy: the check runs, nothing is walked
    assert next(walk) == (0,) * 6
    box_walk([edge] * 6 + [range(-50, 51)], (((0,) * 7,) * 7, 0))
    with pytest.raises(BoxTooLarge) as info:
        box_walk([edge] * 6 + [(0, 1)])
    assert str(info.value) == "box walk of 2000000 tuples exceeds the budget of 1000000"
    with pytest.raises(BoxTooLarge):
        box_walk([edge] * 6 + [(0, 1), (0,)], (((0,) * 8,) * 8, 0))
    assert issubclass(BoxTooLarge, LatticeError)


def test_over_budget_searches_are_refused_before_walking():
    lminus = resolve("Lminus")
    with pytest.raises(BoxTooLarge):
        box_walk([box_range(8)] * 7)  # 17^7 tuples
    assert next(box_walk([box_range(4)] * 6)) == (-4,) * 6  # 9^6 = 531441 tuples, within the budget
    for call in (
        lambda: enumerate_primitive(lminus, 5),
        lambda: enumerate_primitive(lminus, 5, 4),
        lambda: wall_scan(8, 0, 3),
    ):
        with pytest.raises(BoxTooLarge):
            call()
    # the budget is read off the axis lengths, before any axis is copied
    tracemalloc.start()
    try:
        with pytest.raises(BoxTooLarge):
            enumerate_primitive(resolve("U2U"), 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**5
