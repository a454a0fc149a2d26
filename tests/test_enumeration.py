from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_orbits.enumeration import (
    box_range,
    box_vectors,
    box_walk,
    check_counts,
    short_vectors_definite,
)
from lattice_orbits.errors import LatticeShapeMismatch, NegativeCount
from lattice_orbits.isometries import sample_word
from lattice_orbits.lattices import Lattice, inner, resolve


def test_box_vectors_order_and_count():
    got = list(box_vectors(2, 1))
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
        box_vectors(3, -2)


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


@st.composite
def _walk_case(draw):
    rank = draw(st.integers(1, 4))
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
    axes = [draw(_axis()) for _ in range(rank)]
    return axes, gram, draw(st.integers(-12, 12))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_walk_case())
def test_box_walk_solves_the_norm_exactly(case):
    axes, gram, value = case
    assert list(box_walk(axes, (gram, value))) == _filtered_product(axes, gram, value)
    assert list(box_walk(axes)) == list(product(*axes))


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


def test_e8_shells():
    e8 = resolve("E8")
    roots = short_vectors_definite(e8, -2)
    assert len(roots) == 240
    assert all(inner(e8, v, v) == -2 for v in roots)
    assert len(short_vectors_definite(e8, -4)) == 2160
    assert short_vectors_definite(e8, -1) == ()
    assert short_vectors_definite(e8, -3) == ()


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
