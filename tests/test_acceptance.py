"""Ten acceptance gates, one test per criterion.

Each test prints its own pass line, so a verbose run reads as a checklist.
All bounds and seeds are fixed; every assertion is exact.
"""

import random
from itertools import product
from pathlib import Path

import pytest

from lattice_orbits.dilatation import (
    HalfVector,
    dilate,
    dilate_inverse,
    half_norm,
)
from lattice_orbits.lattices import resolve, signature, signature_and_determinant
from lattice_orbits.oracle import (
    connectivity_experiment,
    e8_vector_count,
    enumerate_primitive,
    invariance_suite,
    random_primitive,
    wall_scan,
)
from lattice_orbits.orbits import (
    OrbitLabel,
    classify,
    embed_anti_invariant,
    embed_invariant,
    even_witness,
    is_even_type,
)
from lattice_orbits.vectors import (
    LatticeVector,
    VectorType,
    is_primitive,
    norm,
    pair,
    vec,
    vector_type,
)
from lattice_orbits.dilatation import is_integral
from support import GOLDEN_CASES, characteristic_by_parity

SEED = 42
LMINUS = resolve("Lminus")
U2U = resolve("U2U")
LPLUS = resolve("Lplus")


@pytest.fixture(scope="module")
def u2u_box6():
    return enumerate_primitive(U2U, 6).vectors


@pytest.fixture(scope="module")
def lminus_sample():
    rng = random.Random(SEED)
    return tuple(random_primitive(LMINUS, rng, 3) for _ in range(10_000))


def test_criterion_01_orbit_counts_rank4_box(u2u_box6):
    by_n = {}
    for v in u2u_box6:
        n = norm(v) // 2
        if -6 <= n <= 6:
            by_n.setdefault(n, set()).add(classify(v).label)
    for n in range(-6, 7):
        labels = by_n.get(n)
        assert labels, f"box 6 holds no primitive vector of norm {2 * n}"
        if n % 2 != 0:
            assert len(labels) == 1, (n, labels)
        else:
            assert labels == {
                OrbitLabel.EVEN_CHARACTERISTIC,
                OrbitLabel.EVEN_ORDINARY,
            }, (n, labels)
    print("criterion 1 (orbit counts in the rank-4 box): PASS")


def test_criterion_02_label_invariance():
    result = invariance_suite(LMINUS, 10_000, SEED, bound=3, word_length=8)
    assert result.status == "pass", result.counterexample
    assert result.stats["checked"] == 10_000
    print("criterion 2 (label invariance under 10^4 words): PASS")


def _triple_agrees(v, tail):
    char = vector_type(v) is VectorType.CHARACTERISTIC
    b1, b2 = v.coords[tail], v.coords[tail + 1]
    both_even = b1 % 2 == 0 and b2 % 2 == 0
    integral = is_integral(dilate(v))
    assert char == both_even == integral, (v.coords, char, both_even, integral)


def test_criterion_03_triple_agreement(u2u_box6, lminus_sample):
    checked = 0
    for v in u2u_box6:
        if norm(v) % 4 == 0:
            _triple_agrees(v, 2)
            checked += 1
    for v in lminus_sample:
        if norm(v) % 4 == 0:
            _triple_agrees(v, 10)
            checked += 1
    assert checked > 1000
    print("criterion 3 (three equivalent tests agree): PASS")


def test_criterion_04_parity_fastpath_exhaustive():
    lattice = resolve("U_I11")
    for coords in product(range(-4, 5), repeat=4):
        v = LatticeVector(lattice, coords)
        assert characteristic_by_parity(v) == (
            vector_type(v) is VectorType.CHARACTERISTIC
        ), coords
    print("criterion 4 (parity fast path equals definition): PASS")


def test_criterion_05_halving_contracts(lminus_sample):
    for v in lminus_sample:
        h = dilate(v)
        assert norm(v) == 2 * half_norm(h)
        assert dilate_inverse(h) == v
    for coords in product(range(-5, 6), repeat=4):
        v = vec(U2U, coords)
        h = dilate(v)
        assert norm(v) == 2 * half_norm(h)
        assert dilate_inverse(h) == v
    target = resolve("U_I11")
    for coords in product(range(-3, 4), repeat=4):
        doubled = (2 * coords[0], 2 * coords[1], coords[2], coords[3])
        if (doubled[2] - doubled[3]) % 2 != 0:
            continue
        h = HalfVector(target, doubled)
        assert dilate(dilate_inverse(h)) == h
    print("criterion 5 (norm halving and inverse): PASS")


def test_criterion_06_wall_congruence_grid():
    for s in (1, 2, 3):
        for t in (1, 2, 3):
            result = wall_scan(s, t, 3)
            assert result.status == "pass", (s, t, result.counterexample)
            assert result.stats["characteristic_vectors"] > 0
    print("criterion 6 (mod-8 congruence grid): PASS")


def _witness_sound(v, result):
    w = result.witness
    assert norm(w) == norm(v) and is_primitive(w)
    total = zip(embed_anti_invariant(v).coords, embed_invariant(w).coords)
    assert all((a + b) % 2 == 0 for a, b in total)


def test_criterion_07_even_type_and_witnesses(u2u_box6, lminus_sample):
    for k in range(-5, 6):
        good = vec(LMINUS, (0,) * 8 + (k, 1, 0, 0))
        found = even_witness(good)
        assert found.witness is not None and not found.parity_obstruction, k
        _witness_sound(good, found)
        blocked = even_witness(vec(LMINUS, (0,) * 10 + (2 * k, 1)))
        assert blocked.witness is None and blocked.parity_obstruction, k
    for v in u2u_box6:
        if norm(v) % 4 == 0:
            assert is_even_type(v) == (
                classify(v).label is OrbitLabel.EVEN_CHARACTERISTIC
            )
    for v in lminus_sample:
        if norm(v) % 4 == 0:
            assert is_even_type(v) == (
                classify(v).label is OrbitLabel.EVEN_CHARACTERISTIC
            )
    print("criterion 7 (even type and invariant partners): PASS")


def test_criterion_08_connectivity_purity():
    for value in range(-8, 9):
        result = connectivity_experiment(U2U, value, 5, SEED, 10_000, 4)
        assert result.status == "pass" and result.stats["mixed_label_components"] == 0, value
        if value % 2 == 0:
            assert result.stats["components"], value
            assert result.stats["edges_applied"] == 10_000
        else:
            assert result.stats["components"] == []  # even lattice, odd norm
    print("criterion 8 (walk components stay label-pure): PASS")


def test_criterion_09_structural_anchors():
    e8 = resolve("E8")
    assert abs(signature_and_determinant(e8)[1]) == 1
    sig = signature(e8)
    assert (sig.positive, sig.negative, sig.zero) == (0, 8, 0)
    assert e8_vector_count(-2) == 240
    sig = signature(LMINUS)
    assert (sig.positive, sig.negative, sig.zero) == (2, 10, 0)
    rng = random.Random(SEED)
    for _ in range(500):
        v = vec(LMINUS, tuple(rng.randint(-3, 3) for _ in range(12)))
        v2 = vec(LMINUS, tuple(rng.randint(-3, 3) for _ in range(12)))
        w = vec(LPLUS, tuple(rng.randint(-3, 3) for _ in range(10)))
        w2 = vec(LPLUS, tuple(rng.randint(-3, 3) for _ in range(10)))
        assert pair(embed_anti_invariant(v), embed_anti_invariant(v2)) == pair(v, v2)
        assert pair(embed_invariant(w), embed_invariant(w2)) == pair(w, w2)
        assert pair(embed_anti_invariant(v), embed_invariant(w)) == 0
    print("criterion 9 (structural anchors): PASS")


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_criterion_10_cli_golden_bytes(cli_subprocess):
    for name, argv in GOLDEN_CASES:
        proc = cli_subprocess(argv)
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == (GOLDEN / name).read_bytes(), name
    print("criterion 10 (golden CLI bytes): PASS")
