import hashlib
import json
import math
import random
import tracemalloc

import pytest

from lattice_orbits import isometries, jsonio, oracle
from lattice_orbits.enumeration import box_walk
from lattice_orbits.errors import (
    LatticeError,
    LimitExceeded,
    NegativeCount,
    NotIsometry,
    ZeroVector,
)
from lattice_orbits.isometries import negation
from lattice_orbits.lattices import inner, resolve
from lattice_orbits.oracle import (
    E8_MIN_NORM,
    EXPECTED_E8_COUNTS,
    connectivity_experiment,
    e8_vector_count,
    enumerate_primitive,
    invariance_suite,
    random_primitive,
    wall_scan,
)
from lattice_orbits.vectors import is_primitive, norm

U2U = resolve("U2U")
LMINUS = resolve("Lminus")


def _naive_u2u(bound, target):
    # independent rewrite: four explicit loops against the fixed U(2)+U gram
    found = []
    for x1 in range(-bound, bound + 1):
        for x2 in range(-bound, bound + 1):
            for y1 in range(-bound, bound + 1):
                for y2 in range(-bound, bound + 1):
                    if x1 == x2 == y1 == y2 == 0:
                        continue
                    if math.gcd(x1, x2, y1, y2) != 1:
                        continue
                    if 4 * x1 * x2 + 2 * y1 * y2 == target:
                        found.append((x1, x2, y1, y2))
    return found


def _naive_i21(bound, target):
    # the same loops against the diagonal form x^2 + y^2 - z^2
    found = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            for z in range(-bound, bound + 1):
                if math.gcd(x, y, z) == 1 and x * x + y * y - z * z == target:
                    found.append((x, y, z))
    return found


def test_enumerate_contains_known_vector():
    scan = enumerate_primitive(U2U, 1, -2)
    assert (0, 0, 1, -1) in {v.coords for v in scan.vectors}
    assert all(norm(v) == -2 for v in scan.vectors)


def test_enumerate_empty_box():
    assert enumerate_primitive(LMINUS, 0).vectors == ()
    # the box of bound 0 holds only the zero vector, which is never a hit
    for name in ("Lminus", "U2U", "I_1_0", "E8_2"):
        for value in (None, 0, 2, -4):
            scan = enumerate_primitive(resolve(name), 0, value)
            assert scan.vectors == () and (scan.bound, scan.norm) == (0, value)


def test_enumerate_rechecks_every_hit(monkeypatch):
    # a walker that ignored the norm would still give only vectors of that norm
    want = enumerate_primitive(U2U, 2, -4)
    monkeypatch.setattr(oracle, "box_walk", lambda axes, form: box_walk(axes))
    assert enumerate_primitive(U2U, 2, -4) == want


@pytest.mark.parametrize("value", [None, 0, 4, -2])
def test_scans_never_yield_the_zero_vector(value):
    for name, bound in (("U2U", 2), ("I_2_1", 2), ("I_1_0", 3)):
        lattice = resolve(name)
        for v in enumerate_primitive(lattice, bound, value).vectors:
            assert any(v.coords) and math.gcd(*v.coords) == 1
            assert value is None or norm(v) == value


def test_enumerate_matches_naive_count():
    # full coordinate lists, in order, not only counts
    cases = [(U2U, _naive_u2u, 2, target) for target in (0, 2, 4, -4)]
    cases += [(U2U, _naive_u2u, 3, target) for target in (6, -8)]
    cases += [(resolve("I_2_1"), _naive_i21, 4, target) for target in (0, 1, -1, 2, 5, -7)]
    for lattice, naive, bound, target in cases:
        coords = [v.coords for v in enumerate_primitive(lattice, bound, target).vectors]
        assert coords == naive(bound, target), (lattice.name, bound, target)


def test_enumerate_contract():
    scan = enumerate_primitive(U2U, 2)
    coords = [v.coords for v in scan.vectors]
    assert coords == sorted(coords)  # lexicographic
    seen = set(coords)
    for v in scan.vectors:
        assert is_primitive(v)
        assert all(-2 <= c <= 2 for c in v.coords)
        assert tuple(-c for c in v.coords) in seen  # closed under negation


# sha256 over f"{bound} {norm} {coords!r}\n" for every bound listed and every
# norm in (None, -12, ..., 12), recorded from the product-and-filter walk that
# enumerate_primitive ran before the norm-solving walker
PINNED_SCAN_BOUNDS = {"U2U": (0, 1, 2, 3, 4), "I_2_3": (1, 2), "E8_2": (1,)}
PINNED_SCAN_DIGESTS = {
    "U2U": "f30546b3e870c3a5ff7669c9c77cabfbddcac2b39f660c077dec716ec35494c9",
    "I_2_3": "05ff3fe74cd38f9cead27398ca4e9a55645ba45651b53ebc73cf48ba4fb7185e",
    "E8_2": "7eccdf2e26dfcf49665c90df84dd9bbe425ac716b9391ab00001d9d432d73597",
}


@pytest.mark.parametrize("name", sorted(PINNED_SCAN_DIGESTS))
def test_enumerate_pinned_digest(name):
    lattice = resolve(name)
    digest = hashlib.sha256()
    for bound in PINNED_SCAN_BOUNDS[name]:
        for value in (None, *range(-12, 13)):
            coords = [v.coords for v in enumerate_primitive(lattice, bound, value).vectors]
            digest.update(f"{bound} {value} {coords!r}\n".encode())
    assert digest.hexdigest() == PINNED_SCAN_DIGESTS[name]


class _Unwalked:
    """A walk that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("the walk started")


def _refuse(*args):
    raise AssertionError("a vector was built")


def test_scans_keep_at_most_max_scan_hits(monkeypatch):
    # U2U bound 10, a box of 21^4 = 194,481 tuples, fits under the real cap
    assert oracle.MAX_SCAN_HITS == 200_000
    assert len(enumerate_primitive(U2U, 10).vectors) == 176_896
    # bound 2 is a box of 625 tuples holding 544 hits, and norm 8 at bound 4
    # finds 296: each cap at the size itself passes, one below it is refused
    monkeypatch.setattr(oracle, "MAX_SCAN_HITS", 625)
    assert len(enumerate_primitive(U2U, 2).vectors) == 544
    monkeypatch.setattr(oracle, "MAX_SCAN_HITS", 296)
    assert len(enumerate_primitive(U2U, 4, 8).vectors) == 296
    monkeypatch.setattr(oracle, "vectors_of", _refuse)
    monkeypatch.setattr(oracle, "MAX_SCAN_HITS", 295)
    with pytest.raises(LimitExceeded) as info:
        enumerate_primitive(U2U, 4, 8)
    assert str(info.value) == "box scans keep at most 295 hits, and the scan found 296"
    monkeypatch.setattr(oracle, "MAX_SCAN_HITS", 624)
    monkeypatch.setattr(oracle, "box_walk", lambda axes, form=None: _Unwalked())
    with pytest.raises(LimitExceeded) as info:
        enumerate_primitive(U2U, 2)
    assert str(info.value) == "box scans keep at most 624 hits, and the box holds 625 tuples"


def test_connectivity_and_wall_pinned_digests():
    # suite documents as the CLI prints them, recorded before the walker change
    digest = hashlib.sha256()
    for value, bound in ((2, 3), (8, 3), (0, 2), (-4, 3)):
        doc = jsonio.suite_to_json(connectivity_experiment(U2U, value, bound, 7, 150))
        digest.update(json.dumps(doc).encode() + b"\n")
    assert digest.hexdigest() == "30d929305ac1801dc5aab57abf0fa08987877f998a378d61292b1d5bb12c5c35"
    digest = hashlib.sha256()
    for s, t, bound in ((1, 2, 3), (3, 0, 3), (2, 3, 2), (0, 1, 4)):
        digest.update(json.dumps(jsonio.suite_to_json(wall_scan(s, t, bound))).encode() + b"\n")
    assert digest.hexdigest() == "48fe2fffaa6829cd7e44bfafaadff06b35d1d4a5becdfb1c99c822829554a41c"


def test_random_primitive_refuses_the_zero_box():
    # the only vector with every coordinate in [0, 0] is zero: refuse, do not spin
    with pytest.raises(ZeroVector):
        random_primitive(LMINUS, random.Random(1), 0)
    assert invariance_suite(LMINUS, 0, 1, bound=0).status == "pass"


def test_random_primitive():
    rng = random.Random(42)
    v = random_primitive(LMINUS, rng, 3)
    assert is_primitive(v)
    again = random_primitive(LMINUS, random.Random(42), 3)
    assert again == v


def test_invariance_suite_passes():
    result = invariance_suite(LMINUS, 200, 42)
    assert result.status == "pass"
    assert result.counterexample is None
    assert result.stats["checked"] == 200


def test_invariance_suite_vacuous():
    result = invariance_suite(LMINUS, 0, 1)
    assert result.status == "pass" and result.stats["checked"] == 0


def test_invariance_suite_refuses_corrupt_matrix():
    bad = [[2 if i == j else 0 for j in range(12)] for i in range(12)]
    with pytest.raises(NotIsometry):
        invariance_suite(LMINUS, 10, 1, isometries=[bad])


def test_invariance_suite_accepts_explicit_isometry():
    result = invariance_suite(U2U, 50, 7, isometries=[negation(U2U).matrix])
    assert result.status == "pass"
    assert result.stats["extra_isometries"] == 1


def test_connectivity_experiment_odd_norm():
    result = connectivity_experiment(U2U, 2, 5, 42, 500)
    assert (result.suite, result.status, result.counterexample) == ("connectivity", "pass", None)
    stats = result.stats
    assert stats["mixed_label_components"] == 0
    assert stats["edges_applied"] == 500
    labels = {lab for c in stats["components"] for lab in c["labels_present"]}
    assert labels == {"odd"}
    assert any(c["contains_representative"] for c in stats["components"])


def test_connectivity_experiment_even_norm():
    stats = connectivity_experiment(U2U, 8, 5, 42, 500).stats
    assert stats["mixed_label_components"] == 0
    labels = {lab for c in stats["components"] for lab in c["labels_present"]}
    assert labels == {"even_characteristic", "even_ordinary"}


@pytest.mark.parametrize(
    "call",
    [
        lambda: invariance_suite(LMINUS, -2, 1),
        lambda: invariance_suite(LMINUS, 0, 1, word_length=-3),
        lambda: connectivity_experiment(U2U, 2, 5, 42, -1),
        lambda: connectivity_experiment(U2U, 3, 2, 1, 10, word_length=-1),  # empty scan too
        lambda: enumerate_primitive(U2U, -1),
        lambda: enumerate_primitive(U2U, -2, 4),
        lambda: connectivity_experiment(U2U, 2, -1, 42, 10),
        lambda: invariance_suite(LMINUS, 1, 42, bound=-1),
        lambda: random_primitive(LMINUS, random.Random(1), -1),
        lambda: wall_scan(1, 2, -1),
    ],
)
def test_negative_counts_are_refused(call):
    with pytest.raises(NegativeCount) as info:
        call()
    assert isinstance(info.value, LatticeError)


def test_suite_word_budget_counts_words_times_their_length(monkeypatch):
    # a word of length 0 or 1 counts one step; the budget itself still runs
    monkeypatch.setattr(isometries, "SUITE_WORD_BUDGET", 12)
    for words, length in ((12, 0), (12, 1), (6, 2), (3, 4)):
        assert invariance_suite(U2U, words, 1, word_length=length).stats["checked"] == words
        assert connectivity_experiment(U2U, 2, 1, 1, words, length).stats["edges_applied"] == words
    for words, length in ((13, 0), (13, 1), (7, 2), (4, 4)):
        message = f"^suites draw at most 12 generators in all, got {words} words of length {length}$"
        with pytest.raises(LimitExceeded, match=message):
            invariance_suite(U2U, words, 1, word_length=length)
        with pytest.raises(LimitExceeded, match=message):
            connectivity_experiment(U2U, 2, 1, 1, words, length)


def test_connectivity_empty_scan():
    result = connectivity_experiment(U2U, 3, 2, 1, 10)  # odd norm, even lattice
    assert result.status == "pass"
    assert result.stats["components"] == [] and result.stats["vectors"] == 0
    assert result.stats["mixed_label_components"] == 0


def test_wall_scan():
    assert wall_scan(2, 2, 4).status == "pass"
    assert wall_scan(1, 1, 3).status == "pass"
    result = wall_scan(3, 2, 3)
    assert result.status == "pass"
    assert result.stats["characteristic_vectors"] > 0


def test_wall_congruence_value_directly():
    lattice = resolve("I_3_2")
    from itertools import product

    from lattice_orbits.vectors import VectorType, vec, vector_type

    for coords in product(range(-2, 3), repeat=5):
        v = vec(lattice, coords)
        if vector_type(v) is VectorType.CHARACTERISTIC:
            assert norm(v) % 8 == 1  # s - t = 1


def test_e8_counts():
    assert e8_vector_count(-2) == EXPECTED_E8_COUNTS[-2] == 240
    assert e8_vector_count(-4) == 2160
    assert e8_vector_count(-1) == 0


def test_e8_count_is_bounded_before_enumerating(monkeypatch):
    enumerated = []
    monkeypatch.setattr(oracle, "definite_vectors",
                        lambda lattice, norm: enumerated.append(norm) or ())
    assert E8_MIN_NORM == -14
    assert e8_vector_count(-14) == 0 and enumerated == [-14]  # the cap itself is allowed
    for value in (-15, -16, -(10**9)):
        with pytest.raises(LimitExceeded, match="need norm >= -14"):
            e8_vector_count(value)
    assert enumerated == [-14]
    monkeypatch.undo()
    assert e8_vector_count(10**9) == 0  # positive norms count nothing, at once


def test_e8_count_streams_the_shell():
    # a shell is counted as the descent finds it, never held: the 17,520
    # tuples of norm -8 would take over 2 MB, and the 82,560 at E8_MIN_NORM
    # traced an 11.0 MB peak when held (-8 keeps the traced run under a second)
    e8_vector_count(-2)  # imports and first-call set-up stay out of the peak
    tracemalloc.start()
    try:
        assert e8_vector_count(-8) == 17520
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_e8_roots_against_gram():
    e8 = resolve("E8")
    from lattice_orbits.enumeration import short_vectors_definite

    for v in short_vectors_definite(e8, -2):
        assert inner(e8, v, v) == -2
