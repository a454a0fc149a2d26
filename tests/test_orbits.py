import hashlib
import math
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lattice_orbits.enumeration import box_walk
from lattice_orbits.errors import (
    EvenTypeUndefinedForOddN,
    InvariantViolation,
    LabelParityMismatch,
    LatticeError,
    LatticeShapeMismatch,
    LimitExceeded,
    NonPrimitive,
    OddNormInEvenLattice,
    ZeroVector,
)
from lattice_orbits import orbits
from lattice_orbits.isometries import apply, sample_word
from lattice_orbits.lattices import inner, resolve
from lattice_orbits.orbits import (
    HEEGNER_MAX_RANGE,
    OrbitLabel,
    classify,
    embed_anti_invariant,
    embed_invariant,
    even_witness,
    heegner_range,
    heegner_report,
    is_even_type,
    representative,
)
from lattice_orbits.vectors import VectorType, is_primitive, norm, pair, vec

LMINUS = resolve("Lminus")
U2U = resolve("U2U")
LAMBDA = resolve("Lambda")
LPLUS = resolve("Lplus")


def test_classify_odd():
    report = classify(vec(LMINUS, (0,) * 10 + (1, 5)))
    assert report.norm == 10 and report.n == 5
    assert report.label is OrbitLabel.ODD
    assert report.primitive


def test_classify_even_ordinary():
    report = classify(vec(LMINUS, (0,) * 10 + (1, 4)))
    assert report.norm == 8 and report.n == 4
    assert report.label is OrbitLabel.EVEN_ORDINARY
    assert report.vtype is VectorType.ORDINARY
    assert not report.phi_integral


def test_classify_even_characteristic():
    report = classify(vec(LMINUS, (0,) * 8 + (1, 2, 0, 0)))
    assert report.norm == 8 and report.n == 4
    assert report.label is OrbitLabel.EVEN_CHARACTERISTIC
    assert report.vtype is VectorType.CHARACTERISTIC
    assert report.phi_integral


def test_classify_errors():
    with pytest.raises(ZeroVector):
        classify(vec(LMINUS, (0,) * 12))
    with pytest.raises(NonPrimitive):
        classify(vec(LMINUS, (0,) * 10 + (2, 4)))
    with pytest.raises(LatticeShapeMismatch):
        classify(vec(resolve("U"), (1, 1)))


def test_classify_rank4():
    assert classify(vec(U2U, (0, 0, 1, 3))).label is OrbitLabel.ODD
    assert classify(vec(U2U, (1, 2, 0, 0))).label is OrbitLabel.EVEN_CHARACTERISTIC
    assert classify(vec(U2U, (0, 0, 1, 4))).label is OrbitLabel.EVEN_ORDINARY


def test_representative_examples():
    assert representative(10, OrbitLabel.ODD).coords == (0,) * 10 + (1, 5)
    assert representative(8, OrbitLabel.EVEN_CHARACTERISTIC).coords == (0,) * 8 + (1, 2, 0, 0)
    assert representative(8, OrbitLabel.EVEN_ORDINARY).coords == (0,) * 10 + (1, 4)
    assert representative(0, OrbitLabel.EVEN_CHARACTERISTIC).coords == (0,) * 8 + (1, 0, 0, 0)
    assert representative(4, OrbitLabel.EVEN_ORDINARY, U2U).coords == (0, 0, 1, 2)


def test_representative_errors():
    with pytest.raises(OddNormInEvenLattice):
        representative(7, OrbitLabel.ODD)
    with pytest.raises(LabelParityMismatch):
        representative(10, OrbitLabel.EVEN_ORDINARY)
    with pytest.raises(LabelParityMismatch):
        representative(8, OrbitLabel.ODD)
    with pytest.raises(LatticeShapeMismatch):
        representative(8, OrbitLabel.ODD, resolve("U"))


def test_representatives_validate_over_range():
    for lattice in (LMINUS, U2U):
        for n in range(-20, 21):
            labels = (
                (OrbitLabel.ODD,)
                if n % 2
                else (OrbitLabel.EVEN_CHARACTERISTIC, OrbitLabel.EVEN_ORDINARY)
            )
            for label in labels:
                rep = representative(2 * n, label, lattice)
                report = classify(rep)
                assert report.norm == 2 * n
                assert report.label is label
                assert is_primitive(rep)


def test_embeddings_block_layout():
    v = vec(LMINUS, (0,) * 8 + (3, 1, 0, 0))
    assert embed_anti_invariant(v).coords == (0,) * 16 + (3, 1, -3, -1, 0, 0)
    w = vec(LPLUS, (0,) * 8 + (2, 1))
    assert embed_invariant(w).coords == (0,) * 16 + (2, 1, 2, 1, 0, 0)
    assert not any(embed_anti_invariant(vec(LMINUS, (0,) * 12)).coords)
    with pytest.raises(LatticeShapeMismatch):
        embed_anti_invariant(vec(U2U, (0, 0, 1, 0)))
    with pytest.raises(LatticeShapeMismatch):
        embed_invariant(vec(LMINUS, (0,) * 12))


def test_embeddings_isometric_and_orthogonal():
    import random

    rng = random.Random(29)
    for _ in range(300):
        v = vec(LMINUS, tuple(rng.randint(-3, 3) for _ in range(12)))
        v2 = vec(LMINUS, tuple(rng.randint(-3, 3) for _ in range(12)))
        w = vec(LPLUS, tuple(rng.randint(-3, 3) for _ in range(10)))
        w2 = vec(LPLUS, tuple(rng.randint(-3, 3) for _ in range(10)))
        assert pair(embed_anti_invariant(v), embed_anti_invariant(v2)) == pair(v, v2)
        assert pair(embed_invariant(w), embed_invariant(w2)) == pair(w, w2)
        assert pair(embed_anti_invariant(v), embed_invariant(w)) == 0


def test_is_even_type():
    assert is_even_type(vec(LMINUS, (0,) * 8 + (1, 1, 0, 0)))
    assert not is_even_type(vec(LMINUS, (0,) * 10 + (2, 1)))
    with pytest.raises(EvenTypeUndefinedForOddN):
        is_even_type(vec(LMINUS, (0,) * 10 + (1, 5)))
    with pytest.raises(NonPrimitive):
        is_even_type(vec(LMINUS, (0,) * 10 + (2, 2)))
    assert is_even_type(vec(U2U, (1, 2, 0, 0)))


def _is_witness(v, w):
    """w in Lplus is a witness for v by definition: equal norm, gcd 1, and the
    embedded sum (e, -e, u, -u, b) + (f, f, t, t, 0) in 2*Lambda."""
    total = zip(embed_anti_invariant(v).coords, embed_invariant(vec(LPLUS, w)).coords)
    return norm(vec(LPLUS, w)) == norm(v) and math.gcd(*w) == 1 and all((a + b) % 2 == 0 for a, b in total)


def _witness_sound(v, result):
    w = result.witness
    assert w is not None and w.lattice == LPLUS
    assert _is_witness(v, w.coords)


def test_witness_direct():
    v = vec(LMINUS, (0,) * 8 + (2, 1, 0, 0))
    result = even_witness(v)
    assert result.witness.coords == (0,) * 8 + (2, 1)
    assert not result.parity_obstruction
    _witness_sound(v, result)
    isotropic = vec(LMINUS, (0,) * 8 + (1, 0, 0, 0))
    result = even_witness(isotropic)
    assert result.witness.coords == (0,) * 8 + (1, 0)
    _witness_sound(isotropic, result)


def _box_witness(c, bound):
    """The box search even_witness ran before its closed form, kept as an oracle.

    Returns (witness coordinates or None, parity obstruction). Candidates in
    [-bound, bound]^10 match c's leading coordinates mod 2 and have c's norm;
    the first in lexicographic order wins, and c's own leading coordinates when
    its trailing two vanish.
    """
    v = vec(LMINUS, c)
    if c[10] % 2 != 0 or c[11] % 2 != 0:
        return None, True
    if c[10] == c[11] == 0 and _is_witness(v, c[:10]):
        return c[:10], False
    axes = [[x for x in range(-bound, bound + 1) if (x - a) % 2 == 0] for a in c[:10]]
    for w in box_walk(axes, (LPLUS.gram, norm(v))):
        if any(w) and _is_witness(v, w):
            return w, False
    return None, False


@pytest.mark.parametrize(
    "coords, witness",
    [
        ((0,) * 8 + (1, 2, 2, 2), (0,) * 8 + (1, 4)),  # u1 odd: (e, 1, M)
        ((0,) * 8 + (2, 1, 2, 2), (0,) * 8 + (4, 1)),  # u2 odd: (e, M, 1)
        ((1,) + (0,) * 11, (1,) + (0,) * 7 + (2, 0)),  # both even, M = 0 mod 4
        # both even, M = 2: (G e)_2 = 1 is the first odd entry, so e_2 += 2, M' = 4
        ((1,) + (0,) * 9 + (2, 2), (1, 0, 2) + (0,) * 5 + (2, 2)),
        # the box search of bound 2 missed this one (u1 odd, M = 3)
        ((1,) + (0,) * 6 + (1, 1, 1, 2, 2), (1,) + (0,) * 6 + (1, 1, 3)),
    ],
)
def test_witness_closed_form(coords, witness):
    v = vec(LMINUS, coords)
    result = even_witness(v)
    assert result.witness.coords == witness and not result.parity_obstruction
    _witness_sound(v, result)


def test_witness_obstruction():
    result = even_witness(vec(LMINUS, (0,) * 10 + (2, 1)))
    assert result.witness is None
    assert result.parity_obstruction
    result = even_witness(vec(LMINUS, (0,) * 10 + (4, 3)))
    assert result.witness is None and result.parity_obstruction


def test_witness_box_search():
    # trailing coordinates even but nonzero: the box of bound 2 holds a witness,
    # the box of bound 1 none, and the closed form needs no box
    v = vec(LMINUS, (0,) * 8 + (1, 2, 2, 0))
    assert _box_witness(v.coords, 1) == (None, False)
    found, obstructed = _box_witness(v.coords, 2)
    assert found is not None and not obstructed and _is_witness(v, found)
    _witness_sound(v, even_witness(v))


def test_witness_errors():
    with pytest.raises(LatticeShapeMismatch):
        even_witness(vec(U2U, (1, 2, 0, 0)))
    with pytest.raises(EvenTypeUndefinedForOddN):
        even_witness(vec(LMINUS, (0,) * 10 + (1, 5)))
    with pytest.raises(NonPrimitive):
        even_witness(vec(LMINUS, (0,) * 10 + (2, 2)))


_BRANCHES = ("u1 odd", "u2 odd", "M = 0 mod 4", "M = 2 mod 4")


@st.composite
def _unobstructed(draw):
    """A branch and a primitive Lminus vector with even trailing coordinates in it.

    With u1 and u2 even, M = u1*u2 + 2*beta1*beta2 is 2 mod 4 exactly when
    beta1 and beta2 are both odd.
    """
    branch = draw(st.sampled_from(_BRANCHES))
    small = st.integers(-3, 3)
    e = [draw(small) for _ in range(8)]
    u1 = 2 * draw(small) + (branch == "u1 odd")
    u2 = 2 * draw(small) + (branch == "u2 odd" or branch == "u1 odd" and draw(st.booleans()))
    beta1, beta2 = draw(small), draw(small)
    if branch == "M = 2 mod 4":
        beta1, beta2 = 2 * beta1 + 1, 2 * beta2 + 1
    elif branch == "M = 0 mod 4":
        beta1 *= 2
    c = (*e, u1, u2, 2 * beta1, 2 * beta2)
    assume(math.gcd(*c) == 1)
    return branch, c


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_unobstructed())
def test_witness_closed_form_against_the_definition(case):
    branch, c = case
    u1, u2, b1, b2 = c[8:]
    m = u1 * u2 + b1 * b2 // 2
    seen = "u1 odd" if u1 % 2 else "u2 odd" if u2 % 2 else _BRANCHES[2 + (m % 4 == 2)]
    assert seen == branch
    v = vec(LMINUS, c)
    result = even_witness(v)
    assert not result.parity_obstruction
    _witness_sound(v, result)
    for bound in (1, 2):
        assert _box_witness(c, bound) == (None, False) or result.witness is not None


@st.composite
def _labelled_vectors(draw):
    lattice = resolve(draw(st.sampled_from(("Lminus", "U2U"))))
    coords = draw(st.lists(st.integers(-20, 20), min_size=lattice.rank, max_size=lattice.rank)
                  .filter(lambda c: math.gcd(*c) == 1))
    return vec(lattice, coords)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_labelled_vectors(), st.integers(0, 2**32 - 1), st.integers(0, 16))
def test_labels_survive_sampled_words(v, seed, length):
    # the orbit label is an invariant: a certified word never changes it
    w = apply(sample_word(v.lattice, seed, length), v)
    assert norm(w) == norm(v)
    assert classify(w).label is classify(v).label


def _witness_inputs():
    """48 seeded primitive Lminus vectors of norm 0 mod 4: mostly even trailing
    coordinates, every eighth a parity obstruction, every eighth a direct case."""
    rng = random.Random(4)
    out = []
    while len(out) < 48:
        c = [rng.randint(-2, 2) for _ in range(10)] + [rng.choice((-2, 0, 2)) for _ in range(2)]
        if len(out) % 8 == 7:
            c[10] += 1
        if len(out) % 8 == 3:
            c[10] = c[11] = 0
        c = tuple(c)
        if any(c) and math.gcd(*c) == 1 and inner(LMINUS, c, c) % 4 == 0:
            out.append(c)
    return out


def test_witness_pinned_digest():
    # recorded from the product-and-filter search that even_witness ran before
    # the norm-solving walker, and now computed from the test-local box search;
    # the inputs hit found, not found within the bound, obstructed and direct
    # results, and wherever the box holds a witness the closed form gives one
    digest = hashlib.sha256()
    for c in _witness_inputs():
        closed = even_witness(vec(LMINUS, c))
        for bound in (1, 2):
            w, obstructed = _box_witness(c, bound)
            digest.update(f"{c} {bound} {w} {obstructed} {bound}\n".encode())
            assert closed.parity_obstruction == obstructed
            if w is not None:
                _witness_sound(vec(LMINUS, c), closed)
    assert digest.hexdigest() == "31a2a1a466059b7ef0186bff40357d9faf957a5d2603d0dbb3c2c3105308a7cb"


def test_invariant_violation_is_not_a_domain_error():
    assert not issubclass(InvariantViolation, LatticeError)


def test_cross_checks_survive_python_O(package_env):
    code = textwrap.dedent(
        """
        import dataclasses
        from lattice_orbits import orbits
        from lattice_orbits.errors import InvariantViolation
        from lattice_orbits.lattices import resolve
        from lattice_orbits.vectors import vec

        if __debug__:
            raise SystemExit("expected python -O, which strips assert statements")
        honest_integral, honest_classify = orbits.is_integral, orbits.classify
        orbits.is_integral = lambda h: not honest_integral(h)  # one criterion now lies
        try:
            orbits.classify(vec(resolve("Lminus"), (0,) * 10 + (1, 4)))
        except InvariantViolation as exc:
            print("classify raised:", exc)
        orbits.is_integral = honest_integral
        orbits.classify = lambda v: dataclasses.replace(
            honest_classify(v), label=orbits.OrbitLabel.ODD
        )
        try:
            orbits.representative(8, orbits.OrbitLabel.EVEN_ORDINARY)
        except InvariantViolation as exc:
            print("representative raised:", exc)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=package_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["classify raised", "representative raised"]


def test_witness_check_survives_python_O(package_env):
    code = textwrap.dedent(
        """
        from lattice_orbits import orbits
        from lattice_orbits.errors import InvariantViolation
        from lattice_orbits.lattices import resolve
        from lattice_orbits.vectors import vec

        if __debug__:
            raise SystemExit("expected python -O, which strips assert statements")
        orbits._witness_ok = lambda v, w: False  # every witness now fails its check
        try:
            orbits.even_witness(vec(resolve("Lminus"), (0,) * 8 + (2, 1, 0, 0)))
        except InvariantViolation as exc:
            print("even_witness raised:", exc)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=package_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("even_witness raised: witness ")


def test_heegner_reports():
    assert len(heegner_report(5).components) == 1
    report = heegner_report(4)
    assert report.norm == 8
    assert [c.label for c in report.components] == [
        OrbitLabel.EVEN_CHARACTERISTIC,
        OrbitLabel.EVEN_ORDINARY,
    ]
    assert len(heegner_report(0).components) == 2
    counts = [len(r.components) for r in heegner_range(-2, 2)]
    assert counts == [2, 1, 2, 1, 2]
    assert heegner_range(3, 2) == ()


def test_norm_labels_is_the_one_label_rule():
    assert orbits.norm_labels(5) == orbits.norm_labels(9) == orbits.norm_labels(-3) == ()
    assert orbits.norm_labels(10) == orbits.norm_labels(-2) == (OrbitLabel.ODD,)
    even = (OrbitLabel.EVEN_CHARACTERISTIC, OrbitLabel.EVEN_ORDINARY)
    assert orbits.norm_labels(8) == orbits.norm_labels(0) == orbits.norm_labels(-4) == even
    for n in range(-6, 7):
        assert tuple(c.label for c in heegner_report(n).components) == orbits.norm_labels(2 * n)


def test_even_witness_refuses_exactly_the_odd_label():
    rng = random.Random(25)
    refused = kept = 0
    while refused < 100 or kept < 100:
        v = vec(LMINUS, [rng.randint(-6, 6) for _ in range(12)])
        if not any(v.coords) or not is_primitive(v):
            continue
        odd = orbits.norm_labels(norm(v)) == (OrbitLabel.ODD,)
        try:
            even_witness(v)
        except EvenTypeUndefinedForOddN:
            assert odd, v.coords
            refused += 1
        else:
            assert not odd, v.coords
            kept += 1


def test_classify_and_even_witness_read_the_one_label_rule(monkeypatch):
    # with the rule forced to odd, both follow it; a copy of the rule would not
    v = vec(LMINUS, (0,) * 10 + (1, 4))  # norm 8, even n
    assert classify(v).label is OrbitLabel.EVEN_ORDINARY
    monkeypatch.setattr(orbits, "norm_labels", lambda value: (OrbitLabel.ODD,))
    assert classify(v).label is OrbitLabel.ODD
    with pytest.raises(EvenTypeUndefinedForOddN, match="^norm 8 is not divisible by 4$"):
        even_witness(v)
    # forced to even, an odd-n vector reaches the witness search and its parity obstruction
    monkeypatch.setattr(orbits, "norm_labels", lambda value: (OrbitLabel.EVEN_CHARACTERISTIC, OrbitLabel.EVEN_ORDINARY))
    assert even_witness(vec(LMINUS, (0,) * 10 + (1, 5))).parity_obstruction


def test_every_classify_label_in_a_u2u_box_is_admitted_by_its_norm():
    seen = set()
    for coords in box_walk([range(-3, 4)] * 4):
        if math.gcd(*coords) != 1:
            continue
        report = classify(vec(U2U, coords))
        assert report.label in orbits.norm_labels(report.norm), coords
        seen.add(report.label)
    assert seen == set(OrbitLabel)


def test_heegner_range_is_bounded_before_any_report(monkeypatch):
    built = []
    monkeypatch.setattr(orbits, "heegner_report", lambda n, lattice=None: built.append(n))
    assert len(heegner_range(1, HEEGNER_MAX_RANGE)) == HEEGNER_MAX_RANGE == 10**4
    built.clear()
    for n_min, n_max in ((0, HEEGNER_MAX_RANGE), (-5, 10**8), (-(10**100), 10**100)):
        with pytest.raises(LimitExceeded, match="at most 10000 values of n"):
            heegner_range(n_min, n_max)
    assert built == []
