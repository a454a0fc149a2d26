import math
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_orbits.dilatation import (
    HalfVector,
    dilate,
    dilate_inverse,
    half_norm,
    half_target,
    is_integral,
)
from lattice_orbits.errors import LatticeShapeMismatch, NotInHalfLattice, RankMismatch
from lattice_orbits.lattices import (
    TWISTED_PLUS_U,
    Lattice,
    SplitShape,
    builtin_domain,
    builtin_names,
    direct_sum,
    make_e8,
    make_i,
    make_u,
    resolve,
    twist,
    twisted_plus_u,
)
from lattice_orbits.orbits import OrbitLabel, classify
from lattice_orbits.vectors import (
    VectorType,
    is_primitive,
    norm,
    vec,
    vector_type,
)
from support import characteristic_by_parity, double, integral_image

LMINUS = resolve("Lminus")
U2U = resolve("U2U")


def test_integral_example():
    v = vec(LMINUS, (0,) * 10 + (1, 3))
    h = dilate(v)
    assert h.base.name == "E8_U_I11"
    assert h.doubled_coords == (0,) * 10 + (4, -2)
    assert tuple(Fraction(d, 2) for d in h.doubled_coords) == (0,) * 10 + (2, -1)
    assert is_integral(h)
    assert half_norm(h) == 3
    assert norm(v) == 2 * half_norm(h)
    assert dilate_inverse(h) == v


def test_fractional_example():
    v = vec(LMINUS, (0,) * 10 + (1, 4))
    h = dilate(v)
    assert h.doubled_coords == (0,) * 10 + (5, -3)
    assert tuple(Fraction(d, 2) for d in h.doubled_coords[10:]) == (Fraction(5, 2), Fraction(-3, 2))
    assert not is_integral(h)
    assert norm(v) == 2 * half_norm(h)
    assert dilate_inverse(h) == v
    with pytest.raises(NotInHalfLattice):
        integral_image(h)


def test_fixed_point_example():
    v = vec(LMINUS, (0,) * 8 + (1, 2, 0, 0))
    h = dilate(v)
    assert is_integral(h)
    image = integral_image(h)
    assert image.coords == (0,) * 8 + (1, 2, 0, 0)
    # the integral image of a characteristic vector is ordinary: the halving
    # map flips the convention
    assert vector_type(v) is VectorType.CHARACTERISTIC
    assert vector_type(image) is VectorType.ORDINARY


def test_double_of_fractional_image_is_characteristic():
    v = vec(LMINUS, (0,) * 10 + (1, 4))
    doubled = double(dilate(v))
    assert doubled.lattice.name == "E8_U_I11"
    assert doubled.coords == (0,) * 10 + (5, -3)
    assert vector_type(doubled) is VectorType.CHARACTERISTIC
    assert double(dilate(vec(LMINUS, (0,) * 10 + (1, 3)))).coords == (0,) * 10 + (4, -2)
    assert not any(double(dilate(vec(LMINUS, (0,) * 12))).coords)


def test_integrality_parity_rule():
    for k in (1, -2, 5):
        assert is_integral(dilate(vec(LMINUS, (0,) * 8 + (k, 1, 0, 0))))
        assert not is_integral(dilate(vec(LMINUS, (0,) * 10 + (2 * k, 1))))
    assert is_integral(dilate(vec(LMINUS, (0,) * 12)))


def test_half_vector_validation():
    target = resolve("E8_U_I11")
    with pytest.raises(NotInHalfLattice):
        HalfVector(target, (1,) + (0,) * 11)  # odd leading coordinate
    with pytest.raises(NotInHalfLattice):
        HalfVector(target, (0,) * 10 + (1, 2))  # trailing parities differ
    with pytest.raises(RankMismatch):
        HalfVector(target, (0,) * 5)
    with pytest.raises(LatticeShapeMismatch):
        HalfVector(resolve("U"), (0, 0))


def test_half_target():
    assert half_target(LMINUS).name == "E8_U_I11"
    assert half_target(U2U).name == "U_I11"
    with pytest.raises(LatticeShapeMismatch):
        half_target(resolve("U"))


def test_inverse_recovers_domain_from_name():
    # built by name, not via half_target, so the reverse lookup must kick in
    h = HalfVector(resolve("E8_U_I11"), (0,) * 10 + (4, -2))
    assert dilate_inverse(h).lattice == LMINUS
    h = HalfVector(resolve("U_I11"), (0, 0, 1, 1))
    assert dilate_inverse(h).lattice == U2U


def test_known_domains_are_the_built_in_half_targets():
    # dilate_inverse trusts this pairing without rebuilding the target
    assert half_target(LMINUS) == resolve("E8_U_I11")
    assert half_target(U2U) == resolve("U_I11")
    # the built-in targets are the images the domains' tags carry, not copies
    assert half_target(LMINUS) is resolve("E8_U_I11")
    assert half_target(U2U) is resolve("U_I11")


def test_builtin_domain_reads_the_pairing_from_the_tags():
    assert builtin_domain(resolve("E8_U_I11")) is LMINUS
    assert builtin_domain(resolve("U_I11")) is U2U
    for name in builtin_names()[:-1]:
        if name not in ("E8_U_I11", "U_I11"):
            assert builtin_domain(resolve(name)) is None, name
    assert builtin_domain(make_i(1, 1)) is None
    image = resolve("U_I11")
    # an equal copy has the built-in's domain; the same form under another name has none
    assert builtin_domain(Lattice("U_I11", image.rank, image.gram, image.shape)) is U2U
    assert builtin_domain(Lattice("V_I11", image.rank, image.gram, image.shape)) is None


def _hand_tagged(base):
    """base(2) + U tagged by hand: the tag builds its own half target."""
    body = direct_sum(twist(base, 2), make_u())
    return Lattice("Hand", body.rank, body.gram, SplitShape(TWISTED_PLUS_U, base))


@pytest.mark.parametrize(
    "base, message",
    [(make_i(1, 1), r"^base I_1_1 is not even$"), (twist(make_u(), 2), r"^base U\(2\) is not unimodular$")],
)
def test_hand_made_tags_over_bad_bases_still_fail(base, message):
    # refused when the tag is made, so no vector of such a lattice exists
    with pytest.raises(LatticeShapeMismatch, match=message):
        SplitShape(TWISTED_PLUS_U, base)
    with pytest.raises(LatticeShapeMismatch, match=message):
        _hand_tagged(base)


def test_hand_made_tags_over_good_bases_still_classify():
    # the target is built with the tag, so it equals the built-in but is not it
    e8_u = direct_sum(make_e8(), make_u(), name="E8_U")
    for base, target in ((make_u(), resolve("U_I11")), (e8_u, resolve("E8_U_I11"))):
        lattice = _hand_tagged(base)
        assert lattice.shape.image == target and lattice.shape.image is not target
        assert half_target(lattice) is lattice.shape.image
        assert classify(vec(lattice, (0,) * base.rank + (1, 3))).label is OrbitLabel.ODD
        assert classify(vec(lattice, (0,) * base.rank + (2, 1))).label is OrbitLabel.EVEN_ORDINARY
        assert dilate(vec(lattice, (0,) * base.rank + (1, 3))).base == target


def test_inverse_does_not_depend_on_earlier_dilations(package_env):
    # a fresh interpreter, so no dilation of the built-in U2U comes first
    script = (
        "from lattice_orbits.dilatation import HalfVector, dilate, dilate_inverse\n"
        "from lattice_orbits.lattices import make_u, resolve, twisted_plus_u\n"
        "from lattice_orbits.vectors import vec\n"
        "dilate(vec(twisted_plus_u(make_u(), name='MyU2U'), (1, 0, 1, 1)))\n"
        "back = dilate_inverse(HalfVector(resolve('U_I11'), (0, 0, 1, 1)))\n"
        "assert back.lattice == resolve('U2U'), back.lattice.name\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=package_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_inverse_refuses_images_of_custom_lattices():
    mine = twisted_plus_u(direct_sum(make_e8(), make_u(), name="MyE8U"), name="Mine")
    h = dilate(vec(mine, (0,) * 10 + (1, 3)))
    assert h.base.name == "MyE8U_I11"
    with pytest.raises(LatticeShapeMismatch, match="^no known dilatation domain for MyE8U_I11$"):
        dilate_inverse(h)


def test_round_trip_exhaustive_rank4():
    for coords in product(range(-3, 4), repeat=4):
        v = vec(U2U, coords)
        h = dilate(v)
        assert norm(v) == 2 * half_norm(h)
        assert dilate_inverse(h) == v
        assert dilate(dilate_inverse(h)) == h


def test_parity_trichotomy_rank4():
    for coords in product(range(-3, 4), repeat=4):
        if not any(coords):
            continue
        v = vec(U2U, coords)
        if not is_primitive(v):
            continue
        n = norm(v) // 2
        b1, b2 = coords[2], coords[3]
        if n % 2 != 0:
            assert b1 % 2 == 1 and b2 % 2 == 1
        else:
            assert not (b1 % 2 == 1 and b2 % 2 == 1)
        if norm(v) % 4 == 0:
            assert is_integral(dilate(v)) == (b1 % 2 == 0 and b2 % 2 == 0)


@st.composite
def _primitive_vectors(draw):
    lattice = draw(st.sampled_from((LMINUS, U2U)))
    coords = draw(st.lists(st.integers(-50, 50), min_size=lattice.rank, max_size=lattice.rank)
                  .filter(lambda c: math.gcd(*c) == 1))
    return vec(lattice, coords)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_primitive_vectors())
def test_halving_round_trip_and_parity_on_random_primitive_vectors(v):
    h = dilate(v)
    assert dilate_inverse(h) == v
    assert 2 * half_norm(h) == norm(v)
    r = v.lattice.shape.base.rank
    assert is_integral(h) == (v.coords[r] % 2 == v.coords[r + 1] % 2)
    # the parity shortcut against the definition, pairings with every basis vector
    assert characteristic_by_parity(double(h)) == (vector_type(double(h)) is VectorType.CHARACTERISTIC)
