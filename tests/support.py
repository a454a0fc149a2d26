"""Test-only oracles: restatements that the tests check the library against.

Nothing under src/ calls these, so they live with the tests. Each check
raises explicitly, never with assert, so the helpers behave the same under
python -O, which tier-1 also runs.
"""

from lattice_orbits.dilatation import HalfVector, is_integral
from lattice_orbits.errors import LatticeError, NotInHalfLattice, NotUnimodular
from lattice_orbits.lattices import BASE_PLUS_I11, signature_and_determinant, split_base
from lattice_orbits.matrix import IntMatrix
from lattice_orbits.vectors import LatticeVector, VectorType, norm, vector_type


# The sampled lattices and their generator blocks, written out by hand:
# (reflection windows, definite blocks, swap starts, transvection start).
# isometries reads them off the split tag; tests that redraw a word or walk
# the pools read them here, so the reference does not lean on the code.
SAMPLING_BLOCKS = {
    "Lminus": (((8, 9), (10, 11)), ((0, 8),), (8, 10), 10),
    "U2U": (((0, 1), (2, 3)), (), (0, 2), 2),
}


class NotCharacteristic(LatticeError):
    pass


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


def characteristic_by_parity(v: LatticeVector) -> bool:
    """Parity shortcut on base + I_1_1 lattices.

    With an even unimodular leading block, a vector is characteristic exactly
    when its two trailing coordinates are odd and every leading coordinate is
    even. Unimodularity matters: it makes "gram * a even" equivalent to
    "a even" for the leading block.
    """
    r = split_base(v.lattice, BASE_PLUS_I11).rank
    leading_even = all(c % 2 == 0 for c in v.coords[:r])
    trailing_odd = v.coords[r] % 2 != 0 and v.coords[r + 1] % 2 != 0
    return leading_even and trailing_odd


def wall_congruence_holds(v: LatticeVector) -> bool:
    """Wall's congruence: a characteristic vector of a unimodular lattice has
    norm = (s - t) mod 8 for signature (s, t)."""
    sig, det = signature_and_determinant(v.lattice)
    if abs(det) != 1:
        raise NotUnimodular(f"{v.lattice.name} has |det| != 1")
    if vector_type(v) is not VectorType.CHARACTERISTIC:
        raise NotCharacteristic("congruence is only claimed for characteristic vectors")
    return (norm(v) - (sig.positive - sig.negative)) % 8 == 0


def double(h: HalfVector) -> LatticeVector:
    """Twice the half vector, always an honest vector of base + I_1_1."""
    return LatticeVector(h.base, h.doubled_coords)


def integral_image(h: HalfVector) -> LatticeVector:
    """The half vector as an honest vector of base + I_1_1; integral images only."""
    if not is_integral(h):
        raise NotInHalfLattice("image has half-integral coordinates")
    return LatticeVector(h.base, tuple(d // 2 for d in h.doubled_coords))
