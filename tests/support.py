"""Test-only oracles: restatements that the tests check the library against.

Nothing under src/ calls these, so they live with the tests. Each check
raises explicitly, never with assert, so the helpers behave the same under
python -O, which tier-1 also runs.
"""

from lattice_orbits.dilatation import HalfVector, is_integral
from lattice_orbits.errors import (
    IsotropicReflectionVector,
    LatticeError,
    NotInHalfLattice,
    NotInteger,
    NotIntegralReflection,
    NotIsotropic,
    NotOrthogonal,
    NotUnimodular,
    OddLattice,
    RankMismatch,
)
from lattice_orbits.lattices import BASE_PLUS_I11, Lattice, signature_and_determinant, split_base
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


# The textbook generator matrices: each column is the image of a basis vector
# under the defining formula, with the form summed straight off the Gram
# matrix. The library builds the same matrices by applying its sparse steps
# to the identity; these are what the tests hold those steps to. Each refuses
# what the library refuses, with the same error class and in the same order.

def _form(lattice: Lattice, v, w) -> int:
    g = lattice.gram
    return sum(v[i] * g[i][j] * w[j] for i in range(lattice.rank) for j in range(lattice.rank))


def _require_coords(lattice: Lattice, *vectors, even: bool = False) -> None:
    if any(type(c) is not int for v in vectors for c in v):
        raise NotInteger("coordinates must be integers")
    if even and any(lattice.gram[i][i] % 2 for i in range(lattice.rank)):
        raise OddLattice("transvections need an even lattice")
    if any(len(v) != lattice.rank for v in vectors):
        raise RankMismatch(f"expected {lattice.rank} coordinates")


def _basis(n: int):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def textbook_reflection(lattice: Lattice, delta) -> IntMatrix:
    """w -> w - (2<w, delta>/<delta, delta>) delta, for integral reflections only."""
    _require_coords(lattice, delta)
    nd = _form(lattice, delta, delta)
    if nd == 0:
        raise IsotropicReflectionVector("cannot reflect in an isotropic vector")
    images = []
    for w in _basis(lattice.rank):
        twice = 2 * _form(lattice, w, delta)
        if twice % nd != 0:
            raise NotIntegralReflection("the reflection is not integral")
        images.append(tuple(a - twice // nd * d for a, d in zip(w, delta)))
    return transpose(images)


def textbook_transvection(lattice: Lattice, e, x) -> IntMatrix:
    """Eichler's w -> w - <x,w>e + <e,w>x - (<x,x>/2)<e,w>e, for isotropic e and x orthogonal to e."""
    _require_coords(lattice, e, x, even=True)
    if _form(lattice, e, e) != 0:
        raise NotIsotropic("e must be isotropic")
    if _form(lattice, x, e) != 0:
        raise NotOrthogonal("x must be orthogonal to e")
    half = _form(lattice, x, x) // 2
    images = []
    for w in _basis(lattice.rank):
        xw, ew = _form(lattice, x, w), _form(lattice, e, w)
        images.append(tuple(a - xw * b + ew * c - half * ew * b for a, b, c in zip(w, e, x)))
    return transpose(images)


def textbook_swap(lattice: Lattice, start) -> IntMatrix:
    """The permutation matrix exchanging basis vectors start and start + 1."""
    if type(start) is not int:
        raise NotInteger("the swap start must be an integer")
    if not 0 <= start <= lattice.rank - 2:
        raise RankMismatch("no such pair of basis vectors")
    images = _basis(lattice.rank)
    images[start], images[start + 1] = images[start + 1], images[start]
    return transpose(images)


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
