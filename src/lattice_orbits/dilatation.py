"""Norm-halving change of coordinates.

On a tagged base(2) + U lattice the map

    (a_1, ..., a_r, b_1, b_2)  ->  (a_1, ..., a_r, (b_1+b_2)/2, (b_1-b_2)/2)

is a module isomorphism onto a half-integral sublattice of base + I_1_1 that
halves the quadratic form. Images are stored with doubled integer coordinates
so everything stays exact: a doubled tuple is valid when its leading r entries
are even and its last two entries share a parity.

The image of v is integral (all doubled entries even) exactly when the two
trailing coordinates of v have equal parity; for vectors of norm divisible by 4
that happens exactly when v is characteristic.

The image lattice is the one the domain's tag carries (`SplitShape.image`),
built with the tag, so `half_target` builds nothing; for the built-ins it is
the very value `resolve` gives for "E8_U_I11" or "U_I11".
"""

from __future__ import annotations

from .errors import LatticeShapeMismatch, NotInHalfLattice, RankMismatch
from .lattices import (
    BASE_PLUS_I11,
    TWISTED_PLUS_U,
    FrozenValue,
    Lattice,
    _check_split_base,
    builtin_domain,
    quadratic,
    slot_setters,
    split_base,
)
from .matrix import require_ints
from .vectors import LatticeVector


class HalfVector(FrozenValue):
    """A vector with possibly half-integral trailing coordinates, kept doubled."""

    __slots__ = _fields = ("base", "doubled_coords")

    def __init__(self, base: Lattice, doubled_coords: tuple[int, ...]):
        require_ints(doubled_coords, "each doubled coordinate")
        r = split_base(base, BASE_PLUS_I11).rank
        if len(doubled_coords) != base.rank:
            raise RankMismatch(f"expected {base.rank} doubled coordinates")
        if any(d % 2 != 0 for d in doubled_coords[:r]):
            raise NotInHalfLattice("leading coordinates must be integral")
        if (doubled_coords[r] - doubled_coords[r + 1]) % 2 != 0:
            raise NotInHalfLattice("trailing half-coordinates must share a parity")
        _set_base(self, base)
        _set_doubled_coords(self, doubled_coords)


_set_base, _set_doubled_coords = slot_setters(HalfVector)


def half_target(domain: Lattice) -> Lattice:
    """The base + I_1_1 lattice receiving dilatation images of `domain`: its tag's image."""
    base = split_base(domain, TWISTED_PLUS_U)
    # the tag proved the base already; this per-call proof goes once the
    # benchmark recorder's memory stops growing with throughput (ROADMAP item 1)
    _check_split_base(base)
    return domain.shape.image


def dilate(v: LatticeVector) -> HalfVector:
    """Apply the norm-halving map; requires a tagged base(2) + U lattice."""
    target = half_target(v.lattice)
    r = v.lattice.shape.base.rank
    b1, b2 = v.coords[r], v.coords[r + 1]
    doubled = tuple(2 * a for a in v.coords[:r]) + (b1 + b2, b1 - b2)
    return HalfVector(target, doubled)


def dilate_inverse(h: HalfVector) -> LatticeVector:
    """Invert the map; only built-in images have a domain: E8_U_I11 -> Lminus, U_I11 -> U2U.

    The domain is the built-in whose tag carries h.base (`builtin_domain`), so
    it depends on the image lattice alone, never on what was dilated before:
    an image of a custom copy of U2U still maps back into U2U.
    """
    domain = builtin_domain(h.base)
    if domain is None:
        raise LatticeShapeMismatch(f"no known dilatation domain for {h.base.name}")
    r = h.base.shape.base.rank
    dx, dy = h.doubled_coords[r], h.doubled_coords[r + 1]
    coords = tuple(d // 2 for d in h.doubled_coords[:r]) + ((dx + dy) // 2, (dx - dy) // 2)
    return LatticeVector(domain, coords)


def is_integral(h: HalfVector) -> bool:
    """True when the image has integer coordinates in base + I_1_1."""
    return all(d % 2 == 0 for d in h.doubled_coords)


def half_norm(h: HalfVector) -> int:
    """Quadratic form value of the half vector; an integer for every valid one."""
    quadruple = quadratic(h.base, h.doubled_coords)
    if quadruple % 4 != 0:
        raise NotInHalfLattice("form value is not integral")  # unreachable on valid input
    return quadruple // 4
