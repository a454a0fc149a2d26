"""Vectors in a lattice: norms, primitivity, characteristic type.

A vector is a coordinate tuple in the basis of its lattice. A vector w is
characteristic when <w, x> = <x, x> mod 2 for every x; since both sides are
linear resp. quadratic mod 2 and c^2 = c mod 2, it is enough to test the basis
vectors, which keeps the check at rank^2 integer operations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

from .errors import RankMismatch, ZeroVector
from .lattices import Lattice, gram_vec, inner, quadratic
from .matrix import require_ints


class VectorType(Enum):
    CHARACTERISTIC = "characteristic"
    ORDINARY = "ordinary"


@dataclass(frozen=True, slots=True)
class LatticeVector:
    """Slotted, with one hand-written __init__; box scans build theirs in bulk.

    The trusted raw constructor, as `vectors_of` is: it checks the rank, not
    that the entries are ints; `vec` refuses a non-int coordinate.

    __init__ checks the rank and writes both fields through their slot
    descriptors' setters, bound once below the class, instead of looking each
    name up through object.__setattr__; `vectors_of` does the same for a whole
    list of coordinate tuples. The frozen __setattr__ still refuses every
    later assignment; replace, pickle and copy go through the dataclass
    machinery as before.
    """

    lattice: Lattice
    coords: tuple[int, ...]

    def __init__(self, lattice: Lattice, coords: tuple[int, ...]):
        if len(coords) != lattice.rank:
            raise _rank_mismatch(lattice, coords)
        _set_lattice(self, lattice)
        _set_coords(self, coords)


_set_lattice = LatticeVector.lattice.__set__
_set_coords = LatticeVector.coords.__set__


def _rank_mismatch(lattice: Lattice, coords) -> RankMismatch:
    return RankMismatch(f"{lattice.name} needs {lattice.rank} coordinates, got {len(coords)}")


def vectors_of(lattice: Lattice, coords) -> tuple[LatticeVector, ...]:
    """One LatticeVector per coordinate tuple of the sequence `coords`, in order.

    The vectors equal those LatticeVector(lattice, c) builds, and the first
    tuple of the wrong length is refused with the same RankMismatch, before
    any vector is built. The rank is checked in one pass over the lengths;
    then the instances are allocated and both slots filled by maps that run
    in C, with no __init__ call per vector.
    """
    if set(map(len, coords)) - {lattice.rank}:
        raise _rank_mismatch(lattice, next(c for c in coords if len(c) != lattice.rank))
    k = len(coords)
    out = tuple(map(object.__new__, repeat(LatticeVector, k)))
    deque(map(_set_lattice, out, repeat(lattice, k)), maxlen=0)
    deque(map(_set_coords, out, coords), maxlen=0)
    return out


def vec(lattice: Lattice, coords) -> LatticeVector:
    """The vector with these coordinates; a non-int one is refused with NotInteger."""
    coords = tuple(coords)
    require_ints(coords, "each coordinate")
    return LatticeVector(lattice, coords)


def norm(v: LatticeVector) -> int:
    return quadratic(v.lattice, v.coords)


def pair(v: LatticeVector, w: LatticeVector) -> int:
    if v.lattice != w.lattice:
        raise RankMismatch("vectors live in different lattices")
    return inner(v.lattice, v.coords, w.coords)


def is_primitive(v: LatticeVector) -> bool:
    """gcd of the coordinates is 1; invariant under unimodular basis change."""
    if not any(v.coords):
        raise ZeroVector("the zero vector is neither primitive nor imprimitive")
    return math.gcd(*v.coords) == 1


def vector_type(v: LatticeVector) -> VectorType:
    """Characteristic or ordinary, decided by pairings against the basis."""
    gram = v.lattice.gram
    for i, gv in enumerate(gram_vec(v.lattice, v.coords)):
        if (gv - gram[i][i]) % 2 != 0:
            return VectorType.ORDINARY
    return VectorType.CHARACTERISTIC
