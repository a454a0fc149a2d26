"""Test-only oracles: restatements that the tests check the library against.

Nothing under src/ calls these, so they live with the tests. Each check
raises explicitly, never with assert, so the helpers behave the same under
python -O, which tier-1 also runs.
"""

from dataclasses import dataclass, field

from lattice_orbits import isometries
from lattice_orbits.dilatation import HalfVector, is_integral
from lattice_orbits.errors import (
    EmptyLattice,
    IsotropicReflectionVector,
    LatticeError,
    LatticeShapeMismatch,
    NotInHalfLattice,
    NotInteger,
    NotIntegralReflection,
    NotIsotropic,
    NotOrthogonal,
    NotUnimodular,
    OddLattice,
    RankMismatch,
)
from lattice_orbits.lattices import (
    BASE_PLUS_I11,
    TWISTED_PLUS_U,
    Lattice,
    SplitShape,
    base_plus_i11,
    gram_terms,
    resolve,
    signature_and_determinant,
    split_base,
)
from lattice_orbits.matrix import IntMatrix, freeze, is_symmetric, require_ints
from lattice_orbits.orbits import OrbitLabel
from lattice_orbits.vectors import LatticeVector, VectorType, norm, vector_type


# The package modules that `import lattice_orbits.cli` loads, besides the
# package itself; every command pays for importing these.
CLI_IMPORTS = ("cli", "dilatation", "errors", "jsonio", "lattices", "matrix", "orbits", "vectors")


# The golden CLI calls: each file under tests/golden/ and the argv whose
# stdout it holds, byte for byte.
GOLDEN_CASES = (
    (
        "classify_odd.json",
        ["classify", "--lattice", "Lminus", "--coords", "0,0,0,0,0,0,0,0,0,0,1,5"],
    ),
    ("rep_characteristic.json", ["rep", "--norm", "8", "--class", "characteristic"]),
    ("heegner_range.json", ["heegner", "--from", "-2", "--to", "2"]),
)


# The sampled lattices and their generator blocks, written out by hand:
# (reflection windows, definite blocks, swap starts, transvection start).
# isometries reads them off the split tag; tests that redraw a word or walk
# the pools read them here, so the reference does not lean on the code.
SAMPLING_BLOCKS = {
    "Lminus": (((8, 9), (10, 11)), ((0, 8),), (8, 10), 10),
    "U2U": (((0, 1), (2, 3)), (), (0, 2), 2),
}


def mod2_orbits(name: str) -> dict[tuple[int, ...], int]:
    """The classes of L/2L that a sampled lattice's generator table joins.

    Maps each nonzero class, as coordinates mod 2, to a class id. The table's
    reflection steps and swaps join classes, as do the unit transvections
    E(e, e_i) with e = e_t or e_{t+1}, t the transvection start: by Eichler
    additivity, E(e, x) E(e, y) = E(e, x + y), those generate every
    transvection the sampler draws. The negation fixes L/2L.
    """
    pool, swaps, start = isometries._generators(name)
    lattice = resolve(name)
    n = lattice.rank
    steps = list(pool)
    for which in (0, 1):
        e = [int(j == start + which) for j in range(n)]
        for i in range(n):
            if i != start + 1 - which:  # x = e_i orthogonal to e
                steps.append(isometries._transvection_step(lattice, e, [int(j == i) for j in range(n)]))

    def images(v):  # the steps act on v as a one-column word, as sample_word applies them
        for step in steps:
            column = [[x] for x in v]
            isometries._apply_update(column, step)
            yield tuple(x % 2 for (x,) in column)
        for s in swaps:
            column = list(v)
            isometries._swap_rows(column, s)
            yield tuple(column)

    classes = [tuple((m >> j) & 1 for j in range(n)) for m in range(1, 2**n)]
    parent = {v: v for v in classes}

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for v in classes:
        for w in images(v):
            parent[root(w)] = root(v)
    ids = {}
    return {v: ids.setdefault(root(v), len(ids)) for v in classes}


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


class Twins:
    """Dataclass twins of the hand-written value classes on the CLI's import path.

    Each is the frozen dataclass its class was before it was written by hand,
    so a test can hold the two to the same equality, hashing, repr, frozen
    refusal and pickle and copy behaviour. A twin's repr starts with
    "Twins." where its class's starts with the bare name. The Lattice twin
    also freezes its Gram, as Lattice began to when it was written by hand.
    """

    @dataclass(frozen=True)
    class SplitShape:
        kind: str
        base: Lattice
        image: Lattice | None = field(init=False, default=None, compare=False, repr=False)

        def __post_init__(self):
            if self.kind == TWISTED_PLUS_U:
                object.__setattr__(self, "image", base_plus_i11(self.base, name=f"{self.base.name}_I11"))

    @dataclass(frozen=True)
    class Lattice:
        name: str
        rank: int
        gram: IntMatrix
        shape: SplitShape | None = None

        def __post_init__(self):
            require_ints((self.rank,), "the lattice rank")
            if self.rank <= 0:
                raise EmptyLattice("lattice rank must be positive")
            object.__setattr__(self, "gram", freeze(self.gram))
            if len(self.gram) != self.rank:
                raise RankMismatch(f"gram matrix is not {self.rank}x{self.rank}")
            for row in self.gram:
                if len(row) != self.rank:
                    raise RankMismatch(f"gram matrix is not {self.rank}x{self.rank}")
                require_ints(row, "each gram entry")
            if not is_symmetric(self.gram):
                raise LatticeShapeMismatch("gram matrix is not symmetric")
            terms = gram_terms(self.gram)
            object.__setattr__(self, "terms", terms)
            object.__setattr__(self, "upper_terms", [
                (i, j, g if i == j else 2 * g) for i, row in enumerate(terms) for j, g in row if i <= j
            ])

    # not slots=True: a frozen slotted dataclass, at least on Python 3.11,
    # answers an assignment to a name outside its fields with TypeError, from
    # the super() call in its generated __setattr__, not FrozenInstanceError
    @dataclass(frozen=True)
    class LatticeVector:
        lattice: Lattice
        coords: tuple[int, ...]

        def __post_init__(self):
            if len(self.coords) != self.lattice.rank:
                raise RankMismatch(
                    f"{self.lattice.name} needs {self.lattice.rank} coordinates, got {len(self.coords)}"
                )

    @dataclass(frozen=True)
    class ClassificationReport:
        vector: LatticeVector
        norm: int
        n: int
        primitive: bool
        vtype: VectorType
        phi_integral: bool
        label: OrbitLabel

    @dataclass(frozen=True)
    class Signature:
        positive: int
        negative: int
        zero: int

    @dataclass(frozen=True)
    class HalfVector:
        base: Lattice
        doubled_coords: tuple[int, ...]

        def __post_init__(self):
            require_ints(self.doubled_coords, "each doubled coordinate")
            r = split_base(self.base, BASE_PLUS_I11).rank
            if len(self.doubled_coords) != self.base.rank:
                raise RankMismatch(f"expected {self.base.rank} doubled coordinates")
            if any(d % 2 != 0 for d in self.doubled_coords[:r]):
                raise NotInHalfLattice("leading coordinates must be integral")
            if (self.doubled_coords[r] - self.doubled_coords[r + 1]) % 2 != 0:
                raise NotInHalfLattice("trailing half-coordinates must share a parity")

    @dataclass(frozen=True)
    class WitnessResult:
        witness: LatticeVector | None
        parity_obstruction: bool

    @dataclass(frozen=True)
    class HeegnerComponent:
        label: OrbitLabel
        representative: LatticeVector

    @dataclass(frozen=True)
    class HeegnerReport:
        n: int
        norm: int
        components: tuple
