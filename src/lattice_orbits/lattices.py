"""Integral lattices as integer Gram matrices.

A lattice here is a free Z-module of finite rank with a fixed basis and a
symmetric integer Gram matrix; all arithmetic is exact, and a rank or Gram
entry that is not an int is refused with NotInteger. Direct sums concatenate
coordinates left to right, so the built-in "Lminus" = E8(2) + U(2) + U keeps its
E8(2) block at indices 0..7, the twisted hyperbolic block at 8..9 and the
unimodular hyperbolic block at 10..11.

Lattices built by `twisted_plus_u` / `base_plus_i11` carry a shape tag recording
the even unimodular base of the leading block; the dilatation and orbit modules
only accept tagged lattices, because their coordinate formulas depend on that
split. `split_base` is the one check of a tag. A base(2) + U tag builds its
half target base + I_1_1 when it is made, which proves its base, so the
built-in "E8_U_I11" and "U_I11" are the images carried by Lminus and U2U.

The fixed built-ins are plain values made once at import; `resolve` hands them
out and builds I_s_t lattices on each call, and `is_builtin` is the one test of
whether a lattice is what `resolve` gives for a name, by default its own.

Each lattice also carries its nonzero Gram terms, derived from the matrix when
it is built. Lminus has 26 nonzero entries out of 144, so form evaluations run
over the terms. The determinant and signature come from the pivots of one
`matrix.ldl`, their product and their signs, read together by
`signature_and_determinant`; a diagonal Gram takes the same path. The norm
c^T G c has one evaluator, `quadratic`, over the upper-triangle terms: 17 of
them on Lminus, each off-diagonal entry once with a factor of 2.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass

from . import matrix
from .errors import (
    EmptyLattice,
    LatticeError,
    LatticeShapeMismatch,
    RankMismatch,
    UnknownLattice,
    ZeroTwist,
)

TWISTED_PLUS_U = "twisted_plus_u"
BASE_PLUS_I11 = "base_plus_i11"


class FrozenValue:
    """Slotted, frozen value base, written by hand for the CLI's import path.

    Equality, hashing and repr run over the class's `_fields` as a frozen
    dataclass's do: equal only to an instance of the same class, repr in the
    form Name(field=value, ...) with `__qualname__`. Assignment and deletion
    are refused with dataclasses.FrozenInstanceError and the dataclass
    message. Each subclass writes its own __init__ and fills its slots through
    their descriptors' setters, bound once below the class (`slot_setters`).
    Pickle and copy go through __reduce__, which calls the class again with
    the field values; without it they would restore the slots through the
    refusing __setattr__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


def slot_setters(cls) -> tuple:
    """The __set__ of each of cls's slot descriptors, in slot order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class SplitShape(FrozenValue):
    """Structural tag: leading block is `base` (twisted or not), trailing block rank 2.

    A base(2) + U tag also carries `image`, the base + I_1_1 lattice its
    dilatations land in, built when the tag is made; building it proves the
    base, so a tag over a bad base is refused there. Equality, hashing and
    repr ignore it.
    """

    __slots__ = ("kind", "base", "image")
    _fields = ("kind", "base")

    def __init__(self, kind: str, base: "Lattice"):
        _set_kind(self, kind)
        _set_base(self, base)
        image = base_plus_i11(base, name=f"{base.name}_I11") if kind == TWISTED_PLUS_U else None
        _set_image(self, image)


_set_kind, _set_base, _set_image = slot_setters(SplitShape)


@dataclass(frozen=True)
class Lattice:
    name: str
    rank: int
    gram: matrix.IntMatrix
    shape: SplitShape | None = None

    def __post_init__(self):
        matrix.require_ints((self.rank,), "the lattice rank")
        if self.rank <= 0:
            raise EmptyLattice("lattice rank must be positive")
        if len(self.gram) != self.rank:
            raise RankMismatch(f"gram matrix is not {self.rank}x{self.rank}")
        for row in self.gram:
            if len(row) != self.rank:
                raise RankMismatch(f"gram matrix is not {self.rank}x{self.rank}")
            matrix.require_ints(row, "each gram entry")
        if not matrix.is_symmetric(self.gram):
            raise LatticeShapeMismatch("gram matrix is not symmetric")
        # Derived here and set outside the fields, so equality, hashing and repr
        # ignore them; set through object.__setattr__, not cached_property, which
        # writes through __dict__ and costs the instance its inline attributes.
        # terms: the nonzero (j, g) of each Gram row, as lists, not
        # tuple(generator), whose resizing fills CPython's tuple free lists.
        # upper_terms: (i, j, k) per nonzero entry with i <= j, k the entry on
        # the diagonal and twice it above, so sum k*c[i]*c[j] is c^T G c.
        terms = gram_terms(self.gram)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "upper_terms", [
            (i, j, g if i == j else 2 * g) for i, row in enumerate(terms) for j, g in row if i <= j
        ])


def gram_terms(gram: matrix.IntMatrix) -> list[list[tuple[int, int]]]:
    """The nonzero (j, g) entries of each row of a Gram matrix."""
    return [[(j, g) for j, g in enumerate(row) if g] for row in gram]


class Signature(FrozenValue):
    __slots__ = _fields = ("positive", "negative", "zero")

    def __init__(self, positive: int, negative: int, zero: int):
        _set_positive(self, positive)
        _set_negative(self, negative)
        _set_zero(self, zero)


_set_positive, _set_negative, _set_zero = slot_setters(Signature)


def make_u() -> Lattice:
    """Hyperbolic plane: two isotropic basis vectors pairing to 1."""
    return Lattice("U", 2, ((0, 1), (1, 0)))


# Dynkin diagram of E8, nodes 1..8: chain 1-3-4-5-6-7-8 with node 2 hung off node 4.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def make_e8() -> Lattice:
    """Negative definite E8: the negated Cartan matrix in the node order above."""
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = -2
    for a, b in _E8_EDGES:
        rows[a - 1][b - 1] = 1
        rows[b - 1][a - 1] = 1
    return Lattice("E8", 8, matrix.freeze(rows))


def make_i(s: int, t: int) -> Lattice:
    """Odd unimodular diagonal lattice with s entries +1 and t entries -1."""
    if s < 0 or t < 0:
        raise RankMismatch("signature counts must be nonnegative")
    if s + t == 0:
        raise EmptyLattice("I_0_0 has no basis vectors")
    diag = [1] * s + [-1] * t
    rows = [[diag[i] if i == j else 0 for j in range(s + t)] for i in range(s + t)]
    return Lattice(f"I_{s}_{t}", s + t, matrix.freeze(rows))


def twist(lattice: Lattice, n: int, name: str | None = None) -> Lattice:
    """Same module, form scaled by n. Twisting by 1 is the identity."""
    if n == 0:
        raise ZeroTwist("twist by zero degenerates the form")
    if n == 1 and name is None:
        return lattice
    rows = tuple(tuple(n * x for x in row) for row in lattice.gram)
    return Lattice(name or f"{lattice.name}({n})", lattice.rank, rows)


def direct_sum(left: Lattice, right: Lattice, name: str | None = None) -> Lattice:
    """Orthogonal direct sum; coordinates of `left` come first."""
    n, m = left.rank, right.rank
    rows = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = left.gram[i][j]
    for i in range(m):
        for j in range(m):
            rows[n + i][n + j] = right.gram[i][j]
    return Lattice(name or f"{left.name}+{right.name}", n + m, matrix.freeze(rows))


def _check_split_base(base: Lattice):
    # the split shapes only make sense over an even unimodular base; one
    # elimination gives both the determinant and the signature
    if not is_even(base):
        raise LatticeShapeMismatch(f"base {base.name} is not even")
    pivots = matrix.ldl(base.gram)[0]
    if abs(math.prod(pivots)) != 1:
        raise LatticeShapeMismatch(f"base {base.name} is not unimodular")
    # even and unimodular already force this (van der Blij); the property test
    # test_even_unimodular_forms_have_signature_zero_mod_8 is its oracle
    if (sum(p > 0 for p in pivots) - sum(p < 0 for p in pivots)) % 8 != 0:
        raise LatticeShapeMismatch(f"base {base.name} signature difference not 0 mod 8")


_KIND_TEXT = {TWISTED_PLUS_U: "base(2) + U", BASE_PLUS_I11: "base + I_1_1"}


def split_base(lattice: Lattice, kind: str) -> Lattice:
    """The base of a lattice tagged with `kind`; the one check of a shape tag."""
    shape = lattice.shape
    if shape is None or shape.kind != kind:
        raise LatticeShapeMismatch(f"{lattice.name} is not a tagged {_KIND_TEXT[kind]} lattice")
    return shape.base


def twisted_plus_u(base: Lattice, name: str) -> Lattice:
    """base(2) + U with a shape tag; the orbit classifier works on these.

    The tag builds its half target, "<base>_I11", the one proof of the base.
    """
    shape = SplitShape(TWISTED_PLUS_U, base)
    body = direct_sum(twist(base, 2, name=f"{base.name}(2)"), make_u())
    return Lattice(name, body.rank, body.gram, shape)


def base_plus_i11(base: Lattice, name: str) -> Lattice:
    """base + I_1_1 with a shape tag; dilatation images live here."""
    _check_split_base(base)
    body = direct_sum(base, make_i(1, 1))
    return Lattice(name, body.rank, body.gram, SplitShape(BASE_PLUS_I11, base))


def inner(lattice: Lattice, v, w) -> int:
    """Bilinear form value for two checked coordinate tuples; norms use `quadratic`."""
    if len(v) != lattice.rank or len(w) != lattice.rank:
        raise RankMismatch(f"expected {lattice.rank} coordinates")
    return sum([x * g * w[j] for x, row in zip(v, lattice.terms) if x for j, g in row])


def quadratic(lattice: Lattice, c) -> int:
    """c^T G c for a coordinate tuple of length rank; the one norm formula.

    Runs over the upper-triangle terms, so each off-diagonal product is
    computed once. The caller guarantees the length, as a LatticeVector does.
    A plain loop: on Python 3.11 it beats sum() over a comprehension by about
    half on U2U.
    """
    total = 0
    for i, j, k in lattice.upper_terms:
        total += k * c[i] * c[j]
    return total


def gram_vec(lattice: Lattice, v) -> list[int]:
    """G v, summed over the nonzero Gram terms."""
    return [sum([g * v[j] for j, g in row]) for row in lattice.terms]


def signature_and_determinant(lattice: Lattice) -> tuple[Signature, int]:
    """The signature and the determinant, from one reading of the pivots.

    The signature is the pivots' sign counts (Sylvester) and the determinant
    their product: each `ldl` fix-up is a congruence by a matrix of
    determinant +-1. A caller that needs both pays for one elimination.
    """
    pivots = matrix.ldl(lattice.gram)[0]
    sig = Signature(sum(p > 0 for p in pivots), sum(p < 0 for p in pivots), pivots.count(0))
    return sig, int(math.prod(pivots))


def is_even(lattice: Lattice) -> bool:
    """True when every vector has even norm; equivalent to an even diagonal."""
    return all(lattice.gram[i][i] % 2 == 0 for i in range(lattice.rank))


def signature(lattice: Lattice) -> Signature:
    """Inertia: the sign counts of the pivots (Sylvester); see signature_and_determinant."""
    return signature_and_determinant(lattice)[0]


def _builtins() -> dict[str, Lattice]:
    u, e8 = make_u(), make_e8()
    u2, e8_2 = twist(u, 2, name="U2"), twist(e8, 2, name="E8_2")
    e8_u = direct_sum(e8, u, name="E8_U")
    body = direct_sum(e8, e8)
    for _ in range(3):
        body = direct_sum(body, u)
    # each split base is proved once; the half targets are the tags' own images
    lminus, u2u = twisted_plus_u(e8_u, name="Lminus"), twisted_plus_u(u, name="U2U")
    return {
        "U": u,
        "U2": u2,
        "E8": e8,
        "E8_2": e8_2,
        "Lminus": lminus,
        "Lambda": Lattice("Lambda", body.rank, body.gram),
        "U2U": u2u,
        "Lplus": direct_sum(e8_2, u2, name="Lplus"),
        "U_I11": u2u.shape.image,
        "E8_U_I11": lminus.shape.image,
    }


# built once at import; lattices are frozen, so every caller shares these values
_BUILTINS = _builtins()

I_NAME = re.compile(r"I_(\d+)_(\d+)")
# the largest I_s_t rank resolve builds: a Gram of at most 10^6 entries, the
# size of the box walk budget
MAX_I_RANK = 1000


def resolve(name: str) -> Lattice:
    """Look up a built-in lattice by name ("U", "E8_2", "I_2_3", "Lminus", ...).

    Fixed names give the same value on every call; I_s_t is built on each
    call, and refused past MAX_I_RANK before anything is built.
    """
    found = _BUILTINS.get(name)
    if found is not None:
        return found
    m = I_NAME.fullmatch(name)
    if m is None:
        raise UnknownLattice(f"no built-in lattice named {name!r}")
    s, t = (digits.lstrip("0") or "0" for digits in m.groups())
    # five digits are already past the bound, so int() never reads a long string
    if len(s) > 4 or len(t) > 4 or int(s) + int(t) > MAX_I_RANK:
        raise RankMismatch(f"I_s_t lattices need s + t <= {MAX_I_RANK}")
    return make_i(int(s), int(t))


def is_builtin(lattice: Lattice, name: str | None = None) -> bool:
    """True when resolve gives this lattice back for `name`, by default its own.

    An I_s_t name is built to compare, as resolve builds it on every call.
    """
    try:
        return resolve(lattice.name if name is None else name) == lattice
    except LatticeError:  # unknown names, and I_s_t names resolve refuses
        return False


def builtin_domain(image: Lattice) -> Lattice | None:
    """The built-in lattice whose tag carries `image` as its half target, else None."""
    for lattice in _BUILTINS.values():
        if lattice.shape is not None and lattice.shape.image == image:
            return lattice
    return None


def builtin_names() -> tuple[str, ...]:
    """Fixed built-in names, plus the I_s_t pattern resolved on demand."""
    return tuple(sorted(_BUILTINS)) + ("I_s_t",)
