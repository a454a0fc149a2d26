"""Orbit labels for primitive vectors of the tagged base(2) + U lattices.

A primitive vector of norm 2n falls into exactly one labeled orbit of the
isometry group:

    odd                  n odd (one orbit)
    even_characteristic  n even and the vector pairs like the form mod 2
    even_ordinary        n even otherwise

For n even three criteria coincide and are cross-checked on every call: the
characteristic property, both trailing coordinates even, and integrality of the
norm-halving image. Beware the convention flip under the halving map: an
even_ordinary vector has a characteristic double image, while the integral
image of an even_characteristic vector is ordinary.

The even-type test and its witnesses are specific to the rank-12 built-in
"Lminus" sitting inside the rank-22 unimodular "Lambda" next to its invariant
partner "Lplus": a primitive vector of norm divisible by 4 has even type when
some primitive vector of the partner with equal norm lands in 2*Lambda after
adding the embedded images. That holds exactly when the halving image is
integral; the blocked case is a parity obstruction in the last two coordinates,
and otherwise even_witness writes a witness down in closed form.
"""

from __future__ import annotations

from enum import Enum

from .dilatation import dilate, is_integral
from .errors import (
    EvenTypeUndefinedForOddN,
    InvariantViolation,
    LabelParityMismatch,
    LatticeShapeMismatch,
    LimitExceeded,
    NonPrimitive,
    OddNormInEvenLattice,
    ZeroVector,
)
from .lattices import TWISTED_PLUS_U, FrozenValue, Lattice, gram_vec, resolve, slot_setters, split_base
from .vectors import LatticeVector, VectorType, is_primitive, norm, vec, vector_type


class OrbitLabel(Enum):
    ODD = "odd"
    EVEN_CHARACTERISTIC = "even_characteristic"
    EVEN_ORDINARY = "even_ordinary"


class ClassificationReport(FrozenValue):
    __slots__ = _fields = ("vector", "norm", "n", "primitive", "vtype", "phi_integral", "label")

    def __init__(self, vector: LatticeVector, norm: int, n: int, primitive: bool, vtype: VectorType,
                 phi_integral: bool, label: OrbitLabel):
        _set_report_vector(self, vector)
        _set_report_norm(self, norm)
        _set_report_n(self, n)
        _set_report_primitive(self, primitive)
        _set_report_vtype(self, vtype)
        _set_report_phi_integral(self, phi_integral)
        _set_report_label(self, label)


# named apart from the setters of the classes below, which share field names
(_set_report_vector, _set_report_norm, _set_report_n, _set_report_primitive, _set_report_vtype,
 _set_report_phi_integral, _set_report_label) = slot_setters(ClassificationReport)


class WitnessResult(FrozenValue):
    __slots__ = _fields = ("witness", "parity_obstruction")

    def __init__(self, witness: LatticeVector | None, parity_obstruction: bool):
        _set_witness(self, witness)
        _set_parity_obstruction(self, parity_obstruction)


_set_witness, _set_parity_obstruction = slot_setters(WitnessResult)


class HeegnerComponent(FrozenValue):
    __slots__ = _fields = ("label", "representative")

    def __init__(self, label: OrbitLabel, representative: LatticeVector):
        _set_label(self, label)
        _set_representative(self, representative)


_set_label, _set_representative = slot_setters(HeegnerComponent)


class HeegnerReport(FrozenValue):
    __slots__ = _fields = ("n", "norm", "components")

    def __init__(self, n: int, norm: int, components: tuple[HeegnerComponent, ...]):
        _set_n(self, n)
        _set_norm(self, norm)
        _set_components(self, components)


_set_n, _set_norm, _set_components = slot_setters(HeegnerReport)


def _require_primitive(v: LatticeVector):
    if not any(v.coords):
        raise ZeroVector("the zero vector has no orbit label")
    if not is_primitive(v):
        raise NonPrimitive(f"coordinates {v.coords} have gcd > 1")


def classify(v: LatticeVector) -> ClassificationReport:
    """Label a primitive vector; all invariants are recomputed and cross-checked."""
    base = split_base(v.lattice, TWISTED_PLUS_U)
    _require_primitive(v)
    value = norm(v)
    b1, b2 = v.coords[base.rank], v.coords[base.rank + 1]
    vtype = vector_type(v)
    integral = is_integral(dilate(v))
    if norm_labels(value) == (OrbitLabel.ODD,):
        label = OrbitLabel.ODD
    else:
        char = vtype is VectorType.CHARACTERISTIC
        both_even = b1 % 2 == 0 and b2 % 2 == 0
        # three equivalent criteria for even n; any split is a bug
        if not char == both_even == integral:
            raise InvariantViolation(
                f"criteria split on {v.coords}: {char}, {both_even}, {integral}"
            )
        label = OrbitLabel.EVEN_CHARACTERISTIC if char else OrbitLabel.EVEN_ORDINARY
    return ClassificationReport(v, value, value // 2, True, vtype, integral, label)


def norm_labels(value: int) -> tuple[OrbitLabel, ...]:
    """The labels a primitive vector of norm `value` can carry.

    None for an odd norm, which no vector of an even lattice has; odd for odd
    n = value / 2; characteristic and ordinary, in that order, for even n.
    """
    if value % 2 != 0:
        return ()
    if (value // 2) % 2 != 0:
        return (OrbitLabel.ODD,)
    return (OrbitLabel.EVEN_CHARACTERISTIC, OrbitLabel.EVEN_ORDINARY)


def representative(value: int, label: OrbitLabel, lattice: Lattice | None = None) -> LatticeVector:
    """Canonical primitive vector of the given norm and label.

    Odd and even_ordinary orbits use (0, ..., 0, 1, n); the even_characteristic
    orbit places (1, n/2) in the trailing hyperbolic block of the twisted part.
    The construction is re-validated through classify before returning.
    """
    lattice = lattice if lattice is not None else resolve("Lminus")
    base = split_base(lattice, TWISTED_PLUS_U)
    labels = norm_labels(value)
    if not labels:
        raise OddNormInEvenLattice(f"norm {value} is impossible in an even lattice")
    half = value // 2
    if label not in labels:
        if label is OrbitLabel.ODD:
            raise LabelParityMismatch(f"norm {value} has even n = {half}, not an odd orbit")
        raise LabelParityMismatch(f"norm {value} has odd n = {half}, only the odd label fits")
    r = base.rank
    coords = [0] * lattice.rank
    if label is OrbitLabel.EVEN_CHARACTERISTIC:
        tail = tuple(tuple(row[r - 2 : r]) for row in base.gram[r - 2 : r])
        if tail != ((0, 1), (1, 0)):
            raise LatticeShapeMismatch(f"base {base.name} does not end in a hyperbolic block")
        coords[r - 2] = 1
        coords[r - 1] = half // 2
    else:
        coords[r] = 1
        coords[r + 1] = half
    rep = vec(lattice, coords)
    report = classify(rep)
    if report.norm != value or report.label is not label:
        raise InvariantViolation(f"representative for {value}, {label.value} gave {report}")
    return rep


def embed_anti_invariant(v: LatticeVector) -> LatticeVector:
    """Fixed embedding of the rank-12 lattice into the rank-22 unimodular one:
    (e, u, w) -> (e, -e, u, -u, w), blockwise."""
    if v.lattice != resolve("Lminus"):
        raise LatticeShapeMismatch("anti-invariant embedding is defined on Lminus")
    e, u, w = v.coords[:8], v.coords[8:10], v.coords[10:]
    neg = tuple(-c for c in e) + tuple(-c for c in u)
    return LatticeVector(resolve("Lambda"), e + neg[:8] + u + neg[8:] + w)


def embed_invariant(w: LatticeVector) -> LatticeVector:
    """Fixed embedding of the invariant partner: (e, u) -> (e, e, u, u, 0)."""
    if w.lattice != resolve("Lplus"):
        raise LatticeShapeMismatch("invariant embedding is defined on Lplus")
    e, u = w.coords[:8], w.coords[8:]
    return LatticeVector(resolve("Lambda"), e + e + u + u + (0, 0))


def is_even_type(v: LatticeVector) -> bool:
    """Even type for primitive vectors of norm divisible by 4: classify's phi_integral.

    Integrality of the norm-halving image; for the rank-12 built-in this
    matches the existence of an invariant-partner witness.
    """
    report = classify(v)
    if report.label is OrbitLabel.ODD:
        raise EvenTypeUndefinedForOddN(f"norm {report.norm} is not divisible by 4")
    return report.phi_integral


def _witness_ok(v: LatticeVector, w: LatticeVector) -> bool:
    if norm(w) != norm(v) or not is_primitive(w):
        return False
    left = embed_anti_invariant(v)
    right = embed_invariant(w)
    return all((a + b) % 2 == 0 for a, b in zip(left.coords, right.coords))


def even_witness(v: LatticeVector) -> WitnessResult:
    """The invariant-partner witness of even type, written down directly.

    A trailing odd coordinate is a parity obstruction: every candidate sum keeps
    an odd entry, so there is no witness. Otherwise, with v = (e, u, 2*beta),
    M = u1*u2 + 2*beta1*beta2 and G the Gram matrix of E8, v^2 = 2 e.G.e + 4 M
    and the witness is (e, 1, M) when u1 is odd, (e, M, 1) when u2 is odd, and
    (e', 2, M'/2) otherwise. Here e' = e and M' = M when 4 | M; when M = 2 mod 4,
    e' = e + 2*e_i and M' = M - 2 (G e)_i + 4 for the first i with (G e)_i odd,
    which exists because v is primitive and det G = 1. The witness is checked
    against its definition, and a failure raises InvariantViolation.
    """
    if v.lattice != resolve("Lminus"):
        raise LatticeShapeMismatch("even-type witnesses are defined on Lminus")
    _require_primitive(v)
    value = norm(v)
    if norm_labels(value) == (OrbitLabel.ODD,):
        raise EvenTypeUndefinedForOddN(f"norm {value} is not divisible by 4")
    e, (u1, u2), (b1, b2) = list(v.coords[:8]), v.coords[8:10], v.coords[10:]
    if b1 % 2 != 0 or b2 % 2 != 0:
        return WitnessResult(None, True)
    m = u1 * u2 + b1 * b2 // 2
    if u1 % 2 != 0:
        tail = (1, m)
    elif u2 % 2 != 0:
        tail = (m, 1)
    else:
        if m % 4 != 0:
            ge = gram_vec(resolve("E8"), e)
            i = next(i for i, x in enumerate(ge) if x % 2 != 0)
            e[i] += 2
            m += 4 - 2 * ge[i]
        tail = (2, m // 2)
    w = LatticeVector(resolve("Lplus"), (*e, *tail))
    if not _witness_ok(v, w):
        raise InvariantViolation(f"witness {w.coords} for {v.coords} fails its definition")
    return WitnessResult(w, False)


def heegner_report(n: int) -> HeegnerReport:
    """Orbit components of the degree-n locus: one for odd n, two for even n."""
    comps = tuple(
        HeegnerComponent(lab, representative(2 * n, lab)) for lab in norm_labels(2 * n)
    )
    return HeegnerReport(n, 2 * n, comps)


# the most values of n heegner_range reports on, about 12 s of reports
HEEGNER_MAX_RANGE = 10**4


def heegner_range(n_min: int, n_max: int):
    """Reports for every n in [n_min, n_max]; empty when the range is empty.

    A range of more than HEEGNER_MAX_RANGE values is refused with
    LimitExceeded before any report is built.
    """
    if n_max - n_min + 1 > HEEGNER_MAX_RANGE:
        raise LimitExceeded(f"heegner ranges hold at most {HEEGNER_MAX_RANGE} values of n")
    return tuple(heegner_report(n) for n in range(n_min, n_max + 1))
