import copy
import dataclasses
import pickle
import random

import pytest

from lattice_orbits.errors import (
    LatticeShapeMismatch,
    NotInteger,
    NotUnimodular,
    RankMismatch,
    ZeroVector,
)
from lattice_orbits.lattices import inner, resolve
from lattice_orbits.vectors import (
    LatticeVector,
    VectorType,
    is_primitive,
    norm,
    pair,
    vec,
    vector_type,
    vectors_of,
)
from support import NotCharacteristic, characteristic_by_parity, wall_congruence_holds

LMINUS = resolve("Lminus")


def test_norm_values():
    for n in (3, -1, 0, 7):
        assert norm(vec(LMINUS, (0,) * 10 + (1, n))) == 2 * n
    for k in (2, -3):
        assert norm(vec(LMINUS, (0,) * 8 + (1, k, 0, 0))) == 4 * k
    assert norm(vec(LMINUS, (0,) * 12)) == 0


@pytest.mark.parametrize("coords, bad", [((1.9, "2"), "1.9"), ((1, "2"), "'2'"), ((False, 1), "False")])
def test_vec_refuses_non_integer_coordinates(coords, bad):
    # before, vec(U, (1.9, "2")) built the vector (1, 2)
    with pytest.raises(NotInteger, match=f"^each coordinate must be an integer, got {bad}$"):
        vec(resolve("U"), coords)


def test_vec_reads_any_int_sequence():
    u = resolve("U")
    assert vec(u, [1, 2]) == vec(u, iter((1, 2))) == LatticeVector(u, (1, 2))


def test_is_primitive():
    assert is_primitive(vec(LMINUS, (0,) * 10 + (1, 4)))
    assert not is_primitive(vec(LMINUS, (2, 4) + (0,) * 10))
    with pytest.raises(ZeroVector):
        is_primitive(vec(LMINUS, (0,) * 12))


def test_pair():
    u = resolve("U")
    assert pair(vec(u, (1, 0)), vec(u, (0, 1))) == 1
    with pytest.raises(RankMismatch):
        pair(vec(u, (1, 0)), vec(resolve("U2"), (0, 1)))


def test_vector_type_examples():
    assert vector_type(vec(LMINUS, (0,) * 8 + (1, 2, 0, 0))) is VectorType.CHARACTERISTIC
    assert vector_type(vec(LMINUS, (0,) * 10 + (1, 4))) is VectorType.ORDINARY
    assert vector_type(vec(resolve("I_1_1"), (1, 1))) is VectorType.CHARACTERISTIC
    assert vector_type(vec(resolve("I_1_1"), (1, 0))) is VectorType.ORDINARY


def test_characteristic_matches_quantified_definition():
    # basis check must agree with the all-eta definition on a full small box
    rng = random.Random(19)
    for name in ("I_2_2", "U_I11", "U2U"):
        lattice = resolve(name)
        for _ in range(200):
            v = vec(lattice, tuple(rng.randint(-4, 4) for _ in range(lattice.rank)))
            etas = [
                tuple(rng.randint(-4, 4) for _ in range(lattice.rank))
                for _ in range(50)
            ]
            violations = [
                eta
                for eta in etas
                if (inner(lattice, v.coords, eta) - inner(lattice, eta, eta)) % 2 != 0
            ]
            if vector_type(v) is VectorType.CHARACTERISTIC:
                assert not violations
            # ordinary vectors always have a violating basis vector, which the
            # random etas may miss; rechecked below against the basis scan


def test_ordinary_vector_has_violating_basis_vector():
    lattice = resolve("U_I11")
    for coords in ((1, 0, 1, 1), (0, 0, 2, 1), (1, 1, 1, 1)):
        v = vec(lattice, coords)
        assert vector_type(v) is VectorType.ORDINARY
        violations = [
            i
            for i in range(lattice.rank)
            if (
                inner(lattice, coords, tuple(int(i == j) for j in range(lattice.rank)))
                - lattice.gram[i][i]
            )
            % 2
            != 0
        ]
        assert violations


def test_type_depends_only_on_class_mod_two():
    rng = random.Random(23)
    for name in ("Lminus", "I_2_2"):
        lattice = resolve(name)
        for _ in range(100):
            v = tuple(rng.randint(-3, 3) for _ in range(lattice.rank))
            w = tuple(rng.randint(-3, 3) for _ in range(lattice.rank))
            shifted = tuple(a + 2 * b for a, b in zip(v, w))
            assert vector_type(vec(lattice, v)) is vector_type(vec(lattice, shifted))


def test_parity_fastpath_examples():
    lattice = resolve("U_I11")
    assert characteristic_by_parity(vec(lattice, (2, 0, 1, 1)))
    assert not characteristic_by_parity(vec(lattice, (1, 0, 1, 1)))
    assert not characteristic_by_parity(vec(lattice, (0, 0, 2, 1)))
    with pytest.raises(LatticeShapeMismatch):
        characteristic_by_parity(vec(resolve("U"), (1, 1)))


def test_parity_fastpath_equals_definition_small_box():
    lattice = resolve("U_I11")
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                for d in range(-2, 3):
                    v = vec(lattice, (a, b, c, d))
                    fast = characteristic_by_parity(v)
                    assert fast == (vector_type(v) is VectorType.CHARACTERISTIC)


def test_wall_congruence():
    assert wall_congruence_holds(vec(resolve("I_1_1"), (1, 1)))
    assert wall_congruence_holds(vec(resolve("I_2_2"), (1, 1, 1, 1)))
    assert wall_congruence_holds(vec(resolve("U_I11"), (2, 0, 1, 1)))
    with pytest.raises(NotUnimodular):
        wall_congruence_holds(vec(resolve("U2U"), (0, 0, 1, 1)))
    with pytest.raises(NotCharacteristic):
        wall_congruence_holds(vec(resolve("I_1_1"), (1, 0)))


def test_lattice_vector_value_semantics():
    u = resolve("U")
    v = LatticeVector(u, (1, -2))
    twin = vec(u, [1, -2])
    assert v == twin and hash(v) == hash(twin) and v is not twin
    assert v != vec(u, (-2, 1)) and v != vec(resolve("U2"), (1, -2))
    assert len({v, twin, vec(u, (0, 1))}) == 2
    assert repr(v) == (
        "LatticeVector(lattice=Lattice(name='U', rank=2, gram=((0, 1), (1, 0)), shape=None), "
        "coords=(1, -2))"
    )
    assert not hasattr(v, "__dict__")


def test_lattice_vector_is_frozen():
    v = vec(LMINUS, (0,) * 10 + (1, 4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.coords = (0,) * 12
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.lattice = resolve("U")
    with pytest.raises((AttributeError, TypeError)):
        v.extra = 1
    assert v.coords == (0,) * 10 + (1, 4)


def test_lattice_vector_replace_and_round_trips():
    u2u = resolve("U2U")
    v = vec(u2u, (1, 0, -1, 2))
    moved = dataclasses.replace(v, coords=(0, 1, 0, 0))
    assert moved == vec(u2u, (0, 1, 0, 0)) and moved.lattice is u2u
    with pytest.raises(RankMismatch, match="U2U needs 4 coordinates, got 2"):
        dataclasses.replace(v, coords=(1, 0))
    for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert twin == v and hash(twin) == hash(v) and twin.coords == (1, 0, -1, 2)
    assert dataclasses.astuple(v)[1] == (1, 0, -1, 2)
    assert [f.name for f in dataclasses.fields(LatticeVector)] == ["lattice", "coords"]


def test_lattice_vector_rank_mismatch_text():
    with pytest.raises(RankMismatch) as info:
        LatticeVector(LMINUS, (1, 2, 3))
    assert str(info.value) == "Lminus needs 12 coordinates, got 3"
    with pytest.raises(RankMismatch) as info:
        vec(resolve("U"), ())
    assert str(info.value) == "U needs 2 coordinates, got 0"
    # the bulk constructor names the first tuple of the wrong length
    with pytest.raises(RankMismatch) as info:
        vectors_of(LMINUS, [(0,) * 12, (1, 2, 3), (1,), (0,) * 13])
    assert str(info.value) == "Lminus needs 12 coordinates, got 3"
    with pytest.raises(RankMismatch) as info:
        vectors_of(resolve("U"), [(1, 0), ()])
    assert str(info.value) == "U needs 2 coordinates, got 0"


def test_vectors_of_builds_what_init_builds():
    u2u = resolve("U2U")
    coords = [(1, 0, -1, 2), (0, 0, 0, 0), (3, -4, 5, -6), (1, 0, -1, 2)]
    bulk = vectors_of(u2u, coords)
    single = tuple(LatticeVector(u2u, c) for c in coords)
    assert type(bulk) is tuple and bulk == single
    assert [hash(v) for v in bulk] == [hash(v) for v in single]
    assert [repr(v) for v in bulk] == [repr(v) for v in single]
    assert all(type(v) is LatticeVector and v.lattice is u2u for v in bulk)
    assert bulk[0] is not bulk[3] and len(set(bulk)) == 3
    assert vectors_of(u2u, []) == ()


def test_vectors_of_gives_frozen_slotted_vectors():
    u2u = resolve("U2U")
    (v,) = vectors_of(u2u, [(1, 0, -1, 2)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.coords = (0, 0, 0, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.lattice = resolve("U")
    with pytest.raises((AttributeError, TypeError)):
        v.extra = 1
    assert not hasattr(v, "__dict__") and v.coords == (1, 0, -1, 2)
    moved = dataclasses.replace(v, coords=(0, 1, 0, 0))
    assert moved == vec(u2u, (0, 1, 0, 0)) and moved.lattice is u2u
    with pytest.raises(RankMismatch, match="U2U needs 4 coordinates, got 2"):
        dataclasses.replace(v, coords=(1, 0))
    for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert twin == v and hash(twin) == hash(v)
