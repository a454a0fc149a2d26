import json

import pytest

from lattice_orbits import jsonio
from lattice_orbits.dilatation import HalfVector, dilate
from lattice_orbits.errors import UnknownLattice
from lattice_orbits.lattices import Lattice, direct_sum, make_u, resolve
from lattice_orbits.oracle import enumerate_primitive, wall_scan
from lattice_orbits.orbits import classify, even_witness, heegner_report
from lattice_orbits.vectors import norm, vec

LMINUS = resolve("Lminus")


def test_vector_round_trip_by_name():
    v = vec(LMINUS, (0,) * 10 + (1, 3))
    doc = jsonio.vector_to_json(v)
    assert doc == {"lattice": "Lminus", "coords": [0] * 10 + [1, 3]}
    assert jsonio.vector_from_json(json.loads(json.dumps(doc))) == v


def test_vector_round_trip_inline():
    custom = direct_sum(make_u(), make_u(), name="UU")
    v = vec(custom, (1, 0, 0, 2))
    doc = jsonio.vector_to_json(v)
    assert doc["lattice"]["name"] == "UU"
    assert jsonio.vector_from_json(doc) == v


def test_lattice_ref_prefers_names():
    assert jsonio.lattice_ref(resolve("U2U")) == "U2U"
    inline = jsonio.lattice_ref(direct_sum(make_u(), make_u(), name="UU"))
    assert inline["rank"] == 4


def test_lattice_ref_inlines_names_resolve_refuses():
    # resolve raises EmptyLattice, not UnknownLattice, on this name
    custom = Lattice("I_0_0", 1, ((1,),))
    assert jsonio.lattice_ref(custom) == {"name": "I_0_0", "rank": 1, "gram": [[1]]}


def test_lattice_from_ref_errors():
    with pytest.raises(UnknownLattice):
        jsonio.lattice_from_ref("nope")
    with pytest.raises(ValueError):
        jsonio.lattice_from_ref(7)


def test_half_round_trip():
    h = dilate(vec(LMINUS, (0,) * 10 + (1, 4)))
    doc = jsonio.half_to_json(h)
    assert doc == {"base": "E8_U_I11", "doubled_coords": [0] * 10 + [5, -3]}
    assert jsonio.half_from_json(doc) == h


def test_classification_document_key_order():
    doc = jsonio.classification_to_json(classify(vec(LMINUS, (0,) * 10 + (1, 5))))
    assert list(doc) == ["coords", "norm", "n", "primitive", "type", "phi_integral", "label"]
    assert doc["label"] == "odd" and doc["norm"] == 10 and doc["n"] == 5
    assert doc["type"] == "ordinary" and doc["phi_integral"] is True


def test_heegner_document():
    doc = jsonio.heegner_to_json(heegner_report(4))
    assert doc["component_count"] == 2
    assert doc["components"][0]["label"] == "even_characteristic"
    assert doc["components"][0]["representative"]["coords"] == [0] * 8 + [1, 2, 0, 0]


def test_witness_document():
    v = vec(LMINUS, (0,) * 10 + (2, 1))
    doc = jsonio.witness_to_json(v, even_witness(v), norm(v))
    assert doc["witness"] is None
    assert doc["parity_obstruction"] is True
    assert doc["n"] == 2
    found = vec(LMINUS, (0,) * 8 + (2, 1, 0, 0))
    doc = jsonio.witness_to_json(found, even_witness(found), norm(found))
    assert doc["witness"]["lattice"] == "Lplus"
    assert doc["witness"]["coords"] == [0] * 8 + [2, 1]


def test_scan_document():
    doc = jsonio.scan_to_json(enumerate_primitive(resolve("U2U"), 1, -2))
    assert doc["lattice"] == "U2U"
    assert doc["count"] == len(doc["vectors"])
    assert [0, 0, 1, -1] in doc["vectors"]


def test_suite_document():
    doc = jsonio.suite_to_json(wall_scan(2, 2, 2))
    assert list(doc) == ["suite", "status", "counterexample", "stats"]
    assert doc["status"] == "pass" and doc["counterexample"] is None


def test_int_list_rejects_non_integers():
    with pytest.raises(ValueError):
        jsonio.vector_from_json({"lattice": "U", "coords": [1, True]})
    with pytest.raises(ValueError):
        jsonio.vector_from_json({"lattice": "U", "coords": [1, 2.5]})


def test_json_documents_serialize():
    # every emitted document must survive dumps/loads unchanged
    docs = [
        jsonio.vector_to_json(vec(LMINUS, (0,) * 10 + (1, 3))),
        jsonio.classification_to_json(classify(vec(LMINUS, (0,) * 10 + (1, 3)))),
        jsonio.heegner_to_json(heegner_report(0)),
        jsonio.suite_to_json(wall_scan(1, 1, 2)),
    ]
    for doc in docs:
        assert json.loads(json.dumps(doc)) == doc
