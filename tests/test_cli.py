import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource

import lattice_orbits.__main__
from lattice_orbits import cli, enumeration, isometries, lattices, oracle, orbits
from lattice_orbits.cli import run
from lattice_orbits.dilatation import HalfVector, half_target
from lattice_orbits.errors import LatticeShapeMismatch
from lattice_orbits.lattices import resolve
from lattice_orbits.orbits import OrbitLabel, classify, is_even_type, representative
from lattice_orbits.vectors import vec
from support import CLI_IMPORTS, GOLDEN_CASES, SAMPLING_BLOCKS, characteristic_by_parity

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"

_SCHEMAS = {}
_RESOURCES = []
for _path in sorted(SCHEMA_DIR.glob("*.schema.json")):
    _schema = json.loads(_path.read_text())
    _SCHEMAS[_path.name] = _schema
    _RESOURCES.append((_schema["$id"], Resource.from_contents(_schema)))
_REGISTRY = Registry().with_resources(_RESOURCES)


def check_schema(doc, name):
    jsonschema.Draft202012Validator(_SCHEMAS[name], registry=_REGISTRY).validate(doc)


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


ODD_COORDS = "0,0,0,0,0,0,0,0,0,0,1,5"


def test_info():
    code, out, err = run_cli(["info", "--lattice", "U"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["even"] and doc["unimodular"]
    assert doc["signature"] == {"positive": 1, "negative": 1, "zero": 0}
    assert doc["determinant"] == -1
    check_schema(doc, "lattice_info.schema.json")


def test_classify():
    code, out, _ = run_cli(["classify", "--coords", ODD_COORDS])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "coords": [0] * 10 + [1, 5],
        "norm": 10,
        "n": 5,
        "primitive": True,
        "type": "ordinary",
        "phi_integral": True,  # odd n means both b's odd, so the image is integral
        "label": "odd",
    }
    check_schema(doc, "classification_report.schema.json")


def test_classify_from_json_file(tmp_path):
    path = tmp_path / "vector.json"
    path.write_text(json.dumps({"lattice": "U2U", "coords": [0, 0, 1, 4]}))
    code, out, _ = run_cli(["classify", "--from-json", str(path)])
    assert code == 0
    assert json.loads(out)["label"] == "even_ordinary"


def test_classify_from_stdin_round_trip():
    _, first, _ = run_cli(["classify", "--coords", ODD_COORDS])
    code, second, _ = run_cli(["classify", "--from-json", "-"], stdin_text=first)
    assert code == 0
    assert second == first  # feeding a report back reproduces it byte for byte


def test_classify_flag_validation():
    assert run_cli(["classify"])[0] == 1
    assert run_cli(["classify", "--coords", ODD_COORDS, "--from-json", "-"])[0] == 1
    code, _, err = run_cli(["classify", "--from-json", "-"], stdin_text="{}")
    assert code == 1 and "bad vector document" in err
    assert run_cli(["classify", "--from-json", "-"], stdin_text="not json")[0] == 1


def test_classify_unreadable_json_file(tmp_path, monkeypatch):
    code, out, err = run_cli(["classify", "--from-json", str(tmp_path)])
    assert (code, out) == (1, "") and err.startswith("error: ") and "directory" in err
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"coords": [1, 2] \xff}')
    code, out, err = run_cli(["classify", "--from-json", str(path)])
    assert (code, out) == (1, "") and err.startswith("error: ") and "utf-8" in err

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("lattice_orbits.cli.open", refuse, raising=False)
    code, out, err = run_cli(["classify", "--from-json", str(path)])
    assert (code, out) == (1, "") and err.startswith("error: ") and "Permission denied" in err


def test_classify_missing_json_file(tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(["classify", "--from-json", str(missing)])
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_classify_domain_errors():
    code, out, _ = run_cli(["classify", "--coords", "0,0,0,0,0,0,0,0,0,0,2,4"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "NonPrimitive"
    check_schema(doc, "error.schema.json")
    code, out, _ = run_cli(["classify", "--lattice", "Nope", "--coords", "1,2"])
    assert code == 2 and json.loads(out)["error"] == "UnknownLattice"


def test_rep():
    code, out, _ = run_cli(["rep", "--norm", "8", "--class", "characteristic"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"lattice": "Lminus", "coords": [0] * 8 + [1, 2, 0, 0]}
    check_schema(doc, "vector.schema.json")
    _, out, _ = run_cli(["rep", "--n", "4", "--class", "ordinary"])
    assert json.loads(out)["coords"] == [0] * 10 + [1, 4]
    _, out, _ = run_cli(["rep", "--norm", "10"])  # odd n, label inferred
    assert json.loads(out)["coords"] == [0] * 10 + [1, 5]


def test_rep_validation():
    assert run_cli(["rep", "--norm", "8"])[0] == 1  # even n needs --class
    assert run_cli(["rep"])[0] == 1
    assert run_cli(["rep", "--norm", "8", "--n", "4", "--class", "ordinary"])[0] == 1
    code, out, _ = run_cli(["rep", "--norm", "7", "--class", "odd"])
    assert code == 2
    assert json.loads(out)["error"] == "OddNormInEvenLattice"


@pytest.mark.parametrize("value", ["5", "7", "9", "-3"])
def test_rep_of_an_odd_norm_without_a_class_is_a_domain_error(value):
    # (value // 2) is even for 5, 9 and -3; the label rule is orbits.norm_labels,
    # which admits no label for any odd norm
    code, out, err = run_cli(["rep", "--norm", value])
    assert (code, err) == (2, "")
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    assert doc == {"error": "OddNormInEvenLattice", "message": f"norm {value} is impossible in an even lattice"}


def test_phi():
    code, out, _ = run_cli(["phi", "--coords", "0,0,0,0,0,0,0,0,0,0,1,3"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"base": "E8_U_I11", "doubled_coords": [0] * 10 + [4, -2]}
    check_schema(doc, "half_vector.schema.json")


def test_phi_inverse():
    doubled = "0,0,0,0,0,0,0,0,0,0,4,-2"
    code, out, _ = run_cli(["phi-inv", "--base", "E8_U_I11", "--doubled", doubled])
    assert code == 0
    assert json.loads(out) == {"lattice": "Lminus", "coords": [0] * 10 + [1, 3]}
    bad = "0,0,0,0,0,0,0,0,0,0,1,2"
    code, out, _ = run_cli(["phi-inv", "--base", "E8_U_I11", "--doubled", bad])
    assert code == 2
    assert json.loads(out)["error"] == "NotInHalfLattice"


def test_even_type():
    code, out, _ = run_cli(["even-type", "--coords", "0,0,0,0,0,0,0,0,1,1,0,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["even_type"] is True and doc["norm"] == 4
    check_schema(doc, "even_type.schema.json")
    _, out, _ = run_cli(["even-type", "--coords", "0,0,0,0,0,0,0,0,0,0,2,1"])
    assert json.loads(out)["even_type"] is False
    code, out, _ = run_cli(["even-type", "--coords", ODD_COORDS])
    assert code == 2
    assert json.loads(out)["error"] == "EvenTypeUndefinedForOddN"


def test_witness():
    code, out, _ = run_cli(["witness", "--coords", "0,0,0,0,0,0,0,0,2,1,0,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["coords"] == [0] * 8 + [2, 1]
    assert doc["parity_obstruction"] is False
    check_schema(doc, "witness_result.schema.json")
    _, out, _ = run_cli(["witness", "--coords", "0,0,0,0,0,0,0,0,0,0,2,1"])
    doc = json.loads(out)
    assert doc["witness"] is None and doc["parity_obstruction"] is True
    check_schema(doc, "witness_result.schema.json")


def test_heegner():
    code, out, _ = run_cli(["heegner", "--from", "-2", "--to", "2"])
    assert code == 0
    doc = json.loads(out)
    assert [r["component_count"] for r in doc["reports"]] == [2, 1, 2, 1, 2]
    check_schema(doc, "heegner_report.schema.json")
    assert run_cli(["heegner", "--from", "3", "--to", "1"])[0] == 1


def test_oracle_e8():
    code, out, _ = run_cli(["oracle-e8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["stats"]["count"] == 240
    check_schema(doc, "suite_result.schema.json")


def test_oracle_enumerate():
    code, out, _ = run_cli(
        ["oracle-enumerate", "--lattice", "U2U", "--bound", "1", "--norm", "-2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert [0, 0, 1, -1] in doc["vectors"]
    check_schema(doc, "box_scan.schema.json")
    assert run_cli(["oracle-enumerate", "--bound", "1"])[0] == 1  # lattice required


def test_oracle_wall():
    code, out, _ = run_cli(["oracle-wall", "--s", "2", "--t", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    check_schema(doc, "suite_result.schema.json")


def test_oracle_invariance():
    code, out, _ = run_cli(
        ["oracle-invariance", "--lattice", "U2U", "--samples", "50", "--seed", "7"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["stats"]["checked"] == 50
    check_schema(doc, "suite_result.schema.json")


def test_oracle_invariance_rejects_corrupt_matrix(tmp_path):
    bad = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(
        [
            "oracle-invariance",
            "--lattice",
            "U2U",
            "--samples",
            "5",
            "--isometry-json",
            str(path),
        ]
    )
    assert code == 2
    assert json.loads(out)["error"] == "NotIsometry"


@pytest.mark.parametrize(
    "doc",
    [
        {"matrix": 5},
        {"matrix": [[1, 0], 7]},
        [[1, 0], [0, "1"]],
        [[[1, 0], [0, 1.0]]],
        [[True, False], [False, True]],
        [3],
        [None],
    ],
)
def test_oracle_invariance_rejects_malformed_isometry_file(tmp_path, doc):
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["oracle-invariance", "--lattice", "U2U", "--samples", "5", "--isometry-json", str(path)]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


_EYE4 = [[int(i == j) for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "doc, extra",
    [
        (_EYE4, 1),  # a bare matrix
        ([], 0),  # a list of matrices
        ([_EYE4, [[-x for x in row] for row in _EYE4]], 2),
        ({"matrix": _EYE4}, 1),  # an isometry document
        ({"lattice": "U2U", "matrix": _EYE4}, 1),
    ],
    ids=["bare", "empty-list", "list", "document", "named-document"],
)
def test_isometry_json_forms_match_the_schema(doc, extra):
    check_schema(doc, "isometry.schema.json")
    code, out, err = run_cli(["oracle-invariance", "--lattice", "U2U", "--samples", "1", "--isometry-json", "-"],
                             stdin_text=json.dumps(doc))
    assert (code, err) == (0, "")
    assert json.loads(out)["stats"]["extra_isometries"] == extra


@pytest.mark.parametrize(
    "doc, code, error",
    [
        ([[], [1]], 2, "NotIsometry"),  # one bare matrix: every entry is a list of ints
        ([[]], 2, "NotIsometry"),
        ([[1.0]], 1, None),  # 1.0 is a schema integer, but the reader takes only ints
    ],
)
def test_isometry_json_edge_documents_match_the_schema_and_the_reader(doc, code, error):
    check_schema(doc, "isometry.schema.json")
    out_code, out, err = run_cli(
        ["oracle-invariance", "--lattice", "U2U", "--samples", "1", "--isometry-json", "-"],
        stdin_text=json.dumps(doc),
    )
    assert out_code == code
    if error is None:
        assert (out, err) == ("", "error: each isometry must be a list of integer rows\n")
    else:
        assert err == "" and json.loads(out)["error"] == error


@pytest.mark.parametrize(
    "claimed, message",
    [
        ("Lminus", "isometry document is for lattice 'Lminus', not --lattice 'U2U'"),
        ("nope", "isometry document is for lattice 'nope', not --lattice 'U2U'"),
        ("I_2_2", "isometry document is for lattice 'I_2_2', not --lattice 'U2U'"),
        (None, "isometry document's lattice must be a built-in lattice name"),
    ],
)
def test_isometry_document_for_another_lattice_is_refused(claimed, message):
    # the identity certifies on U2U, so only the lattice key refuses it
    text = json.dumps({"lattice": claimed, "matrix": _EYE4})
    code, out, err = run_cli(["oracle-invariance", "--lattice", "U2U", "--samples", "1", "--isometry-json", "-"],
                             stdin_text=text)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    if claimed is not None:
        check_schema(json.loads(text), "isometry.schema.json")  # well formed; the contradiction is the fault


@pytest.mark.parametrize("rank", ["1e400", "1.5", "true", '"1"'])
def test_inline_lattice_rank_must_be_a_json_integer(rank):
    text = f'{{"lattice": {{"name": "x", "rank": {rank}, "gram": [[2]]}}, "coords": [1]}}'
    code, out, err = run_cli(["classify", "--from-json", "-"], stdin_text=text)
    assert (code, out) == (1, "")
    assert err.startswith("error: bad vector document: rank must be an integer, got ")


_DEEP = "[" * 10**5  # the decoder recurses once per level, past the interpreter's limit


@pytest.mark.parametrize("text", [_DEEP, _DEEP + "]" * 10**5, "[" + "1" * 5000 + "]"],
                         ids=["unclosed", "closed", "5000-digit"])
@pytest.mark.parametrize("flag", ["--from-json", "--isometry-json"])
def test_unreadable_json_documents_are_usage_errors(flag, text):
    command = "classify" if flag == "--from-json" else "oracle-invariance"
    code, out, err = run_cli([command, flag, "-"], stdin_text=text)
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid JSON: ")


@pytest.mark.parametrize("argv", [["info", "--lattice", "U"], ["oracle-enumerate", "--lattice", "U2U", "--bound", "3"]],
                         ids=["small", "past-the-buffer"])
def test_a_closed_stdout_ends_with_exit_1_and_no_traceback(argv, package_env):
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "lattice_orbits", *argv],
                              env=package_env, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_word_sampling_suites_reach_only_the_recipe_lattices():
    # the suites refuse every lattice but a tagged base(2) + U one before their
    # first word, so no argv reaches NoGeneratorRecipe
    names = [name for name in lattices.builtin_names() if name != "I_s_t"] + ["I_2_1"]
    sampled = []
    for name in names:
        for argv in (["oracle-invariance", f"--lattice={name}", "--samples=1"],
                     ["oracle-connectivity", f"--lattice={name}", "--norm=2", "--bound=1", "--walks=10"]):
            code, out, err = run_cli(argv)
            assert code in (0, 2) and err == "", argv
            doc = json.loads(out)
            if code == 2:
                check_schema(doc, "error.schema.json")
                assert doc["error"] == "LatticeShapeMismatch", argv
            else:
                check_schema(doc, "suite_result.schema.json")
                sampled.append(name)
    assert sorted(set(sampled)) == sorted(SAMPLING_BLOCKS) == ["Lminus", "U2U"]


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-invariance", "--word-length", "-3"],
        ["oracle-invariance", "--samples", "-2"],
        ["oracle-connectivity", "--norm", "2", "--walks", "-1"],
        ["oracle-invariance", "--lattice", "Lminus", "--samples", "1", "--bound", "-1"],
        ["oracle-enumerate", "--lattice", "U2U", "--bound", "-1"],
        ["oracle-wall", "--s", "1", "--t", "2", "--bound", "-1"],
        ["oracle-connectivity", "--norm", "2", "--bound", "-1"],
    ],
)
def test_negative_counts_are_domain_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and err == ""
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    assert doc["error"] == "NegativeCount"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-enumerate", "--lattice", "Lminus", "--bound", "5"],
        ["oracle-enumerate", "--lattice", "Lminus", "--bound", "5", "--norm", "4"],
        ["oracle-wall", "--s", "8", "--t", "0", "--bound", "3"],
        ["oracle-connectivity", "--lattice", "Lminus", "--norm", "2", "--bound", "4"],
    ],
)
def test_over_budget_box_walks_are_domain_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and err == ""
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    assert doc["error"] == "BoxTooLarge"
    assert doc["message"].endswith("tuples exceeds the budget of 1000000")


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "--lattice", "I_" + "9" * 5000 + "_0"],  # past int()'s 4300-digit limit
        ["oracle-wall", "--s", "100000", "--t", "0"],
        ["classify", "--lattice", "I_1000_1", "--coords", "1"],
    ],
)
def test_oversized_i_s_t_is_refused_before_it_is_built(argv, monkeypatch):
    def refuse(s, t):
        raise AssertionError(f"make_i({s}, {t}) was called")

    monkeypatch.setattr(lattices, "make_i", refuse)
    code, out, err = run_cli(argv)
    assert (code, err) == (2, "")
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    assert doc == {"error": "RankMismatch", "message": "I_s_t lattices need s + t <= 1000"}


_HUGE_BOUNDS = ["9" * 20, "9" * 2000]  # len() of the first one's box axis is past sys.maxsize
_HUGE_COUNTS = [  # an argv without its count, the flag that takes it, and the word length
    (["oracle-invariance"], "--samples", 8),
    (["oracle-connectivity", "--norm", "2", "--bound", "2"], "--walks", 4),
]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["heegner", "--from", "0", "--to", "10000"], "heegner ranges hold at most 10000 values of n"),
        (["heegner", "--from", "1", "--to", "100000000"], "heegner ranges hold at most 10000 values of n"),
        (["oracle-e8", "--norm", "-16"], "E8 vector counts need norm >= -14, got -16"),
        (["oracle-e8", "--norm", "-99999999"], "E8 vector counts need norm >= -14, got -99999999"),
        (["oracle-invariance", "--word-length", "10001"],
         "isometry words hold at most 10000 generators, got 10001"),
        (["oracle-connectivity", "--norm", "2", "--word-length", "10001"],
         "isometry words hold at most 10000 generators, got 10001"),
        *(pytest.param([*argv, flag, count],
                       f"suites draw at most 100000 generators in all, got {count} words of length {length}",
                       id=f"{argv[0]}-{len(count)}-digit-count")
          for argv, flag, length in _HUGE_COUNTS for count in _HUGE_BOUNDS),
    ],
)
def test_work_caps_are_refused_before_any_work(argv, message, monkeypatch):
    def refuse(*args):
        raise AssertionError("the capped work started")

    monkeypatch.setattr(orbits, "heegner_report", refuse)
    monkeypatch.setattr(oracle, "definite_vectors", refuse)
    monkeypatch.setattr(oracle, "random_primitive", refuse)
    monkeypatch.setattr(oracle, "enumerate_primitive", refuse)
    code, out, err = run_cli(argv)
    assert (code, err) == (2, "")
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    assert doc == {"error": "LimitExceeded", "message": message}


_NINES = "9" * 3000  # its square, the norm, has 6000 digits
_N_MAX = "9" * 4300  # parses, but the norm 2n has 4301 digits
_PAST_DIGIT_LIMIT = {
    "error": "LimitExceeded",
    "message": "the output would hold an integer of more than 4300 digits",
}
_HUGE_OUTPUTS = [
    ["classify", f"--coords={_NINES},0,0,0,0,0,0,0,0,0,0,1"],
    ["--pretty", "classify", f"--coords={_NINES},0,0,0,0,0,0,0,0,0,0,1"],
    ["even-type", f"--coords={_NINES},0,0,0,0,0,0,0,0,0,2,0"],
    ["heegner", "--from", _N_MAX, "--to", _N_MAX],
    ["rep", "--n", _N_MAX, "--class", "ordinary"],  # the norm is in the refusal's message
]


@pytest.mark.parametrize("argv", _HUGE_OUTPUTS, ids=["classify", "pretty", "even-type", "heegner", "rep"])
def test_integers_past_the_digit_limit_are_domain_errors(argv):
    assert sys.get_int_max_str_digits() == 4300  # the limit stays; it also guards parsing
    code, out, err = run_cli(argv)
    assert (code, err) == (2, "")
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    assert doc == _PAST_DIGIT_LIMIT


def test_integers_past_the_digit_limit_end_without_a_traceback(package_env):
    proc = run_module(_HUGE_OUTPUTS[0], package_env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == _PAST_DIGIT_LIMIT


_HUGE_BOXES = [  # an argv without its bound, and the number of axes its walk counts
    (["oracle-enumerate", "--lattice", "U"], 2),
    (["oracle-enumerate", "--lattice", "U", "--norm", "2"], 1),  # the last axis is solved
    (["oracle-wall", "--s", "1", "--t", "1"], 2),
    (["oracle-connectivity", "--norm", "2", "--walks", "1"], 3),
]


@pytest.mark.parametrize("bound", _HUGE_BOUNDS, ids=["20-digit", "2000-digit"])
@pytest.mark.parametrize("argv, axes", _HUGE_BOXES, ids=["enumerate", "enumerate-norm", "wall", "connectivity"])
def test_huge_bounds_are_refused_as_domain_errors(argv, axes, bound):
    code, out, err = run_cli([*argv, "--bound", bound])
    assert (code, err) == (2, "")
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    walked = (2 * int(bound) + 1) ** axes
    if walked < 10**4300:
        assert doc == {"error": "BoxTooLarge", "message": f"box walk of {walked} tuples exceeds the budget of 1000000"}
    else:  # the count itself is past the digit limit, so the message cannot be printed
        assert doc == _PAST_DIGIT_LIMIT


def test_huge_bounds_end_without_a_traceback(package_env):
    proc = run_module([*_HUGE_BOXES[0][0], "--bound", _HUGE_BOUNDS[0]], package_env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "BoxTooLarge"


@pytest.mark.parametrize("count", _HUGE_BOUNDS, ids=["20-digit", "2000-digit"])
@pytest.mark.parametrize("argv, flag, length", _HUGE_COUNTS, ids=["invariance", "connectivity"])
def test_huge_counts_end_without_a_traceback(argv, flag, length, count, package_env):
    proc = run_module([*argv, flag, count], package_env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "LimitExceeded"


def test_other_value_errors_still_propagate(monkeypatch):
    def broken(args, stdin):
        raise ValueError("a programming error")

    monkeypatch.setitem(cli._HANDLERS, "info", broken)
    with pytest.raises(ValueError, match="a programming error"):
        run_cli(["info", "--lattice", "U"])


@pytest.mark.parametrize(
    "argv, cap, message",
    [
        (["oracle-enumerate", "--lattice", "U2U", "--bound", "15"], None,
         "box scans keep at most 200000 hits, and the box holds 923521 tuples"),
        (["oracle-enumerate", "--lattice", "U2U", "--bound", "4", "--norm", "8"], 295,
         "box scans keep at most 295 hits, and the scan found 296"),
    ],
)
def test_oversized_scans_are_refused_before_any_vector(argv, cap, message, monkeypatch):
    def refuse(*args):
        raise AssertionError("a vector was built")

    if cap is not None:
        monkeypatch.setattr(oracle, "MAX_SCAN_HITS", cap)
    monkeypatch.setattr(oracle, "vectors_of", refuse)
    code, out, err = run_cli(argv)
    assert (code, err) == (2, "")
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    assert doc == {"error": "LimitExceeded", "message": message}


_U = resolve("U")
_NOT_TWISTED = "is not a tagged base(2) + U lattice"
_NOT_I11 = "is not a tagged base + I_1_1 lattice"


# Every shape-tag refusal, in the library and through the CLI, with its exact text.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: HalfVector(_U, (0, 0)), f"U {_NOT_I11}"),
        (lambda: HalfVector(resolve("U2U"), (0, 0, 1, 1)), f"U2U {_NOT_I11}"),
        (lambda: half_target(resolve("U_I11")), f"U_I11 {_NOT_TWISTED}"),
        (lambda: classify(vec(_U, (1, 1))), f"U {_NOT_TWISTED}"),
        (lambda: is_even_type(vec(_U, (1, 1))), f"U {_NOT_TWISTED}"),
        (lambda: representative(2, OrbitLabel.ODD, _U), f"U {_NOT_TWISTED}"),
        (lambda: characteristic_by_parity(vec(_U, (1, 1))), f"U {_NOT_I11}"),
        (["phi", "--lattice", "U2", "--coords", "1,1"], f"U2 {_NOT_TWISTED}"),
        (["phi-inv", "--base", "U", "--doubled", "0,0"], f"U {_NOT_I11}"),
        (["oracle-invariance", "--lattice", "I_2_3", "--samples", "0"], f"I_2_3 {_NOT_TWISTED}"),
        (["oracle-connectivity", "--lattice", "I_2_3", "--norm", "7", "--bound", "1", "--walks", "5"],
         f"I_2_3 {_NOT_TWISTED}"),
    ],
)
def test_tag_check_messages(call, message):
    if isinstance(call, list):
        code, out, err = run_cli(call)
        assert (code, err) == (2, "")
        assert out == json.dumps({"error": "LatticeShapeMismatch", "message": message}) + "\n"
        return
    with pytest.raises(LatticeShapeMismatch) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-invariance", "--lattice", "I_150_150", "--samples", "1"],
        ["oracle-connectivity", "--lattice", "I_2_3", "--norm", "7", "--bound", "1", "--walks", "5"],
    ],
)
def test_untagged_suites_are_refused_before_any_work(argv, monkeypatch):
    def refuse(*args):
        raise AssertionError("the suite started its work")

    for attr in ("sample_word", "enumerate_primitive", "random_primitive", "certify"):
        monkeypatch.setattr(oracle, attr, refuse)
    code, out, err = run_cli(argv)
    assert (code, err) == (2, "")
    message = f"{argv[2]} {_NOT_TWISTED}"
    assert out == json.dumps({"error": "LatticeShapeMismatch", "message": message}) + "\n"


def test_oracle_connectivity_deterministic():
    argv = [
        "oracle-connectivity",
        "--lattice",
        "U2U",
        "--norm",
        "2",
        "--walks",
        "200",
        "--bound",
        "4",
    ]
    code, first, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(first)
    assert doc["status"] == "pass"
    assert doc["stats"]["mixed_label_components"] == 0
    check_schema(doc, "suite_result.schema.json")
    assert run_cli(argv)[1] == first


# commands that never run an oracle, each with an argv that succeeds
LIGHT_COMMANDS = [
    ["classify", "--coords", ODD_COORDS],
    ["rep", "--norm", "8", "--class", "characteristic"],
    ["phi", "--coords", "0,0,0,0,0,0,0,0,0,0,1,3"],
    ["phi-inv", "--base", "E8_U_I11", "--doubled", "0,0,0,0,0,0,0,0,0,0,4,-2"],
    ["even-type", "--coords", "0,0,0,0,0,0,0,0,1,1,0,0"],
    ["witness", "--coords", "0,0,0,0,0,0,0,0,2,1,0,0"],
    ["heegner", "--from", "-2", "--to", "2"],
    ["info", "--lattice", "Lminus"],
]

# the package modules the import loads, then after each argv: its exit code
# and which of the enumeration and oracle modules are loaded
_LOADED_AFTER = """
import io, json, sys
from lattice_orbits.cli import run
seen = [sorted(m for m in sys.modules if m.split(".")[0] == "lattice_orbits")]
heavy = ("lattice_orbits.enumeration", "lattice_orbits.isometries", "lattice_orbits.oracle")
for argv in json.loads(sys.argv[1]):
    code = run(argv, stdout=io.StringIO(), stderr=io.StringIO())
    seen.append([code, [m for m in heavy if m in sys.modules]])
print(json.dumps(seen))
"""


def test_commands_load_only_what_they_run(package_env):
    argvs = [*LIGHT_COMMANDS, ["oracle-e8"]]  # the oracle command last, as a control
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER, json.dumps(argvs)],
                          env=package_env, capture_output=True, text=True, check=True)
    imported, *seen = json.loads(proc.stdout)
    assert imported == ["lattice_orbits", *(f"lattice_orbits.{module}" for module in CLI_IMPORTS)]
    assert seen[:-1] == [[0, []]] * len(LIGHT_COMMANDS)
    assert seen[-1] == [0, ["lattice_orbits.enumeration", "lattice_orbits.isometries", "lattice_orbits.oracle"]]


def test_usage_errors():
    assert run_cli([])[0] == 1
    assert run_cli(["classify", "--coords", "1,a,3"])[0] == 1
    assert run_cli(["no-such-command"])[0] == 1


def test_pretty_rendering():
    code, out, _ = run_cli(["--pretty", "classify", "--coords", ODD_COORDS])
    assert code == 0
    assert "label: odd" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    code, out, _ = run_cli(["--pretty", "heegner", "--from", "0", "--to", "1"])
    assert code == 0 and "components:" in out


def test_console_script_matches_in_process(cli_subprocess):
    argv = ["classify", "--coords", ODD_COORDS]
    proc = cli_subprocess(argv, text=True)
    assert proc.returncode == 0
    assert proc.stdout == run_cli(argv)[1]


def test_module_entry_is_console_script_target():
    # read without tomllib, which Python 3.10 lacks: the section's lines up to the next table
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    entries = re.findall(r'^([\w-]+)\s*=\s*"([^"]*)"\s*$', section, re.M)
    assert entries == [("lattice-orbits", "lattice_orbits.cli:main")]
    assert lattice_orbits.__main__.main is cli.main


def run_module(argv, env):
    return subprocess.run([sys.executable, "-m", "lattice_orbits", *argv],
                          env=env, capture_output=True, text=True)


@pytest.mark.parametrize(
    "argv, code",
    [(["classify", "--coords", ODD_COORDS], 0), (["no-such-command"], 1)],
)
def test_module_entry_matches_in_process(argv, code, package_env):
    proc = run_module(argv, package_env)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv)
    assert proc.returncode == code
    if code == 1:
        assert proc.stdout == "" and proc.stderr.startswith("error: ")


def test_module_entry_keeps_prog_name(package_env):
    proc = run_module(["--help"], package_env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: lattice-orbits ")


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"], ["oracle-wall", "-h"]])
def test_help_returns_to_caller(argv, package_env, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help at the terminal width
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: lattice-orbits ")
    proc = run_module(argv, {**package_env, "COLUMNS": "100"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# argvs whose outcome must not depend on the parser run builds, each with the
# one command whose subparser run builds alone, or None for the full parser:
# every command's help, help or an abbreviated --pretty before a command, no
# command or an unknown one, and every golden argv
_ONE_SUBPARSER = [
    *(([name, "--help"], name) for name in cli._HANDLERS),
    (["-h", "classify"], None),
    (["--pretty", "classify", "--help"], "classify"),
    (["--pre", "classify", f"--coords={ODD_COORDS}"], None),
    ([], None),
    (["--pretty"], None),
    (["no-such-command"], None),
    *((argv, argv[0]) for _, argv in GOLDEN_CASES),
]


@pytest.mark.parametrize("argv, command", _ONE_SUBPARSER)
def test_one_subparser_runs_as_the_full_parser(argv, command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build(command))
    one = run_cli(argv)
    monkeypatch.setattr(cli, "_command", lambda argv: None)  # force the full parser
    full = run_cli(argv)
    assert built == [command, None]
    assert one == full


def test_the_full_parser_lists_every_handler():
    code, out, _ = run_cli(["-h"])
    assert code == 0 and "{" + ",".join(cli._HANDLERS) + "}" in out


# CLI fuzz: every integer flag of every subcommand, plus the integers inside
# coordinate lists and I_s_t names, drawn from the extremes, the small values
# and one past each cap. A value at a cap is accepted and may run for seconds,
# so none is drawn.
_HUGE = 10**20
_SMALL = (-_HUGE, -1, 0, 1, 2, _HUGE)


def _first_bound_past(limit, axes):
    """The smallest box bound whose walk over `axes` axes holds more than `limit` tuples."""
    bound = max(0, round(limit ** (1 / axes)) // 2 - 2)
    while (2 * bound + 1) ** axes <= limit:
        bound += 1
    return bound


def _ints(*past_caps):
    return st.sampled_from(_SMALL + past_caps)


def _flags(**flags):
    """One "--flag=value" per keyword (underscores become dashes), left out when None."""
    return [f"--{name.replace('_', '-')}={value}" for name, value in flags.items() if value is not None]


def _optional(strategy):
    return st.none() | strategy


# rank 12: Lminus and its half target E8_U_I11
_COORDS = st.lists(_ints(), min_size=12, max_size=12).map(lambda c: ",".join(map(str, c)))
_VECTOR = _COORDS.map(lambda c: [f"--coords={c}"])


_SCAN_PAST = _first_bound_past(oracle.MAX_SCAN_HITS, 4)  # unfiltered U2U scans
_WALK_PAST = _first_bound_past(enumeration.WALK_BUDGET, 3)  # norm walks on U2U
_WALL_PAST = _first_bound_past(enumeration.WALK_BUDGET, 1)  # past the budget at every rank
_WORD_PAST = isometries.MAX_WORD_LENGTH + 1
_COUNT_PAST = isometries.SUITE_WORD_BUDGET + 1
_RANK_PAST = lattices.MAX_I_RANK + 1

# subcommand -> (argv strategy, the schema of its stdout document on exit 0 or 3)
_FUZZ = {
    "info": (st.builds(lambda s, t: [f"--lattice=I_{s}_{t}"], _ints(_RANK_PAST), _ints(_RANK_PAST)),
             "lattice_info.schema.json"),
    "classify": (_VECTOR, "classification_report.schema.json"),
    "rep": (st.builds(lambda norm, n, label: _flags(norm=norm, n=n, **{"class": label}),
                      _optional(_ints()), _optional(_ints()),
                      _optional(st.sampled_from(["odd", "characteristic", "ordinary"]))),
            "vector.schema.json"),
    "phi": (_VECTOR, "half_vector.schema.json"),
    "phi-inv": (_COORDS.map(lambda c: ["--base=E8_U_I11", f"--doubled={c}"]), "vector.schema.json"),
    "even-type": (_VECTOR, "even_type.schema.json"),
    "witness": (_VECTOR, "witness_result.schema.json"),
    # one past the cap is a range of HEEGNER_MAX_RANGE + 1 values of n
    "heegner": (_ints().flatmap(lambda lo: st.builds(
        lambda hi: _flags(**{"from": lo, "to": hi}), _ints(lo + orbits.HEEGNER_MAX_RANGE))),
        "heegner_report.schema.json"),
    "oracle-invariance": (st.builds(
        lambda lattice, samples, seed, bound, length: _flags(
            lattice=lattice, samples=samples, seed=seed, bound=bound, word_length=length),
        st.sampled_from(["Lminus", "U2U"]), _ints(_COUNT_PAST), _ints(), _ints(), _ints(_WORD_PAST)),
        "suite_result.schema.json"),
    "oracle-enumerate": (st.builds(
        lambda bound, norm: _flags(lattice="U2U", bound=bound, norm=norm),
        _ints(_SCAN_PAST, _WALK_PAST), _optional(_ints())),
        "box_scan.schema.json"),
    "oracle-connectivity": (st.builds(
        lambda norm, bound, seed, walks, length: _flags(
            norm=norm, bound=bound, seed=seed, walks=walks, word_length=length),
        _ints(), _ints(_WALK_PAST), _ints(), _ints(_COUNT_PAST), _ints(_WORD_PAST)),
        "suite_result.schema.json"),
    "oracle-wall": (st.builds(lambda s, t, bound: _flags(s=s, t=t, bound=bound),
                              _ints(_RANK_PAST), _ints(_RANK_PAST), _ints(_WALL_PAST)),
                    "suite_result.schema.json"),
    "oracle-e8": (_ints(oracle.E8_MIN_NORM - 1).map(lambda norm: _flags(norm=norm)),
                  "suite_result.schema.json"),
}

_ALARM_S = 5  # per example; every drawn argv ends in milliseconds


class _TooSlow(Exception):
    pass


def _too_slow(signum, frame):
    raise _TooSlow(f"the example ran past {_ALARM_S} s")


def test_fuzz_covers_every_subcommand():
    assert sorted(_FUZZ) == sorted(cli._HANDLERS)


@pytest.mark.parametrize("command", sorted(_FUZZ))
@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])  # no shrinking: a slow example would repeat
@given(data=st.data())
def test_integer_flags_end_in_an_exit_code_and_a_valid_document(command, data):
    flags, schema = _FUZZ[command]
    argv = [command, *data.draw(flags, label="flags")]
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(_ALARM_S)
    try:
        code, out, err = run_cli(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert out == "" and err.startswith("error: ")
    else:
        assert err == ""
        check_schema(json.loads(out), "error.schema.json" if code == 2 else schema)


# JSON fuzz: documents given to --from-json and --isometry-json, with huge,
# non-finite and fractional numbers, deep nesting, empty and ragged matrices,
# and I_s_t names just past MAX_I_RANK
_JSON_INTS = st.sampled_from([0, 1, -1, 2, 4, 10**400, -(10**400)]) | st.integers(-3, 3)
_JSON_NUMBERS = _JSON_INTS | st.sampled_from([1.5, 1e400, -1e400, float("nan"), 0.0, True, False])
_JSON_SCALARS = st.none() | _JSON_NUMBERS | st.sampled_from(["", "1", "Lminus", "lattice"])
_JSON_ANY = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["lattice", "coords", "matrix", "name", "rank", "gram"]), inner, max_size=4),
    max_leaves=12,
)
_ROWS = st.lists(st.lists(_JSON_NUMBERS, max_size=5), max_size=5)  # empty and ragged too
_SQUARE = st.sampled_from([4, 4, 0, 1, 2, 5]).flatmap(
    lambda n: st.lists(st.lists(_JSON_INTS, min_size=n, max_size=n), min_size=n, max_size=n))
_U2U_ISOMETRIES = st.sampled_from([  # the identity, -1 and the two hyperbolic swaps
    [[int(i == j) for j in range(4)] for i in range(4)],
    [[-int(i == j) for j in range(4)] for i in range(4)],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
])
_NAMES = st.sampled_from(["Lminus", "U2U", "U", "E8_U_I11", "I_2_1", f"I_{lattices.MAX_I_RANK + 1}_0",
                          f"I_0_{lattices.MAX_I_RANK + 1}", f"I_500_{lattices.MAX_I_RANK - 499}", "nope"])
_INLINE = st.fixed_dictionaries({"name": _NAMES | _JSON_SCALARS, "rank": _JSON_NUMBERS,
                                 "gram": _ROWS | _SQUARE | _JSON_ANY})
_COORD_LISTS = st.lists(_JSON_NUMBERS, max_size=13) | st.sampled_from([4, 12]).flatmap(
    lambda n: st.lists(_JSON_INTS, min_size=n, max_size=n))
_VECTOR_DOCS = (
    st.fixed_dictionaries({"lattice": _NAMES | _INLINE | _JSON_ANY, "coords": _COORD_LISTS | _JSON_ANY})
    | st.fixed_dictionaries({"coords": _COORD_LISTS})
)
_MATRICES = _U2U_ISOMETRIES | _SQUARE | _ROWS
_MATRIX_DOCS = _MATRICES | st.lists(_MATRICES, max_size=3) | st.fixed_dictionaries(
    {"matrix": _MATRICES | _JSON_ANY}, optional={"lattice": _NAMES | _JSON_ANY})
# every flag runs each of these texts as an explicit example
_RAW_TEXTS = ["", "[", "{}", "null", "1", "[]", "[[]]", "[" * 10**5, "[" * 10**5 + "]" * 10**5,
              "[" + "9" * 5000 + "]", "NaN", "Infinity", '{"coords": [1e999]}',
              '{"lattice": {"name": "x", "rank": 1e400, "gram": [[2]]}, "coords": [1]}']
_JSON_FUZZ = {  # flag -> (the argv before the document, the document strategy, the schema on exit 0 or 3)
    "--from-json": (["classify", "--lattice=U2U"], _VECTOR_DOCS, "classification_report.schema.json"),
    "--isometry-json": (["oracle-invariance", "--lattice=U2U", "--samples=1"], _MATRIX_DOCS,
                        "suite_result.schema.json"),
}
_JSON_CASES = st.sampled_from(sorted(_JSON_FUZZ)).flatmap(
    lambda flag: st.tuples(st.just(flag), (_JSON_FUZZ[flag][1] | _JSON_ANY).map(json.dumps)))


def _with_raw_texts(test):
    for flag in sorted(_JSON_FUZZ):
        for text in _RAW_TEXTS:
            test = example(case=(flag, text))(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])  # no shrinking: a slow example would repeat
@given(case=_JSON_CASES)
@_with_raw_texts
def test_json_inputs_end_in_an_exit_code_and_a_valid_document(case):
    flag, text = case
    prefix, _, schema = _JSON_FUZZ[flag]
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(_ALARM_S)
    try:
        code, out, err = run_cli([*prefix, flag, "-"], stdin_text=text)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert out == "" and err.startswith("error: ")
    else:
        assert err == ""
        check_schema(json.loads(out), "error.schema.json" if code == 2 else schema)
