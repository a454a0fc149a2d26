import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from lattice_orbits.cli import run
from lattice_orbits.dilatation import HalfVector, half_target
from lattice_orbits.errors import LatticeShapeMismatch
from lattice_orbits.lattices import resolve
from lattice_orbits.orbits import OrbitLabel, classify, is_even_type, representative
from lattice_orbits.vectors import characteristic_by_parity, vec

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
        ["witness", "--coords", "0,0,0,0,0,0,0,0,1,2,2,0", "--bound", "-1"],
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
        ["witness", "--coords", "0,0,0,0,0,0,0,0,1,2,2,0", "--bound", "10"],
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
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["lattice-orbits"] == "lattice_orbits.cli:main"


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
