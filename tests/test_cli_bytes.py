"""The CLI's exact bytes, pinned.

Each group runs a fixed list of argvs in process and hashes, per call, the
argv, the stdin text, the exit code, stdout and stderr. The digests were
recorded before the CLI stopped importing the oracles for every command, so
any change to a document, a help text, a message or an exit code shows here.
The documents, pretty, help and errors digests were re-recorded when the
witness command lost its --bound option and its documents their "bound" key;
nothing else in those groups changed. The word_bounds group was recorded
when isometry words got their length cap; no earlier group changed with it.
The scans group was recorded before box scans reused solved tails per head.
The help digest was re-recorded when the alias B_U left the built-in names,
which every --lattice help lists; only those lists changed.
Help texts are rendered at a fixed terminal width; argparse's help layout also
varies across Python minor versions, and these digests were recorded on 3.11.
"""

import hashlib
import io
from types import SimpleNamespace

import pytest

from lattice_orbits import oracle
from lattice_orbits.cli import run
from lattice_orbits.orbits import OrbitLabel

ODD = "0,0,0,0,0,0,0,0,0,0,1,5"
NEGATE_U2U = "[[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]"
COMMANDS = (
    "info", "classify", "rep", "phi", "phi-inv", "even-type", "witness", "heegner",
    "oracle-invariance", "oracle-enumerate", "oracle-connectivity", "oracle-wall", "oracle-e8",
)

DOCUMENTS = [
    ["info", "--lattice", "U"],
    ["info", "--lattice", "Lminus"],
    ["info", "--lattice", "I_2_3"],
    ["classify", "--coords", ODD],
    ["classify", "--lattice", "U2U", "--coords", "0,0,1,4"],
    (["classify", "--from-json", "-"], '{"lattice": "U2U", "coords": [0, 0, 1, 4]}'),
    (["classify", "--lattice", "U2U", "--from-json", "-"], '{"coords": [1, 0, 1, 2]}'),
    ["rep", "--norm", "8", "--class", "characteristic"],
    ["rep", "--n", "4", "--class", "ordinary"],
    ["rep", "--norm", "10"],
    ["rep", "--lattice", "U2U", "--norm", "-4", "--class", "ordinary"],
    ["phi", "--coords", "0,0,0,0,0,0,0,0,0,0,1,3"],
    ["phi-inv", "--base", "E8_U_I11", "--doubled", "0,0,0,0,0,0,0,0,0,0,4,-2"],
    ["even-type", "--coords", "0,0,0,0,0,0,0,0,1,1,0,0"],
    ["even-type", "--coords", "0,0,0,0,0,0,0,0,0,0,2,1"],
    ["witness", "--coords", "0,0,0,0,0,0,0,0,2,1,0,0"],
    ["witness", "--coords", "0,0,0,0,0,0,0,0,0,0,2,1"],
    ["heegner", "--from", "-2", "--to", "2"],
    ["oracle-invariance", "--lattice", "U2U", "--samples", "20", "--seed", "7"],
    (["oracle-invariance", "--lattice", "U2U", "--samples", "3", "--isometry-json", "-"], NEGATE_U2U),
    ["oracle-enumerate", "--lattice", "U2U", "--bound", "1"],
    ["oracle-enumerate", "--lattice", "U2U", "--bound", "2", "--norm", "-2"],
    ["oracle-connectivity", "--lattice", "U2U", "--norm", "2", "--bound", "2", "--walks", "100"],
    ["oracle-connectivity", "--lattice", "U2U", "--norm", "3", "--bound", "2", "--walks", "10"],
    ["oracle-wall", "--s", "1", "--t", "2", "--bound", "2"],
    ["oracle-e8"],
    ["oracle-e8", "--norm", "2"],
]

PRETTY = [
    ["--pretty", "info", "--lattice", "U2U"],
    ["--pretty", "classify", "--coords", ODD],
    ["--pretty", "rep", "--norm", "8", "--class", "characteristic"],
    ["--pretty", "phi", "--coords", "0,0,0,0,0,0,0,0,0,0,1,3"],
    ["--pretty", "even-type", "--coords", "0,0,0,0,0,0,0,0,1,1,0,0"],
    ["--pretty", "witness", "--coords", "0,0,0,0,0,0,0,0,2,1,0,0"],
    ["--pretty", "witness", "--coords", "0,0,0,0,0,0,0,0,0,0,2,1"],
    ["--pretty", "heegner", "--from", "0", "--to", "1"],
    ["--pretty", "oracle-invariance", "--lattice", "U2U", "--samples", "5"],
    ["--pretty", "oracle-enumerate", "--lattice", "U2U", "--bound", "1", "--norm", "-2"],
    ["--pretty", "oracle-connectivity", "--lattice", "U2U", "--norm", "2", "--bound", "2", "--walks", "20"],
    ["--pretty", "oracle-wall", "--s", "1", "--t", "1", "--bound", "2"],
    ["--pretty", "oracle-e8"],
    ["--pretty", "classify", "--coords", "0,0,0,0,0,0,0,0,0,0,2,4"],
]

HELP = [["--help"], ["-h"], *([command, "--help"] for command in COMMANDS)]

# one usage error (exit 1) and one domain error (exit 2) per command; the
# domain errors of heegner and oracle-e8 came later and are pinned in BOUNDS;
# witness has no --bound, so both of its --bound argvs are usage errors
ERRORS = [
    [],
    ["no-such-command"],
    ["info"],
    ["info", "--lattice", "Nope"],
    ["classify"],
    ["classify", "--coords", "1,a,3"],
    (["classify", "--from-json", "-"], "{}"),
    (["classify", "--from-json", "-"], "not json"),
    ["classify", "--coords", "0,0,0,0,0,0,0,0,0,0,2,4"],
    ["rep", "--norm", "8"],
    ["rep", "--norm", "7", "--class", "odd"],
    ["phi"],
    ["phi", "--lattice", "U2", "--coords", "1,1"],
    ["phi-inv", "--base", "E8_U_I11"],
    ["phi-inv", "--base", "E8_U_I11", "--doubled", "0,0,0,0,0,0,0,0,0,0,1,2"],
    ["even-type", "--coords", "x"],
    ["even-type", "--coords", ODD],
    ["witness", "--coords", ODD, "--bound", "two"],
    ["witness", "--coords", "0,0,0,0,0,0,0,0,1,2,2,0", "--bound", "-1"],
    ["witness", "--coords", ODD],
    ["heegner", "--from", "3", "--to", "1"],
    ["heegner", "--from", "1"],
    (["oracle-invariance", "--lattice", "U2U", "--isometry-json", "-"], "[3]"),
    (["oracle-invariance", "--lattice", "U2U", "--samples", "5", "--isometry-json", "-"],
     "[[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]"),
    ["oracle-enumerate", "--bound", "1"],
    ["oracle-enumerate", "--lattice", "Lminus", "--bound", "5"],
    ["oracle-connectivity"],
    ["oracle-connectivity", "--norm", "2", "--walks", "-1"],
    ["oracle-wall", "--s", "1"],
    ["oracle-wall", "--s", "1", "--t", "2", "--bound", "-1"],
    ["oracle-e8", "--norm", "-2.5"],
]

# the work caps of heegner (10^4 values of n) and oracle-e8 (norm >= -14), at
# and past each cap; the allowed oracle-e8 --norm -14 is too slow for this list
BOUNDS = [
    ["heegner", "--from", "0", "--to", "10000"],
    ["heegner", "--from", "-5", "--to", "100000000"],
    ["--pretty", "heegner", "--from", "0", "--to", "10000"],
    ["oracle-e8", "--norm", "-16"],
    ["oracle-e8", "--norm", "-15"],
    ["oracle-e8", "--norm", "-1000000000"],
    ["oracle-e8", "--norm", "1000000000"],
]

# the isometry word cap (10^4 generators) of both word-drawing suites, just past it
WORD_BOUNDS = [
    ["oracle-invariance", "--word-length", "10001"],
    ["oracle-connectivity", "--norm", "2", "--word-length", "10001"],
]

# box scans on every walker path: unfiltered (bound 10 is the largest box
# under the hit cap), norm-solved on U2U, I_2_1 and Lminus, and U's "every x"
# at norm 0
SCANS = [
    ["oracle-enumerate", "--lattice", "U2U", "--bound", "4"],
    ["oracle-enumerate", "--lattice", "U2U", "--bound", "10"],
    ["oracle-enumerate", "--lattice", "U2U", "--bound", "6", "--norm", "8"],
    ["oracle-enumerate", "--lattice", "I_2_1", "--bound", "4", "--norm", "-1"],
    ["oracle-enumerate", "--lattice", "U", "--bound", "50", "--norm", "0"],
    ["oracle-enumerate", "--lattice", "Lminus", "--bound", "1", "--norm", "4"],
]

# run with every suite made to report a violation (exit 3), see _break_suites
FAILURES = [
    ["oracle-invariance", "--lattice", "U2U", "--samples", "20", "--seed", "7"],
    ["oracle-connectivity", "--lattice", "U2U", "--norm", "2", "--bound", "2", "--walks", "100"],
    ["oracle-wall", "--s", "1", "--t", "2", "--bound", "2"],
    ["oracle-e8"],
    ["--pretty", "oracle-e8"],
]

PINNED = {
    "documents": "1c5ac61e957542bc4f635cb540bebe53d2e18bee233fbdc2d1a3e62a3b168c58",
    "pretty": "ff8abb0b03368221751f77aba3ececcc055bf35b7fdad5ccbd8c642e83d5cbb3",
    "help": "c64eda09b9e35a0eb6174ef9c3088a53a151c8991f4f84766975102801a9893d",
    "errors": "8fdfc47d46e57ac73227f1fe68f3a0954c235d56ce3c37a4d71bd64fa597c3ae",
    "failures": "d5b6f682b8c2ec794f089b14d887f3065812ec4c31c3470f17a16cd89b07fb52",
    "bounds": "606c3b86868db5cd8062a029d7f03f3944c2fc8fcb2dd479ff8ae5bea773d514",
    "word_bounds": "e72f5184f242057775d1d303c6dfced603e0accf7fd28f1b380a29de10eb2b87",
    "scans": "6686991375ec5ba27066b0e60b251d72a1d87d4568be129927aaa7040936a39a",
}


def _digest(cases) -> str:
    digest = hashlib.sha256()
    for case in cases:
        argv, stdin_text = case if isinstance(case, tuple) else (case, "")
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
        digest.update(repr((argv, stdin_text, code, out.getvalue(), err.getvalue())).encode() + b"\n")
    return digest.hexdigest()


def _break_suites(monkeypatch):
    """A wrong E8 count, norms off by one and labels split by the sign of x0."""
    monkeypatch.setitem(oracle.EXPECTED_E8_COUNTS, -2, 241)
    honest_norm = oracle.norm
    monkeypatch.setattr(oracle, "norm", lambda v: 1 + honest_norm(v))
    monkeypatch.setattr(oracle, "classify", lambda v: SimpleNamespace(
        label=OrbitLabel.ODD if v.coords[0] > 0 else OrbitLabel.EVEN_ORDINARY))


@pytest.mark.parametrize(
    "group, cases",
    [("documents", DOCUMENTS), ("pretty", PRETTY), ("help", HELP), ("errors", ERRORS),
     ("failures", FAILURES), ("bounds", BOUNDS), ("word_bounds", WORD_BOUNDS), ("scans", SCANS)],
)
def test_cli_bytes_pinned(group, cases, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    if group == "failures":
        _break_suites(monkeypatch)
    assert _digest(cases) == PINNED[group]
