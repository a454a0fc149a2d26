"""Command line front end.

Every command computes one result and writes one JSON document to stdout
(or an aligned text rendering with --pretty). Exit codes: 0 success, 1 usage
error (message on stderr), 2 domain error (structured JSON on stdout), 3 a
verification suite reported a violation. Output bytes depend only on argv and
seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import jsonio
from .dilatation import dilate, dilate_inverse
from .errors import LatticeError, LimitExceeded
from .lattices import builtin_names, is_builtin, is_even, resolve, signature_and_determinant
from .matrix import is_int
from .orbits import (
    OrbitLabel,
    classify,
    even_witness,
    heegner_range,
    is_even_type,
    norm_labels,
    representative,
)
from .vectors import norm, vec

_LABELS = {
    "odd": OrbitLabel.ODD,
    "characteristic": OrbitLabel.EVEN_CHARACTERISTIC,
    "ordinary": OrbitLabel.EVEN_ORDINARY,
}


class _UsageError(Exception):
    pass


class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)

    def exit(self, status=0, message=None):  # reached only after --help is printed
        raise _HelpShown


def _coords(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"bad coordinate list {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="lattice-orbits", description=__doc__)
    parser.add_argument("--pretty", action="store_true", help="aligned text instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def lattice_flag(p, default=None):
        p.add_argument("--lattice", default=default, required=default is None,
                       help=f"built-in lattice name, one of: {', '.join(builtin_names())}")

    p = sub.add_parser("info", help="gram matrix, signature, parity, determinant")
    lattice_flag(p)

    p = sub.add_parser("classify", help="orbit label of a primitive vector")
    lattice_flag(p, "Lminus")
    p.add_argument("--coords", help="comma separated integers")
    p.add_argument("--from-json", dest="from_json",
                   help="path to a vector or classification document ('-' for stdin)")

    p = sub.add_parser("rep", help="canonical representative for a norm and label")
    lattice_flag(p, "Lminus")
    p.add_argument("--norm", type=int)
    p.add_argument("--n", type=int, help="half the norm; alternative to --norm")
    p.add_argument("--class", dest="label", choices=sorted(_LABELS),
                   help="orbit label; inferred for odd n")

    p = sub.add_parser("phi", help="norm-halving image as doubled coordinates")
    lattice_flag(p, "Lminus")
    p.add_argument("--coords", required=True)

    p = sub.add_parser("phi-inv", help="preimage of a half vector")
    p.add_argument("--base", required=True, help="base + I_1_1 lattice name")
    p.add_argument("--doubled", required=True, help="comma separated doubled coordinates")

    p = sub.add_parser("even-type", help="even type test for norm divisible by 4")
    lattice_flag(p, "Lminus")
    p.add_argument("--coords", required=True)

    p = sub.add_parser("witness", help="invariant-partner witness of even type")
    lattice_flag(p, "Lminus")
    p.add_argument("--coords", required=True)

    p = sub.add_parser("heegner", help="orbit components for a range of n")
    p.add_argument("--from", dest="n_min", type=int, required=True)
    p.add_argument("--to", dest="n_max", type=int, required=True)

    p = sub.add_parser("oracle-invariance", help="labels must survive random isometries")
    lattice_flag(p, "Lminus")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--word-length", dest="word_length", type=int, default=8)
    p.add_argument("--isometry-json", dest="isometry_json",
                   help="path to a matrix or list of matrices to certify and include")

    p = sub.add_parser("oracle-enumerate", help="primitive vectors in a coordinate box")
    lattice_flag(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--norm", type=int)

    p = sub.add_parser("oracle-connectivity", help="walk components never mix labels")
    lattice_flag(p, "U2U")
    p.add_argument("--norm", type=int, required=True)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--walks", type=int, default=10000)
    p.add_argument("--word-length", dest="word_length", type=int, default=4)

    p = sub.add_parser("oracle-wall", help="mod-8 congruence over a diagonal lattice box")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--bound", type=int, default=3)

    p = sub.add_parser("oracle-e8", help="short vector count in definite E8")
    p.add_argument("--norm", type=int, default=-2)
    return parser


def _read_doc(path: str, stdin) -> dict:
    try:
        if path == "-":
            text = stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(str(exc)) from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the 4,300-digit limit
        raise _UsageError(f"invalid JSON: {exc}") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise _UsageError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, (dict, list)):
        raise _UsageError("expected a JSON object")
    return doc


def _cmd_info(args, stdin):
    lattice = resolve(args.lattice)
    sig, det = signature_and_determinant(lattice)
    doc = jsonio.lattice_to_json(lattice)
    doc["even"] = is_even(lattice)
    doc["unimodular"] = abs(det) == 1
    doc["signature"] = {"positive": sig.positive, "negative": sig.negative, "zero": sig.zero}
    doc["determinant"] = det
    return doc, 0


def _cmd_classify(args, stdin):
    if (args.coords is None) == (args.from_json is None):
        raise _UsageError("classify needs exactly one of --coords or --from-json")
    if args.from_json is not None:
        doc = _read_doc(args.from_json, stdin)
        try:
            if "lattice" in doc:
                v = jsonio.vector_from_json(doc)
            else:
                v = vec(resolve(args.lattice), jsonio.int_list(doc["coords"], "coords"))
        except (KeyError, ValueError, TypeError) as exc:
            raise _UsageError(f"bad vector document: {exc}") from None
    else:
        v = vec(resolve(args.lattice), _coords(args.coords))
    return jsonio.classification_to_json(classify(v)), 0


def _cmd_rep(args, stdin):
    if (args.norm is None) == (args.n is None):
        raise _UsageError("rep needs exactly one of --norm or --n")
    value = args.norm if args.norm is not None else 2 * args.n
    if args.label is not None:
        label = _LABELS[args.label]
    elif len(norm_labels(value)) > 1:
        raise _UsageError("--class is required when n is even (two orbits exist)")
    else:
        label = OrbitLabel.ODD  # the one label of odd n; representative refuses an odd norm
    rep = representative(value, label, resolve(args.lattice))
    return jsonio.vector_to_json(rep), 0


def _cmd_phi(args, stdin):
    v = vec(resolve(args.lattice), _coords(args.coords))
    return jsonio.half_to_json(dilate(v)), 0


def _cmd_phi_inv(args, stdin):
    h = jsonio.half_from_json({"base": args.base, "doubled_coords": list(_coords(args.doubled))})
    return jsonio.vector_to_json(dilate_inverse(h)), 0


def _cmd_even_type(args, stdin):
    v = vec(resolve(args.lattice), _coords(args.coords))
    value = norm(v)
    answer = is_even_type(v)
    return {
        "vector": jsonio.vector_to_json(v),
        "norm": value,
        "n": value // 2,
        "even_type": answer,
    }, 0


def _cmd_witness(args, stdin):
    v = vec(resolve(args.lattice), _coords(args.coords))
    result = even_witness(v)
    return jsonio.witness_to_json(v, result, norm(v)), 0


def _cmd_heegner(args, stdin):
    if args.n_min > args.n_max:
        raise _UsageError("--from must not exceed --to")
    reports = heegner_range(args.n_min, args.n_max)
    return {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "reports": [jsonio.heegner_to_json(r) for r in reports],
    }, 0


def _load_matrices(path: str, stdin, lattice_name: str):
    """The matrices of an --isometry-json file: a bare matrix, a list of them, or
    a document {"matrix"} whose optional "lattice", checked after the matrices,
    must resolve to the --lattice lattice."""
    doc = _read_doc(path, stdin)
    document = doc if isinstance(doc, dict) and "matrix" in doc else None
    if document is not None:
        doc = [document["matrix"]]
    elif not isinstance(doc, list):
        raise _UsageError("isometry file must hold a matrix or a list of matrices")
    elif doc and _is_matrix(doc):
        doc = [doc]  # a single bare matrix
    if not all(map(_is_matrix, doc)):
        raise _UsageError("each isometry must be a list of integer rows")
    if document is not None and "lattice" in document:
        claimed = document["lattice"]
        if not isinstance(claimed, str):
            raise _UsageError("isometry document's lattice must be a built-in lattice name")
        if not is_builtin(resolve(lattice_name), claimed):
            raise _UsageError(f"isometry document is for lattice {claimed!r}, not --lattice {lattice_name!r}")
    return doc


def _is_matrix(doc) -> bool:
    """A list whose every entry is a list of ints, the JSON form of one matrix."""
    return isinstance(doc, list) and all(isinstance(row, list) and all(map(is_int, row)) for row in doc)


def _suite(result):
    """A suite's document, with exit code 0 when it passed and 3 on a violation."""
    return jsonio.suite_to_json(result), (0 if result.status == "pass" else 3)


# the oracles are imported by the commands that run them, so the others load
# neither them nor the isometry layer
def _cmd_oracle_invariance(args, stdin):
    from . import oracle

    matrices = _load_matrices(args.isometry_json, stdin, args.lattice) if args.isometry_json else None
    return _suite(oracle.invariance_suite(
        resolve(args.lattice), args.samples, args.seed, args.bound, args.word_length, matrices
    ))


def _cmd_oracle_enumerate(args, stdin):
    from . import oracle

    scan = oracle.enumerate_primitive(resolve(args.lattice), args.bound, args.norm)
    return jsonio.scan_to_json(scan), 0


def _cmd_oracle_connectivity(args, stdin):
    from . import oracle

    return _suite(oracle.connectivity_experiment(
        resolve(args.lattice), args.norm, args.bound, args.seed, args.walks, args.word_length
    ))


def _cmd_oracle_wall(args, stdin):
    from . import oracle

    return _suite(oracle.wall_scan(args.s, args.t, args.bound))


def _cmd_oracle_e8(args, stdin):
    from . import oracle

    return _suite(oracle.e8_suite(args.norm))


_HANDLERS = {
    "info": _cmd_info,
    "classify": _cmd_classify,
    "rep": _cmd_rep,
    "phi": _cmd_phi,
    "phi-inv": _cmd_phi_inv,
    "even-type": _cmd_even_type,
    "witness": _cmd_witness,
    "heegner": _cmd_heegner,
    "oracle-invariance": _cmd_oracle_invariance,
    "oracle-enumerate": _cmd_oracle_enumerate,
    "oracle-connectivity": _cmd_oracle_connectivity,
    "oracle-wall": _cmd_oracle_wall,
    "oracle-e8": _cmd_oracle_e8,
}


def _render_pretty(doc, indent=0) -> list[str]:
    """Lines of a handler's dict; it recurses only into dicts and lists, never a bare scalar."""
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, dict) or _is_block_list(value):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_pretty(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    return lines


def _is_block_list(value) -> bool:
    return isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value)


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(x) for x in value) + "]"
    return str(value)


def run(argv, stdout=None, stderr=None, stdin=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    try:
        with contextlib.redirect_stdout(stdout):  # argparse prints --help to sys.stdout
            args = build_parser().parse_args(argv)
        try:
            doc, code = _HANDLERS[args.command](args, stdin)
            text = "\n".join(_render_pretty(doc)) if args.pretty else json.dumps(doc)
        except ValueError as exc:  # str(int) past sys.get_int_max_str_digits(), in a result or a message
            if "integer string conversion" not in str(exc):
                raise
            raise LimitExceeded(
                f"the output would hold an integer of more than {sys.get_int_max_str_digits()} digits"
            ) from None
    except _HelpShown:
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except LatticeError as exc:
        error_doc = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error_doc), file=stdout)
        return 2
    print(text, file=stdout)
    return code


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit
        # cannot fail again, and end with exit 1 and no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
