"""The four workloads: seeded inputs, one timed op each, and its check.

A workload has ``setup()`` (warm caches paid before the first timed op),
``BLOCK`` (the kinds of op in one full cycle of its mix) and ``draw(kind,
rng)`` (one seeded input of that kind), ``op(inp)`` (the only code inside the
timed span; it calls public lattice_orbits names, never with ``workers``) and
``check(inp, out)`` (returns None or a message; it runs outside the timed
span and recomputes the answer with ``reference``).

Inputs come in blocks: each block holds every kind of op in BLOCK once, in a
seeded order. The mix is then exact in every run and a seed changes only the
inputs and their order, so the spread between seeds is not a spread of mixes.

Every call goes through a module attribute (``orbits.classify``, not a name
bound at import), so the traced run's wrappers see it.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from lattice_orbits import dilatation, isometries, jsonio, lattices, oracle, orbits, vectors

import reference as ref

ROOT = Path(__file__).resolve().parent.parent


def blocks(workload, rng: random.Random):
    """Endless seeded stream of input blocks, one full cycle of the mix each.

    A block is a list of (kind, input) pairs; the kind is the BLOCK entry the
    input was drawn for.
    """
    while True:
        kinds = list(workload.BLOCK)
        rng.shuffle(kinds)
        yield [(kind, workload.draw(kind, rng)) for kind in kinds]


def _primitive_coords(rng: random.Random, name: str, bound: int, residue: int | None = None):
    """Seeded primitive coordinates in [-bound, bound], optionally with norm = residue mod 4."""
    gram = ref.GRAMS[name]
    while True:
        c = tuple(rng.randint(-bound, bound) for _ in range(len(gram)))
        if not any(c) or math.gcd(*c) != 1:
            continue
        if residue is not None and ref.form(gram, c) % 4 != residue:
            continue
        return c


def _gram_mismatch(lattice) -> str | None:
    if lattice.gram != ref.GRAMS[lattice.name]:
        return f"{lattice.name} Gram differs from the README block convention"
    return None


class ClassifyBatch:
    """classify + JSON + halving round trip (+ even type when 4 | norm)."""

    name = "classify-batch"
    # 80% Lminus, split evenly by norm mod 4 (4 | norm adds the even-type test)
    BLOCK = (("Lminus", 0), ("Lminus", 0), ("Lminus", 2), ("Lminus", 2), ("U2U", None))

    def setup(self):
        for name, rank in (("Lminus", 12), ("U2U", 4)):
            self.op((name, (0,) * (rank - 1) + (1,)))

    def draw(self, kind, rng):
        name, residue = kind
        return name, _primitive_coords(rng, name, 3, residue)

    def op(self, inp):
        name, c = inp
        lattice = lattices.resolve(name)
        v = vectors.vec(lattice, c)
        report = orbits.classify(v)
        doc = jsonio.classification_to_json(report)
        h = dilatation.dilate(v)
        back = dilatation.dilate_inverse(h)
        even = orbits.is_even_type(v) if report.norm % 4 == 0 else None
        return lattice, doc, h, back, even

    def check(self, inp, out):
        name, c = inp
        lattice, doc, h, back, even = out
        gram = ref.GRAMS[name]
        value = ref.form(gram, c)
        image = ref.doubled_image(c)
        char = ref.is_characteristic(gram, c)
        expected = {
            "coords": list(c),
            "norm": value,
            "n": value // 2,
            "primitive": True,
            "type": "characteristic" if char else "ordinary",
            "phi_integral": all(d % 2 == 0 for d in image),
            "label": ref.label(gram, c),
        }
        if list(doc.items()) != list(expected.items()):
            return _gram_mismatch(lattice) or f"{name} {c}: got {doc}, expected {expected}"
        if h.doubled_coords != image:
            return f"{name} {c}: halving image {h.doubled_coords}, expected {image}"
        if 2 * dilatation.half_norm(h) != value:
            return f"{name} {c}: 2*half_norm != norm {value}"
        if back.lattice != lattice or back.coords != c:
            return f"{name} {c}: round trip gave {back.lattice.name} {back.coords}"
        if value % 4 == 0 and even != ((c[-2] - c[-1]) % 2 == 0):
            return f"{name} {c}: is_even_type {even}"
        return None


class InvarianceWords:
    """One-sample invariance suite on Lminus with words of length 4, 8 or 16."""

    name = "invariance-words"
    BLOCK = (4, 8, 16)  # word lengths
    BOUND = 3

    def setup(self):
        self.lminus = lattices.resolve("Lminus")
        isometries.sample_word(self.lminus, 0, 1)  # fills the reflection pool

    def draw(self, length, rng):
        return rng.randrange(2**32), length

    def op(self, inp):
        seed, length = inp
        return oracle.invariance_suite(
            lattices.resolve("Lminus"), samples=1, seed=seed, bound=self.BOUND, word_length=length
        )

    def check(self, inp, out):
        seed, length = inp
        if out.status != "pass" or out.counterexample is not None or out.stats.get("checked") != 1:
            return f"suite seed {seed}: {out.status} {out.counterexample} {out.stats}"
        # replay the suite's draw: one primitive vector, then one word seed
        rng = random.Random(seed)
        v = oracle.random_primitive(self.lminus, rng, self.BOUND)
        m = isometries.sample_word(self.lminus, rng.randrange(2**32), length).matrix
        gram = ref.GRAMS["Lminus"]
        if not ref.preserves_form(gram, m):
            return _gram_mismatch(self.lminus) or f"suite seed {seed}: word does not preserve the form"
        image = ref.gram_vec(m, v.coords)
        if math.gcd(*v.coords) != 1 or ref.label(gram, v.coords) != ref.label(gram, image):
            return f"suite seed {seed}: label of {v.coords} not preserved by the word"
        return None


class BoxSearch:
    """Norm-filtered and unfiltered U2U box walks, and even-type witness searches."""

    name = "box-search"
    # bounds 4, 5, 6 are norm-filtered walks; "all" is the unfiltered bound-4 walk
    BLOCK = ("witness", "witness", "witness", "all", "all", 4, 5, 6)
    WITNESS_BOUND = 2  # even_witness's documented default, used only by the check

    def setup(self):
        self.counts: dict[tuple[int, int | None], int] = {}
        oracle.enumerate_primitive(lattices.resolve("U2U"), 1, 2)
        orbits.even_witness(vectors.vec(lattices.resolve("Lminus"), (0,) * 10 + (1, 2)))
        orbits.embed_invariant(vectors.vec(lattices.resolve("Lplus"), (0,) * 9 + (1,)))

    def draw(self, kind, rng):
        if kind == "witness":
            return "witness", _primitive_coords(rng, "Lminus", 2, residue=0)
        if kind == "all":
            return "enumerate", 4, None
        return "enumerate", kind, 2 * rng.randint(-8, 8)

    def op(self, inp):
        if inp[0] == "enumerate":
            return oracle.enumerate_primitive(lattices.resolve("U2U"), inp[1], inp[2])
        return orbits.even_witness(vectors.vec(lattices.resolve("Lminus"), inp[1]))

    def _expected_count(self, bound, value):
        key = (bound, value)
        if key not in self.counts:
            self.counts[key] = (
                ref.primitive_box_count(4, bound) if value is None else ref.u2u_norm_count(bound, value)
            )
        return self.counts[key]

    def check(self, inp, out):
        if inp[0] == "enumerate":
            return self._check_scan(inp[1], inp[2], out)
        return self._check_witness(inp[1], out)

    def _check_scan(self, bound, value, scan):
        gram = ref.GRAMS["U2U"]
        prev = None
        for v in scan.vectors:
            c = v.coords
            if max(map(abs, c)) > bound or math.gcd(*c) != 1:
                return f"box {bound}: {c} is outside the box or not primitive"
            if value is not None and ref.form(gram, c) != value:
                return f"box {bound} norm {value}: {c} has norm {ref.form(gram, c)}"
            if prev is not None and c <= prev:
                return f"box {bound}: {c} out of lexicographic order"
            prev = c
        want = self._expected_count(bound, value)
        if len(scan.vectors) != want:
            return f"box {bound} norm {value}: {len(scan.vectors)} hits, expected {want}"
        return None

    def _check_witness(self, c, result):
        obstructed = c[10] % 2 != 0 or c[11] % 2 != 0
        if result.parity_obstruction != obstructed:
            return f"witness {c}: parity_obstruction {result.parity_obstruction}"
        w = result.witness
        if w is None:
            if not obstructed and ref.witness_in_box(c, self.WITNESS_BOUND):
                return f"witness {c}: none returned but one exists in the box"
            return None
        if obstructed:
            return f"witness {c}: witness returned despite the obstruction"
        v = vectors.vec(lattices.resolve("Lminus"), c)
        left = orbits.embed_anti_invariant(v).coords
        right = orbits.embed_invariant(w).coords
        if any((a + b) % 2 for a, b in zip(left, right)) or not ref.witness_ok(c, w.coords):
            return f"witness {c}: {w.coords} fails the norm, gcd or 2*Lambda test"
        return None


_GOLDEN = (  # tuples, because each is also a kind of op and a dict key
    ("classify_odd.json", ("classify", "--lattice", "Lminus", "--coords", "0,0,0,0,0,0,0,0,0,0,1,5")),
    ("rep_characteristic.json", ("rep", "--norm", "8", "--class", "characteristic")),
    ("heegner_range.json", ("heegner", "--from", "-2", "--to", "2")),
)
_SCHEMAS = {
    "classify": "classification_report",
    "rep": "vector",
    "heegner": "heegner_report",
    "phi": "half_vector",
    "even-type": "even_type",
    "info": "lattice_info",
}
_INFO_LATTICES = ("Lminus", "U2U", "Lplus", "E8", "U", "E8_U_I11", "I_2_3")
_REP_CLASSES = {"characteristic": "even_characteristic", "ordinary": "even_ordinary"}


def _coords_arg(c):
    # one token, so argparse cannot read a leading "-1" as an option
    return "--coords=" + ",".join(map(str, c))


class CliCalls:
    """One ``python -m lattice_orbits.cli`` subprocess per op."""

    name = "cli-calls"
    BLOCK = ("classify",) * 3 + ("rep", "heegner", "phi", "even-type", "info") * 2 + _GOLDEN

    def setup(self):
        self.env = dict(os.environ)
        self.golden = {name: (ROOT / "tests" / "golden" / name).read_bytes() for name, _ in _GOLDEN}
        self.op(("golden", _GOLDEN[0][1], _GOLDEN[0][0]))
        self._validators = None

    def draw(self, kind, rng):
        if isinstance(kind, tuple):
            name, argv = kind
            return "golden", argv, name
        if kind in ("classify", "phi"):
            return kind, [kind, _coords_arg(_primitive_coords(rng, "Lminus", 3))], None
        if kind == "even-type":
            return kind, [kind, _coords_arg(_primitive_coords(rng, "Lminus", 2, residue=0))], None
        if kind == "rep":
            n = rng.randint(-10, 10)
            if n % 2:
                return kind, ["rep", "--n", str(n)], "odd"
            cls = rng.choice(sorted(_REP_CLASSES))
            return kind, ["rep", "--norm", str(2 * n), "--class", cls], _REP_CLASSES[cls]
        if kind == "heegner":
            lo = rng.randint(-5, 5)
            return kind, ["heegner", "--from", str(lo), "--to", str(lo + rng.randint(0, 4))], None
        return kind, ["info", "--lattice", rng.choice(_INFO_LATTICES)], None

    def op(self, inp):
        argv = [sys.executable, "-m", "lattice_orbits.cli", *inp[1]]
        return subprocess.run(argv, capture_output=True, env=self.env, timeout=60)

    def _validator(self, kind):
        if self._validators is None:
            import jsonschema
            from referencing import Registry, Resource

            schemas = {
                p.name: json.loads(p.read_text(encoding="utf-8"))
                for p in (ROOT / "docs" / "schemas").glob("*.schema.json")
            }
            registry = Registry().with_resources(
                (name, Resource.from_contents(doc)) for name, doc in schemas.items()
            )
            self._validators = {
                k: jsonschema.Draft202012Validator(schemas[f"{s}.schema.json"], registry=registry)
                for k, s in _SCHEMAS.items()
            }
        return self._validators[kind]

    def check(self, inp, proc):
        kind, argv, extra = inp
        if proc.returncode != 0:
            return f"{argv}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
        doc = json.loads(proc.stdout)
        errors = list(self._validator(argv[0]).iter_errors(doc))
        if errors:
            return f"{argv}: schema {_SCHEMAS[argv[0]]}: {errors[0].message}"
        if kind == "golden":
            if proc.stdout != self.golden[extra]:
                return f"{argv}: stdout differs from tests/golden/{extra}"
            return None
        return self._check_content(kind, argv, extra, doc)

    def _check_content(self, kind, argv, extra, doc):
        gram = ref.GRAMS["Lminus"]
        if kind in ("classify", "phi", "even-type"):
            c = tuple(int(x) for x in argv[1].removeprefix("--coords=").split(","))
        if kind == "classify":
            got = (doc["norm"], doc["label"])
            want = (ref.form(gram, c), ref.label(gram, c))
        elif kind == "phi":
            got, want = tuple(doc["doubled_coords"]), ref.doubled_image(c)
        elif kind == "even-type":
            got = (doc["norm"], doc["even_type"])
            want = (ref.form(gram, c), (c[-2] - c[-1]) % 2 == 0)
        elif kind == "rep":
            c = tuple(doc["coords"])
            value = int(argv[2]) * (2 if argv[1] == "--n" else 1)
            got, want = (ref.form(gram, c), ref.label(gram, c)), (value, extra)
        elif kind == "heegner":
            got = [(r["n"], r["component_count"]) for r in doc["reports"]]
            lo, hi = int(argv[2]), int(argv[4])
            want = [(n, 1 if n % 2 else 2) for n in range(lo, hi + 1)]
        else:
            name = argv[2]
            got = doc["gram"]
            want = [list(row) for row in ref.GRAMS[name]] if name in ref.GRAMS else got
            got, want = (got, doc["rank"]), (want, len(got))
        if got != want:
            return f"{argv}: got {got}, expected {want}"
        return None


WORKLOADS = {w.name: w for w in (ClassifyBatch, InvarianceWords, BoxSearch, CliCalls)}
