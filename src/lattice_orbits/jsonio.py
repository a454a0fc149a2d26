"""JSON views of the public types.

Document layouts are part of the CLI contract and are frozen by golden tests:
key order is fixed, values are plain ints/strings/bools, and every document
round-trips byte-identically through json.dumps. Schemas for each document
live in docs/schemas/.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .dilatation import HalfVector
from .lattices import Lattice, is_builtin, resolve
from .matrix import is_int
from .vectors import LatticeVector

if TYPE_CHECKING:
    from .oracle import BoxScan, SuiteResult
    from .orbits import ClassificationReport, HeegnerReport, WitnessResult


def int_list(values, what: str) -> tuple[int, ...]:
    """The JSON integers in values; anything else, booleans too, is a ValueError."""
    out = []
    for x in values:
        if not is_int(x):
            raise ValueError(f"{what} must be integers, got {x!r}")
        out.append(x)
    return tuple(out)


def lattice_to_json(lattice: Lattice) -> dict:
    return {
        "name": lattice.name,
        "rank": lattice.rank,
        "gram": [list(row) for row in lattice.gram],
    }


def lattice_ref(lattice: Lattice):
    """Name when resolve gives the lattice back, inline document otherwise."""
    return lattice.name if is_builtin(lattice) else lattice_to_json(lattice)


def lattice_from_ref(ref) -> Lattice:
    if isinstance(ref, str):
        return resolve(ref)
    if isinstance(ref, dict):
        rank = ref["rank"]
        if not is_int(rank):
            raise ValueError(f"rank must be an integer, got {rank!r}")
        gram = tuple(tuple(int_list(row, "gram entries")) for row in ref["gram"])
        return Lattice(str(ref["name"]), rank, gram)
    raise ValueError("lattice reference must be a name or an inline document")


def vector_to_json(v: LatticeVector) -> dict:
    return {"lattice": lattice_ref(v.lattice), "coords": list(v.coords)}


def vector_from_json(doc: dict) -> LatticeVector:
    return LatticeVector(lattice_from_ref(doc["lattice"]), int_list(doc["coords"], "coords"))


def half_to_json(h: HalfVector) -> dict:
    return {"base": h.base.name, "doubled_coords": list(h.doubled_coords)}


def half_from_json(doc: dict) -> HalfVector:
    base = resolve(str(doc["base"]))
    return HalfVector(base, int_list(doc["doubled_coords"], "doubled_coords"))


def classification_to_json(report: ClassificationReport) -> dict:
    return {
        "coords": list(report.vector.coords),
        "norm": report.norm,
        "n": report.n,
        "primitive": report.primitive,
        "type": report.vtype.value,
        "phi_integral": report.phi_integral,
        "label": report.label.value,
    }


def heegner_to_json(report: HeegnerReport) -> dict:
    return {
        "n": report.n,
        "norm": report.norm,
        "component_count": len(report.components),
        "components": [
            {"label": comp.label.value, "representative": vector_to_json(comp.representative)}
            for comp in report.components
        ],
    }


def witness_to_json(v: LatticeVector, result: WitnessResult, norm: int) -> dict:
    return {
        "vector": vector_to_json(v),
        "norm": norm,
        "n": norm // 2,
        "witness": None if result.witness is None else vector_to_json(result.witness),
        "parity_obstruction": result.parity_obstruction,
    }


def scan_to_json(scan: BoxScan) -> dict:
    return {
        "lattice": lattice_ref(scan.lattice),
        "bound": scan.bound,
        "norm": scan.norm,
        "count": len(scan.vectors),
        "vectors": [list(v.coords) for v in scan.vectors],
    }


def suite_to_json(result: SuiteResult) -> dict:
    return {
        "suite": result.suite,
        "status": result.status,
        "counterexample": result.counterexample,
        "stats": result.stats,
    }

