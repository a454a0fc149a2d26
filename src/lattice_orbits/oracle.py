"""Brute-force verification harnesses.

Nothing here trusts the fast paths: enumeration walks coordinate boxes,
invariance applies freshly sampled isometry words, connectivity grows a
union-find forest from random walk edges, and the Wall scan rechecks the mod-8
congruence vector by vector. Suites return pass/fail values with
counterexamples instead of raising, so a violation is data, not a crash.

Enumeration runs single-threaded through the one box walker in enumeration.py,
which solves the last coordinate when a norm is given; every hit is still
checked for primitivity and norm here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .enumeration import box_range, box_vectors, box_walk, check_counts, short_vectors_definite
from .errors import (
    LabelParityMismatch,
    LatticeShapeMismatch,
    NotUnimodular,
    OddNormInEvenLattice,
    ZeroVector,
)
from .isometries import Isometry, apply, certify, sample_word
from .lattices import Lattice, inner, is_unimodular, resolve, signature
from .orbits import OrbitLabel, classify, representative
from .vectors import LatticeVector, VectorType, norm, vector_type


@dataclass(frozen=True)
class BoxScan:
    lattice: Lattice
    bound: int
    norm: int | None
    vectors: tuple[LatticeVector, ...]


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    status: str  # "pass" | "fail"
    counterexample: dict | None
    stats: dict


@dataclass(frozen=True)
class ComponentSummary:
    size: int
    labels_present: tuple[str, ...]
    contains_representative: bool


@dataclass(frozen=True)
class ConnectivityReport:
    lattice: Lattice
    norm: int
    bound: int
    components: tuple[ComponentSummary, ...]
    mixed_label_components: int
    edges_applied: int
    edges_kept: int


def enumerate_primitive(lattice: Lattice, bound: int, norm: int | None = None) -> BoxScan:
    """Primitive vectors in the coordinate box, optionally filtered by norm.

    Output order is lexicographic over the box and therefore deterministic.
    """
    axes = [box_range(bound)] * lattice.rank
    form = None if norm is None else (lattice.gram, norm)
    hits = tuple(
        LatticeVector(lattice, coords)
        for coords in box_walk(axes, form)
        if any(coords)
        and math.gcd(*coords) == 1
        and (norm is None or inner(lattice, coords, coords) == norm)
    )
    return BoxScan(lattice, bound, norm, hits)


def random_primitive(lattice: Lattice, rng: random.Random, bound: int) -> LatticeVector:
    """Random primitive vector with coordinates in [-bound, bound]."""
    check_counts(bound=bound)
    if bound == 0:
        raise ZeroVector("the box of bound 0 holds only the zero vector")
    while True:
        coords = tuple(rng.randint(-bound, bound) for _ in range(lattice.rank))
        if not any(coords):
            continue
        g = math.gcd(*coords)
        return LatticeVector(lattice, tuple(c // g for c in coords))


def invariance_suite(
    lattice: Lattice,
    samples: int,
    seed: int,
    bound: int = 3,
    word_length: int = 8,
    isometries=None,
) -> SuiteResult:
    """Orbit labels must survive random certified isometries.

    Each round draws a random primitive vector and a fresh word; optional
    explicit matrices go through certification first, so a corrupted one is
    refused before anything runs.
    """
    check_counts(samples=samples, bound=bound, word_length=word_length)
    extra = tuple(certify(lattice, m) for m in isometries or ())
    rng = random.Random(seed)
    stats = {
        "lattice": lattice.name,
        "samples": samples,
        "seed": seed,
        "bound": bound,
        "word_length": word_length,
        "extra_isometries": len(extra),
        "checked": 0,
    }
    for _ in range(samples):
        v = random_primitive(lattice, rng, bound)
        word = sample_word(lattice, rng.randrange(2**32), word_length)
        before = classify(v).label
        for iso in (word, *extra):
            after = classify(apply(iso, v)).label
            if after is not before:
                return SuiteResult(
                    "invariance",
                    "fail",
                    {
                        "coords": list(v.coords),
                        "label_before": before.value,
                        "label_after": after.value,
                    },
                    stats,
                )
        stats["checked"] += 1
    return SuiteResult("invariance", "pass", None, stats)


class _UnionFind:
    def __init__(self):
        self.parent = {}
        self.rank = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x
            self.rank[x] = 0

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1

    def groups(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def connectivity_experiment(
    lattice: Lattice,
    norm: int,
    bound: int,
    seed: int,
    walks: int,
    word_length: int = 4,
) -> ConnectivityReport:
    """Union-find over walk edges; counts components that mix orbit labels.

    An edge joins v to g(v) when the image stays inside the box. Components
    are reported with their label sets; any component holding two labels is a
    counterexample to invariance, so mixed_label_components must be 0.
    Connectivity itself is only suggestive: more walks can still merge
    components.
    """
    check_counts(bound=bound, walks=walks, word_length=word_length)
    scan = enumerate_primitive(lattice, bound, norm)
    uf = _UnionFind()
    labels = {}
    for v in scan.vectors:
        uf.add(v.coords)
        labels[v.coords] = classify(v).label
    edges_applied = edges_kept = 0
    rng = random.Random(seed)
    pool = list(scan.vectors)
    if pool:
        for _ in range(walks):
            v = rng.choice(pool)
            word = sample_word(lattice, rng.randrange(2**32), word_length)
            w = apply(word, v)
            edges_applied += 1
            if w.coords in labels:
                uf.union(v.coords, w.coords)
                edges_kept += 1
    reps = {}
    for label in OrbitLabel:
        try:
            cand = representative(norm, label, lattice)
        except (LabelParityMismatch, LatticeShapeMismatch, OddNormInEvenLattice):
            continue  # no representative means the label cannot occur at this norm
        reps[label] = cand.coords
    components = []
    for members in sorted(uf.groups().values(), key=min):
        present = tuple(sorted({labels[m].value for m in members}))
        has_rep = any(coords in set(members) for coords in reps.values())
        components.append(ComponentSummary(len(members), present, has_rep))
    mixed = sum(1 for c in components if len(c.labels_present) > 1)
    return ConnectivityReport(
        lattice, norm, bound, tuple(components), mixed, edges_applied, edges_kept
    )


def wall_scan(s: int, t: int, bound: int) -> SuiteResult:
    """Every characteristic vector in the box of I_s_t must have norm = s - t mod 8."""
    lattice = resolve(f"I_{s}_{t}")
    # wall_congruence_holds per vector, with its lattice checks done once
    if not is_unimodular(lattice):
        raise NotUnimodular(f"{lattice.name} has |det| != 1")
    sig = signature(lattice)
    checked = 0
    for coords in box_vectors(lattice.rank, bound):
        v = LatticeVector(lattice, coords)
        if vector_type(v) is not VectorType.CHARACTERISTIC:
            continue
        checked += 1
        if (norm(v) - (sig.positive - sig.negative)) % 8 != 0:
            return SuiteResult(
                "wall-congruence",
                "fail",
                {"coords": list(coords)},
                {"s": s, "t": t, "bound": bound, "characteristic_vectors": checked},
            )
    return SuiteResult(
        "wall-congruence",
        "pass",
        None,
        {"s": s, "t": t, "bound": bound, "characteristic_vectors": checked},
    )


# classical anchors for the definite enumerator
EXPECTED_E8_COUNTS = {-2: 240, -4: 2160}


def e8_vector_count(norm: int = -2) -> int:
    """Number of vectors of the given norm in the definite E8 lattice."""
    return len(short_vectors_definite(resolve("E8"), norm))


def e8_root_count() -> int:
    return e8_vector_count(-2)
