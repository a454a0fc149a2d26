"""Brute-force verification harnesses.

Nothing here trusts the fast paths: enumeration walks coordinate boxes,
invariance applies freshly sampled isometry words, connectivity grows a
union-find forest from random walk edges, and the Wall scan rechecks the mod-8
congruence vector by vector. Suites return pass/fail values with
counterexamples instead of raising, so a violation is data, not a crash;
every SuiteResult is built here, and a suite passes when it has no counterexample.

Enumeration runs single-threaded through the one box walker in enumeration.py,
which solves the last coordinate when a norm is given; every hit is still
checked here for primitivity (gcd 1, which also rules out the zero vector) and
for its norm, recomputed from the Gram matrix by lattices.quadratic rather than
taken from the walker's solved-coordinate arithmetic. The unfiltered scan walks
only the heads (every coordinate but the last two) and extends each with the
(y, x) tails coprime to the head's gcd, found once per distinct gcd. A scan
collects its hit coordinates first and builds their vectors in one
vectors.vectors_of call; it keeps at most MAX_SCAN_HITS of them, and each
memo holds no tail it does not also yield, so its memory is bounded as its
walk is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product

from .enumeration import box_range, box_walk, check_budget, check_counts, definite_vectors
from .errors import LatticeShapeMismatch, LimitExceeded, NotUnimodular, ZeroVector
from .isometries import apply, certify, check_word_budget, sample_word
from .lattices import TWISTED_PLUS_U, Lattice, quadratic, resolve, signature_and_determinant, split_base
from .orbits import classify, norm_labels, representative
from .vectors import LatticeVector, VectorType, norm, vector_type, vectors_of

# hits kept per box scan, about 24 MB of vectors on U2U: an unfiltered U2U scan
# fits up to bound 10 (a box of 194,481 tuples, 176,896 hits), while bound 15
# (855,936 hits) used to peak at 213 MB to print a 15 MB document
MAX_SCAN_HITS = 2 * 10**5


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


def _verdict(suite: str, counterexample: dict | None, stats: dict) -> SuiteResult:
    """A suite passes exactly when it found no counterexample."""
    return SuiteResult(suite, "pass" if counterexample is None else "fail", counterexample, stats)


def enumerate_primitive(lattice: Lattice, bound: int, norm: int | None = None) -> BoxScan:
    """Primitive vectors in the coordinate box, optionally filtered by norm.

    Output order is lexicographic over the box and therefore deterministic.
    A hit has gcd 1, which the zero vector (gcd 0) never has. With a norm,
    each hit's c^T G c is recomputed by lattices.quadratic, the formula
    vectors.norm uses, so a walker that yielded a wrong tuple is caught here.
    The unfiltered scan filters on gcd alone: c is primitive exactly when
    gcd(gcd(head), y, x) == 1, so it walks the heads and reuses the coprime
    tails of each distinct head gcd, at a cost of heads + distinct gcds *
    |tails| + hits instead of one gcd per tuple of the box.

    The hit coordinates are collected first and their vectors built in bulk
    by vectors_of. At most MAX_SCAN_HITS hits are kept, or LimitExceeded is
    raised: an unfiltered scan is refused before its walk when the box holds
    more tuples than that, and a norm-filtered scan once its hits are
    collected, before any vector is built.
    """
    axes = [box_range(bound)] * lattice.rank
    gcd = math.gcd
    if norm is None:
        size = check_budget(axes)
        if size > MAX_SCAN_HITS:
            raise LimitExceeded(
                f"box scans keep at most {MAX_SCAN_HITS} hits, and the box holds {size} tuples"
            )
        coprime = {}  # the tails coprime to each distinct gcd of a head
        hits = []
        for head in box_walk(axes[:-2]):
            h = gcd(*head)
            tails = coprime.get(h)
            if tails is None:
                tails = coprime[h] = [t for t in product(*axes[-2:]) if gcd(h, *t) == 1]
            hits += map(head.__add__, tails)
    else:
        hits = [
            c
            for c in box_walk(axes, (lattice.gram, norm))
            if gcd(*c) == 1 and quadratic(lattice, c) == norm
        ]
        if len(hits) > MAX_SCAN_HITS:
            raise LimitExceeded(
                f"box scans keep at most {MAX_SCAN_HITS} hits, and the scan found {len(hits)}"
            )
    return BoxScan(lattice, bound, norm, vectors_of(lattice, hits))


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
    refused before anything runs, and so are a lattice that is not a tagged
    base(2) + U lattice and a run past isometries.SUITE_WORD_BUDGET.
    """
    check_counts(samples=samples, bound=bound, word_length=word_length)
    check_word_budget(samples, word_length)
    split_base(lattice, TWISTED_PLUS_U)
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
                counterexample = {"coords": list(v.coords), "label_before": before.value,
                                  "label_after": after.value}
                return _verdict("invariance", counterexample, stats)
        stats["checked"] += 1
    return _verdict("invariance", None, stats)


def connectivity_experiment(
    lattice: Lattice,
    norm: int,
    bound: int,
    seed: int,
    walks: int,
    word_length: int = 4,
) -> SuiteResult:
    """Union-find over walk edges; counts components that mix orbit labels.

    An edge joins v to g(v) when the image stays inside the box. Components
    are reported in the stats with their label sets; any component holding
    two labels is a counterexample to invariance, so mixed_label_components
    must be 0. Connectivity itself is only suggestive: more walks can still
    merge components. A lattice that is not a tagged base(2) + U lattice, and
    a run past isometries.SUITE_WORD_BUDGET, are refused before the box is
    scanned.
    """
    check_counts(bound=bound, walks=walks, word_length=word_length)
    check_word_budget(walks, word_length)
    split_base(lattice, TWISTED_PLUS_U)
    scan = enumerate_primitive(lattice, bound, norm)
    labels = {v.coords: classify(v).label for v in scan.vectors}
    parent = {coords: coords for coords in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    edges_applied = edges_kept = 0
    rng = random.Random(seed)
    if scan.vectors:
        for _ in range(walks):
            v = rng.choice(scan.vectors)
            word = sample_word(lattice, rng.randrange(2**32), word_length)
            w = apply(word, v)
            edges_applied += 1
            if w.coords in labels:
                parent[find(v.coords)] = find(w.coords)
                edges_kept += 1
    reps = set()
    for label in norm_labels(norm):
        try:
            reps.add(representative(norm, label, lattice).coords)
        except LatticeShapeMismatch:
            continue  # a base that does not end in a hyperbolic block has no characteristic one
    groups = {}
    for coords in labels:
        groups.setdefault(find(coords), set()).add(coords)
    components = [
        {
            "size": len(members),
            "labels_present": sorted({labels[m].value for m in members}),
            "contains_representative": not reps.isdisjoint(members),
        }
        for members in sorted(groups.values(), key=min)  # by smallest member, whichever root won
    ]
    mixed = sum(1 for c in components if len(c["labels_present"]) > 1)
    stats = {
        "lattice": lattice.name,
        "norm": norm,
        "n": norm // 2,
        "bound": bound,
        "seed": seed,
        "walks": walks,
        "word_length": word_length,
        "vectors": len(labels),
        "component_count": len(components),
        "mixed_label_components": mixed,
        "edges_applied": edges_applied,
        "edges_kept": edges_kept,
        "components": components,
    }
    return _verdict("connectivity", {"mixed_label_components": mixed} if mixed else None, stats)


def wall_scan(s: int, t: int, bound: int) -> SuiteResult:
    """Every characteristic vector in the box of I_s_t must have norm = s - t mod 8."""
    lattice = resolve(f"I_{s}_{t}")
    # Wall's congruence per vector, with its lattice checks done once
    sig, det = signature_and_determinant(lattice)
    if abs(det) != 1:
        raise NotUnimodular(f"{lattice.name} has |det| != 1")
    checked = 0
    counterexample = None
    for coords in box_walk([box_range(bound)] * lattice.rank):
        v = LatticeVector(lattice, coords)
        if vector_type(v) is not VectorType.CHARACTERISTIC:
            continue
        checked += 1
        if (norm(v) - (sig.positive - sig.negative)) % 8 != 0:
            counterexample = {"coords": list(coords)}
            break
    stats = {"s": s, "t": t, "bound": bound, "characteristic_vectors": checked}
    return _verdict("wall-congruence", counterexample, stats)


# classical anchors for the definite enumerator
EXPECTED_E8_COUNTS = {-2: 240, -4: 2160}
# the lowest norm e8_vector_count enumerates: the shell of norm -2k holds
# 240*sigma_3(k) vectors, at most 82,560 for k <= 7 and over 10^5 for k >= 8
# (sigma_3(k) >= k^3), counted as they are found, so the cap bounds time;
# an odd norm counts 0 at once, since every E8 norm is even
E8_MIN_NORM = -14


def e8_vector_count(norm: int = -2) -> int:
    """Number of vectors of the given norm in the definite E8 lattice.

    A norm below E8_MIN_NORM is refused with LimitExceeded before anything
    is enumerated; positive norms count 0 at once.
    """
    if norm < E8_MIN_NORM:
        raise LimitExceeded(f"E8 vector counts need norm >= {E8_MIN_NORM}, got {norm}")
    return sum(1 for _ in definite_vectors(resolve("E8"), norm))


def e8_suite(norm: int = -2) -> SuiteResult:
    """The E8 count at a norm, checked against the classical anchor when there is one."""
    count = e8_vector_count(norm)
    expected = EXPECTED_E8_COUNTS.get(norm)
    counterexample = None if expected in (None, count) else {"count": count, "expected": expected}
    return _verdict("e8-count", counterexample, {"norm": norm, "count": count, "expected": expected})
