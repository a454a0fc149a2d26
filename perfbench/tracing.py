"""In-memory span recorder hooked onto lattice_orbits from the outside.

Each traced function is replaced, in every lattice_orbits module that holds
it, by a wrapper that records one span: name, start, end, parent span and op
id. A function imported by name (``from .lattices import base_plus_i11``)
lives on in the importing module too, so the wrapper is installed wherever
the original object is found. Spans are kept in flat arrays and written out
once, when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import lattice_orbits
from lattice_orbits import dilatation, enumeration, isometries, jsonio, lattices
from lattice_orbits import matrix, oracle, orbits, vectors

# span name -> (module that defines it, attribute)
SPANS = {
    "matrix.mat_mul": (matrix, "mat_mul"),
    "matrix.det": (matrix, "det"),
    "lattices.signature": (lattices, "signature"),
    "lattices.base_plus_i11": (lattices, "base_plus_i11"),
    "vectors.norm": (vectors, "norm"),
    "vectors.vector_type": (vectors, "vector_type"),
    "vectors.is_primitive": (vectors, "is_primitive"),
    "dilatation.half_target": (dilatation, "half_target"),
    "dilatation.dilate": (dilatation, "dilate"),
    "orbits.classify": (orbits, "classify"),
    "orbits.even_witness": (orbits, "even_witness"),
    "isometries.sample_word": (isometries, "sample_word"),
    "isometries.apply": (isometries, "apply"),
    "enumeration.short_vectors_definite": (enumeration, "short_vectors_definite"),
    "oracle.enumerate_primitive": (oracle, "enumerate_primitive"),
    "oracle.random_primitive": (oracle, "random_primitive"),
    "jsonio.classification_to_json": (jsonio, "classification_to_json"),
}

OP = "op"
SETUP_OP = -1


def _package_modules():
    prefix = lattice_orbits.__name__ + "."
    return [m for name, m in sys.modules.items() if name == lattice_orbits.__name__ or name.startswith(prefix)]


class Recorder:
    """Spans in parallel arrays; span i has parent ``parents[i]`` (-1 for a root)."""

    def __init__(self):
        self.names = [OP, *SPANS]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.op_id = SETUP_OP
        self.active = True  # wrappers record only while set; checks run with it cleared
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.reset_counters()

    def reset_counters(self):
        self.certifications = 0
        self.witness_found = 0
        self.enum_hits = 0
        self.enum_box = 0

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._name_id[name])
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _count_witness(self, args, kwargs, result):
        self.witness_found += result.witness is not None

    def _count_box(self, args, kwargs, result):
        lattice, bound = args[:2]
        self.enum_hits += len(result.vectors)
        self.enum_box += (2 * bound + 1) ** lattice.rank

    def install(self):
        """Replace every traced function wherever a lattice_orbits module holds it."""
        hooks = {"orbits.even_witness": self._count_witness, "oracle.enumerate_primitive": self._count_box}
        modules = _package_modules()
        for name, (module, attr) in SPANS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = isometries.Isometry
        post_init = cls.__post_init__

        def counted(inst):
            self.certifications += self.active
            post_init(inst)

        self._patched.append((cls, "__post_init__", post_init))
        cls.__post_init__ = counted

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def totals(self, setup: bool = False):
        """Per span name: (calls, self seconds), over the spans of ops or of set-up."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            if (self.ops[i] == SETUP_OP) != setup:
                continue
            k = self.name_ids[i]
            calls[k] += 1
            self_s[k] += self.ends[i] - self.starts[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write(self, path):
        """One line per span: id, parent, op, name, start, end (seconds)."""
        with open(path, "w", encoding="ascii") as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{i}\t{self.parents[i]}\t{self.ops[i]}\t{self.names[self.name_ids[i]]}"
                    f"\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )
