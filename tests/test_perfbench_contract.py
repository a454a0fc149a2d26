"""The library names the benchmark in perfbench/ traces or calls.

perfbench/tracing.py wraps its spans by (module, attribute), and
perfbench/workloads.py calls the library through module attributes. Neither
runs in these tests, so a renamed or deleted name would only show when the
benchmark runs; these tests read both files and check every such name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_names_a_library_attribute():
    spans = _load("tracing").SPANS
    assert "dilatation.half_target" in spans and "lattices.base_plus_i11" in spans
    missing = [name for name, (module, attr) in spans.items() if not hasattr(module, attr)]
    assert missing == []


def test_every_library_attribute_the_workloads_use_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "lattice_orbits":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(f"lattice_orbits.{alias.name}")
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert ("orbits", "is_even_type") in used and ("dilatation", "half_norm") in used
    missing = sorted(f"{module}.{attr}" for module, attr in used if not hasattr(modules[module], attr))
    assert missing == []
