"""src/ holds only what a caller reaches.

Two rules over the package source, read with the stdlib ast module:

- each public top-level name of a module in src/lattice_orbits/ is
  referenced somewhere in src/, used on a lattice_orbits module by a
  perfbench/*.py file, named in backticks in README.md, or is the
  [project.scripts] entry;
- each name a module in src/ imports from the package is used in that module.

A helper that only tests call belongs in tests/support.py. Two more rules
keep a decision in its one home: a norm <x, x> goes through
lattices.quadratic, never inner(l, x, x), and the try-resolve-compare of the
built-in test lives only in lattices.is_builtin. A last rule keeps the CLI's
import cheap: on its import path @dataclass decorates only the classes whose
dataclass API tests pin.
"""

import ast
import re
from pathlib import Path

from support import CLI_IMPORTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "lattice_orbits"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: _parse(path) for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _package_imports(tree: ast.Module):
    """(bound name, package module, attribute) per name imported from the package.

    `from .m import a as b` gives (b, m, a); `from . import m as b` and
    `from lattice_orbits import m as b` give (b, m, None).
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module == PACKAGE:
            module = None
        elif node.level == 0 and node.module and node.module.startswith(PACKAGE + "."):
            module = node.module[len(PACKAGE) + 1:]
        else:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name
            yield (bound, alias.name, None) if module is None else (bound, module, alias.name)


def _loaded_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _references(tree: ast.Module, here: str | None) -> set[tuple[str, str]]:
    """(package module, name) pairs a file uses.

    A name imported from a module, an attribute of an imported module
    (`lattices.resolve`), a (module, "name") pair as perfbench's tracer lists
    its spans, and, inside the package module `here`, every name it loads.
    """
    modules = {}
    refs = set()
    for bound, module, attr in _package_imports(tree):
        if attr is None:
            modules[bound] = module
        else:
            refs.add((module, attr))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            owner, attr = node.elts
            if (isinstance(owner, ast.Name) and owner.id in modules
                    and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                refs.add((modules[owner.id], attr.value))
    if here is not None:
        refs |= {(here, name) for name in _loaded_names(tree)}
    return refs


def _readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return {word for span in re.findall(r"`([^`\n]+)`", text) for word in re.findall(r"[A-Za-z_]\w*", span)}


def _script_entries() -> set[tuple[str, str]]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    return set(re.findall(rf'=\s*"{PACKAGE}\.(\w+):(\w+)"', section))


def test_every_public_name_in_src_has_a_caller():
    trees = _package_trees()
    reached = set().union(*(_references(tree, module) for module, tree in trees.items()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reached |= _references(_parse(path), None)
    reached |= _script_entries()
    readme = _readme_names()
    unreached = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _public_definitions(tree)
        if (module, name) not in reached and name not in readme
    ]
    assert unreached == [], (
        f"no caller in src/, perfbench or README reaches {unreached}: "
        "move a test-only helper to tests/support.py, delete dead code, or document a public API in README.md"
    )


def test_every_package_import_in_src_is_used():
    unused = []
    for module, tree in _package_trees().items():
        loaded = _loaded_names(tree)
        unused += [f"{module}: {bound}" for bound, _, _ in _package_imports(tree) if bound not in loaded]
    assert unused == []


def test_the_surface_rules_see_what_they_claim():
    # each kind of reference the first rule accepts is actually found
    trees = _package_trees()
    assert ("lattices", "resolve") in _references(trees["cli"], "cli")  # an imported name
    assert ("matrix", "ldl") in _references(trees["lattices"], "lattices")  # a module attribute
    assert ("lattices", "MAX_I_RANK") in _references(trees["lattices"], "lattices")  # a load in its own module
    assert ("lattices", "signature") in _references(_parse(ROOT / "perfbench" / "tracing.py"), None)  # a span pair
    assert ("dilatation", "half_norm") in _references(_parse(ROOT / "perfbench" / "workloads.py"), None)
    assert _script_entries() == {("cli", "main")}
    assert {"pair", "block_swap", "transvection"} <= _readme_names()
    assert set(_public_definitions(ast.parse("A = 1\n_b = 2\ndef f(): pass\nclass C: x = 3\n"))) == {"A", "f", "C"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _self_inner_calls(tree: ast.Module) -> list[int]:
    """Lines of inner(l, x, x) calls: the same expression as both vectors."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "inner" and len(node.args) == 3
        and ast.dump(node.args[1]) == ast.dump(node.args[2])
    ]


def test_every_norm_in_src_goes_through_quadratic():
    found = [f"{module}:{line}" for module, tree in _package_trees().items() for line in _self_inner_calls(tree)]
    assert found == [], f"norms through inner(l, x, x) at {found}: call lattices.quadratic"


def _builtin_tests(tree: ast.Module) -> list[str]:
    """Functions holding a try that calls resolve and catches LatticeError."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Try)
                    and any(isinstance(call, ast.Call) and _called_name(call) == "resolve"
                            for stmt in node.body for call in ast.walk(stmt))
                    and any(handler.type is not None and "LatticeError" in ast.dump(handler.type)
                            for handler in node.handlers)):
                found.append(func.name)
    return found


def test_the_built_in_test_lives_only_in_is_builtin():
    found = [f"{module}.{name}" for module, tree in _package_trees().items() for name in _builtin_tests(tree)]
    assert found == ["lattices.is_builtin"]


def test_the_one_home_rules_see_what_they_claim():
    assert _self_inner_calls(ast.parse("inner(l, h.c, h.c)\nlattices.inner(l, x, x)\ninner(l, x, y)\n")) == [1, 2]
    planted = "def f(name, l):\n    try:\n        return resolve(name) == l\n    except LatticeError:\n        return False\n"
    assert _builtin_tests(ast.parse(planted)) == ["f"]
    assert _builtin_tests(ast.parse(planted.replace("LatticeError", "KeyError"))) == []


def _dataclasses(tree: ast.Module) -> list[str]:
    """Classes decorated with @dataclass or @dataclasses.dataclass, called or bare."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name == "dataclass":
                    found.append(node.name)
    return found


# the classes whose dataclass API tests pin: dataclasses.fields and replace
# on Lattice and LatticeVector, replace on ClassificationReport
PINNED_DATACLASSES = {"lattices.Lattice", "vectors.LatticeVector", "orbits.ClassificationReport"}


def test_the_cli_import_path_decorates_only_the_pinned_dataclasses():
    # each @dataclass costs the import of every command a generated __init__,
    # __eq__, __repr__ and more; the other value classes derive from
    # lattices.FrozenValue
    trees = _package_trees()
    found = {f"{module}.{name}" for module in CLI_IMPORTS for name in _dataclasses(trees[module])}
    assert found == PINNED_DATACLASSES
    planted = "@dataclass\nclass A: pass\n@dataclasses.dataclass(frozen=True)\nclass B: pass\n@other\nclass C: pass\n"
    assert _dataclasses(ast.parse(planted)) == ["A", "B"]
