"""Repository-wide checks: invariants raise instead of asserting, no memo
outlives a run, every public function has a user, BGG output depends on no seed, engine calls take the model
handle alone, the environment is read only at the CLI boundary, packed
slots are written in one place, and the example scripts run."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_in_src():
    """python -O strips assert, and an AssertionError reads as a bug in the
    program, so every invariant check in the package must raise
    CertificationError instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "parahoric").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def _is_functools_cache(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr in ("lru_cache", "cache")
                and isinstance(node.value, ast.Name) and node.value.id == "functools")
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name in ("lru_cache", "cache") for alias in node.names)
    return False


def test_no_module_level_memo_in_src():
    """A functools.lru_cache or functools.cache memo lives as long as the
    process, so it grows across every request one interpreter serves.
    Caches that belong to one run (MomentCache, ClassicalSpace._moments)
    are the intended design."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "parahoric").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _is_functools_cache(node)
    ]
    assert found == []


def test_no_randomness_in_induction():
    """BGG output must not depend on a seed or on a permutation sum: the Levi
    modules are built by lowering operators, and nothing in induction.py
    may import random or use itertools.permutations."""
    tree = ast.parse((ROOT / "src" / "parahoric" / "induction.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            names.add(node.module)
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names & {"random", "permutations"} == set()


def test_no_unused_import_in_src():
    """Every top-level import of a package module is read somewhere in it;
    __init__.py re-exports and __future__ imports are exempt."""
    found = []
    for path in sorted((ROOT / "src" / "parahoric").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                          for alias in node.names
                          if (alias.asname or alias.name).split(".")[0] not in used]
    assert found == []


def test_no_unreferenced_private_function_in_src():
    """Every private (_name) top-level function, and every private method of
    a top-level class, is referenced in its own module, so a helper does not
    outlive its last caller."""
    found = []
    for path in sorted((ROOT / "src" / "parahoric").glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        found += [f"{path.name}:{node.lineno} {node.name}" for node in defs
                  if node.name.startswith("_") and not node.name.endswith("__")
                  and node.name not in used]
    assert found == []


def test_no_unreferenced_public_function_in_src():
    """Every public top-level function, and every public method of a
    top-level class, in the package is referenced by name somewhere in src,
    tests, scripts or perfbench, so no entry point outlives its last user."""
    used = set()
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
    found = []
    for path in sorted((ROOT / "src" / "parahoric").glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        found += [f"{path.name}:{node.lineno} {node.name}" for node in defs
                  if not node.name.startswith("_") and node.name not in used]
    assert found == []


def test_engine_calls_take_the_model_handle():
    """A MomentCache fixes its model's context and modulus, so no function
    or method in ocsymbols.py takes a cache together with a ctx or mod."""
    tree = ast.parse((ROOT / "src" / "parahoric" / "ocsymbols.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "cache" in names and names & {"ctx", "mod"}:
                found.append(f"{node.lineno} {node.name}")
    assert found == []


def _scoped_nodes(tree: ast.AST):
    """(name of the innermost enclosing function, or "", node) for every node."""
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def test_environment_is_read_at_the_cli_boundary():
    """Only cli.py calls default_precision, and only padics.default_precision
    reads the environment, so no library routine depends on
    PARAHORIC_PRECISION."""
    callers, readers = set(), set()
    for path in sorted((ROOT / "src" / "parahoric").glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "default_precision":
                    callers.add(path.name)
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                readers.add(f"{path.stem}.{scope}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                readers.add(f"{path.stem}: from os import")
    assert callers == {"cli.py"}
    assert readers == {"padics.default_precision"}


def test_slot_bytes_only_in_the_slot_layout():
    """Packed slots are read and written in one place: outside linalg.Slots
    and linalg.slot_reducer, nothing in the package calls to_bytes or
    from_bytes, so the slot code cannot fork again."""
    found = []
    for path in sorted((ROOT / "src" / "parahoric").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "")
            if path.name == "linalg.py" and owner in ("Slots", "slot_reducer"):
                continue
            found += [f"{path.name}:{node.lineno} {owner}" for node in ast.walk(top)
                      if isinstance(node, ast.Attribute)
                      and node.attr in ("to_bytes", "from_bytes")]
    assert found == []


def test_traced_entry_points_stay_bound():
    """Every entry point the benchmark tracer wraps (perfbench/tracer.py
    STAGES) is defined, apart from the few already absent, so a change that
    drops a traced layer cannot leave a stage of the benchmark silently
    empty. The tracer module is loaded by path and never installed."""
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = set()
    for entries in tracer.STAGES.values():
        for module_name, attr in entries:
            owner_name, _, name = attr.rpartition(".")
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            if owner is None or name not in vars(owner):
                unresolved.add(f"{module_name}:{attr}")
    assert unresolved <= {
        "parahoric.distributions:moment_matrix",
        "parahoric.ocsymbols:build_family_tables",
        "parahoric.ocsymbols:family_model_matrix",
    }


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
