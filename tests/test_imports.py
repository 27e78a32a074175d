import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_import_inside_a_function():
    # Deferred imports hide import cycles; a module-level TYPE_CHECKING
    # block is fine.
    found = []
    for path in sorted((SRC / "altproj").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found, found


# Bindings kept unused on purpose: benchmarks/tracer.py resolves these
# three module attributes by name.
UNUSED_ON_PURPOSE = {"qp.nnls", "lp.feasible_vertices", "lp.vertex_oracle"}


def module_level_imports(tree):
    """Names bound by the imports outside any def or class."""
    found, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            found += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [a.asname or a.name for a in node.names]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending += [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]
    return found


def test_every_module_level_import_is_used():
    # An import left behind when its last caller goes (a helper folded into
    # another, say) fails here.  A name counts as used when the module reads
    # it or lists it in __all__.
    unused = set()
    for path in sorted((SRC / "altproj").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        unused |= {f"{path.stem}.{name}" for name in module_level_imports(tree) if name not in used}
    assert unused == UNUSED_ON_PURPOSE


def call_sites(name):
    """``module.function`` of every call of ``name`` in the package, named
    by the innermost def around it (the module alone at module level)."""
    sites = set()

    def visit(node, site):
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            sites.add(site)
        for child in ast.iter_child_nodes(node):
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{site.split('.')[0]}.{child.name}" if inner else site)

    for path in sorted((SRC / "altproj").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return sites


def test_the_brute_force_gives_no_answer():
    # The walk is the package's one LP optimum.  Outside ``vertices``, the
    # brute force itself, the vertex oracle only draws the pools' M in
    # ``instances`` (pool data), and the vertex list only gives alpha its
    # cone family.
    outside = {
        name: {site for site in call_sites(name) if not site.startswith("vertices.")}
        for name in ("vertex_oracle", "feasible_vertices")
    }
    assert outside == {
        "vertex_oracle": {"instances.random_lp_instance"},
        "feasible_vertices": {"certify.alpha_polyhedron_halfspace"},
    }


def builds_error(node, rule):
    """Whether ``node`` calls the error type ``rule`` or passes a message
    that contains the text ``rule``."""
    if not isinstance(node, ast.Call):
        return False
    if getattr(node.func, "id", None) == rule:
        return True
    return any(
        isinstance(part, ast.Constant) and isinstance(part.value, str) and rule in part.value
        for arg in node.args
        for part in ast.walk(arg)
    )


@pytest.mark.parametrize(
    "error", ["StartNotInA", "NotPolyhedralPair", "alpha must lie in (0, 1)", "sets have dimensions"]
)
def test_each_entry_rule_raises_at_one_site(error):
    # The start rule is sets._check_start, the pair rule
    # certify._check_pair, the alpha range certify._check_alpha and the
    # rule that the two sets share a dimension engine._check_dims; every
    # entry point calls them, none repeats them.  The last two raise
    # ValueError and DimensionMismatch, which other rules raise too, so they
    # are found by their message text.
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "altproj").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if builds_error(node, error)
    ]
    assert len(sites) == 1, sites


def package_modules_imported(path):
    """The package modules that ``path`` imports from, by their stems."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_lp_imports_no_certify():
    # The shifted solve walks to the optimum and takes no constants, so the
    # LP layer sits below certify in the import graph.
    assert package_modules_imported(SRC / "altproj" / "lp.py") == {
        "engine",
        "errors",
        "linalg",
        "qp",
        "sets",
        "vertices",
    }


@pytest.mark.parametrize("module", ["altproj.certify", "altproj.lp", "altproj.vertices"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_targets_resolve():
    # The traced benchmark run wraps each target by its home module and
    # attribute; a target that no longer resolves breaks that run.
    tracer_path = SRC.parent / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{home}.{attr}"
        for _, home, attr, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(home), attr, None))
    ]
    assert not missing, missing


def test_public_names_resolve_once():
    # A name left in __all__ after its definition is deleted fails here,
    # not at a user's ``from altproj import *``.
    altproj = importlib.import_module("altproj")
    missing = [name for name in altproj.__all__ if not hasattr(altproj, name)]
    assert not missing, missing
    assert len(set(altproj.__all__)) == len(altproj.__all__)
