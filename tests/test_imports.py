import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import tokenize
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


def test_every_private_definition_is_read_in_the_package():
    # A private helper or class whose last caller in the package goes (folded
    # into another, say) goes with it: one kept for the tests alone fails
    # here.  A definition counts as read when the package loads its name,
    # reads it as an attribute or imports it; the tests do not count.
    defined, read = set(), set()
    for path in sorted((SRC / "altproj").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert sorted(name for name in defined if name.split(".")[1] not in read) == []


def sites(match, modules=None):
    """``module.function`` of every AST node for which ``match`` holds, named
    by the innermost def around it (the module alone at module level), in
    the package modules whose stems ``modules`` lists (all when None)."""
    found = set()

    def visit(node, site):
        if match(node):
            found.add(site)
        for child in ast.iter_child_nodes(node):
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{site.split('.')[0]}.{child.name}" if inner else site)

    for path in sorted((SRC / "altproj").glob("*.py")):
        if modules is None or path.stem in modules:
            visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def call_sites(name):
    """``module.function`` of every call of ``name`` in the package."""
    return sites(
        lambda node: isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


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


def reads_feas_tol(node):
    """Whether ``node`` reads or imports the name ``_FEAS_TOL``."""
    if isinstance(node, ast.Name):
        return node.id == "_FEAS_TOL" and isinstance(node.ctx, ast.Load)
    return isinstance(node, ast.alias) and node.name == "_FEAS_TOL"


def compares_an_offset(node):
    """Whether ``node`` is a comparison that reads an offset ``.M``, ``.b``,
    ``._offset`` or ``._offsets``: a half-space's or a polyhedron's
    membership or activity test."""
    return isinstance(node, ast.Compare) and any(
        isinstance(part, ast.Attribute) and part.attr in ("M", "b", "_offset", "_offsets")
        for operand in (node.left, *node.comparators)
        for part in ast.walk(operand)
    )


def test_each_membership_feasibility_and_cycle_rule_has_one_site():
    # The feasibility tolerance is read through linalg._feas_tol only; the
    # membership and activity tests of the half-space and the polyhedron
    # are made by sets._active only, and the engine makes none of its own;
    # a cycle is decided by engine._decide, with no second decision
    # function, and the helpers that once repeated these rules are gone.
    assert sites(reads_feas_tol) == {"linalg._feas_tol"}
    assert sites(compares_an_offset, ("sets", "engine")) == {"sets._active"}
    removed = ("_certified", "_tight_rows", "_b_normals")
    assert not sites(lambda node: isinstance(node, ast.FunctionDef) and node.name in removed)


def test_one_membership_rule_at_every_point_scale():
    # The rounding allowance _feas_tol is the package's one rounding rule:
    # the projection and the polar solve read it for their own output, the
    # face events for a stretch's end, and membership by sets._active and
    # the planar screen that mirrors it.  No second membership tolerance is
    # left: the common pair is tested by the one rule, and lp makes no
    # feasibility test of its own, so it reads no polyhedron's unit rows or
    # offsets (its strict-bound test reads the half-space's form).
    assert call_sites("_feas_tol") == {
        "sets._active",
        "engine._screened_generators",
        "engine._face_jump",
        "qp._project_from",
        "linalg._nnls",
    }
    names = ("id", "attr", "name")  # of a Name, an Attribute and an import
    assert not sites(lambda node: "_COMMON_POINT_TOL" in (getattr(node, n, None) for n in names))
    assert not sites(lambda node: isinstance(node, ast.Attribute) and node.attr in ("_units", "_offsets"), ("lp",))


def reads_written_rows(node):
    """Whether ``node`` reads an attribute ``.A`` or ``.b`` of anything but
    ``self``: a polyhedron's rows or offsets as written.  (``self.b`` is a
    closed-form stretch's B-point.)"""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("A", "b")
        and isinstance(node.ctx, ast.Load)
        and getattr(node.value, "id", None) != "self"
    )


ROW_FORM = ("_norms", "_units", "_offsets")
HALF_SPACE_FORM = ("_unit", "_offset", "_scale")


def sets_the_normal_form(node, names):
    """Whether ``node`` sets one of the attributes ``names`` of a normal form
    by ``object.__setattr__``."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "__setattr__"
        and any(isinstance(arg, ast.Constant) and arg.value in names for arg in node.args)
    )


def normal_form_setters(names):
    """``module.Class.method`` of every method that sets one of ``names``."""
    forms = set()
    for path in sorted((SRC / "altproj").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(cls, ast.ClassDef):
                forms |= {
                    f"{path.stem}.{cls.name}.{func.name}"
                    for func in cls.body
                    if isinstance(func, ast.FunctionDef)
                    for node in ast.walk(func)
                    if sets_the_normal_form(node, names)
                }
    return forms


def test_every_kernel_reads_the_unit_rows():
    # Polyhedron.__post_init__ forms the rows' normal form once; the
    # projection, the walk, the active-set kernel, the cycle decision, the
    # LP's feasibility check and alpha read it, never the rows as written.
    # The one reader of the row norms is qp._written, which turns the unit
    # rows' multipliers into the written rows' for the public projections.
    assert normal_form_setters(ROW_FORM) == {"sets.Polyhedron.__post_init__"}
    assert sites(lambda node: sets_the_normal_form(node, ROW_FORM)) == {"sets.__post_init__"}
    assert sites(reads_written_rows, ("qp", "linalg", "engine", "lp", "certify")) == set()
    assert sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "_norms") == {"qp._written"}
    sample = ast.parse("p.A\np.b\nself.b\np._units\nface.A_W\np.A = 1")
    assert [reads_written_rows(s.value if isinstance(s, ast.Expr) else s.targets[0]) for s in sample.body] == [
        True, True, False, False, False, False
    ]


def reads_c_or_m(node):
    """Whether ``node`` reads an attribute ``.c`` or ``.M``: a half-space's
    normal or offset as written."""
    return isinstance(node, ast.Attribute) and node.attr in ("c", "M") and isinstance(node.ctx, ast.Load)


def test_every_kernel_reads_the_unit_normal():
    # HalfSpace.__post_init__ forms the half-space's normal form once, the
    # unit normal and the offset over the norm, and keeps no <c, c>.  The
    # engine's projections, screen, cycle decision and closed-form cycles
    # read that form only, never c or M as written.
    # The scale of the rounding allowance, ``_scale``, is part of both
    # forms: the polyhedron sets its own for its rows.
    assert normal_form_setters(HALF_SPACE_FORM[:2]) == {"sets.HalfSpace.__post_init__"}
    assert normal_form_setters(("_scale",)) == {"sets.HalfSpace.__post_init__", "sets.Polyhedron.__post_init__"}
    assert sites(lambda node: sets_the_normal_form(node, HALF_SPACE_FORM)) == {"sets.__post_init__"}
    assert not sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "_cc")
    assert sites(reads_c_or_m, ("engine",)) == set()


def opens_for_writing(node):
    """Whether ``node`` opens a file for writing: any ``os.open``, a
    ``write_text`` or ``write_bytes``, or an ``open`` whose mode holds ``w``,
    ``a`` or ``x`` or is not a constant."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os" and func.attr == "open":
        return True
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # The mode is the second argument of the builtin, the first of a method
    # such as ``Path.open``; with none given it is "r".
    first = 1 if isinstance(func, ast.Name) else 0
    modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[first : first + 1]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(flag in mode.value for flag in "wax")


def test_files_are_written_at_one_site():
    # Every output goes through cli._write_output, which writes over an
    # existing file's bytes and cuts it to length; a second writer would
    # bring back the truncation to zero, or miss the cut.
    assert sites(opens_for_writing) == {"cli._write_output"}
    sample = ast.parse(
        "open(p)\nopen(p, 'r')\nopen(p, 'a')\nopen(p, mode)\nPath(p).open('x')\nos.open(p, 0)\n"
        "p.write_text(s)\nopen(p, mode='rb')"
    )
    assert [opens_for_writing(s.value) for s in sample.body] == [
        False, False, True, True, True, True, True, False
    ]


def test_the_face_read_of_b_residual_has_one_site():
    # A cycle decision and a certificate both take B's residual from
    # engine._residual_b, the one rule "face factor first, else the cone
    # solve"; nothing else reads the factor's residual.
    assert call_sites("_face_residual") == {"engine._residual_b"}
    assert call_sites("_residual_b") == {"engine._decide", "engine._certificate"}


def test_a_face_is_built_only_where_a_kernel_ends():
    # The projection and the walk each return the face they end on, and
    # nothing else builds one: the shifted solve certifies on the face the
    # walk returned.  The steps start from a face in one place.
    assert call_sites("_face_of") == {"qp._project_from", "qp._walk_from"}
    assert call_sites("_continued") == {"qp._project_from", "qp._walk_from"}


KEPT_RECORDS = ("_vertices", "_cones", "_walk")


def sets_record(node, name):
    """Whether ``node`` is ``object.__setattr__(..., name, ...)``."""
    return (
        calls_attr(node, "object", "__setattr__")
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == name
    )


def test_each_kept_polyhedron_record_has_one_writer():
    # A polyhedron's kept vertex list, cone table and walk are each written
    # by the one module that makes them, so each has one construction path.
    writers = {
        name: {site.split(".")[0] for site in sites(lambda node: sets_record(node, name))}
        for name in KEPT_RECORDS
    }
    assert writers == {"_vertices": {"vertices"}, "_cones": {"certify"}, "_walk": {"qp"}}
    sample = ast.parse('object.__setattr__(p, "_walk", w)\nobject.__setattr__(p, name, w)\nsetattr(p, "_walk", w)')
    assert [sets_record(s.value, "_walk") for s in sample.body] == [True, False, False]


def calls_attr(node, owner, attr):
    """Whether ``node`` calls ``owner.attr``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and getattr(node.func.value, "id", None) == owner
    )


def test_the_float_kernels_keep_their_bits_on_every_python():
    # linalg sums floats by explicit loops from 0.0 in index order: the
    # builtin sum of floats is compensated from Python 3.12 on, so it would
    # give other bits there than on 3.11.  The face jump's row event takes
    # np.log1p of its ratios; math.log1p gives other bits on some floats.
    assert not sites(lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum", ("linalg",))
    assert sites(lambda node: calls_attr(node, "np", "log1p")) == {"engine._face_jump"}


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
    "error",
    [
        "StartNotInA",
        "NotPolyhedralPair",
        "alpha must lie in (0, 1)",
        "sets have dimensions",
        "must be finite and nonnegative",
    ],
)
def test_each_entry_rule_raises_at_one_site(error):
    # The start rule is sets._check_start, the pair rule
    # certify._check_pair, the alpha range certify._check_alpha, the rule
    # that the two sets share a dimension sets._check_dims and the
    # tolerance rule linalg._check_tol, which reads cert_tol and the tol of
    # sets; every entry point calls them, none repeats them.  The last three
    # raise ValueError and DimensionMismatch, which other rules raise too,
    # so they are found by their message text.
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


def documentation(path):
    """``(line, text)`` of every docstring of ``path`` and of every block of
    consecutive comment lines, the lines of a block joined by spaces."""
    tree = ast.parse(path.read_text(), str(path))
    found = [
        (node.body[0].lineno, ast.get_docstring(node, clean=False))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False)
    ]
    blocks = []  # (first line, last line, text)
    with path.open() as f:
        for token in tokenize.generate_tokens(f.readline):
            if token.type != tokenize.COMMENT:
                continue
            line, text = token.start[0], token.string.lstrip("#")
            if blocks and blocks[-1][1] == line - 1:
                blocks[-1] = (blocks[-1][0], line, blocks[-1][2] + " " + text)
            else:
                blocks.append((line, line, text))
    return found + [(first, text) for first, _, text in blocks]


BACKTICKED = re.compile(r"``([A-Za-z_][\w.]*)``")
ROLE = re.compile(r":(?:func|class):`([^`]+)`")


def cited_names(text):
    """Every private name in double backticks and every ``:func:`` or
    ``:class:`` target in ``text``."""
    private = [
        name
        for name in BACKTICKED.findall(text)
        if any(part.startswith("_") and not part.endswith("__") for part in name.split("."))
    ]
    # ``:func:`title <target>``` cites its target; ``~`` only shortens it.
    targets = [role.split("<")[-1].rstrip(">").strip().lstrip("~") for role in ROLE.findall(text)]
    return private + targets


def defined_names():
    """Every name the package binds: defs, classes, arguments, assignment
    targets (attributes included) and imports."""
    names = set()
    for path in sorted((SRC / "altproj").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add((node.asname or node.name).split(".")[0])
    return names


def test_documentation_names_only_what_the_package_defines():
    # A docstring or comment that cites a helper by name goes stale when the
    # helper is folded away.  A dotted name that starts with a package
    # module must be an attribute of that module; a module path alone, a
    # standard-library or NumPy name passes; every other part must be a
    # name the package binds.
    modules = {path.stem for path in (SRC / "altproj").glob("*.py")}
    defined = defined_names()
    stale = []
    for path in sorted((SRC / "altproj").glob("*.py")):
        for line, text in documentation(path):
            for name in cited_names(text):
                parts = name.removeprefix("altproj.").split(".")
                if parts[0] in modules:
                    module = importlib.import_module(f"altproj.{parts[0]}")
                    ok = len(parts) == 1 or (hasattr(module, parts[1]) and set(parts[2:]) <= defined)
                elif parts[0] in sys.stdlib_module_names or parts[0] in ("np", "numpy"):
                    ok = True
                else:
                    ok = set(parts) <= defined
                if not ok:
                    stale.append(f"{path.name}:{line} {name}")
    assert not stale, stale
