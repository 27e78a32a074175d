"""Every public entry point rejects a vector of the wrong length.

Each call below gets a plane problem (the lower half-plane, the shifted
abs-value polyhedron and the abs-value epigraph, all in dimension 2) and one
vector of length 1 or 3 in the place of a point, shift, direction, start,
objective, right-hand side or generator.  The length is checked by
``as_point(x, dim)``, or for a half-space against a polyhedron by the
pair's dimension check, and must end in ``DimensionMismatch``, not in a
NumPy error or a silently broadcast answer.
"""

import json
import math
import warnings
from functools import partial

import numpy as np
import pytest

from altproj import (
    DegenerateRow,
    DimensionMismatch,
    EpigraphSet,
    HalfSpace,
    InvalidDistance,
    LPProblem,
    Polyhedron,
    ZeroVector,
    alpha_polyhedron_halfspace,
    bound_report,
    check_certificate,
    contains,
    distance_to_finite_cone,
    iteration_bound,
    nnls,
    one_step_shift,
    polyhedron_halfspace_distance,
    project,
    project_epigraph,
    project_halfspace,
    project_polyhedron,
    proximal_normal_generators,
    run,
    solve_lp,
    translate,
    vertex_oracle,
)
from altproj.cli import EXIT_ERROR, EXIT_USAGE, main
from altproj.instances import absval_epigraph, absval_polyhedron, lower_halfplane
from altproj.linalg import as_point
from altproj.lp import problem_from_json
from altproj.qp import project_along_ray

HS = lower_halfplane()
POLY = absval_polyhedron(1.0)
EPI = absval_epigraph()
SETS = {"halfspace": HS, "polyhedron": POLY, "epigraph": EPI}
A_POINT = np.array([0.0, 0.0])
B_POINT = np.array([0.0, 1.0])

CALLS = {
    **{f"{f.__name__}-{k}": partial(f, s) for f in (contains, project, translate) for k, s in SETS.items()},
    "project_halfspace": lambda v: project_halfspace(HS, v),
    "project_epigraph": lambda v: project_epigraph(EPI, v),
    "project_polyhedron": lambda v: project_polyhedron(POLY, v),
    "project_along_ray-base": lambda v: project_along_ray(POLY, v, B_POINT, 1.0),
    "project_along_ray-direction": lambda v: project_along_ray(POLY, A_POINT, v, 1.0),
    "proximal_normal_generators": lambda v: proximal_normal_generators(POLY, v),
    "check_certificate-a": lambda v: check_certificate(HS, POLY, v, B_POINT),
    "check_certificate-b": lambda v: check_certificate(HS, POLY, A_POINT, v),
    "run": lambda v: run(HS, POLY, v),
    "solve_lp-x0": lambda v: solve_lp(LPProblem(HS.c, POLY, HS.M), x0=v),
    "one_step_shift": lambda v: one_step_shift(HS, POLY, v, 0.25, 0.0),
    "bound_report-x0": lambda v: bound_report(POLY, HS, v),
    "alpha_polyhedron_halfspace-pair": lambda v: alpha_polyhedron_halfspace(POLY, HalfSpace(v, 0.0)),
    "bound_report-pair": lambda v: bound_report(POLY, HalfSpace(v, 0.0), -v),
    "polyhedron_halfspace_distance-pair": lambda v: polyhedron_halfspace_distance(POLY, HalfSpace(v, 0.0)),
    "vertex_oracle": lambda v: vertex_oracle(POLY, v),
    "LPProblem": lambda v: LPProblem(v, POLY, -10.0),
    "Polyhedron-b": lambda v: Polyhedron(POLY.A, v),
    "EpigraphSet": lambda v: EpigraphSet("abs", v),
    "distance_to_ray": lambda v: distance_to_finite_cone(v, [[1.0, 0.0]]),
    "distance_to_finite_cone-generator": lambda v: distance_to_finite_cone([1.0, 0.0], [[0.0, 1.0], v]),
    "distance_to_finite_cone-zero-generator": lambda v: distance_to_finite_cone([1.0, 0.0], [0.0 * v]),
}


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_wrong_length_raises_dimension_mismatch(call, length):
    with pytest.raises(DimensionMismatch):
        call(np.arange(1.0, length + 1.0))


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("name", [name for name in CALLS if name.endswith("-pair")])
def test_a_pair_of_two_dimensions_raises_at_the_pair_check(name, length):
    # Each ``*-pair`` row hands over a half-space whose own vectors, the
    # start of ``bound_report`` included, fit its dimension, so only the
    # check on the pair can raise.
    with pytest.raises(DimensionMismatch, match="sets have dimensions"):
        CALLS[name](np.arange(1.0, length + 1.0))


# Other bad inputs, each with the typed error and message of its one raise
# site: a zero vector, a matrix of the wrong shape, a bad entry or row, an
# unknown name, a constant out of range and a CLI value that is no number.
REJECTED = {
    "HalfSpace-zero-normal": (ZeroVector, "normal must be nonzero", lambda: HalfSpace([0.0, 0.0], 0.0)),
    "LPProblem-zero-objective": (ZeroVector, "normal must be nonzero", lambda: LPProblem([0.0, 0.0], POLY, -10.0)),
    "HalfSpace-long-normal": (DegenerateRow, "normal is too long", lambda: HalfSpace([1e200, 0.0], -2e200)),
    "LPProblem-long-objective": (DegenerateRow, "normal is too long", lambda: LPProblem([1e200, 0.0], POLY, -2e200)),
    "vertex_oracle-zero-c": (ZeroVector, "zero vector", lambda: vertex_oracle(POLY, [0.0, 0.0])),
    "Polyhedron-3d-matrix": (DimensionMismatch, "matrix has shape", lambda: Polyhedron([[[1.0, 0.0]]], [1.0])),
    "Polyhedron-infinite-entry": (ValueError, "matrix entries must be finite", lambda: Polyhedron([[math.inf, 0.0]], [1.0])),
    "Polyhedron-zero-row": (DegenerateRow, "row must be nonzero", lambda: Polyhedron([[0.0, 0.0]], [1.0])),
    "HalfSpace-offset-over-norm": (DegenerateRow, "offset over the normal's norm", lambda: HalfSpace([1e-11, 0.0], 1e300)),
    "Polyhedron-offset-over-norm": (DegenerateRow, "finite offset over it", lambda: Polyhedron([[1e-11, 0.0]], [1e300])),
    "Polyhedron-norm-overflows": (DegenerateRow, "must have a finite norm", lambda: Polyhedron([[1.5e308] * 4], [1.0])),
    "as_point-matrix": (DimensionMismatch, "expected a 1-D vector", lambda: as_point([[1.0, 2.0]])),
    "EpigraphSet-kind": (ValueError, "unknown epigraph kind", lambda: EpigraphSet("cube", [0.0, 0.0])),
    "problem_from_json-list": (ValueError, "must be an object", lambda: problem_from_json([1.0])),
    "one_step_shift-alpha": (ValueError, "alpha must lie in", lambda: one_step_shift(HS, POLY, A_POINT, 1.0, 1.0)),
    "one_step_shift-d_AB": (InvalidDistance, "d_AB must be nonnegative", lambda: one_step_shift(HS, POLY, A_POINT, 0.25, -1.0)),
    "one_step_shift-nan-d_AB": (InvalidDistance, "d_AB must be finite", lambda: one_step_shift(HS, POLY, A_POINT, 0.3, math.nan)),
    "one_step_shift-inf-d_AB": (InvalidDistance, "d_AB must be finite", lambda: one_step_shift(HS, POLY, A_POINT, 0.3, math.inf)),
    "iteration_bound-nan-d_AB": (InvalidDistance, "d_AB must be finite", lambda: iteration_bound(0.3, math.nan, 1.0)),
    "iteration_bound-nan-d_x0_B": (InvalidDistance, "d_x0_B must be finite", lambda: iteration_bound(0.3, 1.0, math.nan)),
    "iteration_bound-inf-both": (InvalidDistance, "d_AB must be finite", lambda: iteration_bound(0.3, math.inf, math.inf)),
    "iteration_bound-inf-d_x0_B": (InvalidDistance, "d_x0_B must be finite", lambda: iteration_bound(0.3, 1.0, math.inf)),
    "nnls-nan-target": (ValueError, "entries must be finite", lambda: nnls(np.eye(2), [math.nan, 1.0])),
    "nnls-inf-target": (ValueError, "entries must be finite", lambda: nnls(np.eye(2), [math.inf, 1.0])),
    "nnls-nan-generator": (ValueError, "matrix entries must be finite", lambda: nnls([[math.nan, 0.0], [0.0, 1.0]], [1.0, 1.0])),
    "nnls-1d-generators": (DimensionMismatch, "generator matrix has shape", lambda: nnls([1.0, 0.0], [1.0, 1.0])),
    "nnls-target-length": (DimensionMismatch, "expected 3 rows", lambda: nnls(np.eye(2), [1.0, 1.0, 1.0])),
    "nnls-bool-generators": (ValueError, "must be ints or floats", lambda: nnls(np.eye(2, dtype=bool), [1.0, 1.0])),
    "verify-alpha-scale": (SystemExit, f"^{EXIT_USAGE}$", lambda: main(["verify", "--alpha-scale", "abc"])),
    "iteration_bound-string-alpha": (ValueError, "alpha must be a number", lambda: iteration_bound("0.5", 1.0, 2.0)),
    "iteration_bound-bool-d_AB": (ValueError, "d_AB must be a number", lambda: iteration_bound(0.5, True, 2.0)),
    "one_step_shift-string-alpha": (ValueError, "alpha must be a number", lambda: one_step_shift(HS, POLY, A_POINT, "0.3", 1.0)),
    "project_along_ray-string-t": (ValueError, "t_target must be a number", lambda: project_along_ray(POLY, A_POINT, B_POINT, "2.5")),
    "project_along_ray-bool-t": (ValueError, "t_target must be a number", lambda: project_along_ray(POLY, A_POINT, B_POINT, True)),
    "contains-string-tol": (ValueError, "tol must be a number", lambda: contains(POLY, A_POINT, "1e-3")),
    "contains-nan-tol": (ValueError, "tol must be finite and nonnegative", lambda: contains(POLY, A_POINT, math.nan)),
    "contains-negative-tol": (ValueError, "tol must be finite and nonnegative", lambda: contains(POLY, A_POINT, -1e-3)),
    "proximal_normal_generators-string-tol": (ValueError, "tol must be a number", lambda: proximal_normal_generators(POLY, B_POINT, "x")),
}


@pytest.mark.parametrize("error, match, call", REJECTED.values(), ids=REJECTED)
def test_a_bad_input_raises_its_typed_error(error, match, call):
    with pytest.raises(error, match=match):
        call()


def test_a_half_space_normal_too_long_to_square_is_refused_without_a_warning():
    # A normal whose square overflows kept <c, c> = inf, so the projection
    # returned (5, 0) unchanged though <c, x> = 5e200 > M, and the LP
    # solves on the box [-1, 1]^2 raised PointNotInSet.  The kernels now
    # read the unit normal, but the walk along -c and the default start
    # still square c.  The limit is 2**510, on the norm, so entries below
    # it can still make a normal too long.
    box = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    limit = 2.0**510
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in ([1e200, 0.0], [limit, 0.0], [0.0, -limit], [3e153, 3e153]):
            with pytest.raises(DegenerateRow, match="normal is too long"):
                HalfSpace(c, -2e200)
            with pytest.raises(DegenerateRow, match="normal is too long"):
                LPProblem(c, box, -2e200)
        below = math.nextafter(limit, 0.0)
        hs = HalfSpace([below, 0.0], -below)
        assert hs._unit.tolist() == [1.0, 0.0] and hs._offset == -1.0
        assert project_halfspace(hs, [5.0, 3.0]).tolist() == [-1.0, 3.0]
        assert solve_lp(LPProblem([below, 0.0], box, -2.0 * below), strategy="shifted").solution.tolist() == [-1.0, 0.0]


@pytest.mark.parametrize("a", [[-1.0], [0.0]])
def test_certificate_rejects_sets_of_different_dimensions(a):
    # A 1-D half-space and a 2-D polyhedron: each point fits its own set, so
    # only the check on the pair stops a broadcast or a bare matmul error.
    with pytest.raises(DimensionMismatch):
        check_certificate(HalfSpace([1.0], 0.0), POLY, a, B_POINT)


@pytest.mark.parametrize("set_b", [EPI, HS, POLY], ids=["epigraph", "halfspace", "polyhedron"])
def test_run_rejects_sets_of_different_dimensions(set_b):
    # The start fits the 1-D set A, so only the check on the pair stops it
    # from being broadcast against the 2-D set B.
    with pytest.raises(DimensionMismatch):
        run(HalfSpace([1.0], 0.0), set_b, [-1.0])


def test_cli_run_rejects_sets_of_different_dimensions(tmp_path, capsys):
    path = tmp_path / "spec.json"
    spec = {"setA": {"halfspace": {"c": [1.0], "M": 0.0}}, "setB": {"epigraph": {"kind": "abs", "shift": [0.0, 0.0]}}, "x0": [-1.0]}
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dimension" in err


NON_FINITE = [float("inf"), float("-inf"), float("nan")]


@pytest.mark.parametrize("M", NON_FINITE)
def test_non_finite_offset_raises_value_error(M):
    with pytest.raises(ValueError, match="finite"):
        HalfSpace(HS.c, M)
    with pytest.raises(ValueError, match="finite"):
        LPProblem(HS.c, POLY, M)


def _spec_with_infinite_offset(command):
    halfspace = {"halfspace": {"c": [0.0, 1.0], "M": float("inf")}}
    if command == "lp":
        return {"c": [0.0, 1.0], "A": POLY.A.tolist(), "b": POLY.b.tolist(), "M": float("inf")}
    return {"setA": halfspace, "setB": {"polyhedron": {"A": POLY.A.tolist(), "b": POLY.b.tolist()}}, "x0": [0.0, 0.0]}


@pytest.mark.parametrize("command", ["run", "bound", "lp"])
def test_cli_rejects_an_infinite_offset(tmp_path, capsys, command):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_with_infinite_offset(command)))  # writes "Infinity"
    assert "Infinity" in path.read_text()
    args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
    assert main(args) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err


NOT_NUMBERS = {
    "object": {},
    "huge-int": [10**400],
    "huge-int-mixed": [1.5, 10**400],
    "strings": ["1", "2"],
    "bools": [True, False],
    "bool-among-floats": [True, 2.5],
    "bool-array": np.array([True, False]),
    "complex": [1.0, 2j],
    "complex-array": np.array([1.0, 2.0], dtype=complex),
    "string-array": np.array(["1", "2"]),
    "none": [None, 1.0],
    "nested-object": [[1.0], {}],
}


@pytest.mark.parametrize("values", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
def test_as_point_raises_value_error_for_an_entry_that_is_not_a_number(values):
    # Before, {} raised a bare TypeError, 10**400 an OverflowError, and
    # strings and bools were read as floats.
    with pytest.raises(ValueError):
        as_point(values)
    with pytest.raises(ValueError):
        Polyhedron([values, values], [1.0, 1.0])


NUMBERS = {
    "floats": ([1.5, -2.0], [1.5, -2.0]),
    "ints": ([1, -2], [1.0, -2.0]),
    "int-beyond-int64": ([10**20, 3], [1e20, 3.0]),
    "numpy-scalars": ([np.int64(4), np.float32(0.5)], [4.0, 0.5]),
    "int-array": (np.array([3, 4]), [3.0, 4.0]),
    "float32-array": (np.array([0.25, 8.0], dtype=np.float32), [0.25, 8.0]),
    "scalar": (7, [7.0]),
}


@pytest.mark.parametrize("values, expected", list(NUMBERS.values()), ids=list(NUMBERS))
def test_as_point_reads_ints_and_floats_as_float64(values, expected):
    p = as_point(values)
    assert p.dtype == np.float64
    assert p.tolist() == expected
    if np.ndim(values) == 1:
        poly = Polyhedron([values, values], [1.0, 1.0])
        assert poly.A.dtype == np.float64
        assert poly.A.tolist() == [expected, expected]


def test_as_point_returns_a_float64_array_as_it_is():
    x = np.array([1.0, 2.0])
    assert as_point(x, 2) is x


# One scalar rule, linalg._real_scalar, for a half-space's and an LP's
# offset M and for the certificate tolerance: an int or a float (NumPy's
# too), not a bool, a string or None, and an int within the float range.
# Before, "3" and True were read as 3.0 and 1.0, and None raised a bare
# TypeError.
NOT_SCALARS = {
    "string": "3",
    "negative-string": "-5",
    "bool": True,
    "none": None,
    "numpy-bool": np.bool_(False),
    "huge-int": 10**400,
    "list": [3.0],
}


@pytest.mark.parametrize("M", list(NOT_SCALARS.values()), ids=list(NOT_SCALARS))
def test_an_offset_that_is_not_a_number_raises_value_error(M):
    with pytest.raises(ValueError, match="^M (must be a number|is too large)"):
        HalfSpace(HS.c, M)
    with pytest.raises(ValueError, match="^M (must be a number|is too large)"):
        LPProblem(HS.c, POLY, M)


CERT_TOL_NOT_SCALARS = {"string": "1e-8", "none": None, "bool": True, "numpy-bool": np.bool_(True)}


@pytest.mark.parametrize("tol", list(CERT_TOL_NOT_SCALARS.values()), ids=list(CERT_TOL_NOT_SCALARS))
def test_a_tolerance_that_is_not_a_number_raises_value_error(tol):
    plane, vee = lower_halfplane(), absval_epigraph(1.0)
    with pytest.raises(ValueError, match="^cert_tol must be a number"):
        run(plane, vee, [1.0, 0.0], cert_tol=tol)
    with pytest.raises(ValueError, match="^cert_tol must be a number"):
        check_certificate(plane, vee, [0.0, 0.0], [0.0, 1.0], tol)
    with pytest.raises(ValueError, match="^cert_tol must be a number"):
        solve_lp(LPProblem(HS.c, POLY, -10.0), strategy="shifted", cert_tol=tol)


@pytest.mark.parametrize("value", [3, -5.0, np.int64(3), np.float32(0.5), 10**20])
def test_offsets_and_tolerances_read_ints_and_floats(value):
    assert HalfSpace(HS.c, value).M == float(value)
    assert type(HalfSpace(HS.c, value).M) is float
    assert LPProblem(HS.c, POLY, value).M == float(value)
    trace = run(lower_halfplane(), absval_epigraph(1.0), [0.0, 0.0], cert_tol=abs(value))
    assert trace.stop_reason.value == "Certified"
