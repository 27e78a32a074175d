"""Every public entry point rejects a vector of the wrong length.

Each call below gets a plane problem (the lower half-plane, the shifted
abs-value polyhedron and the abs-value epigraph, all in dimension 2) and one
vector of length 1 or 3 in the place of a point, shift, direction, start,
objective, right-hand side or generator.  The length is checked by
``as_point(x, dim)`` and must end in ``DimensionMismatch``, not in a NumPy
error or a silently broadcast answer.
"""

import json
from functools import partial

import numpy as np
import pytest

from altproj import (
    DimensionMismatch,
    EpigraphSet,
    HalfSpace,
    LPProblem,
    Polyhedron,
    Ray,
    alpha_polyhedron_halfspace,
    bound_report,
    check_certificate,
    contains,
    distance_to_finite_cone,
    distance_to_ray,
    one_step_shift,
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
from altproj.cli import EXIT_USAGE, main
from altproj.instances import absval_epigraph, absval_polyhedron, lower_halfplane
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
    "bound_report-pair": lambda v: bound_report(POLY, HalfSpace(v, 0.0), A_POINT),
    "vertex_oracle": lambda v: vertex_oracle(POLY, v),
    "LPProblem": lambda v: LPProblem(v, POLY, -10.0),
    "Polyhedron-b": lambda v: Polyhedron(POLY.A, v),
    "EpigraphSet": lambda v: EpigraphSet("abs", v),
    "distance_to_ray": lambda v: distance_to_ray(v, Ray([1.0, 0.0])),
    "distance_to_finite_cone-generator": lambda v: distance_to_finite_cone([1.0, 0.0], [[0.0, 1.0], v]),
    "distance_to_finite_cone-zero-generator": lambda v: distance_to_finite_cone([1.0, 0.0], [0.0 * v]),
}


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_wrong_length_raises_dimension_mismatch(call, length):
    with pytest.raises(DimensionMismatch):
        call(np.arange(1.0, length + 1.0))


@pytest.mark.parametrize("a", [[-1.0], [0.0]])
def test_certificate_rejects_sets_of_different_dimensions(a):
    # A 1-D half-space and a 2-D polyhedron: each point fits its own set, so
    # only the check on the pair stops a broadcast or a bare matmul error.
    with pytest.raises(DimensionMismatch):
        check_certificate(HalfSpace([1.0], 0.0), POLY, a, B_POINT)


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
