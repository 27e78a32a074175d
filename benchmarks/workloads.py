"""The four benchmark workloads: input pools, the timed operation, the check.

Each workload builds a fixed pool of cases from a pool seed, runs one public
call of the package per case, and checks the answer against an answer known
before the call (the vertex oracle, the instance's own distance, the KKT
conditions of the projection, or the committed table of planar runs).

A check returns ``(ok, signature)``.  ``ok`` is false for a wrong answer; the
signature holds the values that must not change when the same case runs
under the tracer (objectives, stop reasons, step counts, sweep counts).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from altproj import certify, cli, instances, lp, qp
from altproj.sets import set_to_json

HERE = Path(__file__).resolve().parent
PLANAR_TABLE = HERE / "planar_table.json"

LP_POOL = 300
CONSTANTS_POOL = 200
FAR_POLYHEDRA = 256
FAR_RADII = (1e1, 1e2)
PLANAR_KS = (0.0, 0.5, 1.0, 2.0)
PLANAR_X0 = (1.0, 3.0, 10.0, 100.0)

# Tolerances: the LP tests' oracle agreement and the KKT bounds of
# tests/test_qp.py::test_kkt_certificate_random.
OBJECTIVE_TOL = 1e-5
STATIONARITY_TOL = 1e-6
DUAL_TOL = 1e-10
VIOLATION_TOL = 1e-8
COMPLEMENTARITY_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], list]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple]


# -- lp_direct -------------------------------------------------------------


def build_lp_direct(pool_seed: int, _work: Path) -> list:
    rng = np.random.default_rng(pool_seed)
    return [instances.random_lp_instance(rng)[:2] for _ in range(LP_POOL)]


def op_lp_direct(case):
    problem, _ = case
    return lp.solve_lp(problem, strategy="direct")


def check_lp_direct(case, outcome) -> tuple:
    _, optimum = case
    ok = abs(outcome.objective - optimum) <= OBJECTIVE_TOL
    trace = outcome.trace
    return ok, (outcome.objective, outcome.steps, trace.stop_reason.value, len(trace.gaps))


# -- constants -------------------------------------------------------------


def build_constants(pool_seed: int, _work: Path) -> list:
    rng = np.random.default_rng(pool_seed)
    cases = []
    for _ in range(CONSTANTS_POOL):
        inst = instances.random_pair_instance(rng)
        optimum, _ = lp.vertex_oracle(inst.poly, inst.halfspace.c)
        cases.append((inst, optimum))
    return cases


def op_constants(case):
    inst, _ = case
    hs, poly = inst.halfspace, inst.poly
    report = certify.bound_report(poly, hs, inst.x0)
    outcome = lp.solve_lp(lp.LPProblem(hs.c, poly, hs.M), x0=inst.x0, strategy="shifted")
    return report, outcome


def check_constants(case, result) -> tuple:
    inst, optimum = case
    report, outcome = result
    ok = (
        math.isclose(report.d_AB, inst.d_ab, rel_tol=1e-12, abs_tol=1e-12)
        and 0.0 < report.alpha <= 0.5
        and abs(outcome.objective - optimum) <= OBJECTIVE_TOL
    )
    return ok, (report.alpha, report.d_AB, report.N, outcome.objective)


# -- far_projection --------------------------------------------------------


def build_far_projection(pool_seed: int, _work: Path) -> list:
    """Random bounded polyhedra, each probed at every radius of FAR_RADII.

    Radii of 1e3 and beyond are left out for run length only: single points
    there took 30 s (1e3) and 220 s (1e4, 60,063 sweeps).
    """
    rng = np.random.default_rng(pool_seed)
    cases = []
    for _ in range(FAR_POLYHEDRA):
        n = int(rng.integers(2, 5))
        poly, interior = instances.random_bounded_polyhedron(
            rng, n, int(rng.integers(0, 13 - 2 * n))
        )
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        cases.extend((poly, interior + r * u) for r in FAR_RADII)
    return cases


def op_far_projection(case):
    poly, x = case
    return qp.project_polyhedron(poly, x)


def check_far_projection(case, res) -> tuple:
    poly, x = case
    slack = poly.A @ res.point - poly.b
    ok = (
        float(np.linalg.norm(x - res.point - poly.A.T @ res.dual)) <= STATIONARITY_TOL
        and float(res.dual.min(initial=0.0)) >= -DUAL_TOL
        and float(np.max(slack, initial=0.0)) <= VIOLATION_TOL
        and float(np.max(np.abs(res.dual * slack), initial=0.0)) <= COMPLEMENTARITY_TOL
    )
    return ok, (tuple(res.point.tolist()), res.iterations)


# -- planar_run ------------------------------------------------------------


def planar_fixtures():
    """``(stem, spec)`` for the 32 half-plane / epigraph experiments."""
    setA = set_to_json(instances.lower_halfplane())
    for kind, make in (("abs", instances.absval_epigraph), ("square", instances.parabola_epigraph)):
        for k in PLANAR_KS:
            for x in PLANAR_X0:
                spec = {"setA": setA, "setB": set_to_json(make(k)), "x0": [x, 0.0]}
                yield f"{kind}_k{k:g}_x{x:g}", spec


def write_planar_specs(work: Path) -> list:
    """Write the fixture spec files; ``[(spec_path, out_dir)]``."""
    spec_dir = work / "specs"
    out_dir = work / "out"
    spec_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = []
    for stem, spec in planar_fixtures():
        path = spec_dir / f"{stem}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        specs.append((path, out_dir))
    return specs


def build_planar_run(_pool_seed: int, work: Path) -> list:
    """A case is ``(spec_path, out_dir, expected_row)``; the fixtures take no seed."""
    table = json.loads(PLANAR_TABLE.read_text(encoding="utf-8"))
    return [(path, out_dir, table[path.stem]) for path, out_dir in write_planar_specs(work)]


def op_planar_run(case):
    spec, out_dir, _ = case
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", str(spec), "--out", str(out_dir)])


def planar_row(spec: Path, out_dir: Path, code: int) -> dict:
    """The table row a finished ``altproj run`` produced."""
    report_path = out_dir / f"{spec.stem}_report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return {
        "exit": code,
        "stop_reason": report["stop_reason"],
        "steps_to_converge": report["steps_to_converge"],
    }


def planar_table(work: Path) -> dict:
    """Run every planar fixture once; the rows that planar_table.json commits."""
    rows = {}
    for path, out_dir in write_planar_specs(work):
        rows[path.stem] = planar_row(path, out_dir, op_planar_run((path, out_dir, None)))
    return rows


def check_planar_run(case, code) -> tuple:
    spec, out_dir, expected = case
    row = planar_row(spec, out_dir, code)
    return row == expected, tuple(row.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lp_direct", build_lp_direct, op_lp_direct, check_lp_direct),
        Workload("constants", build_constants, op_constants, check_constants),
        Workload("far_projection", build_far_projection, op_far_projection, check_far_projection),
        Workload("planar_run", build_planar_run, op_planar_run, check_planar_run),
    )
}
