"""Cycles generated on one face match the cycles they stand for.

On a half-space/polyhedron pair ``engine.run`` generates the cycles a run
spends on one face of the polyhedron in closed form.  ``plain_run`` below is
the loop without that step: a real projection for every iterate, the
certificate after every cycle and the ``GAP_STALL_TOL`` rule.  Each case runs
both and requires the same stop reason, step count, cycle count and number
of iterates, and iterates and gaps within 1e-12 of the largest iterate of
the run (a point or gap near zero carries the rounding of the points around
it, so a per-entry relative bound would measure only that rounding).
"""

import json

import numpy as np
import pytest

from altproj import (
    HalfSpace,
    LowerBoundNotStrict,
    LPProblem,
    Polyhedron,
    StopReason,
    Trace,
    check_certificate,
    project,
    run,
    solve_lp,
    translate,
)
from altproj.cli import main
from altproj.engine import GAP_STALL_TOL
from altproj.instances import random_lp_instance, random_pair_instance
from altproj.lp import _default_start
from altproj.sets import set_to_json

REL_TOL = 1e-12


def plain_run(set_a, set_b, x0, max_iters=1000, cert_tol=1e-8):
    """``engine.run`` with every cycle projected."""
    x0 = np.asarray(x0, dtype=float)
    trace = Trace()
    trace.iterates.append((0, "A", x0.copy()))
    current = x0
    for cycle in range(max_iters):
        b = project(set_b, current)
        a = project(set_a, b)
        trace.iterates += [(2 * cycle + 1, "B", b), (2 * cycle + 2, "A", a)]
        trace.gaps += [float(np.linalg.norm(b - current)), float(np.linalg.norm(a - b))]
        trace.certificate = check_certificate(set_a, set_b, a, b, cert_tol)
        if trace.certificate.holds:
            trace.stop_reason = StopReason.CERTIFIED
            trace.steps_to_converge = 2 * cycle + 1
            return trace
        if len(trace.gaps) >= 2 and trace.gaps[-2] - trace.gaps[-1] < GAP_STALL_TOL:
            trace.stop_reason = StopReason.GAP_STALLED
            return trace
        current = a
    trace.stop_reason = StopReason.MAX_ITERS
    return trace


def assert_same_run(set_a, set_b, x0, **kwargs):
    """Run both loops, compare them, and return the engine's trace."""
    trace = run(set_a, set_b, x0, **kwargs)
    ref = plain_run(set_a, set_b, x0, **kwargs)
    assert trace.stop_reason is ref.stop_reason
    assert trace.steps_to_converge == ref.steps_to_converge
    assert len(trace.gaps) == len(ref.gaps)
    assert [(i, lab) for i, lab, _ in trace.iterates] == [(i, lab) for i, lab, _ in ref.iterates]
    points = np.array([p for _, _, p in trace.iterates])
    ref_points = np.array([p for _, _, p in ref.iterates])
    scale = float(np.linalg.norm(ref_points, axis=1).max())
    assert float(np.linalg.norm(points - ref_points, axis=1).max()) <= REL_TOL * scale
    assert float(np.abs(np.subtract(trace.gaps, ref.gaps)).max()) <= REL_TOL * scale
    assert trace.certificate.holds == ref.certificate.holds
    return trace


def lp_pair(problem):
    return HalfSpace(problem.c, problem.M), problem.poly, _default_start(problem.c, problem.M)


def test_random_lps_match_plain_cycles():
    rng = np.random.default_rng(7)
    generated = 0
    for _ in range(40):
        problem, _ = random_lp_instance(rng)[:2]
        generated += assert_same_run(*lp_pair(problem), max_iters=5000).generated_cycles
    assert generated > 0


def test_random_pairs_match_plain_cycles():
    rng = np.random.default_rng(5)
    generated = 0
    for _ in range(40):
        inst = random_pair_instance(rng)
        generated += assert_same_run(inst.halfspace, inst.poly, inst.x0, max_iters=20000).generated_cycles
    assert generated > 0


@pytest.fixture(scope="module")
def lp_pool():
    """The first 282 LPs of the benchmark's ``lp_direct`` pool (seed 1)."""
    rng = np.random.default_rng(1)
    return [random_lp_instance(rng)[0] for _ in range(282)]


@pytest.mark.parametrize(
    "index, stop, cycles",
    [(29, StopReason.CERTIFIED, 4242), (264, StopReason.MAX_ITERS, 5000), (281, StopReason.MAX_ITERS, 5000)],
)
def test_long_pool_lps_match_plain_cycles(lp_pool, index, stop, cycles):
    trace = assert_same_run(*lp_pair(lp_pool[index]), max_iters=5000)
    assert trace.stop_reason is stop
    assert len(trace.gaps) // 2 == cycles
    assert trace.generated_cycles > 0.99 * cycles


@pytest.mark.parametrize("index, cycles", [(264, 53581), (281, 12504)])
def test_capped_pool_lps_certify_under_a_raised_cap(lp_pool, index, cycles):
    # The plain loop takes 27 s and 7 s for these runs; the cycle counts
    # are the ones it certifies at.
    trace = run(*lp_pair(lp_pool[index]), max_iters=60000)
    assert trace.stop_reason is StopReason.CERTIFIED
    assert len(trace.gaps) // 2 == cycles
    assert trace.steps_to_converge == 2 * cycles - 1


def wedge(eps, *extra_rows):
    """``{y >= eps x, x >= 0}`` plus extra rows through the apex."""
    rows = [[eps, -1.0], [-1.0, 0.0], *extra_rows]
    return Polyhedron(rows, [0.0] * len(rows))


BELOW = HalfSpace([0.0, 1.0], -1.0)


def test_narrow_wedge_walks_one_face_for_over_a_thousand_cycles():
    trace = assert_same_run(BELOW, wedge(0.01), [20.0, -1.0], max_iters=5000)
    assert trace.stop_reason is StopReason.CERTIFIED
    assert len(trace.gaps) // 2 > 1000
    assert trace.generated_cycles > 1000
    np.testing.assert_allclose(trace.final_pair()[1], [0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("max_iters", [3, 4, 5, 37])
def test_cap_inside_a_face_walk(max_iters):
    trace = assert_same_run(BELOW, wedge(0.01), [20.0, -1.0], max_iters=max_iters)
    assert trace.stop_reason is StopReason.MAX_ITERS
    assert len(trace.gaps) == 2 * max_iters
    if max_iters == 37:
        assert trace.generated_cycles > 0


def test_gap_stall_on_a_face():
    # The sets meet, and cert_tol is far below the gaps the run reaches, so
    # the stall rule ends the walk along y = 0.1 x.
    one_row = Polyhedron([[0.1, -1.0]], [0.0])
    trace = assert_same_run(
        HalfSpace([0.0, 1.0], 0.0), one_row, [2e-8, 0.0], max_iters=5000, cert_tol=1e-15
    )
    assert trace.stop_reason is StopReason.GAP_STALLED
    assert trace.generated_cycles > 0


@pytest.mark.parametrize("shift, eps", [((30.0, 20.0), 0.08), ((50.0, -30.0), 0.05), ((50.0, -30.0), 0.08)])
def test_projection_tolerance_ends_a_face_walk(shift, eps):
    # The sets meet and cert_tol is below the rounding of points this far
    # out, so the walk ends when the B-projection finds the A-point feasible
    # within its tolerance and returns it unchanged.  Without that event in
    # the horizon the generated walk runs 50-170 cycles past the stop.  The
    # stop compares a violation of about 3e-12 with the tolerance, a decision
    # at the rounding level, so it may move by a cycle.
    set_a = translate(HalfSpace([0.0, 1.0], 0.0), shift)
    set_b = translate(Polyhedron([[eps, -1.0]], [0.0]), shift)
    x0 = np.add(shift, [5e-8, 0.0])
    trace = run(set_a, set_b, x0, max_iters=5000, cert_tol=1e-12)
    ref = plain_run(set_a, set_b, x0, max_iters=5000, cert_tol=1e-12)
    assert ref.final_gap == 0.0 and trace.final_gap == 0.0
    assert trace.stop_reason is ref.stop_reason is StopReason.CERTIFIED
    assert abs(len(trace.gaps) - len(ref.gaps)) <= 2
    assert trace.generated_cycles > 0


def test_intersecting_lp_walks_a_face_then_rejects_the_bound():
    # M = 0.5 is above the optimum 0: the walk ends at a common point.
    poly = wedge(0.1)
    above = HalfSpace([0.0, 1.0], 0.5)
    trace = assert_same_run(above, poly, [20.0, 0.5], max_iters=5000)
    assert trace.final_gap <= 1e-8
    assert trace.generated_cycles > 0
    with pytest.raises(LowerBoundNotStrict):
        solve_lp(LPProblem(above.c, poly, above.M), x0=[20.0, 0.5])


def test_degenerate_vertex_with_a_zero_multiplier():
    # Three rows meet at the apex; the last projection gives x >= 0 a zero
    # multiplier.
    poly = wedge(0.01, [-1.0, -1.0])
    trace = assert_same_run(BELOW, poly, [5.0, -1.0], max_iters=5000)
    assert trace.stop_reason is StopReason.CERTIFIED
    assert trace.generated_cycles > 0
    outcome = solve_lp(LPProblem(BELOW.c, poly, BELOW.M), x0=[5.0, -1.0])
    assert outcome.objective == pytest.approx(0.0, abs=1e-12)


def test_tight_row_with_a_zero_multiplier_keeps_plain_cycles():
    # A repeated row is tight all along the face with a zero multiplier, so
    # no cycle may be generated.
    poly = wedge(0.01, [0.01, -1.0])
    trace = assert_same_run(BELOW, poly, [5.0, -1.0], max_iters=5000)
    assert trace.stop_reason is StopReason.CERTIFIED
    assert trace.generated_cycles == 0


def test_reversed_pair_keeps_plain_cycles():
    # A polyhedron A with a half-space B is out of the face walk's scope.
    poly = wedge(0.01)
    trace = assert_same_run(poly, BELOW, [20.0, 0.2], max_iters=200)
    assert trace.generated_cycles == 0


def test_cli_writes_generated_cycles_like_any_other(tmp_path, capsys):
    # The CSV has a row for every iterate, and the report keeps its keys.
    spec = tmp_path / "wedge.json"
    spec.write_text(json.dumps({"setA": set_to_json(BELOW), "setB": set_to_json(wedge(0.01)), "x0": [20.0, -1.0], "max_iters": 5000}))
    assert main(["run", str(spec), "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"stop_reason", "steps_to_converge", "num_iterates", "final_gap", "certificate", "trace_csv"}
    trace = run(BELOW, wedge(0.01), [20.0, -1.0], max_iters=5000)
    assert trace.generated_cycles > 1000
    assert report["num_iterates"] == len(trace.iterates)
    rows = (tmp_path / "wedge_trace.csv").read_text().splitlines()
    assert len(rows) == 1 + len(trace.iterates)
