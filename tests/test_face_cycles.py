"""Cycles generated on one face match the cycles they stand for.

On a half-space/polyhedron pair ``engine.run`` generates the cycles a run
spends on one face of the polyhedron in closed form.  ``plain_run`` below is
the loop without that step: a real projection for every iterate, the
certificate after every cycle, the ``GAP_STALL_TOL`` rule and the stop on a
gap too small to normalise.  Each case runs both and requires the same stop
reason, step count, cycle count and number of iterates, and iterates and
gaps within 1e-12 of the largest iterate of the run (a point or gap near
zero carries the rounding of the points around it, so a per-entry relative
bound would measure only that rounding).
"""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from altproj import (
    HalfSpace,
    LowerBoundNotStrict,
    LPProblem,
    NotConverged,
    Polyhedron,
    StopReason,
    Trace,
    check_certificate,
    project,
    project_polyhedron,
    run,
    solve_lp,
    translate,
)
from altproj import engine
from altproj.cli import main
from altproj.engine import GAP_STALL_TOL
from altproj.instances import random_lp_instance, random_pair_instance
from altproj.linalg import ZERO_TOL, _feas_tol, _substitute
from altproj.lp import _default_start, outcome_to_json
from altproj.sets import ACTIVE_TOL, set_to_json

REL_TOL = 1e-12


def plain_run(set_a, set_b, x0, max_iters=1000, cert_tol=1e-8):
    """``engine.run`` with every cycle projected.

    The iterates, gaps and step count are kept by the loop itself.  The
    iterates become the one piece of a ``Trace`` when the run stops, and
    the trace must read the loop's own gaps and step count bit for bit.
    """
    x0 = np.asarray(x0, dtype=float)
    points, gaps = [x0.copy()], []
    current = x0
    stop, steps, cert = StopReason.MAX_ITERS, None, None
    for cycle in range(max_iters):
        b = project(set_b, current)
        a = project(set_a, b)
        points += [b, a]
        gaps += [float(np.linalg.norm(b - current)), float(np.linalg.norm(a - b))]
        if cert_tol < gaps[-1] <= ZERO_TOL:
            cert, stop = None, StopReason.GAP_STALLED
            break
        cert = check_certificate(set_a, set_b, a, b, cert_tol)
        if cert.holds:
            stop, steps = StopReason.CERTIFIED, 2 * cycle + 1
            break
        if len(gaps) >= 2 and gaps[-2] - gaps[-1] < GAP_STALL_TOL:
            stop = StopReason.GAP_STALLED
            break
        current = a
    trace = Trace([np.concatenate(points)], x0.shape[0], stop, cert)
    assert trace.gaps.tobytes() == np.array(gaps).tobytes()
    assert trace.final_gap.hex() == gaps[-1].hex()
    assert trace.steps_to_converge == steps and trace.generated_cycles == 0
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
    assert (trace.certificate is None) == (ref.certificate is None)
    if ref.certificate is not None:
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


def test_warm_faces_halve_the_active_set_steps(monkeypatch):
    # The LPs above: the steps of the projections that start from the face
    # of the cycle before, against the steps of cold projections of the
    # same points.  The first cycle of a run starts cold on both sides.
    projected = []
    warm_project = engine._project_from

    def spy(poly, x, face):
        res = warm_project(poly, x, face)
        if face is not None:
            projected.append((poly, x, res[0].iterations))
        return res

    monkeypatch.setattr(engine, "_project_from", spy)
    rng = np.random.default_rng(7)
    steps = 0
    for _ in range(40):
        problem, _ = random_lp_instance(rng)[:2]
        trace = run(*lp_pair(problem), max_iters=5000)
        steps += trace.active_set_steps
        assert "active_set_steps" not in trace.to_json_dict()
    assert steps == 130
    warm = sum(iterations for _, _, iterations in projected)
    cold = sum(project_polyhedron(poly, x).iterations for poly, x, _ in projected)
    assert 0 < warm < cold / 2


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


def pool_lp(seed, index):
    """LP ``index`` of the ``lp_direct`` pool at ``seed``, with its oracle optimum."""
    rng = np.random.default_rng(seed)
    for _ in range(index):
        random_lp_instance(rng)
    return random_lp_instance(rng)[:2]


@pytest.mark.parametrize("seed, index, cycles", [(1, 264, 53581), (1, 281, 12504), (3, 117, 133352)])
def test_long_pool_lps_certify_under_the_default_cap(seed, index, cycles):
    # These stopped at the former default cap of 5000 cycles.
    problem, optimum = pool_lp(seed, index)
    outcome = solve_lp(problem)
    assert outcome.trace.stop_reason is StopReason.CERTIFIED
    assert len(outcome.trace.gaps) // 2 == cycles
    assert outcome.steps == 2 * cycles - 1
    assert abs(outcome.objective - optimum) <= 1e-9


def test_longest_pool_lp_holds_two_arrays():
    # 266,705 iterates in four dimensions: about 8.5 MB of points and 2.1 MB
    # of gaps.  Kept as a tuple and a float per iterate, the trace held 75 MB.
    # The arrays are built on their first read, inside the measured window.
    problem, _ = pool_lp(3, 117)
    solve_lp(problem)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outcome = solve_lp(problem)
        outcome.trace.points
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(outcome.trace.iterates) == 2 * 133352 + 1
    assert held < 16e6


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


def test_gap_below_zero_tol_stops_where_the_plain_loop_stops():
    # With cert_tol below ZERO_TOL a gap in (cert_tol, ZERO_TOL] can be
    # neither certified nor normalised for the certificate: the run stops
    # there with GAP_STALLED and no certificate.  The first ten draws also
    # run the slow plain loop, enough to show that the generated cycles end
    # where it stops.
    rng = np.random.default_rng(9)
    unresolved = 0
    for i in range(40):
        eps, x = rng.uniform(0.05, 0.3), rng.uniform(1e-9, 1e-7)
        pair = (HalfSpace([0.0, 1.0], 0.0), Polyhedron([[eps, -1.0]], [0.0]), [x, 0.0])
        check = assert_same_run if i < 10 else run
        trace = check(*pair, max_iters=5000, cert_tol=1e-15)
        assert trace.stop_reason is StopReason.GAP_STALLED
        assert trace.generated_cycles > 0
        unresolved += trace.certificate is None
    assert unresolved > 20


def test_cli_gap_below_zero_tol_exits_not_certified(tmp_path, capsys):
    spec = tmp_path / "tiny_gap.json"
    one_row = Polyhedron([[0.2, -1.0]], [0.0])
    spec.write_text(json.dumps({"setA": set_to_json(HalfSpace([0.0, 1.0], 0.0)), "setB": set_to_json(one_row), "x0": [5e-8, 0.0], "cert_tol": 1e-15}))
    assert main(["run", str(spec), "--out", str(tmp_path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["stop_reason"] == "GapStalled"
    assert report["certificate"] is None
    assert 1e-15 < report["final_gap"] <= 1e-12


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


def test_tight_row_with_a_zero_multiplier_leaves_the_face_generated():
    # A repeated row is tight all along the face with a zero multiplier.
    # The path does not move it, so the cycles on the face are generated
    # as without the copy.
    poly = wedge(0.01, [0.01, -1.0])
    trace = assert_same_run(BELOW, poly, [5.0, -1.0], max_iters=5000)
    assert trace.stop_reason is StopReason.CERTIFIED
    assert trace.generated_cycles > 0


def test_copied_row_walks_the_narrow_wedge_as_without_it():
    # 182,322 cycles on one face.  Projected one by one they take some 16 s,
    # so the time bound holds only when the copy lets them be generated.
    plain = run(BELOW, wedge(0.001), [200.0, -1.0], max_iters=10**6)
    started = time.perf_counter()
    trace = run(BELOW, wedge(0.001, [0.001, -1.0]), [200.0, -1.0], max_iters=10**6)
    assert time.perf_counter() - started < 0.5
    assert trace.stop_reason is plain.stop_reason is StopReason.CERTIFIED
    assert trace.steps_to_converge == plain.steps_to_converge
    assert len(trace.gaps) == len(plain.gaps) == 2 * 182322
    assert trace.generated_cycles == plain.generated_cycles > 182000
    assert trace.final_pair()[1].tobytes() == plain.final_pair()[1].tobytes()


def test_random_lps_with_copied_rows_match_plain_cycles():
    # Each LP repeats three of its rows: a copy of a row of the face a run
    # walks is tight there with a zero multiplier.  The copies change no
    # face's path, so each run generates the cycles the LP without them
    # generates, 516 in all.
    rng = np.random.default_rng(5)
    generated = 0
    for _ in range(30):
        problem = random_lp_instance(rng)[0]
        A, b = problem.poly.A, problem.poly.b
        pick = rng.choice(len(b), size=3, replace=False)
        copied = LPProblem(problem.c, Polyhedron(np.vstack([A, A[pick]]), np.concatenate([b, b[pick]])), problem.M)
        trace = assert_same_run(*lp_pair(copied), max_iters=5000)
        alone = run(*lp_pair(problem), max_iters=5000)
        assert len(trace.gaps) == len(alone.gaps)
        assert trace.generated_cycles == alone.generated_cycles
        generated += trace.generated_cycles
    assert generated > 400


def jump_blocks(monkeypatch):
    """The number of rows each stretch ``engine._face_jump`` returns would
    fill, 0 for a refusal."""
    blocks = []
    face_jump = engine._face_jump

    def spy(*args):
        jump = face_jump(*args)
        blocks.append(0 if jump is None else 2 * jump[0].J)
        return jump

    monkeypatch.setattr(engine, "_face_jump", spy)
    return blocks


def test_working_row_with_a_zero_multiplier_refuses_the_jump(monkeypatch):
    # The first B-projection lands on both rows, and the closed form's rate
    # on row 0 is zero, so the jump tried on that entry is refused.  The
    # next projection keeps row 0 in its working set with a zero
    # multiplier, so the working rows are more than the face and the jump
    # tried on that entry is refused too.
    blocks = jump_blocks(monkeypatch)
    poly = Polyhedron([[-2.0, -2.0, 0.0], [1.0, 0.0, 0.0]], [2.0, -1.0])
    trace = assert_same_run(HalfSpace([-1.0, 0.0, 1.0], -6.0), poly, [4.0, -2.0, -4.0])
    assert blocks == [0, 0]
    assert trace.generated_cycles == 0


def test_jump_onto_an_a_point_feasible_by_rounding_is_refused(monkeypatch):
    # Some 1e4 from the origin the B-projection's feasibility tolerance is
    # about 1.4e-9, above the A-point's violation of the face row when the
    # jump is tried: the next projection returns the A-point unchanged, a
    # common point, and no cycle may be generated before it.
    blocks = jump_blocks(monkeypatch)
    shift = (1e4, 1e4)
    set_a = translate(HalfSpace([0.0, 1.0], 0.0), shift)
    set_b = translate(Polyhedron([[1.0, -1.0]], [0.0]), shift)
    x0 = np.add(shift, [4.2e-9, 0.0])
    trace = assert_same_run(set_a, set_b, x0, max_iters=5000, cert_tol=1e-15)
    assert blocks == [0]
    assert trace.stop_reason is StopReason.CERTIFIED and trace.final_gap == 0.0


def test_jump_before_a_stall_is_refused(monkeypatch):
    # The run is linear in its start.  From x = 2.055e-11 the gap decrease
    # of the second cycle clears GAP_STALL_TOL and that of the third falls
    # about 0.5 % short of it, so the jump tried on the first cycle, which
    # enters the face, is refused and the third cycle stalls (the window of
    # x is 1 % wide).
    blocks = jump_blocks(monkeypatch)
    one_row = Polyhedron([[0.1, -1.0]], [0.0])
    trace = assert_same_run(
        HalfSpace([0.0, 1.0], 0.0), one_row, [2.055e-11, 0.0], max_iters=5000, cert_tol=1e-15
    )
    assert blocks == [0]
    assert trace.stop_reason is StopReason.GAP_STALLED
    assert len(trace.gaps) == 6


ABOVE_ZERO = HalfSpace([0.0, 1.0], 0.0)


def q_and_rates(factor):
    """``q = ||P_V u||^2`` and the multiplier rates on ``factor``'s face as
    ``engine._face_jump`` forms them, for ``u`` the unit normal of
    ``{y <= 0}``."""
    u, Q1 = ABOVE_ZERO._unit, factor.Q1
    pvu = u - Q1.dot(u.dot(Q1))
    pvu -= Q1.dot(pvu.dot(Q1))
    return float(pvu.dot(pvu)), _substitute(factor.R, u.dot(Q1))


@pytest.mark.parametrize(
    "rows, b, x, q_ok",
    [
        # A face row at 1e-9 from parallel to u: the rate is -1e-9 and q
        # rounds to exactly 1, where log(1 - q) has no value.
        ([[1.0, -1e-9]], [0.0], [3.0, 2.0], lambda q: q == 1.0),
        # Two face rows that span the plane: both rates are about -0.707 and
        # P_V u is rounding, q about 9e-32.  Past the guard the horizon of
        # a common point by rounding would refuse it too.
        ([[1.0, -1.0], [-1.0, -1.0]], [-1.0, -1.0], [0.0, 0.0], lambda q: 0.0 < math.sqrt(q) <= ZERO_TOL),
        # One face row along -u: the rate is -1 and q is exactly 0, where
        # 1 / sqrt(q) has no value.
        ([[0.0, -1.0]], [-1.0], [0.0, 0.0], lambda q: q == 0.0),
    ],
    ids=["q=1", "q~0", "q=0"],
)
def test_the_q_guard_refuses_the_jump(rows, b, x, q_ok):
    # Both sides of the guard ``ZERO_TOL < sqrt(q) < 1``, reached by direct
    # calls: every earlier check of ``_face_jump`` passes (the B-point lies
    # beyond the half-space, the working rows are the face, every rate is
    # negative).
    set_b = Polyhedron(rows, b)
    res, factor = engine._project_from(set_b, np.array(x), None)
    face, point = res.dual > 0.0, res.point
    q, rates = q_and_rates(factor)
    assert float(ABOVE_ZERO._unit.dot(point)) > 0.0
    assert engine._on_working_rows(face, factor.W)
    assert all(r < 0.0 for r in rates)
    assert q_ok(q)
    assert engine._face_jump(ABOVE_ZERO, set_b, face, factor, point, 1000, 1e-8) is None


def test_a_run_reaches_the_guard_at_q_one(monkeypatch):
    # From (50, 0) the first B-point lies about 5e-8 above the half-space,
    # beyond its membership tolerance, on a face whose q rounds to 1: the
    # jump tried on that entry is refused by the guard, and the next cycle
    # certifies.  At q near 0 no run gets there: the rates are negative, so
    # -u lies in the cone of the face rows and that cycle certifies first.
    attempts = []
    face_jump = engine._face_jump

    def spy(h, poly, face, factor, b, *rest):
        attempts.append((q_and_rates(factor)[0], face_jump(h, poly, face, factor, b, *rest)))
        return attempts[-1][1]

    monkeypatch.setattr(engine, "_face_jump", spy)
    set_b = Polyhedron([[1.0, -1e-9]], [0.0])
    trace = assert_same_run(ABOVE_ZERO, set_b, [50.0, 0.0])
    assert attempts == [(1.0, None)]
    assert trace.stop_reason is StopReason.CERTIFIED and trace.num_iterates == 5


def jump_cycles(monkeypatch):
    """The real cycle, counted from 0, on which each jump is tried, and the
    faces of the real cycles' B-projections: ``(tried, faces)``."""
    tried, faces = [], []
    project_from, face_jump = engine._project_from, engine._face_jump

    def project_spy(poly, x, face):
        res, final = project_from(poly, x, face)
        faces.append((res.dual > 0.0, final))
        return res, final

    def jump_spy(*args):
        tried.append(len(faces) - 1)
        return face_jump(*args)

    monkeypatch.setattr(engine, "_project_from", project_spy)
    monkeypatch.setattr(engine, "_face_jump", jump_spy)
    return tried, faces


def test_the_jump_is_tried_on_the_cycle_that_enters_the_face(monkeypatch):
    # The first B-projection lands on the wedge's face y = 0.01 x, where
    # the closed form's multiplier rate is positive: the jump is tried
    # there, and the run makes two real cycles, the entry and the one that
    # reaches the apex.
    tried, faces = jump_cycles(monkeypatch)
    trace = run(BELOW, wedge(0.01), [20.0, -1.0], max_iters=5000)
    assert tried == [0]
    assert len(faces) == 2 and faces[0][0].tolist() == [True, False]
    assert len(trace.gaps) // 2 - trace.generated_cycles == 2
    assert_same_run(BELOW, wedge(0.01), [20.0, -1.0], max_iters=5000)


def test_a_face_entered_with_a_falling_rate_gets_no_jump_on_entry(monkeypatch):
    # Found by a seeded search over the small LPs of random_lp_instance:
    # LP 49 of rng seed 2, a box in the plane with one more row.  Its first
    # B-point is the vertex of rows 0 and 2, both working with positive
    # multipliers, but the closed form's rate on row 0 is negative, so the
    # next projection drops it.  The jump tried on that entry is refused;
    # the next cycle enters the face of row 2 and jumps.
    problem, _ = pool_lp(2, 49)
    set_a, set_b, x0 = lp_pair(problem)
    blocks = jump_blocks(monkeypatch)
    tried, faces = jump_cycles(monkeypatch)
    trace = run(set_a, set_b, x0, max_iters=5000)
    (first, factor), (second, _) = faces[:2]
    assert first.nonzero()[0].tolist() == [0, 2] and sorted(factor.W) == [0, 2]
    rates = [-r for r in _substitute(factor.R, set_a._unit.dot(factor.Q1))]
    assert min(rates) < 0.0 < max(rates)
    assert second.nonzero()[0].tolist() == [2]
    assert tried == [0, 1] and blocks[0] == 0 and blocks[1] > 0
    assert trace.generated_cycles > 0
    assert_same_run(set_a, set_b, x0, max_iters=5000)


def stretch_ends(monkeypatch):
    """The ``(stretch, last)`` pairs ``engine._face_jump`` returns."""
    ends = []
    face_jump = engine._face_jump

    def spy(*args):
        jump = face_jump(*args)
        if jump is not None:
            ends.append(jump)
        return jump

    monkeypatch.setattr(engine, "_face_jump", spy)
    return ends


def test_generated_iterates_reach_the_projection_contiguous(monkeypatch):
    # The last generated A-point starts the next real cycle, and OpenBLAS's
    # ``ddot`` can round a strided vector otherwise than a contiguous one,
    # so an end handed on as a transposed view would move the run's bits.
    ends, points = stretch_ends(monkeypatch), []
    project_from = engine._project_from

    def project_spy(poly, x, face):
        points.append(x)
        return project_from(poly, x, face)

    monkeypatch.setattr(engine, "_project_from", project_spy)
    # The wedges generate long stretches and the LPs short ones.
    for set_b, x0 in [(wedge(0.01), [20.0, -1.0]), (wedge(0.01, [-1.0, -1.0]), [5.0, -1.0])]:
        assert run(BELOW, set_b, x0, max_iters=5000).generated_cycles > 0
    rng = np.random.default_rng(7)
    for _ in range(40):
        problem, _ = random_lp_instance(rng)[:2]
        run(*lp_pair(problem), max_iters=5000)
    assert len(ends) > 2
    assert all(last.flags.c_contiguous and last[1].flags.c_contiguous for _, last in ends)
    assert all(x.flags.c_contiguous for x in points)


def test_handed_on_points_are_the_last_rows_of_the_built_block(monkeypatch):
    # The run goes on from the end of a stretch computed on its own, with
    # the ufuncs of the fill on a one-element ``j``; the trace fills the
    # whole stretch when it is read.  Both must give the same bytes.
    ends = stretch_ends(monkeypatch)
    for seed in (1, 7, 11):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            problem = random_lp_instance(rng)[0]
            try:
                solve_lp(problem)
            except NotConverged:
                pass
    pools = len(ends)
    assert pools > 300
    for set_b, x0 in [
        (wedge(0.01), [20.0, -1.0]),
        (wedge(0.001), [200.0, -1.0]),
        (wedge(0.001, [0.001, -1.0]), [200.0, -1.0]),
    ]:
        run(BELOW, set_b, x0, max_iters=10**6)
    assert len(ends) > pools + 2
    for stretch, last in ends:
        block = stretch.rows(np.arange(1, stretch.J + 1))
        assert block.shape == (2 * stretch.J, stretch.b.shape[0])
        assert block[-2:].tobytes() == last.tobytes()


def test_row_bounded_stretches_run_to_their_row(monkeypatch):
    # Every stretch of the pools of seeds 1, 7 and 11 ends at its row: its
    # last B-point keeps every closing row at or above its floor, up to the
    # rounding of the slack, and so passes the feasibility test of the real
    # projection, while one more generated cycle would take a closing row
    # below its floor.  The floor is the margin 10 * ACTIVE_TOL, or for a
    # row already within it, its slack, at least 0, less the smallest
    # feasibility tolerance of a B-projection.
    ends = []
    face_jump = engine._face_jump

    def spy(h, poly, face, factor, b, *rest):
        jump = face_jump(h, poly, face, factor, b, *rest)
        if jump is not None:
            ends.append((poly, face, b, *jump))
        return jump

    monkeypatch.setattr(engine, "_face_jump", spy)
    for seed in (1, 7, 11):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            solve_lp(random_lp_instance(rng)[0], strategy="direct")
    assert len(ends) > 700
    for poly, face, b, stretch, last in ends:
        units, offsets = poly._units, poly._offsets
        end = last[0]
        feas_tol = _feas_tol(poly._scale, math.hypot(*end.tolist()))
        assert (units.dot(end) - offsets).max() <= feas_tol
        closing = (units.dot(stretch.pvu) < 0.0) & ~face
        slack = offsets - units.dot(b)
        fall = _feas_tol(poly._scale, 0.0)
        floor = np.where(slack > 10.0 * ACTIVE_TOL, 10.0 * ACTIVE_TOL, np.maximum(slack, 0.0) - fall)
        rounding = 1e-15 * (np.abs(offsets) + np.linalg.norm(end))
        assert ((offsets - units.dot(end) - floor)[closing] >= -rounding[closing]).all()
        beyond = stretch.rows(np.arange(stretch.J + 1, stretch.J + 2))[0]
        assert ((offsets - units.dot(beyond) - floor)[closing] < 0.0).any()


def test_a_solve_builds_no_trace_arrays(monkeypatch):
    # ``solve_lp``, the report JSON and the trace's own reads are read off
    # the run's pieces; ``points`` and ``gaps`` are built once, on their
    # first read.
    built = []
    build = engine.Trace._build

    def spy(trace):
        built.append(trace)
        return build(trace)

    monkeypatch.setattr(engine.Trace, "_build", spy)
    rng = np.random.default_rng(1)
    outcomes = [solve_lp(random_lp_instance(rng)[0]) for _ in range(30)]
    assert sum(out.trace.generated_cycles for out in outcomes) > 0
    for out in outcomes:
        trace = out.trace
        report = (outcome_to_json(out), trace.to_json_dict(), trace.final_pair(), trace.final_gap)
        assert report[1]["num_iterates"] == trace.num_iterates
    # A capped solve names its cycle count from the count the trace keeps.
    with pytest.raises(NotConverged, match="MaxIters after 5000 cycles"):
        solve_lp(pool_lp(1, 264)[0], max_iters=5000)
    assert built == []
    for out in outcomes:
        trace = out.trace
        a, b = trace.final_pair()
        final_gap, count = trace.final_gap, trace.num_iterates
        assert len(trace.points) == count == len(trace.gaps) + 1
        assert a.tobytes() == trace.points[-1].tobytes() and b.tobytes() == trace.points[-2].tobytes()
        assert final_gap == trace.gaps[-1]
        assert not a.flags.writeable and not b.flags.writeable
        assert trace.points is trace.points and trace.gaps is trace.gaps
    assert len(built) == len(outcomes)


def test_longest_pool_lp_holds_its_real_cycles_only():
    # 133,352 cycles, all but 7 generated: before ``points`` is read the
    # trace holds its real points and one record per stretch.
    problem, _ = pool_lp(3, 117)
    solve_lp(problem)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outcome = solve_lp(problem)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert outcome.trace.num_iterates == 2 * 133352 + 1
    assert outcome.trace.generated_cycles > 133000
    assert held < 1e6


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
