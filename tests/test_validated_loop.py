"""The engine loop runs on validated kernels and matches the public loop.

``engine.run`` validates ``x0`` once and then runs every cycle on the
private kernels behind ``sets.project`` and ``engine.check_certificate``,
taking 1-D norms with ``linalg._norm``.  ``plain_run`` (from
``test_face_cycles``) is the same loop written with the public functions and
``np.linalg.norm``.  Where the engine generates no cycles in closed form,
the two must agree bit for bit.  The rest pins the two behaviours at extreme
scale that the kernels fix (a gap whose sum of squares overflows, and the
parabola's stationarity root far from the vertex) and counts validation
calls, which must not grow with the number of cycles.

A pair of planar sets, neither a polyhedron, runs on floats: each cycle is
screened on floats and decided again on arrays (``engine._decide``) when
the screen cannot clear it.  The tests at the end give that screen
geometry the fixtures do not: tilted half-planes, whose ``<c, x>`` rounds
differently as a BLAS product and as floats, a tolerance equal to a
residual the run meets, and gaps next to ``ZERO_TOL``.  An axis-aligned
half-plane's ``<c, x>`` is read on floats (``sets._project_halfplane_xy``);
the last tests hold its kernel and its runs, with normals that are not
unit vectors, to the array code.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import altproj.engine as engine
from altproj import (
    EpigraphSet,
    HalfSpace,
    PointNotInSet,
    Polyhedron,
    StopReason,
    check_certificate,
    contains,
    project,
    run,
)
from altproj.instances import (
    absval_epigraph,
    lower_halfplane,
    parabola_epigraph,
    random_pair_instance,
    random_set,
    sample_member,
)
from altproj.linalg import ZERO_TOL, _norm
from altproj.sets import (
    ABS,
    SQUARE,
    _parabola_root,
    _project_abs_base,
    _project_halfplane_xy,
    _project_halfspace,
)
from exact import floats_around, parabola_cubic, squared_distance
from test_face_cycles import plain_run

PLANAR_KS = (0.0, 0.5, 1.0, 2.0)
PLANAR_X0 = (1.0, 3.0, 10.0, 100.0)


def hexed(trace):
    """Everything a run reports, with every float as ``float.hex``."""
    cert = trace.certificate
    return (
        trace.stop_reason,
        trace.steps_to_converge,
        [(i, lab, [v.hex() for v in p.tolist()]) for i, lab, p in trace.iterates],
        [float(g).hex() for g in trace.gaps],
        None if cert is None else (float(cert.residual_A).hex(), float(cert.residual_B).hex(), cert.holds),
    )


def assert_identical_run(set_a, set_b, x0, **kwargs):
    trace = run(set_a, set_b, x0, **kwargs)
    assert trace.generated_cycles == 0
    assert hexed(trace) == hexed(plain_run(set_a, set_b, x0, **kwargs))
    return trace


@pytest.mark.parametrize("x", PLANAR_X0)
@pytest.mark.parametrize("k", PLANAR_KS)
@pytest.mark.parametrize("make", [absval_epigraph, parabola_epigraph], ids=["abs", "square"])
def test_planar_fixtures_match_the_public_loop_bit_for_bit(make, k, x):
    assert_identical_run(lower_halfplane(), make(k), [x, 0.0])


def test_halfspace_pairs_match_the_public_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    stops = set()
    for _ in range(60):
        n = int(rng.integers(2, 5))
        set_a = HalfSpace(rng.normal(size=n), float(rng.normal()))
        set_b = HalfSpace(rng.normal(size=n), float(rng.normal()))
        x0 = project(set_a, 3.0 * rng.normal(size=n))
        stops.add(assert_identical_run(set_a, set_b, x0, max_iters=200).stop_reason)
    assert StopReason.CERTIFIED in stops


def test_epigraph_pairs_match_the_public_loop_bit_for_bit():
    rng = np.random.default_rng(12)
    for _ in range(60):
        kinds = rng.integers(0, 2, size=2)
        set_a, set_b = (EpigraphSet(("abs", "square")[k], rng.normal(size=2)) for k in kinds)
        assert_identical_run(set_a, set_b, sample_member(rng, set_a), max_iters=300)


def test_polyhedron_a_halfspace_b_pairs_match_the_public_loop_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(30):
        inst = random_pair_instance(rng)
        x0 = sample_member(rng, inst.poly)
        trace = assert_identical_run(inst.poly, inst.halfspace, x0, max_iters=2000)
        assert trace.stop_reason is StopReason.CERTIFIED


def test_random_set_pairs_match_the_public_loop_bit_for_bit():
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 40:
        set_a, set_b = random_set(rng), random_set(rng)
        # A half-space A with a polyhedron B walks faces in closed form.
        walks = isinstance(set_a, HalfSpace) and isinstance(set_b, Polyhedron)
        if set_a.dim != set_b.dim or walks:
            continue
        assert_identical_run(set_a, set_b, sample_member(rng, set_a), max_iters=300)
        checked += 1


def test_a_start_whose_projection_overflows_raises_value_error():
    # x0 - shift overflows to -inf, so the B-projection is not finite: the
    # loop raises the ValueError that validating the iterate would raise.
    square = EpigraphSet(SQUARE, [1e308, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            run(lower_halfplane(), square, [-1e308, 0.0])
        with pytest.raises(ValueError, match="finite"):
            plain_run(lower_halfplane(), square, [-1e308, 0.0])


def test_norm_is_numpy_norm_bit_for_bit_at_normal_scale():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 4, 8, 50):
        for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
            d = scale * rng.normal(size=n)
            assert _norm(d).hex() == float(np.linalg.norm(d)).hex()


def test_norm_rescales_a_sum_of_squares_that_overflows():
    with np.errstate(over="ignore"):
        assert _norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
        assert _norm(np.array([1.7e308, 1.7e308])) == pytest.approx(1.7e308 * np.sqrt(2.0), rel=1e-15)
        assert _norm(np.array([np.inf, 1.0])) == np.inf
        assert np.isnan(_norm(np.array([np.nan, 1e200])))


def test_gap_that_overflows_a_sum_of_squares_still_certifies():
    # The true gap is 1e200; squaring it overflowed to inf, the unit
    # direction to 0 and both residuals to 1, and the run hit its cap.
    with np.errstate(over="ignore"):
        trace = run(HalfSpace([0, 1], 0), HalfSpace([0, -1], -1e200), [0, 0], max_iters=5)
    assert trace.stop_reason is StopReason.CERTIFIED
    assert trace.steps_to_converge == 1
    assert trace.gaps.tolist() == [1e200, 1e200]
    assert (trace.certificate.residual_A, trace.certificate.residual_B) == (0.0, 0.0)
    with np.errstate(over="ignore"):
        cert = check_certificate(HalfSpace([0, 1], 0), HalfSpace([0, -1], -1e200), [0, 0], [0, 1e200])
    assert cert.holds


def stationarity(u, z1, z2):
    """Residual of the cubic whose root ``_parabola_root`` returns."""
    return abs(2.0 * u * u * u + (1.0 - 2.0 * z2) * u - z1)


@pytest.mark.parametrize("z2", [0.0, -3.0, 0.75, 2.0, 1e3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_parabola_root_is_stationary_at_every_scale(sign, z2):
    for exponent in range(24, 301, 2):
        z1 = sign * 10.0**exponent
        u = _parabola_root(z1, z2)
        assert np.sign(u) == sign and abs(u) <= abs(z1)
        assert stationarity(u, z1, z2) <= 1e-12 * abs(z1), (z1, z2, u)


@pytest.mark.parametrize("z2", [0.0, -3.0, 0.75, 2.0, 1e3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_parabola_root_is_stationary_on_both_sides_of_the_switch(sign, z2):
    # This band once straddled a switch between two Newton regimes (at
    # |z1| about 7e5 for z2 = 0); one Newton rule now covers it, and the
    # root must stay stationary across the whole band.
    for exponent in np.arange(0.0, 24.0, 0.25):
        z1 = sign * 10.0**exponent
        if z1 * z1 <= z2:
            continue  # inside the epigraph: not projected through the root
        u = _parabola_root(z1, z2)
        assert np.sign(u) == sign and abs(u) <= abs(z1)
        assert stationarity(u, z1, z2) <= 1e-12 * (1.0 + abs(z1) + abs(z2)), (z1, z2, u)


@pytest.mark.parametrize("z1, z2", [(1.0, -1e20), (1e5, -1e20), (1e9, -1e20), (1e12, -1e30), (-3.0, -1e10)])
def test_parabola_root_with_z2_far_below_the_vertex(z1, z2):
    # The linear term dominates: the root is z1 / (1 - 2 z2) to rounding.
    # A residual stop scaled to |z2| accepted 0.5 for (1, -1e20).
    root = z1 / (1.0 - 2.0 * z2)
    assert _parabola_root(z1, z2) == pytest.approx(root, rel=1e-12, abs=0.0)


def test_parabola_root_far_out_with_both_terms_of_the_bound():
    # With z2 > 1/2 the root lies above s = sqrt(z2 - 1/2) and
    # c = cbrt(|z1|/2) and at most at c + s; here s and c are comparable.
    z1, z2 = 1e60, 1e40
    s, c = np.sqrt(z2 - 0.5), (0.5 * z1) ** (1 / 3)
    u = _parabola_root(z1, z2)
    assert max(s, c) < u <= s + c
    assert stationarity(u, z1, z2) <= 1e-12 * abs(z1)


def assert_root_within_2_ulps(z1, z2):
    # The exact cubic changes sign between the floats two steps either side
    # of the returned root, and the root has z1's sign.
    u = _parabola_root(z1, z2)
    assert math.copysign(1.0, u) == math.copysign(1.0, z1), (z1, z2, u)
    lo, hi = floats_around(abs(u), 2)
    assert parabola_cubic(lo, z1, z2) <= 0 <= parabola_cubic(hi, z1, z2), (z1, z2, u)


@pytest.mark.parametrize("z1, z2", [(1e-4, -100.0), (8.5e-5, -28.2), (5.8e149, -9.1e298), (1e200, 0.0)])
def test_parabola_root_is_within_2_ulps_at_the_hard_cases(z1, z2):
    # Small z1 below the vertex, where every term of the cubic is tiny next
    # to z2; z2 so far below the vertex that (1 - 2 z2) z1 overflows; and a
    # far z1, where the cubic term dominates.
    assert_root_within_2_ulps(z1, z2)
    assert_root_within_2_ulps(-z1, z2)


def test_parabola_root_is_within_2_ulps_on_a_grid():
    rng = np.random.default_rng(30)
    tried = 0
    for _ in range(600):
        z1 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 8.0))
        z2 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 6.0))
        if z2 >= z1 * z1:
            continue  # inside the epigraph: not projected through the root
        assert_root_within_2_ulps(z1, z2)
        tried += 1
    assert tried >= 400


def test_parabola_root_is_within_2_ulps_where_its_cube_overflows():
    # Roots above about 5e102, where 2u^3 overflows and the first Newton
    # step is not finite: the start (-5.157540750183401e104) was returned
    # for the first pair.  The iteration runs on u / 2^k instead.
    assert_root_within_2_ulps(-2.12e298, 2.66e209)
    assert_root_within_2_ulps(1.7e308, 0.0)
    assert_root_within_2_ulps(1.7e308, -1e100)
    rng = np.random.default_rng(31)
    for _ in range(200):
        z1 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, 308.0))
        z2 = float(10.0 ** rng.uniform(206.0, 307.5))
        if z2 >= z1 * z1:
            continue  # inside the epigraph: not projected through the root
        assert abs(_parabola_root(z1, z2)) > 4e102
        assert_root_within_2_ulps(z1, z2)


@pytest.mark.parametrize("x", [1e24, 1e120, 1e200])
def test_far_parabola_runs_project_onto_the_parabola(x):
    # Every B-point is the nearest point of the parabola to the A-point
    # before it, and every gap is finite; the run ends at the cycle cap like
    # the unshifted fixtures.
    with np.errstate(over="ignore"):
        trace = run(lower_halfplane(), parabola_epigraph(0.0), [x, 0.0])
    assert trace.stop_reason is StopReason.MAX_ITERS
    assert np.isfinite(trace.gaps).all()
    assert trace.gaps[0] == pytest.approx(x, rel=1e-12)
    for (_, _, a), (_, lab, b) in zip(trace.iterates[0::2], trace.iterates[1::2]):
        assert lab == "B" and b[1] == b[0] * b[0]
        assert stationarity(b[0], a[0], a[1]) <= 1e-12 * (1.0 + abs(a[0]) + abs(a[1]))


def test_certificate_names_the_point_outside_its_set():
    # Off the common-point branch, membership is tested by the normal cone.
    plane, box = lower_halfplane(), Polyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 3.0, -1.0])
    with pytest.raises(PointNotInSet, match="^first point is not in the first set$"):
        check_certificate(plane, box, [0.0, 0.5], [0.0, 1.0])
    with pytest.raises(PointNotInSet, match="^second point is not in the second set$"):
        check_certificate(plane, box, [0.0, 0.0], [0.0, 0.5])


def test_cycles_validate_nothing(monkeypatch):
    # Count every as_point call the loop could reach; the count must not
    # depend on the number of cycles (square_k0_x1 runs to the 1000 cap).
    import altproj.engine
    import altproj.qp
    import altproj.sets

    calls = []
    for module in (altproj.sets, altproj.engine, altproj.qp):
        original = module.as_point

        def spy(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "as_point", spy)
    set_a, set_b = lower_halfplane(), parabola_epigraph(0.0)
    counts = {}
    for cap in (10, 1000):
        calls.clear()
        trace = run(set_a, set_b, [1.0, 0.0], max_iters=cap)
        assert len(trace.gaps) == 2 * cap
        counts[cap] = len(calls)
    assert counts[10] == counts[1000] <= 2


def test_tilted_halfplanes_against_shifted_epigraphs_match_the_public_loop_bit_for_bit():
    # With c = (0, 1), as in the fixtures, c0 x0 + c1 x1 and the BLAS product
    # round alike; a tilted c tells them apart.
    rng = np.random.default_rng(17)
    stops = set()
    for i in range(60):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        set_a = HalfSpace([np.cos(angle), np.sin(angle)], float(rng.normal()))
        set_b = EpigraphSet(("abs", "square")[i % 2], rng.normal(size=2))
        x0 = project(set_a, 3.0 * rng.normal(size=2))
        stops.add(assert_identical_run(set_a, set_b, x0, max_iters=300).stop_reason)
    assert len(stops) >= 2


def spy_decisions(monkeypatch):
    """``(cycle, stop)`` of every cycle the array code decides.

    The planar loop takes its B-projection second from
    ``engine._planar_projection`` and calls it once per cycle, so the cycle
    a decision belongs to is the count of those calls less one.
    """
    decided, projections = [], []
    decide, planar_projection = engine._decide, engine._planar_projection

    def counted_projection(s):
        project, calls = planar_projection(s), []
        projections.append(calls)

        def spy(*args):
            calls.append(None)
            return project(*args)

        return spy

    def decide_spy(*args):
        stop = decide(*args)
        decided.append((len(projections[-1]) - 1, None if stop is None else stop[0]))
        return stop

    monkeypatch.setattr(engine, "_planar_projection", counted_projection)
    monkeypatch.setattr(engine, "_decide", decide_spy)
    return decided


@pytest.mark.parametrize("x", PLANAR_X0)
@pytest.mark.parametrize("k", PLANAR_KS)
@pytest.mark.parametrize("make", [absval_epigraph, parabola_epigraph], ids=["abs", "square"])
def test_the_array_code_decides_every_stop_and_no_capped_cycle(monkeypatch, make, k, x):
    decided = spy_decisions(monkeypatch)
    trace = run(lower_halfplane(), make(k), [x, 0.0])
    last = len(trace.gaps) // 2 - 1
    if trace.stop_reason is StopReason.MAX_ITERS:
        assert decided == []  # the four square_k0 runs, 1000 cycles each
    else:
        assert decided[-1] == (last, trace.stop_reason)
        assert all(stop is None for _, stop in decided[:-1])


@pytest.mark.parametrize("k, x, cycle", [(1.0, 3.0, 9), (0.5, 3.0, 8), (1.0, 10.0, 10), (1.0, 100.0, 6), (2.0, 1.0, 5)])
def test_a_tolerance_equal_to_a_residual_is_decided_on_arrays(monkeypatch, k, x, cycle):
    # B's residual at ``cycle`` of a square_k*_x* fixture is the tolerance
    # itself, so the screen's value lies within its margin of it and the
    # arrays certify.  In the last four the float residual is one unit in
    # the last place above the array's, so a screen without the margin
    # would let the cycle pass.
    set_a, set_b = lower_halfplane(), parabola_epigraph(k)
    ref = plain_run(set_a, set_b, [x, 0.0], max_iters=cycle + 1)
    tol = check_certificate(set_a, set_b, ref.points[2 * cycle + 2], ref.points[2 * cycle + 1]).residual_B
    assert 1e-8 < tol < 0.5
    decided = spy_decisions(monkeypatch)
    trace = assert_identical_run(set_a, set_b, [x, 0.0], cert_tol=tol)
    assert trace.stop_reason is StopReason.CERTIFIED and trace.steps_to_converge == 2 * cycle + 1
    assert decided[-1] == (cycle, StopReason.CERTIFIED)


@pytest.mark.parametrize("cert_tol", [1e-13, 0.0])
@pytest.mark.parametrize("gap", [0.6 * ZERO_TOL, 1.5 * ZERO_TOL, 1.99 * ZERO_TOL])
def test_a_gap_next_to_zero_tol_is_decided_on_arrays(monkeypatch, gap, cert_tol):
    # The apex of the abs epigraph lifted by ``gap`` over the lower
    # half-plane: the pair is the apex and the origin, ``gap`` apart.
    set_a, set_b = lower_halfplane(), absval_epigraph(gap)
    decided = spy_decisions(monkeypatch)
    trace = assert_identical_run(set_a, set_b, [0.0, 0.0], cert_tol=cert_tol)
    assert trace.gaps[-1] == gap
    assert decided[-1] == (len(trace.gaps) // 2 - 1, trace.stop_reason)


@pytest.mark.parametrize("cert_tol", [1e-13, 0.0])
@pytest.mark.parametrize("x", [1.0, 3.0, 10.0])
def test_gaps_that_shrink_through_zero_tol_are_decided_on_arrays(monkeypatch, x, cert_tol):
    # {v <= 0} and {v >= u + 1} cross at 45 degrees: each cycle shrinks the
    # gap by about 1/sqrt(2) and B's residual stays about 0.7, so the run
    # stops only when a gap falls to ZERO_TOL.  Every cycle whose gap is
    # within twice ZERO_TOL is decided on arrays.
    set_a, set_b = lower_halfplane(), HalfSpace([1.0, -1.0], -1.0)
    decided = spy_decisions(monkeypatch)
    trace = assert_identical_run(set_a, set_b, [x, 0.0], cert_tol=cert_tol)
    assert trace.stop_reason is StopReason.GAP_STALLED and trace.certificate is None
    near = [j for j in range(len(trace.gaps) // 2) if trace.gaps[2 * j + 1] <= 2.0 * ZERO_TOL]
    assert near and [cycle for cycle, _ in decided] == near


def outcome(loop, *args, **kwargs):
    """``hexed`` of a run, or the type and message of what it raised."""
    try:
        return hexed(loop(*args, **kwargs))
    except (PointNotInSet, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("low, high", [(6.0, 10.0), (100.0, 150.0)])
def test_far_tilted_pairs_stop_or_raise_as_the_public_loop_does(low, high):
    # At these scales <c, x> - M rounds by more than ACTIVE_TOL, so the
    # membership tests fall on either side of it; a half-plane's float test
    # must then leave the decision, error included, to the arrays.
    rng = np.random.default_rng(31)
    compared = 0
    for i in range(150):
        t = 10.0 ** rng.uniform(low, high)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        plane = HalfSpace([np.cos(angle), np.sin(angle)], t * float(rng.normal()))
        epigraph = EpigraphSet(("abs", "square")[i % 2], t * rng.normal(size=2))
        for set_a, set_b in ((plane, epigraph), (epigraph, plane)):
            x0 = project(set_a, t * rng.normal(size=2))
            if not contains(set_a, x0, 1e-8):
                continue  # run raises StartNotInA, which plain_run does not check
            with np.errstate(over="ignore", invalid="ignore"):
                got = outcome(run, set_a, set_b, x0, max_iters=60)
                assert got == outcome(plain_run, set_a, set_b, x0, max_iters=60)
            compared += 1
    assert compared >= 200


def test_abs_projection_next_to_the_apex_normal_is_the_rounded_exact_projection():
    # Next to the normal line through the apex the two boundary rays are
    # almost equally near, within rounding of their squared distances.  The
    # point still projects onto the ray on its own side, at the exact
    # nearest point rounded entry by entry.
    rng = np.random.default_rng(18)
    vee = absval_epigraph(0.0)
    for _ in range(2000):
        z0 = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        t = abs(z0) * 10.0 ** rng.uniform(-12.0, -6.0)
        z = np.array([z0, 2.0 * t - abs(z0)])
        exact = (abs(Fraction(z[0])) + Fraction(z[1])) / 2
        want = np.array([math.copysign(float(exact), z0), float(exact)])
        assert project(vee, z).tobytes() == want.tobytes()


def test_abs_projection_is_the_exactly_nearer_boundary_ray():
    # The two candidates a comparison would weigh, the clamped points of
    # the right and the left boundary ray: the kernel returns the one that
    # is nearer in exact arithmetic, at every scale, the apex's normal cone
    # included.
    rng = np.random.default_rng(44)
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        z0, z1 = (float(v) for v in scale * rng.normal(size=2))
        if z1 >= abs(z0):
            continue  # inside the epigraph
        t = max(0.0, 0.5 * (z0 + z1))
        u = max(0.0, 0.5 * (z1 - z0))
        right, left = (t, t), (-u, u)
        got = _project_abs_base(z0, z1)
        assert got in (right, left)
        assert squared_distance(got, (z0, z1)) == min(
            squared_distance(right, (z0, z1)), squared_distance(left, (z0, z1))
        ), (z0, z1)


def axis_normal(rng, scale=1.0):
    """A normal along either axis with an entry of ``scale`` times a random
    size from 1e-3 to 1e3 and a random sign; the zero entry's sign is
    random too."""
    size = scale * 10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([-1.0, 1.0])
    zero = rng.choice([0.0, -0.0])
    return [zero, size] if rng.integers(0, 2) else [size, zero]


def test_axis_aligned_halfplane_kernel_is_the_array_projection_bit_for_bit():
    rng = np.random.default_rng(41)
    values = [0.0, -0.0, 3.7, -3.7, 1e-300, -1e-300, 1e300, -1e300, 5e-324]
    cases = [
        (c, M, (x0, x1))
        for e in (3.7, -3.7, 1.0, 2.0)
        for c in ([0.0, e], [-0.0, e], [e, 0.0], [e, -0.0])
        for M in (0.0, -0.0, 3.7, -3.7, 1e-300, 1e300)
        for x0 in values
        for x1 in values
    ]
    for _ in range(3000):
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        c = axis_normal(rng, 10.0 ** rng.uniform(-5.0, 5.0))
        cases.append((c, scale * float(rng.normal()), tuple(scale * rng.normal(size=2))))
    for c, M, (x0, x1) in cases:
        h = HalfSpace(c, M)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _project_halfspace(h, np.array([x0, x1]))
            got = np.array(_project_halfplane_xy(h, x0, x1))
        assert got.tobytes() == want.tobytes(), (c, M, x0, x1)


def test_axis_aligned_halfplanes_against_shifted_epigraphs_match_the_public_loop_bit_for_bit():
    # Normals along either axis that are not unit vectors, with the plane
    # as A and as B.
    rng = np.random.default_rng(42)
    stops = set()
    for i in range(60):
        plane = HalfSpace(axis_normal(rng), float(rng.normal()))
        epigraph = EpigraphSet((ABS, SQUARE)[i % 2], rng.normal(size=2))
        for set_a, set_b in ((plane, epigraph), (epigraph, plane)):
            x0 = project(set_a, 3.0 * rng.normal(size=2))
            stops.add(assert_identical_run(set_a, set_b, x0, max_iters=300).stop_reason)
    assert len(stops) >= 2


def test_far_axis_aligned_pairs_stop_or_raise_as_the_public_loop_does():
    rng = np.random.default_rng(43)
    compared = 0
    for i in range(150):
        t = 10.0 ** rng.uniform(100.0, 150.0)
        plane = HalfSpace(axis_normal(rng), t * float(rng.normal()))
        epigraph = EpigraphSet((ABS, SQUARE)[i % 2], t * rng.normal(size=2))
        for set_a, set_b in ((plane, epigraph), (epigraph, plane)):
            x0 = project(set_a, t * rng.normal(size=2))
            if not contains(set_a, x0, 1e-8):
                continue  # run raises StartNotInA, which plain_run does not check
            with np.errstate(over="ignore", invalid="ignore"):
                got = outcome(run, set_a, set_b, x0, max_iters=60)
                assert got == outcome(plain_run, set_a, set_b, x0, max_iters=60)
            compared += 1
    assert compared >= 200


def test_an_axis_aligned_product_that_overflows_raises_as_the_public_loop_does():
    # The B-point is the apex (0, 1e308), so the A-step's excess
    # 1e308 - (-1e308) overflows and the A-projection is not finite.  (The
    # kernels read the unit normal, so a long normal such as (0, 1e10) no
    # longer overflows a product.)
    plane, vee, x0 = HalfSpace([0.0, 1.0], -1e308), absval_epigraph(1e308), [0.0, -1e308]
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(run, plane, vee, x0)
        assert got == outcome(plain_run, plane, vee, x0)
    assert got == ("ValueError", "vector entries must be finite")
