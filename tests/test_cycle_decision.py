"""Each engine cycle is decided on B's residual; the certificate is built once.

``engine.run`` decides a cycle with ``engine._decide``: the membership,
normal-cone and direction checks of ``check_certificate`` in its order,
then B's residual, and A's only when B's is within the tolerance.  On a
half-space/polyhedron run B's residual is read from the B-projection's face
factor where that decides the cycle (the tests at the end).  A run
that stops on ``GAP_STALLED`` or ``MAX_ITERS`` builds its certificate once,
with ``engine._certificate``, on the last pair.  ``plain_run`` (from
``test_face_cycles``) calls the public ``check_certificate`` after every
cycle; the two must report the same certificate bit for bit.
"""

import numpy as np
import pytest

import altproj.engine as engine
from altproj import HalfSpace, PointNotInSet, Polyhedron, StopReason, check_certificate, linalg, run, solve_lp
from altproj.instances import (
    absval_epigraph,
    lower_halfplane,
    parabola_epigraph,
    random_lp_instance,
    random_set,
    sample_member,
)
from test_face_cycles import BELOW, plain_run, wedge

PLANAR_KS = (0.0, 0.5, 1.0, 2.0)
PLANAR_X0 = (1.0, 3.0, 10.0, 100.0)


def reported(trace):
    """Stop, steps and certificate of a run, every float as ``float.hex``."""
    cert = trace.certificate
    if cert is not None:
        cert = (
            float(cert.residual_A).hex(),
            float(cert.residual_B).hex(),
            cert.holds,
            [v.hex() for v in cert.a.tolist()],
            [v.hex() for v in cert.b.tolist()],
        )
    return trace.stop_reason, trace.steps_to_converge, len(trace.gaps), cert


@pytest.mark.parametrize("x", PLANAR_X0)
@pytest.mark.parametrize("k", PLANAR_KS)
@pytest.mark.parametrize("make", [absval_epigraph, parabola_epigraph], ids=["abs", "square"])
def test_planar_certificates_match_the_public_check(make, k, x):
    set_a, set_b = lower_halfplane(), make(k)
    assert reported(run(set_a, set_b, [x, 0.0])) == reported(plain_run(set_a, set_b, [x, 0.0]))


def test_random_set_certificates_match_the_public_check():
    # Every stop reason occurs; a half-space A with a polyhedron B is left
    # out because it walks faces in closed form, whose iterates differ
    # from the projected ones in the last bits.
    rng = np.random.default_rng(23)
    stops = set()
    checked = 0
    while checked < 60:
        set_a, set_b = random_set(rng), random_set(rng)
        if set_a.dim != set_b.dim or (isinstance(set_a, HalfSpace) and isinstance(set_b, Polyhedron)):
            continue
        x0 = sample_member(rng, set_a)
        trace = run(set_a, set_b, x0, max_iters=60)
        assert reported(trace) == reported(plain_run(set_a, set_b, x0, max_iters=60))
        stops.add(trace.stop_reason)
        checked += 1
    assert stops == set(StopReason)


@pytest.mark.parametrize("cap", [10, 1000])
def test_a_capped_run_builds_one_certificate_and_skips_a_residual(monkeypatch, cap):
    # square_k0_x1 never certifies: B's residual is above the tolerance on
    # every cycle, so the float screen clears each one, no cycle reaches
    # the array decision or a cone solve, and A's residual is measured only
    # by the one certificate of the last pair.
    set_a, set_b = lower_halfplane(), parabola_epigraph(0.0)
    events = []
    inside = []
    certificate, cone_distance, decide = engine._certificate, engine.unit_cone_distance, engine._decide

    def certificate_spy(*args):
        events.append("certificate")
        inside.append(True)
        try:
            return certificate(*args)
        finally:
            inside.pop()

    def cone_distance_spy(vhat, G):
        res = cone_distance(vhat, G)
        side = "A" if G.shape[1] == 1 and np.array_equal(G[:, 0], set_a.c) else "B"
        if not inside:
            events.append((side, res <= 1e-8))
        return res

    def decide_spy(*args):
        events.append("decide")
        return decide(*args)

    monkeypatch.setattr(engine, "_certificate", certificate_spy)
    monkeypatch.setattr(engine, "unit_cone_distance", cone_distance_spy)
    monkeypatch.setattr(engine, "_decide", decide_spy)
    trace = run(set_a, set_b, [1.0, 0.0], max_iters=cap)
    assert trace.stop_reason is StopReason.MAX_ITERS and len(trace.gaps) == 2 * cap
    assert events == ["certificate"]
    assert not trace.certificate.holds
    monkeypatch.undo()
    points = trace.points
    for j in range(cap):
        b, a = points[2 * j + 1], points[2 * j + 2]
        assert check_certificate(set_a, set_b, a, b).residual_B > 1e-8, j


def test_a_point_outside_its_set_raises_as_the_public_check_does():
    # A B-point 1 outside B, and an A-point 1 outside A: a distance that no
    # rounding explains, so the point is outside at every scale B's rows are
    # written at.  The cycle decision names the point as check_certificate
    # does.
    set_a = HalfSpace([0, 1], -1)
    for scale in (1e-3, 1.0, 1e3):
        set_b = Polyhedron(scale * np.array([[0.01, -1.0], [-1.0, 0.0]]), [0.0, 0.0])
        for a, b, which in (([0.0, -2.0], [-1.0, 0.0], "second"), ([0.0, 0.0], [1.0, 1.0], "first")):
            a, b = np.array(a), np.array(b)
            d = a - b
            gap = linalg._norm(d)
            message = f"^{which} point is not in the {which} set$"
            with pytest.raises(PointNotInSet, match=message):
                check_certificate(set_a, set_b, a, b)
            with pytest.raises(PointNotInSet, match=message):
                engine._decide(set_a, set_b, a, b, d, gap + 1.0, gap, 1e-8)


# -- B's residual read from the face factor ----------------------------------
#
# On a half-space/polyhedron run ``engine._decide`` receives the final
# face of the cycle's B-projection and reads B's residual from its factor
# (``engine._face_residual``) when the rows tight at the B-point are exactly
# the working rows; every other cycle measures it with the cone solve.  The
# decision without a face is the cone solve's, so the spies below decide
# each cycle both ways and compare.


def decision_spies(monkeypatch):
    """Decide every cycle with and without the face; log the factor's reads.

    Returns ``(compared, reads)``: one ``(certified, residual_B, reference
    residual_B)`` per decision with a face, and one ``(value, working rows,
    tight rows)`` per read of the factor.
    """
    compared, reads = [], []
    decide, face_residual = engine._decide, engine._face_residual

    def certificate(stop):
        # The certificate of a certified stop, None for every other decision.
        return stop[1] if stop is not None and stop[0] is StopReason.CERTIFIED else None

    def decide_spy(set_a, set_b, a, b, d, gap_b, gap_a, tol, face=None):
        stop = decide(set_a, set_b, a, b, d, gap_b, gap_a, tol, face)
        if face is not None:
            cert = certificate(stop)
            ref = certificate(decide(set_a, set_b, a, b, d, gap_b, gap_a, tol))
            assert (cert is None) == (ref is None)
            if cert is not None:
                assert cert.residual_A == ref.residual_A
                compared.append((True, cert.residual_B, ref.residual_B))
            else:
                compared.append((False, None, None))
        return stop

    def face_residual_spy(face, tight, w, tol):
        value = face_residual(face, tight, w, tol)
        reads.append((value, len(face.W), int(np.count_nonzero(tight))))
        return value

    monkeypatch.setattr(engine, "_decide", decide_spy)
    monkeypatch.setattr(engine, "_face_residual", face_residual_spy)
    return compared, reads


@pytest.fixture(scope="module")
def pool_seed_1():
    rng = np.random.default_rng(1)
    return [random_lp_instance(rng)[0] for _ in range(300)]


def test_factor_decisions_match_the_cone_solve_on_a_pool(monkeypatch, pool_seed_1):
    # Every real cycle of the 600 direct solves of pool seeds 1 and 7,
    # decided on the factor or not, gets the cone solve's decision; a
    # certified residual read from the factor lies within 1e-14 of the
    # solve's (3.2e-15 at most on the pools of seeds 1, 7 and 11).  A face
    # visit costs one real cycle, so pool seed 1 alone has 641 of them.
    rng = np.random.default_rng(7)
    pool = pool_seed_1 + [random_lp_instance(rng)[0] for _ in range(300)]
    compared, reads = decision_spies(monkeypatch)
    for problem in pool:
        solve_lp(problem, strategy="direct")
    decided = [value for value, _, _ in reads if value is not None]
    assert len(compared) > 1000 and len(decided) > 0.95 * len(compared)
    assert sum(cert for cert, _, _ in compared) == 600
    assert all(abs(res - ref) <= 1e-14 for cert, res, ref in compared if cert)


def decision_nnls_calls(monkeypatch):
    """The NNLS solves made inside ``engine._decide``, as their shapes: calls
    of ``linalg._nnls``, the kernel that every cone solve of two or more
    generators runs."""
    calls, inside = [], []
    nnls, decide = linalg._nnls, engine._decide

    def nnls_spy(G, y):
        if inside:
            calls.append(G.shape)
        return nnls(G, y)

    def decide_spy(*args):
        inside.append(True)
        try:
            return decide(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "_nnls", nnls_spy)
    monkeypatch.setattr(engine, "_decide", decide_spy)
    return calls


def test_pool_decisions_make_few_cone_solves(monkeypatch, pool_seed_1):
    # Work gate: the factor decides all but 13 of the cycles of pool seed 1;
    # deciding every real cycle with the cone solve takes 552 NNLS calls.
    calls = decision_nnls_calls(monkeypatch)
    for problem in pool_seed_1:
        solve_lp(problem, strategy="direct")
    assert len(calls) == 13


def test_direct_pool_work_per_pass(monkeypatch, pool_seed_1):
    # Work gate of one pass of the ``lp_direct`` benchmark at pool seed 1.
    # A face visit costs one real cycle, its entry: the jump is tried on
    # every entry that does not stop the run and refused there when a
    # closed-form multiplier rate is not positive, and a stretch bounded by
    # a row runs to that row, so no B-projection lands on the face of the
    # cycle before.  With the jump tried on the second cycle on a face and
    # every stretch stopped two cycles short of its event, the pass made
    # 1,204 B-projections, 563 of them accepted on the face before (warm
    # hits), and 229 attempts with 132 jumps for 73,476 generated cycles;
    # the steps, decisions and step counts were as below.
    work = dict(projections=0, warm=0, attempts=0, jumps=0)
    project_from, face_jump = engine._project_from, engine._face_jump

    def project_spy(poly, x, face):
        res, final = project_from(poly, x, face)
        work["projections"] += 1
        # A warm hit: a continuation from the face before that takes no step.
        work["warm"] += face is not None and final is not None and res.iterations == 0
        return res, final

    def jump_spy(*args):
        jump = face_jump(*args)
        work["attempts"] += 1
        work["jumps"] += jump is not None
        return jump

    monkeypatch.setattr(engine, "_project_from", project_spy)
    monkeypatch.setattr(engine, "_face_jump", jump_spy)
    calls = decision_nnls_calls(monkeypatch)
    traces = [solve_lp(problem, strategy="direct").trace for problem in pool_seed_1]
    work["generated"] = sum(trace.generated_cycles for trace in traces)
    work["active_set_steps"] = sum(trace.active_set_steps for trace in traces)
    work["nnls"] = len(calls)
    work["steps"] = sum(trace.steps_to_converge for trace in traces)
    assert work == dict(
        projections=641,
        warm=0,
        attempts=341,
        jumps=229,
        generated=74039,
        active_set_steps=989,
        nnls=13,
        steps=149060,
    )


def test_a_repeated_face_row_falls_back_to_the_cone_solve(monkeypatch):
    # The copy of the wedge's face row is tight wherever the row is, but the
    # projection keeps one of the two in its working set, so the tight rows
    # outnumber the working rows on every real cycle and the factor decides
    # none.  Most cycles on the face are generated and decide nothing.
    compared, reads = decision_spies(monkeypatch)
    trace = run(BELOW, wedge(0.01, [0.01, -1.0]), [5.0, -1.0], max_iters=5000)
    assert trace.stop_reason is StopReason.CERTIFIED
    assert trace.generated_cycles > 0
    assert len(reads) == len(compared) == len(trace.gaps) // 2 - trace.generated_cycles
    assert all(value is None and tight == working + 1 for value, working, tight in reads)
    assert all(res == ref for cert, res, ref in compared if cert)


def test_a_vertex_outside_the_cone_falls_back_to_the_cone_solve(monkeypatch):
    # The first B-point is the corner (1, 0) of the unit box, with both rows
    # tight and working.  Their span is the plane, so the span residual is
    # 0, but -c = -(1, 2) needs a negative multiplier on x <= 1: the factor
    # cannot decide, and the cone solve finds the corner not optimal.
    box = Polyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 0.0, 0.0])
    compared, reads = decision_spies(monkeypatch)
    trace = run(HalfSpace([1.0, 2.0], -1.0), box, [10.0, -10.0])
    np.testing.assert_array_equal(trace.points[1], [1.0, 0.0])
    assert reads[0] == (None, 2, 2) and compared[0] == (False, None, None)
    assert any(value is not None for value, _, _ in reads[1:])
    assert trace.stop_reason is StopReason.CERTIFIED
    np.testing.assert_allclose(trace.final_pair()[1], [0.0, 0.0], atol=1e-12)
