"""Each engine cycle is decided on B's residual; the certificate is built once.

``engine.run`` decides a cycle with ``engine._certified``: the membership,
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
from altproj import HalfSpace, PointNotInSet, Polyhedron, StopReason, linalg, run, solve_lp
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
    # square_k0_x1 never certifies, so the float screen finds B's residual
    # above the tolerance on every cycle, and A's is measured only by the
    # one certificate of the last pair.
    set_a, set_b = lower_halfplane(), parabola_epigraph(0.0)
    events = []
    inside = []
    certificate, cone_distance = engine._certificate, engine.unit_cone_distance
    screened_residual = engine._screened_residual

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

    def screened_residual_spy(*args):
        res = screened_residual(*args)
        events.append(("B", res <= 1e-8))
        return res

    monkeypatch.setattr(engine, "_certificate", certificate_spy)
    monkeypatch.setattr(engine, "unit_cone_distance", cone_distance_spy)
    monkeypatch.setattr(engine, "_screened_residual", screened_residual_spy)
    trace = run(set_a, set_b, [1.0, 0.0], max_iters=cap)
    assert trace.stop_reason is StopReason.MAX_ITERS and len(trace.gaps) == 2 * cap
    assert events == [("B", False)] * cap + ["certificate"]
    assert not trace.certificate.holds


def test_a_point_outside_its_set_raises_as_the_public_check_does():
    # At scale 1e10 the B-projection's rounding, about eps times the scale
    # of the point, exceeds the absolute membership tolerance; the cycle
    # names the second point, as check_certificate does.
    t = 1e10
    set_a = HalfSpace([0, 1], -t)
    set_b = Polyhedron([[0.01, -1], [-1, 0]], [0, 0])
    with pytest.raises(PointNotInSet, match="^second point is not in the second set$"):
        run(set_a, set_b, [20 * t, -t], max_iters=5000)


# -- B's residual read from the face factor ----------------------------------
#
# On a half-space/polyhedron run ``engine._certified`` receives the final
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
    certified, face_residual = engine._certified, engine._face_residual

    def certified_spy(set_a, set_b, a, b, d, gap, tol, face=None):
        cert = certified(set_a, set_b, a, b, d, gap, tol, face)
        if face is not None:
            ref = certified(set_a, set_b, a, b, d, gap, tol)
            assert (cert is None) == (ref is None)
            if cert is not None:
                assert cert.residual_A == ref.residual_A
                compared.append((True, cert.residual_B, ref.residual_B))
            else:
                compared.append((False, None, None))
        return cert

    def face_residual_spy(face, tight, w, tol):
        value = face_residual(face, tight, w, tol)
        reads.append((value, len(face.W), int(np.count_nonzero(tight))))
        return value

    monkeypatch.setattr(engine, "_certified", certified_spy)
    monkeypatch.setattr(engine, "_face_residual", face_residual_spy)
    return compared, reads


@pytest.fixture(scope="module")
def pool_seed_1():
    rng = np.random.default_rng(1)
    return [random_lp_instance(rng)[0] for _ in range(300)]


def test_factor_decisions_match_the_cone_solve_on_a_pool(monkeypatch, pool_seed_1):
    # Every cycle of the 300 direct solves of pool seed 1, decided on the
    # factor or not, gets the cone solve's decision; a certified residual
    # read from the factor lies within 1e-14 of the solve's (3.2e-15 at
    # most on the pools of seeds 1, 7 and 11).
    compared, reads = decision_spies(monkeypatch)
    for problem in pool_seed_1:
        solve_lp(problem, strategy="direct")
    decided = [value for value, _, _ in reads if value is not None]
    assert len(compared) > 1000 and len(decided) > 0.95 * len(compared)
    assert sum(cert for cert, _, _ in compared) == 300
    assert all(abs(res - ref) <= 1e-14 for cert, res, ref in compared if cert)


def test_pool_decisions_make_few_cone_solves(monkeypatch, pool_seed_1):
    # Work gate: the factor decides all but 13 of the cycles of pool seed 1;
    # deciding every cycle with the cone solve took 1,009 NNLS calls.
    calls, inside = [], []
    nnls, decide = linalg.nnls, engine._decide

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

    monkeypatch.setattr(linalg, "nnls", nnls_spy)
    monkeypatch.setattr(engine, "_decide", decide_spy)
    for problem in pool_seed_1:
        solve_lp(problem, strategy="direct")
    assert len(calls) == 13


def test_a_repeated_face_row_falls_back_to_the_cone_solve(monkeypatch):
    # The copy of the wedge's face row is tight wherever the row is, but the
    # projection keeps one of the two in its working set, so the tight rows
    # outnumber the working rows on every cycle and the factor decides none.
    compared, reads = decision_spies(monkeypatch)
    trace = run(BELOW, wedge(0.01, [0.01, -1.0]), [5.0, -1.0], max_iters=5000)
    assert trace.stop_reason is StopReason.CERTIFIED
    assert len(reads) == len(compared) == len(trace.gaps) // 2
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
