"""Each engine cycle is decided on B's residual; the certificate is built once.

``engine.run`` decides a cycle with ``engine._certified``: the membership,
normal-cone and direction checks of ``check_certificate`` in its order,
then B's residual, and A's only when B's is within the tolerance.  A run
that stops on ``GAP_STALLED`` or ``MAX_ITERS`` builds its certificate once,
with ``engine._certificate``, on the last pair.  ``plain_run`` (from
``test_face_cycles``) calls the public ``check_certificate`` after every
cycle; the two must report the same certificate bit for bit.
"""

import numpy as np
import pytest

import altproj.engine as engine
from altproj import HalfSpace, PointNotInSet, Polyhedron, StopReason, run
from altproj.instances import (
    absval_epigraph,
    lower_halfplane,
    parabola_epigraph,
    random_set,
    sample_member,
)
from test_face_cycles import plain_run

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
