"""The shifted LP solve certifies its optimum on the walk's final face.

``qp._walk_to_optimum`` returns the face its walk ends on, where ``-c``
lies in the cone of the working rows, and ``solve_lp(strategy="shifted")``
hands it to ``engine._certificate``: B's residual is read from that face's
factor wherever it decides, as a direct run's cycle decision reads it, and
measured by the cone solve otherwise.  The certificate must agree with
``check_certificate`` on the same pair: ``holds`` and ``residual_A`` bit for
bit.  ``residual_B`` is the cone solve's bit for bit where the solve fell
back to it, and otherwise within ``RESIDUAL_B_TOL`` of the exact distance
from ``w`` to the cone of B's tight rows.
"""

import decimal
import itertools

import numpy as np
import pytest

from altproj import HalfSpace, check_certificate, engine, instances, linalg, lp, qp
from altproj.errors import Unbounded
from altproj.sets import ACTIVE_TOL
from exact import cone_family_distance
from test_certify import SQUARE_PYRAMID, bad_geometry_pairs

# The face read and the cone solve are two roundings of one distance, and
# the cone solve is the less accurate one: on the pairs below it is up to
# 2.6e-15 from the exact distance (pool seed 3), the face read at most
# 8.4e-16.  So the face read is held to 1e-15 of the exact distance, not of
# the cone solve's value.
RESIDUAL_B_TOL = 1e-15


def pool_pairs(seed, count=200):
    """The ``(halfspace, polyhedron, x0)`` pairs of the ``constants`` benchmark pool at ``seed``."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        inst = instances.random_pair_instance(rng)
        pairs.append((inst.halfspace, inst.poly, inst.x0))
    return pairs


def bad_geometry_starts():
    """``bad_geometry_pairs`` with a bounded objective as ``(halfspace, polyhedron, None)``,
    the solve's default start, with ``M = -10`` lowered to one below the
    optimum where it is not strictly below it."""
    pairs = []
    for B, A in bad_geometry_pairs():
        try:
            end = qp._walk_to_optimum(B, np.zeros(B.dim), A.c)[1]
        except Unbounded:
            continue
        pairs.append((HalfSpace(A.c, min(A.M, float(A.c.dot(end.point)) - 1.0)), B, None))
    assert len(pairs) >= 40
    return pairs


def shifted(hs, poly, x0):
    return lp.solve_lp(lp.LPProblem(hs.c, poly, hs.M), x0=x0, strategy="shifted")


def spy_cone_solves(monkeypatch):
    """Count ``linalg.nnls`` calls, which every cone solve of two or more generators makes."""
    calls = []
    nnls = linalg.nnls

    def spy(*args, **kwargs):
        calls.append(args[0].shape[1])
        return nnls(*args, **kwargs)

    monkeypatch.setattr(linalg, "nnls", spy)
    return calls


@pytest.mark.parametrize("seed", [1, 11])
def test_shifted_solves_of_the_pool_make_no_cone_solve(seed, monkeypatch):
    # B's residual comes off the walk's final face on every pair, and A's,
    # a half-space's, is one ray rejection: no NNLS call at all.
    pairs = pool_pairs(seed)
    calls = spy_cone_solves(monkeypatch)
    for hs, poly, x0 in pairs:
        assert shifted(hs, poly, x0).certificate.holds
    assert calls == []


def exact_residual_b(hs, poly, a, b):
    """The distance from ``w = (a - b)/||a - b||`` to the cone of B's tight rows
    at ``b``, for the float ``w`` the certificate forms, rounded once."""
    d = a - b
    _, tight, w = engine._cone_prelude(hs, poly, a, b, d, linalg._norm(d), 1e-8)
    rows = poly.A[tight]
    family = [s for k in range(1, len(rows) + 1) for s in itertools.combinations(range(len(rows)), k)]
    q = cone_family_distance(w, rows, family)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float((decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)).sqrt())


@pytest.mark.parametrize("seed", [1, 3, 7, 11, "bad_geometry"])
def test_shifted_certificate_agrees_with_check_certificate(seed, monkeypatch):
    pairs = bad_geometry_starts() if seed == "bad_geometry" else pool_pairs(seed)
    calls = spy_cone_solves(monkeypatch)
    for hs, poly, x0 in pairs:
        before = len(calls)
        cert = shifted(hs, poly, x0).certificate
        fell_back = len(calls) > before
        ref = check_certificate(hs, poly, cert.a, cert.b, 1e-8)
        assert cert.holds == ref.holds
        assert cert.residual_A.hex() == ref.residual_A.hex()
        if fell_back:
            assert cert.residual_B.hex() == ref.residual_B.hex()
        else:
            assert abs(cert.residual_B - exact_residual_b(hs, poly, cert.a, cert.b)) <= RESIDUAL_B_TOL


def test_the_pyramid_apex_falls_back_to_the_cone_solve(monkeypatch):
    # Four rows are tight at the apex (0, 0, 1) in R^3 and at most three can
    # work, so the factor cannot decide: the cone solve measures B's
    # residual, exactly as check_certificate does.
    hs = HalfSpace([0.0, 0.0, -1.0], -2.0)
    calls = spy_cone_solves(monkeypatch)
    out = shifted(hs, SQUARE_PYRAMID, None)
    assert np.abs(out.solution - [0.0, 0.0, 1.0]).max() <= 1e-15
    assert calls == [4]
    cert = out.certificate
    ref = check_certificate(hs, SQUARE_PYRAMID, cert.a, cert.b, 1e-8)
    assert cert.holds and ref.holds
    assert (cert.residual_A.hex(), cert.residual_B.hex()) == (ref.residual_A.hex(), ref.residual_B.hex())


@pytest.mark.parametrize("seed", [1, 11])
def test_the_walk_returns_the_factor_of_its_final_face(seed):
    # The returned face factors the working rows it ends on, A_W' = Q_1 R,
    # and B's tight rows at the optimum are those rows on every pool pair.
    for hs, poly, x0 in pool_pairs(seed):
        _, end, factor = qp._walk_to_optimum(poly, x0, hs.c)
        face = qp._face_of(poly.A, poly.b, *factor)
        assert np.abs(face.A_W.T - face.Q1.dot(face.R)).max() <= 1e-14
        assert face.A_W.tobytes() == poly.A[face.W].tobytes()
        tight = np.abs(poly.A.dot(end.point) - poly.b) <= ACTIVE_TOL
        assert engine._on_working_rows(tight, face.W)
