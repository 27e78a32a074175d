"""Seeded adversarial geometry for the polyhedron projection.

The KKT conditions certify the optimum of a convex QP, so each case checks
stationarity ``x - z = A' lam``, ``lam >= 0``, primal feasibility and
complementarity instead of comparing against an oracle.  The tolerances are
those of the ``far_projection`` benchmark check up to distance 1e4; beyond
that they scale with ``||x|| / 1e4``, because the rounding in ``x - z``
grows with ``||x||``.
"""

import math

import numpy as np
import pytest

from altproj import DegenerateRow, EmptyPolyhedron, Polyhedron, linalg, project_polyhedron, qp
from altproj.instances import random_bounded_polyhedron
from altproj.qp import project_along_ray

STATIONARITY_TOL = 1e-6
DUAL_TOL = 1e-10
VIOLATION_TOL = 1e-8
COMPLEMENTARITY_TOL = 1e-6


def assert_kkt(poly, x, res):
    scale = max(1.0, float(np.linalg.norm(x)) / 1e4)
    slack = poly.A @ res.point - poly.b
    assert np.linalg.norm(x - res.point - poly.A.T @ res.dual) <= STATIONARITY_TOL * scale
    assert float(res.dual.min()) >= -DUAL_TOL
    assert float(slack.max()) <= VIOLATION_TOL * scale
    assert float(np.abs(res.dual * slack).max()) <= COMPLEMENTARITY_TOL * scale


def random_poly(rng):
    n = int(rng.integers(2, 5))
    return random_bounded_polyhedron(rng, n, int(rng.integers(0, 13 - 2 * n)))


def unit(rng, n):
    u = rng.normal(size=n)
    return u / np.linalg.norm(u)


def tilted(rng, a, angle):
    """Unit row at ``angle`` radians from the unit row ``a``."""
    w = rng.normal(size=a.shape[0])
    w -= (w @ a) * a
    w /= np.linalg.norm(w)
    return np.cos(angle) * a + np.sin(angle) * w


def test_far_points_satisfy_kkt():
    rng = np.random.default_rng(401)
    for _ in range(40):
        poly, interior = random_poly(rng)
        u = unit(rng, poly.dim)
        for r in (1e3, 1e4, 1e5):
            x = interior + r * u
            assert_kkt(poly, x, project_polyhedron(poly, x))


def nearly_parallel(rng, angle):
    """A random polyhedron cut by three rows at ``angle`` from one of its own.

    Two rows tilted from row i through one point just outside the interior
    point (a wedge with a nearly flat edge), and a nearly antiparallel row
    just inside it: a thin, slightly tilted slab.  Returns the polyhedron,
    the interior point, the point ``top`` 0.2 out from it along the unit
    row ``a``, ``a`` and the two tilted rows through ``top``.
    """
    poly, interior = random_poly(rng)
    i = int(rng.integers(0, poly.num_rows))
    a = poly.A[i] / np.linalg.norm(poly.A[i])
    top = interior + 0.2 * a
    par1, par2, anti = tilted(rng, a, angle), tilted(rng, a, angle), tilted(rng, -a, angle)
    rows = np.vstack([poly.A, par1, par2, anti])
    rhs = np.concatenate([poly.b, [par1 @ top, par2 @ top, anti @ (interior - 0.2 * a)]])
    return Polyhedron(rows, rhs), interior, top, a, par1, par2


def with_duplicates(rng):
    """A random polyhedron with repeated, scaled and implied copies of its rows.

    Returns the new polyhedron, the original one and its interior point.
    """
    poly, interior = random_poly(rng)
    A, b = poly.A, poly.b
    m = poly.num_rows
    i, j = (int(k) for k in rng.choice(m, size=2, replace=False))
    w = rng.uniform(0.1, 1.0, size=2)
    rows = np.vstack([A, A[i], 3.0 * A[i], A[j], w @ A[[i, j]]])
    rhs = np.concatenate([b, [b[i], 3.0 * b[i], b[j] + 0.5, w @ b[[i, j]]]])
    perm = rng.permutation(len(rhs))
    return Polyhedron(rows[perm], rhs[perm]), poly, interior


def test_nearly_parallel_rows():
    rng = np.random.default_rng(402)
    for angle in (1e-6, 1e-7, 1e-8, 1e-9):
        for _ in range(25):
            near, _, top, a, par1, par2 = nearly_parallel(rng, angle)
            for r in (1e-3, 1.0, 1e2, 1e4):
                x = top + r * (a + 0.3 * unit(rng, near.dim))
                assert_kkt(near, x, project_polyhedron(near, x))
                # In the normal cone of the edge: both tilted rows are tight.
                x = top + r * (rng.uniform(0.2, 1.0) * par1 + rng.uniform(0.2, 1.0) * par2)
                assert_kkt(near, x, project_polyhedron(near, x))


def test_duplicate_and_redundant_rows():
    rng = np.random.default_rng(403)
    for _ in range(60):
        dup, poly, interior = with_duplicates(rng)
        for r in (0.5, 10.0, 1e3):
            x = interior + r * unit(rng, poly.dim)
            res = project_polyhedron(dup, x)
            assert_kkt(dup, x, res)
            # The extra rows cut nothing off, so the point is the same.
            np.testing.assert_allclose(res.point, project_polyhedron(poly, x).point, atol=1e-9)


def test_degenerate_vertex_with_more_than_n_active_rows():
    rng = np.random.default_rng(404)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(n + 1, 2 * n + 4))
        apex = rng.normal(size=n)
        # Rows through the apex whose normals all lean toward +e_0, so the
        # apex is a vertex with k > n active rows of a pointed cone.
        rows = np.array([unit(rng, n) + 2.0 * np.eye(n)[0] for _ in range(k)])
        rhs = rows @ apex
        cone = Polyhedron(rows, rhs)
        mu = rng.uniform(0.0, 1.0, size=k) * (rng.uniform(size=k) < 0.6)
        mu[int(rng.integers(0, k))] += 0.1
        for r in (1.0, 1e2, 1e4):
            # In the normal cone of the apex: the apex is the projection.
            x = apex + r * rows.T @ mu
            res = project_polyhedron(cone, x)
            assert_kkt(cone, x, res)
            np.testing.assert_allclose(res.point, apex, atol=1e-9 * max(1.0, r))
            # Anywhere else.
            x = apex + r * unit(rng, n)
            assert_kkt(cone, x, project_polyhedron(cone, x))


def test_thin_slabs():
    rng = np.random.default_rng(405)
    for width in (1e-3, 1e-6, 1e-9):
        for _ in range(25):
            poly, interior = random_poly(rng)
            a = unit(rng, poly.dim)
            top = float(a @ interior)
            rows = np.vstack([poly.A, a, -a])
            rhs = np.concatenate([poly.b, [top, width - top]])
            slab = Polyhedron(rows, rhs)
            for r in (1e-2, 1.0, 1e2, 1e4):
                x = interior + r * unit(rng, poly.dim)
                res = project_polyhedron(slab, x)
                assert_kkt(slab, x, res)
                assert top - width - 1e-8 <= a @ res.point <= top + 1e-8


def test_empty_polyhedra_raise():
    rng = np.random.default_rng(406)
    for _ in range(40):
        poly, interior = random_poly(rng)
        n, m = poly.dim, poly.num_rows
        i = int(rng.integers(0, m))
        gap = float(rng.choice([1e-6, 1e-2, 1.0, 1e3]))
        # Row i and its reverse, shifted past it by ``gap``.
        rows = np.vstack([poly.A, -poly.A[i]])
        rhs = np.concatenate([poly.b, [-poly.b[i] - gap]])
        # n + 1 rows with a positive combination summing to zero.
        ring = np.array([unit(rng, n) for _ in range(n)])
        ring = np.vstack([ring, -rng.uniform(0.5, 2.0, size=n) @ ring])
        for empty in (Polyhedron(rows, rhs), Polyhedron(ring, -np.ones(n + 1))):
            for r in (0.0, 1.0, 1e3):
                with pytest.raises(EmptyPolyhedron):
                    project_polyhedron(empty, interior + r * unit(rng, n))


def long_row_box(scale):
    """The box [0, 1]^3 with its lower faces written as ``-scale x_i <= 0``."""
    return Polyhedron(np.vstack([np.eye(3), -scale * np.eye(3)]), np.r_[np.ones(3), np.zeros(3)])


def test_a_row_too_long_to_square_raises_a_typed_error():
    # ||a||^2 of a row -1e155 e_i overflows; the factor would fill with NaN
    # and the projection end in a bare ValueError from the factor updates.
    # Rows of norm 2**510 or more are refused before any update.
    for scale in (1e155, 2.0**510):
        with pytest.raises(DegenerateRow, match="too long to project on"):
            project_polyhedron(long_row_box(scale), [-1.0, -2.0, -3.0])
    res = project_polyhedron(long_row_box(2.0**509), [-1.0, -2.0, -3.0])
    np.testing.assert_array_equal(res.point, [0.0, 0.0, 0.0])


def test_agrees_with_face_walk_up_to_1e4():
    rng = np.random.default_rng(407)
    for _ in range(40):
        poly, interior = random_poly(rng)
        base = interior + rng.normal(size=poly.dim)
        direction = unit(rng, poly.dim)
        for t in (1e1, 1e2, 1e3, 1e4):
            walked = project_along_ray(poly, base, direction, t)
            direct = project_polyhedron(poly, base + t * direction)
            assert_kkt(poly, base + t * direction, direct)
            np.testing.assert_allclose(direct.point, walked.point, atol=1e-9)


def test_far_walks_on_bad_geometry_stay_feasible():
    # The walk's arithmetic stays at the scale of the polyhedron, so its
    # point must be feasible to 1e-8 however far the walked point is; only
    # stationarity carries the rounding of x itself.
    rng = np.random.default_rng(402)
    cases = [nearly_parallel(rng, angle)[:2] for angle in (1e-7, 1e-8, 1e-9) for _ in range(100)]
    rng = np.random.default_rng(403)
    cases += [with_duplicates(rng)[::2] for _ in range(100)]
    for poly, interior in cases:
        base = interior + 0.1 * rng.normal(size=poly.dim)
        direction = unit(rng, poly.dim)
        for t in (1e4, 1e6, 1e9):
            x = base + t * direction
            res = project_along_ray(poly, base, direction, t)
            assert float((poly.A @ res.point - poly.b).max()) <= VIOLATION_TOL
            assert float(res.dual.min()) >= -DUAL_TOL
            stationarity = np.linalg.norm(x - res.point - poly.A.T @ res.dual)
            assert stationarity <= 1e-5 * (1.0 + np.linalg.norm(x))
            if t <= 1e4:
                np.testing.assert_allclose(res.point, project_polyhedron(poly, x).point, atol=1e-9)


# -- the kept factor of the working rows ------------------------------------

EPS = np.finfo(float).eps
# Each Householder reflection or Givens rotation is applied with an error of
# a few ulps, so after s updates the factor is off by about s * eps: the
# loss of orthogonality and the residual of A_W' = Q_1 R add up at most
# linearly.  The probes reached 2.3 eps (1 + s) and 1.4 eps (1 + s) ||A_W||;
# a wrong update is off by O(1), and errors that compound grow faster.
FACTOR_TOL = 10.0


def watch_factor(monkeypatch):
    """Check the factor each time ``(W, Q, R)`` agree: at the start of the
    active-set solve, before each add and drop (so after the one before),
    and at its end.  Returns the working sets seen, one list per solve."""
    histories, state = [], {}

    def check():
        A, W, Q, R = state["A"], state["W"], state["Q"], state["R"]
        k, bound = len(W), FACTOR_TOL * EPS * (1 + state["updates"])
        assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[0]), 2) <= bound
        Aw = A[W].T
        scale = max(1.0, np.linalg.norm(Aw, 2))
        assert np.linalg.norm(Aw - Q[:, :k] @ R[:k, :k], 2) <= bound * scale
        assert not np.tril(R[:k, :k], -1).any()
        histories[-1].append(list(W))

    def solve(A, b, feas_tol, W, Q, R, u, z, slack):
        state.update(A=A, W=W, Q=Q, R=R, updates=0)
        histories.append([])
        check()
        steps = working_set(A, b, feas_tol, W, Q, R, u, z, slack)
        check()
        return steps

    def update(change):
        def spy(Q, R, k, *row):
            # ``row`` is ``(h, dd)`` for an add and ``(j,)`` for a drop.
            check()
            change(Q, R, k, *row)
            state["updates"] += 1

        return spy

    # The projection calls the kernel by its name in ``qp``; the kernel
    # calls the factor updates by their names in ``linalg``, where it lives.
    working_set = qp._working_set
    monkeypatch.setattr(qp, "_working_set", solve)
    monkeypatch.setattr(linalg, "_add_column", update(linalg._add_column))
    monkeypatch.setattr(linalg, "_delete_column", update(linalg._delete_column))
    return histories


def apex_cone(rng):
    """``test_degenerate_vertex_with_more_than_n_active_rows``'s cone: k > n
    rows through the apex, leaning toward +e_0.  Returns it and a point."""
    n = int(rng.integers(2, 5))
    k = int(rng.integers(n + 1, 2 * n + 4))
    apex = rng.normal(size=n)
    rows = np.array([unit(rng, n) + 2.0 * np.eye(n)[0] for _ in range(k)])
    return Polyhedron(rows, rows @ apex), apex - np.eye(n)[0]


def test_factor_stays_orthogonal_and_exact_through_adds_and_drops(monkeypatch):
    histories = watch_factor(monkeypatch)
    rng = np.random.default_rng(408)
    angles = (1e-6, 1e-7, 1e-8, 1e-9)
    cases = [nearly_parallel(rng, angle)[:2] for angle in angles for _ in range(10)]
    cases += [with_duplicates(rng)[::2] for _ in range(20)]
    cases += [apex_cone(rng) for _ in range(20)]
    for poly, inside in cases:
        for r in (1.0, 1e2, 1e4):
            for _ in range(3):
                x = inside + r * unit(rng, poly.dim)
                assert_kkt(poly, x, project_polyhedron(poly, x))
    drops = sum(len(b) < len(a) for h in histories for a, b in zip(h, h[1:]))
    adds = sum(len(b) > len(a) for h in histories for a, b in zip(h, h[1:]))
    assert drops >= 100 and adds >= 1000, (drops, adds)


def test_factor_after_a_drop_and_a_readd(monkeypatch):
    # The solve adds row 3, drops it for row 2, adds row 0, drops row 2 and
    # adds row 3 again.
    histories = watch_factor(monkeypatch)
    poly = Polyhedron(
        [[0.4, -0.4], [-0.5, -0.1], [0.3, 0.5], [-0.2, 1.5], [0.6, -0.6]],
        [0.1, 0.6, 0.4, 0.4, 1.3],
    )
    x = np.array([6.0, 5.0])
    assert_kkt(poly, x, project_polyhedron(poly, x))
    assert histories == [[[], [], [3], [], [2], [2, 0], [0], [0, 3]]]


def test_walks_from_degenerate_apexes_stay_on_the_factor(monkeypatch):
    # Walks from the apex of a cone with k > n rows through it, along random
    # directions and along rows, so that the walk adds and drops rows at a
    # degenerate vertex.  The walk must reach t without hitting its cap and
    # without projecting any point but the base.
    projected = []
    direct = qp.project_polyhedron

    def spy(p, x):
        projected.append(np.array(x, dtype=float))
        return direct(p, x)

    monkeypatch.setattr(qp, "project_polyhedron", spy)
    rng = np.random.default_rng(405)
    for _ in range(25):
        cone, inside = apex_cone(rng)
        n, A, b = cone.dim, cone.A, cone.b
        apex = inside + np.eye(n)[0]
        directions = [unit(rng, n) for _ in range(3)]
        directions += [A[0] / np.linalg.norm(A[0]), -A[-1] / np.linalg.norm(A[-1])]
        bases = (apex, apex + 1e-3 * rng.normal(size=n))
        for base in bases:
            for direction in directions:
                for t in (1e2, 1e6, 1e9):
                    projected.clear()
                    res = project_along_ray(cone, base, direction, t)
                    assert all(np.array_equal(x, base) for x in projected)
                    scale = 1.0 + float(np.abs(b).max()) + np.linalg.norm(res.point)
                    assert float((A @ res.point - b).max()) <= 1e-13 * scale
                    assert float(res.dual.min()) >= -DUAL_TOL
                    if t == 1e2:
                        x = base + t * direction
                        np.testing.assert_allclose(res.point, direct(cone, x).point, atol=1e-9)


class _FirstUpdate(Exception):
    """Raised by a spied factor update to stop the kernel after one step."""


def reference_spanned_tol(A_W, norm_a, r):
    # The span tolerance as first written: the working rows' entries in
    # absolute value against the rates', ``_DEP_TOL (||a|| + || |A_W|' |r| ||)``.
    return linalg._DEP_TOL * (norm_a + linalg._norm(np.abs(A_W).T.dot(np.abs(r))))


def nearly_dependent_rows(rng):
    """``(A_W, a)``: independent working rows and a row spanned by them or
    nearly.

    The rows have norms 1e-3..1e3.  ``a`` is a working row, its negation, or
    a combination of all the working rows with coefficients of one sign,
    each perturbed by 0 or 1e-16..1e-12 of its norm in a random direction.
    """
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, n + 1))
    A_W = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))
    kind = rng.integers(0, 3)
    if kind < 2:
        coef = np.zeros(k)
        coef[rng.integers(0, k)] = 1.0 if kind == 0 else -1.0
    else:
        coef = rng.uniform(0.1, 2.0, size=k) * rng.choice([-1.0, 1.0])
    a = coef.dot(A_W)
    eps = float(rng.choice([0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12]))
    return A_W, a + eps * np.linalg.norm(a) * unit(rng, n)


def test_span_decision_on_nearly_dependent_rows_matches_the_reference_formula(monkeypatch):
    # The kernel's tolerance sums |r_i| ||a_{W_i}||: by the triangle
    # inequality at least the reference's || |A_W|' |r| || and at most
    # sqrt(k) times it.  On exact copies of working rows and on perturbed
    # combinations of them the two decide "spanned" alike, except for a
    # part left over that falls between the two tolerances, where the
    # kernel calls the row spanned and the reference does not; such rows
    # are rare (1 of these 3,000) and rounding decides them either way.
    # The kernel starts on the working rows' face with the violated row
    # selected first and stops at its first factor update: where no
    # multiplier can fall, a spanned row proves the polyhedron empty and
    # any other row is added, so its outcome shows the decision it took.
    def stop(kind):
        def spy(*args):
            raise _FirstUpdate(kind)

        return spy

    monkeypatch.setattr(linalg, "_add_column", stop("add"))
    monkeypatch.setattr(linalg, "_delete_column", stop("drop"))
    rng = np.random.default_rng(410)
    decided = {True: 0, False: 0}
    between = 0
    for _ in range(3000):
        A_W, a = nearly_dependent_rows(rng)
        k, n = A_W.shape
        Q, R = np.eye(n), np.zeros((n, n))
        for i, row in enumerate(A_W):
            h = row.dot(Q)
            qp._add_column(Q, R, i, h, float(h[i:].dot(h[i:])))
        h = a.dot(Q)
        norm_a = math.hypot(*a.tolist())
        r = linalg._substitute(R[:k, :k], h[:k])
        norms = [math.hypot(*row.tolist()) for row in A_W]
        reach = math.sqrt(float(h[k:].dot(h[k:])))
        tol = linalg._DEP_TOL * (norm_a + sum(abs(r_i) * n_i for r_i, n_i in zip(r, norms)))
        reference = reference_spanned_tol(A_W, norm_a, r)
        assert reference * (1.0 - 1e-12) <= tol <= math.sqrt(k) * reference * (1.0 + 1e-12)
        spanned = reach <= tol
        if spanned != (reach <= reference):
            assert spanned
            between += 1
        decided[spanned] += 1

        z = rng.normal(size=n)
        A = np.vstack([A_W, a])
        b = np.r_[A_W.dot(z), a.dot(z) - 1.0]
        u = rng.uniform(0.5, 2.0, size=k).tolist()
        feas_tol = linalg._feas_tol(1.0 + float(np.abs(b).max()), linalg._norm(z))
        try:
            linalg._working_set(A, b, feas_tol, list(range(k)), Q, R, u, z, A.dot(z) - b)
        except EmptyPolyhedron:
            outcome = "empty"
        except _FirstUpdate as first:
            outcome = first.args[0]
        if all(r_i <= 0.0 for r_i in r):
            assert outcome == ("empty" if spanned else "add"), (A_W, a)
        else:
            assert outcome != "empty"
    assert min(decided.values()) >= 250 and between <= 3, (decided, between)


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_span_tolerance_reads_the_norm_a_row_entered_with(scale):
    # From (1, 0) the projection adds the row (s, 0) first, then meets
    # (-s, s eps), whose part the first row cannot cancel is s eps, while
    # no multiplier can fall.  The tolerance is 1e-13 (||a|| + |r| s) with
    # r = -1 and s the norm kept when the first row entered: about 2e-13 s.
    # So eps = 1.5e-13 counts as spanned and the projection raises
    # EmptyPolyhedron, though the polyhedron holds (0, -1 / eps), 6.7e12
    # away: the tolerance does not resolve a row this close to antiparallel.
    # eps = 3e-13 is not spanned; a norm of 1 kept for the first row would
    # call neither spanned at s = 1e3, and both at s = 1e-3.  Past the
    # tolerance the answer is the far corner (0, -1 / eps) of both rows.
    x = np.array([1.0, 0.0])
    for eps, empty in ((1.5e-13, True), (3e-13, False)):
        poly = Polyhedron([[scale, 0.0], [-scale, scale * eps]], [0.0, -scale])
        if empty:
            with pytest.raises(EmptyPolyhedron):
                project_polyhedron(poly, x)
        else:
            res = project_polyhedron(poly, x)
            np.testing.assert_allclose(res.point, [0.0, -1.0 / eps], rtol=1e-9, atol=1e-9)
            assert res.iterations == 2 and (res.dual > 0.0).all()
