import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from altproj import (
    HalfSpace,
    InvalidDistance,
    Polyhedron,
    StartNotInA,
    alpha_polyhedron_halfspace,
    beta_bound,
    bound_report,
    certify,
    iteration_bound,
    one_step_shift,
    polyhedron_halfspace_distance,
    verify,
)
from altproj.instances import absval_polyhedron, lower_halfplane, random_pair_instance
from altproj.linalg import Ray, distance_to_ray, norm, unit_cone_distance
from altproj.vertices import feasible_vertices

RATE_78_ALPHA = 1.0 / (2.0 * math.sqrt(2.0))


def test_alpha_absval_rows_value():
    alpha = alpha_polyhedron_halfspace(absval_polyhedron(0.0), lower_halfplane())
    assert alpha == pytest.approx(RATE_78_ALPHA, abs=1e-12)
    # rate 7/8 follows
    assert 1.0 - alpha * alpha == pytest.approx(7.0 / 8.0, abs=1e-12)


def test_alpha_antiparallel_row_excluded():
    # The only row is antiparallel to c, so no qualifying cone exists and
    # the constant caps at 1/2.
    B = Polyhedron([[0.0, -1.0]], [0.0])
    assert alpha_polyhedron_halfspace(B, lower_halfplane()) == 0.5


def test_alpha_orthogonal_row():
    B = Polyhedron([[1.0, 0.0]], [0.0])
    assert alpha_polyhedron_halfspace(B, lower_halfplane()) == 0.5


def test_alpha_range_random():
    result = verify.alpha_range(np.random.default_rng(41), 200)
    assert result.ok, result.detail


def test_alpha_uses_active_cone_combinations_in_3d():
    # Two tilted rows meet in an edge whose cone passes close to -c even
    # though each row alone stays at ~45 degrees; the constant must follow
    # the cone, not the rows.  Box rows make the polyhedron bounded.
    eps = 1e-3
    rows = [
        [1.0, eps, -1.0],
        [-1.0, eps, -1.0],
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
    b = [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    B = Polyhedron(rows, b)
    A = HalfSpace([0.0, 0.0, 1.0], -1.0)
    alpha = alpha_polyhedron_halfspace(B, A)
    # cone{rows 0,1} contains (0, eps, -1)/norm, at angle ~eps from -c
    assert alpha <= eps
    single_row_min = min(
        math.sqrt(1.0 - 1.0 / (2.0 + eps * eps)),  # tilted rows vs (0,0,-1)
        1.0,
    )
    assert alpha < 0.5 * single_row_min / 10.0


def qualifying_active_sets(B, A):
    """Qualifying rows, and each vertex's qualifying active rows."""
    c = A.c
    qualifying = [
        i for i in range(B.num_rows) if float(B.A[i] @ c) / (norm(B.A[i]) * norm(c)) > -1.0 + 1e-10
    ]
    active_sets = [
        tuple(i for i in active if i in qualifying) for _, active in feasible_vertices(B)
    ]
    return qualifying, active_sets


def unpruned_alpha(B, A):
    """Reference: the cone search over every subset of every active set.

    Returns the constant and the set of row subsets it measured.
    """
    qualifying, active_sets = qualifying_active_sets(B, A)
    neg_chat = -A.c / norm(A.c)
    best = min((distance_to_ray(B.A[i], Ray(-A.c)) for i in qualifying), default=math.inf)
    subsets = set(itertools.combinations(qualifying, 2))
    for rows in active_sets:
        for size in range(2, len(rows) + 1):
            subsets.update(itertools.combinations(rows, size))
    for subset in subsets:
        dist = unit_cone_distance(neg_chat, np.ascontiguousarray(B.A[list(subset)].T))
        if dist > 1e-9:
            best = min(best, dist)
    return 0.5 * min(1.0, best), subsets


def test_alpha_pruning_matches_the_unpruned_search(monkeypatch):
    measured = set()

    def spy(vhat, G):
        measured.add(G.tobytes())
        return unit_cone_distance(vhat, G)

    monkeypatch.setattr(certify, "unit_cone_distance", spy)
    rng = np.random.default_rng(72)
    pairs = [
        (inst.poly, inst.halfspace)
        for inst in (random_pair_instance(rng) for _ in range(60))
        if inst.poly.dim >= 3
    ]
    # Square pyramid under the half-space z >= 2: the cone of the apex's
    # four active rows contains -c = (0, 0, 1).
    pyramid = Polyhedron(
        [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]], [1, 1, 1, 1, 0]
    )
    pairs.append((pyramid, HalfSpace([0.0, 0.0, -1.0], -2.0)))
    pruned_pairs = descents = 0
    for B, A in pairs:
        measured.clear()
        expected, subsets = unpruned_alpha(B, A)
        assert alpha_polyhedron_halfspace(B, A) == expected

        def searched(subset):
            return np.ascontiguousarray(B.A[list(subset)].T).tobytes() in measured

        pruned_pairs += not all(searched(s) for s in subsets)
        neg_chat = -A.c / norm(A.c)
        for rows in qualifying_active_sets(B, A)[1]:
            full = np.ascontiguousarray(B.A[list(rows)].T)
            if len(rows) >= 3 and unit_cone_distance(neg_chat, full) <= 1e-9:
                for size in range(2, len(rows)):
                    assert all(searched(s) for s in itertools.combinations(rows, size))
                descents += 1
    assert len(pairs) > 30
    assert pruned_pairs > 0 and descents > 0


def test_iteration_bound_examples():
    rep = iteration_bound(RATE_78_ALPHA, 1.0, 2.0)
    assert rep.N == 5
    assert rep.max_steps == 11
    assert not rep.one_step
    assert rep.rate == pytest.approx(7.0 / 8.0, abs=1e-12)

    rep = iteration_bound(RATE_78_ALPHA, 1.0, 1.1)
    assert rep.one_step
    assert rep.N == 0

    rep = iteration_bound(RATE_78_ALPHA, 1.0, 1.0)
    assert rep.N == 0


def test_iteration_bound_one_step_threshold_is_strict():
    threshold = 1.0 / (7.0 / 8.0)
    assert iteration_bound(RATE_78_ALPHA, 1.0, threshold - 1e-9).one_step
    assert not iteration_bound(RATE_78_ALPHA, 1.0, threshold + 1e-9).one_step


def test_iteration_bound_rejects_impossible_geometry():
    with pytest.raises(InvalidDistance):
        iteration_bound(0.25, 1.0, 0.5)
    with pytest.raises(InvalidDistance):
        iteration_bound(0.25, 0.0, 1.0)
    with pytest.raises(ValueError):
        iteration_bound(1.5, 1.0, 2.0)


def test_iteration_bound_monotonicity():
    rng = np.random.default_rng(42)
    for _ in range(200):
        alpha = float(rng.uniform(0.05, 0.49))
        d = float(rng.uniform(0.1, 3.0))
        d0 = d + float(rng.uniform(0.0, 10.0))
        base = iteration_bound(alpha, d, d0).N
        assert iteration_bound(alpha, d, d0 + 1.0).N >= base
        if d > 0.2:
            assert iteration_bound(alpha, d - 0.1, d0).N >= base


def test_beta_bound_examples():
    assert beta_bound(RATE_78_ALPHA, 0.0, 1.0, 2.0) == 5
    # log_{0.75}(0.5/1.5) = 3.818..., floored
    assert beta_bound(0.5, 0.5, 1.0, 2.0) == 3
    assert beta_bound(0.5, 0.5, 1.0, 1.0) == 0


def test_beta_bound_zero_beta_reduces_to_iteration_bound():
    rng = np.random.default_rng(43)
    for _ in range(100):
        alpha = float(rng.uniform(0.05, 0.49))
        d = float(rng.uniform(0.1, 2.0))
        gap0 = d + float(rng.uniform(0.0, 8.0))
        assert beta_bound(alpha, 0.0, d, gap0) == iteration_bound(alpha, d, gap0).N


def test_step_bounds_stay_finite_for_tiny_alpha():
    # 1 - alpha^2 rounds to exactly 1 for alpha below about 1.05e-8, so the
    # logarithm of the rate must be taken as log1p(-alpha^2).
    report = iteration_bound(1e-9, 1.0, 2.0)
    assert report.N > 1e17
    assert report.max_steps == 2 * report.N + 1
    assert beta_bound(1e-9, 0.0, 1.0, 2.0) == report.N


@pytest.mark.parametrize("alpha", [1e-160, 1e-300])
def test_step_bounds_round_up_when_alpha_squared_underflows(alpha):
    # alpha^2 is subnormal (1e-160) or 0 (1e-300), so the float quotient
    # overflows or divides by zero; N is then floor(log 2 / alpha^2)
    # exactly, which is at least the true floor(log 2 / -log(1 - alpha^2)).
    report = iteration_bound(alpha, 1.0, 2.0)
    alpha_sq = Fraction(alpha) ** 2
    assert isinstance(report.N, int)
    assert report.N <= Fraction(math.log(2.0)) / alpha_sq < report.N + 1
    assert report.max_steps == 2 * report.N + 1
    assert beta_bound(alpha, 0.0, 1.0, 2.0) == report.N


def test_step_bounds_keep_the_float_formula_where_it_is_finite():
    # alpha^2 = 1e-300 is still normal, and so is the quotient.
    n = math.floor(math.log(0.5) / math.log1p(-1e-300))
    assert iteration_bound(1e-150, 1.0, 2.0).N == n
    assert beta_bound(1e-150, 0.0, 1.0, 2.0) == n


def test_beta_bound_validation():
    with pytest.raises(InvalidDistance):
        beta_bound(0.25, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        beta_bound(0.25, 1.0, 1.0, 2.0)


def test_one_step_shift_formula_fixture():
    # d(x0, B) = 16 for x0 = (0,-15) against the k=1 shifted set, d_AB = 1:
    # the required shift is 8 * ((7/8) * 16 - 1) = 104 plus the margin.
    A = lower_halfplane()
    B = absval_polyhedron(1.0)
    x0 = np.array([0.0, -15.0])
    mu, shifted = one_step_shift(A, B, x0, RATE_78_ALPHA, 1.0)
    assert mu > 104.0
    assert mu == pytest.approx(104.0 + 1e-6 * 105.0, rel=1e-9)
    assert shifted.M == pytest.approx(A.M - mu, rel=1e-12)  # ||c|| = 1


def test_one_step_shift_trivial_when_already_one_step():
    A = lower_halfplane()
    B = absval_polyhedron(2.0)
    x0 = np.array([0.0, 0.0])  # d(x0, B) = 2 < d_AB / (1 - alpha^2)
    mu, _ = one_step_shift(A, B, x0, RATE_78_ALPHA, 2.0)
    assert mu == pytest.approx(1e-6, rel=1e-9)


def test_one_step_shift_distance_identity_and_validity():
    # d(A - v, B) = d(A, B) + mu ||c|| for the returned shift, and running
    # from the shifted start certifies within one projection pair.
    result = verify.shift_forces_one_step(np.random.default_rng(44), 10)
    assert result.ok, result.detail


def test_one_step_shift_requires_start_in_halfspace():
    with pytest.raises(StartNotInA):
        one_step_shift(lower_halfplane(), absval_polyhedron(1.0), [0.0, 5.0], 0.25, 1.0)


@pytest.mark.parametrize("alpha", [1e-160, 1e-300])
def test_one_step_shift_rejects_a_shift_that_is_not_finite(alpha):
    # alpha^2 ||c|| overflows the quotient at 1e-160 and underflows to 0 at
    # 1e-300; neither may come back as mu = inf or a ZeroDivisionError.
    with pytest.raises(ValueError, match="not finite"):
        one_step_shift(lower_halfplane(), absval_polyhedron(1.0), [0.0, 0.0], alpha, 0.0)


def test_pair_distance_via_oracle():
    assert polyhedron_halfspace_distance(absval_polyhedron(1.0), lower_halfplane()) == pytest.approx(1.0, abs=1e-12)
    # Intersecting pair: distance zero.
    assert polyhedron_halfspace_distance(absval_polyhedron(0.0), HalfSpace([0.0, 1.0], 5.0)) == 0.0


def test_bound_report_composes_the_pieces():
    report = bound_report(absval_polyhedron(1.0), lower_halfplane(), [0.0, -1.0])
    assert report.alpha == pytest.approx(RATE_78_ALPHA, abs=1e-12)
    assert report.d_AB == pytest.approx(1.0, abs=1e-10)
    assert report.d_x0_B == pytest.approx(2.0, abs=1e-10)
    assert report.N == 5
    assert report.max_steps == 11


def test_finite_step_bound_holds_on_random_pairs():
    result = verify.finite_step_compliance(np.random.default_rng(45), 50)
    assert result.ok, result.detail
