import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.linalg import norm

from altproj import (
    DimensionMismatch,
    HalfSpace,
    InvalidDistance,
    LPProblem,
    NotPolyhedralPair,
    Polyhedron,
    StartNotInA,
    TooLarge,
    alpha_polyhedron_halfspace,
    bound_report,
    certify,
    iteration_bound,
    one_step_shift,
    polyhedron_halfspace_distance,
    solve_lp,
    translate,
    verify,
)
from altproj.instances import (
    absval_polyhedron,
    lower_halfplane,
    parabola_epigraph,
    random_pair_instance,
)
from altproj.linalg import unit_cone_distance, unit_distance_to_ray
from altproj.vertices import feasible_vertices
from exact import cone_family_distance, sqrt_relative_error
from test_qp_adversarial import nearly_parallel, random_poly, unit, with_duplicates

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
    best = min(
        (unit_distance_to_ray(B.A[i] / norm(B.A[i]), -A.c) for i in qualifying), default=math.inf
    )
    subsets = set(itertools.combinations(qualifying, 2))
    for rows in active_sets:
        for size in range(2, len(rows) + 1):
            subsets.update(itertools.combinations(rows, size))
    for subset in subsets:
        dist = unit_cone_distance(neg_chat, np.ascontiguousarray(B.A[list(subset)].T))
        if dist > 1e-9:
            best = min(best, dist)
    return 0.5 * min(1.0, best), subsets


def exact_alpha_error(B, A, alpha):
    """Relative distance of ``alpha`` from the exact constant over the same family:
    the qualifying rows, their pairs and the subsets of n rows or fewer of each
    vertex's qualifying active rows (more rows are dependent)."""
    qualifying, active_sets = qualifying_active_sets(B, A)
    family = {(i,) for i in qualifying} | set(itertools.combinations(qualifying, 2))
    for rows in active_sets:
        for size in range(3, min(len(rows), B.dim) + 1):
            family.update(itertools.combinations(rows, size))
    exact = cone_family_distance(-A.c / norm(A.c), B.A, family, floor=1e-9)
    return sqrt_relative_error(2.0 * alpha, exact)


# The worst relative distance of the search that alpha replaced (an NNLS
# solve per screened cone, bit-identical to unpruned_alpha) from the exact
# constant, rounded up: on rng72_pool_pairs (1.3273e-14), on
# bad_geometry_pairs (7.9522e-13) and on them under c = -a_0 (2.7136e-12).
POOL_EXACT_BOUND = 1.33e-14
BAD_GEOMETRY_EXACT_BOUND = 7.96e-13
FLIPPED_EXACT_BOUND = 2.72e-12


def assert_near_exact(B, A, bound):
    """alpha is within ``bound`` of the exact constant and of the unpruned search."""
    alpha = alpha_polyhedron_halfspace(B, A)
    expected, subsets = unpruned_alpha(B, A)
    assert exact_alpha_error(B, A, alpha) <= bound
    assert abs(alpha - expected) <= bound * expected
    return subsets


def rng72_pool_pairs():
    rng = np.random.default_rng(72)
    return [
        (inst.poly, inst.halfspace)
        for inst in (random_pair_instance(rng) for _ in range(60))
        if inst.poly.dim >= 3
    ]


def test_alpha_pruning_matches_the_unpruned_search(monkeypatch):
    measured = []

    def spy(vhat, G):
        measured.append(G.tobytes())
        return unit_cone_distance(vhat, G)

    monkeypatch.setattr(certify, "unit_cone_distance", spy)
    pairs = rng72_pool_pairs()
    # Square pyramid under the half-space z >= 2: the cone of the apex's
    # four active rows contains -c = (0, 0, 1).
    pyramid = Polyhedron(
        [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]], [1, 1, 1, 1, 0]
    )
    pairs.append((pyramid, HalfSpace([0.0, 0.0, -1.0], -2.0)))
    # Rows -c and e_2: -c does not qualify, so no cone of two or more rows
    # is kept, and alpha is half e_2's ray distance, 1.
    pairs.append((Polyhedron([[-1, 0, 0], [0, 0, 1]], [0, 0]), HalfSpace([1.0, 0.0, 0.0], -1.0)))
    assert alpha_polyhedron_halfspace(*pairs[-1]) == 0.5
    pruned_pairs = containing = 0
    for B, A in pairs:
        measured.clear()
        subsets = assert_near_exact(B, A, POOL_EXACT_BOUND)
        assert len(measured) == len(set(measured))
        searched = set(measured)
        pruned_pairs += not all(
            np.ascontiguousarray(B.A[list(s)].T).tobytes() in searched for s in subsets
        )
        neg_chat = -A.c / norm(A.c)
        for rows in qualifying_active_sets(B, A)[1]:
            full = np.ascontiguousarray(B.A[list(rows)].T)
            containing += len(rows) >= 3 and unit_cone_distance(neg_chat, full) <= 1e-9
    assert len(pairs) > 30
    assert pruned_pairs > 0 and containing > 0


SQUARE_PYRAMID = Polyhedron(
    [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]], [1, 1, 1, 1, 0]
)


def bad_geometry_pairs():
    """Seeded polyhedra in R^3 and R^4 with nearly parallel, repeated,
    antiparallel or degenerate rows, each with a half-space of random ``c``.
    """
    rng = np.random.default_rng(408)
    polys = []
    for angle in (1e-3, 1e-5, 1e-7, 1e-9):
        polys += [nearly_parallel(rng, angle)[0] for _ in range(12)]
    polys += [with_duplicates(rng)[0] for _ in range(12)]
    for _ in range(12):
        # A random polyhedron cut by a slab between a row and its reverse,
        # next to the box rows, which are antiparallel in pairs too.
        poly, interior = random_poly(rng)
        a = unit(rng, poly.dim)
        rows = np.vstack([poly.A, a, -a])
        rhs = np.concatenate([poly.b, [a @ interior + 0.1, 0.1 - a @ interior]])
        polys.append(Polyhedron(rows, rhs))
    for _ in range(8):
        # An apex with n + 1 to 2n + 3 active rows, all leaning toward +e_0.
        n = int(rng.integers(3, 5))
        k = int(rng.integers(n + 1, 2 * n + 4))
        rows = np.array([unit(rng, n) + 2.0 * np.eye(n)[0] for _ in range(k)])
        polys.append(Polyhedron(rows, rows @ rng.normal(size=n)))
    polys.append(SQUARE_PYRAMID)
    pairs = [(p, HalfSpace(rng.normal(size=p.dim), -10.0)) for p in polys if p.dim >= 3]
    # The cone of the pyramid's apex contains -c = (0, 0, 1).
    return pairs + [(SQUARE_PYRAMID, HalfSpace([0.0, 0.0, -1.0], -2.0))]


def test_alpha_matches_the_exact_constant_on_bad_geometry():
    # Nearly parallel, repeated and antiparallel rows: the least-squares
    # read must stay as close to the exact constant as the search it
    # replaced, with numerically dependent cones measured by NNLS.
    pairs = bad_geometry_pairs()
    assert len(pairs) >= 50
    for B, A in pairs:
        assert_near_exact(B, A, BAD_GEOMETRY_EXACT_BOUND)


def cone_solves(monkeypatch, pairs):
    """The number of cone solves that alpha makes on ``pairs``, each
    polyhedron a fresh copy."""
    calls = []

    def spy(vhat, G):
        calls.append(G.shape[1])
        return unit_cone_distance(vhat, G)

    monkeypatch.setattr(certify, "unit_cone_distance", spy)
    for B, A in pairs:
        alpha_polyhedron_halfspace(Polyhedron(B.A, B.b), A)
    return len(calls)


def test_alpha_makes_no_cone_solve_on_pool_pairs(monkeypatch):
    # A count, not a clock: every candidate cone of these pairs has
    # independent rows, so each is read from its least-squares solve, and
    # none of the 3275 candidates of the full search takes an NNLS solve.
    pairs = rng72_pool_pairs()
    candidates = sum(len(unpruned_alpha(B, A)[1]) for B, A in pairs)
    assert candidates == 3275
    assert cone_solves(monkeypatch, pairs) == 0


def test_alpha_solves_the_dependent_cones_of_bad_geometry(monkeypatch):
    # The cones that the independence split sends to the NNLS route, under
    # each pair's own c and under c = -a_0: a split that moves fails here.
    pairs = bad_geometry_pairs()
    assert cone_solves(monkeypatch, pairs) == 769
    flipped = [(B, HalfSpace(-B.A[0], -10.0)) for B, _ in pairs]
    assert cone_solves(monkeypatch, flipped) == 543


@pytest.mark.parametrize("eps", [2e-6, 1e-5, 1e-4])
@pytest.mark.parametrize("c", [[-2.0, -1.0, 0.0], [-1.0, -1.0, -1e-3]])
def test_alpha_reads_a_nearly_dependent_cone_to_the_exact_constant(monkeypatch, eps, c):
    # The vertex x <= 0, y <= 0, x + y + eps z <= 0: its three-row cone has
    # R factor diagonal (1, 1, about eps / sqrt 2), so it is read off the
    # kept factors, with a Gram condition number of about 1 / eps^2.  Under
    # c = -(2, 1, 0) the cone contains -c/||c||, and a read that errs in the
    # cone's near-null direction counts it with a distance near 1e-6.
    B = Polyhedron([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, eps]], [0.0, 0.0, 0.0])
    A = HalfSpace(c, -10.0)
    assert cone_solves(monkeypatch, [(B, A)]) == 0
    assert exact_alpha_error(B, A, alpha_polyhedron_halfspace(B, A)) <= POOL_EXACT_BOUND


def reuse_queries():
    """``(B, objectives)``: each polyhedron of :func:`bad_geometry_pairs` under
    its own ``c`` and under ``c = -a_0`` (row 0 then does not qualify), and
    random pool polyhedra in R^2 to R^4 under those two and one random ``c``.
    """
    for B, A in bad_geometry_pairs():
        yield B, [A.c, -B.A[0]]
    rng = np.random.default_rng(409)
    for _ in range(20):
        inst = random_pair_instance(rng)
        B = inst.poly
        yield B, [inst.halfspace.c, -B.A[0], rng.normal(size=B.dim)]


def test_alpha_reads_a_table_built_under_another_objective():
    # Each polyhedron keeps the table of its first alpha call.  The table is
    # built under each objective in turn, on a fresh polyhedron, and every
    # other objective then reads it: alpha must be what the objective gets
    # on a polyhedron of its own.
    for B, objectives in reuse_queries():
        halfspaces = [HalfSpace(c, -10.0) for c in objectives]
        fresh, reused = {}, {}
        for first, A in enumerate(halfspaces):
            kept = Polyhedron(B.A, B.b)
            fresh[first] = alpha_polyhedron_halfspace(kept, A)
            table = kept._cones
            for j, other in enumerate(halfspaces):
                if j != first:
                    reused[first, j] = alpha_polyhedron_halfspace(kept, other)
            assert kept._cones is table
        for (_, j), got in reused.items():
            assert got == fresh[j]


def test_a_reused_table_matches_the_unpruned_search_when_a_row_drops_out():
    # Under c = -a_0 row 0 does not qualify, and the cones through it leave
    # the family: the filter of the kept table runs, which no pool reaches.
    # alpha, on a table built under the polyhedron's own c, must still be
    # as close to the exact constant as the search it replaced.
    filtered = 0
    for B, A in bad_geometry_pairs():
        kept = Polyhedron(B.A, B.b)
        alpha_polyhedron_halfspace(kept, A)
        flipped = HalfSpace(-B.A[0], -10.0)
        assert_near_exact(kept, flipped, FLIPPED_EXACT_BOUND)
        qualifying = set(qualifying_active_sets(B, flipped)[0])
        cones = [rows for g in kept._cones.groups for rows in (*g.idx, *g.dependent)]
        filtered += sum(set(rows) <= qualifying for rows in cones) < len(cones)
    assert filtered >= 40


def test_the_cone_table_is_built_once_per_polyhedron(monkeypatch):
    # The table is built once, but every call reads the kept vertex list,
    # so the calls an alpha call makes do not depend on earlier calls.  The
    # shifted solve takes no alpha: on a fresh copy it reads no vertex list
    # and builds no table.
    built, reads = [], []

    def spy(B, vertices):
        built.append(B)
        return cone_table(B, vertices)

    def read(B):
        reads.append(B)
        return vertex_list(B)

    cone_table, vertex_list = certify._cone_table, certify.feasible_vertices
    monkeypatch.setattr(certify, "_cone_table", spy)
    monkeypatch.setattr(certify, "feasible_vertices", read)
    rng = np.random.default_rng(5)
    inst = random_pair_instance(rng)
    while inst.poly.dim < 3:
        inst = random_pair_instance(rng)
    hs, B = inst.halfspace, inst.poly
    bound_report(B, hs, inst.x0)
    alpha_polyhedron_halfspace(B, HalfSpace(-hs.c, 0.0))
    assert built == [B] and built[0] is B
    assert len(reads) == 2 and all(r is B for r in reads)
    fresh = Polyhedron(B.A, B.b)
    solve_lp(LPProblem(hs.c, fresh, hs.M), x0=inst.x0, strategy="shifted")
    assert len(built) == 1 and len(reads) == 2
    assert fresh._cones is None and fresh._vertices is None
    moved = translate(B, np.ones(B.dim))
    assert moved._cones is None
    alpha_polyhedron_halfspace(moved, hs)
    assert len(built) == 2 and built[1] is moved and moved._cones is not B._cones


def test_alpha_errors_keep_no_table():
    B = SQUARE_PYRAMID
    fresh = Polyhedron(B.A, B.b)
    with pytest.raises(DimensionMismatch):
        alpha_polyhedron_halfspace(fresh, HalfSpace([1.0, 2.0], 0.0))
    assert fresh._cones is None
    rng = np.random.default_rng(11)
    for n, m in ((3, 25), (9, 12)):
        big = Polyhedron(rng.normal(size=(m, n)), np.ones(m))
        with pytest.raises(TooLarge):
            alpha_polyhedron_halfspace(big, HalfSpace(rng.normal(size=n), 0.0))
        assert big._cones is None and big._vertices is None


def test_planar_alpha_has_no_row_limit():
    # A regular 80-gon under c = -a_70: row 70 does not qualify, and alpha
    # is the row-wise minimum over the other 79, through alpha and through
    # the shifted solve, whatever the row count.
    angles = 2.0 * np.pi * np.arange(80) / 80
    B = Polyhedron(np.column_stack([np.cos(angles), np.sin(angles)]), np.ones(80))
    A = HalfSpace(-B.A[70], -3.0)
    rows = [i for i in range(80) if i != 70]
    expected = 0.5 * min(unit_distance_to_ray(B.A[i] / norm(B.A[i]), -A.c) for i in rows)
    assert alpha_polyhedron_halfspace(B, A) == expected
    assert expected == pytest.approx(0.5 * math.sin(2.0 * math.pi / 80), rel=1e-12)
    out = solve_lp(LPProblem(A.c, Polyhedron(B.A, B.b), A.M), strategy="shifted")
    assert out.certificate.holds
    assert out.objective == pytest.approx(-1.0, abs=1e-9)


NOT_POLYHEDRAL_PAIRS = {
    "epigraph-B": (parabola_epigraph(1.0), lower_halfplane()),
    "polyhedron-A": (absval_polyhedron(1.0), absval_polyhedron(1.0)),
    "swapped": (lower_halfplane(), absval_polyhedron(1.0)),
}


@pytest.mark.parametrize("B, A", NOT_POLYHEDRAL_PAIRS.values(), ids=NOT_POLYHEDRAL_PAIRS)
def test_bound_report_requires_a_polyhedron_and_a_halfspace(B, A):
    # The wrong set types once ended in a bare AttributeError.
    with pytest.raises(NotPolyhedralPair, match="setA to be a half-space and setB a polyhedron"):
        bound_report(B, A, [0.0, -1.0])


@pytest.mark.parametrize("B, A", NOT_POLYHEDRAL_PAIRS.values(), ids=NOT_POLYHEDRAL_PAIRS)
@pytest.mark.parametrize(
    "call",
    [
        alpha_polyhedron_halfspace,
        polyhedron_halfspace_distance,
        lambda B, A: one_step_shift(A, B, [0.0, -1.0], 0.25, 1.0),
    ],
    ids=["alpha_polyhedron_halfspace", "polyhedron_halfspace_distance", "one_step_shift"],
)
def test_pair_functions_require_a_polyhedron_and_a_halfspace(call, B, A):
    # Each once ended in a bare AttributeError, as bound_report did.
    with pytest.raises(NotPolyhedralPair, match="setA to be a half-space and setB a polyhedron"):
        call(B, A)


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


def test_step_bounds_stay_finite_for_tiny_alpha():
    # 1 - alpha^2 rounds to exactly 1 for alpha below about 1.05e-8, so the
    # logarithm of the rate must be taken as log1p(-alpha^2).
    report = iteration_bound(1e-9, 1.0, 2.0)
    assert report.N > 1e17
    assert report.max_steps == 2 * report.N + 1


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


def test_step_bounds_keep_the_float_formula_where_it_is_finite():
    # alpha^2 = 1e-300 is still normal, and so is the quotient.
    n = math.floor(math.log(0.5) / math.log1p(-1e-300))
    assert iteration_bound(1e-150, 1.0, 2.0).N == n


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


@pytest.mark.parametrize("x0", [[0.0, 5.0], [0.0, 0.9], [0.0, 2e-8]])
def test_bound_report_rejects_a_start_outside_the_halfspace(x0):
    # [0, 5] lies in B, [0, 0.9] between the sets and [0, 2e-8] just past
    # the 1e-8 tolerance; all are outside A, where the bound does not apply.
    with pytest.raises(StartNotInA):
        bound_report(absval_polyhedron(1.0), lower_halfplane(), x0)


def test_bound_report_rejects_an_outside_start_before_the_alpha_search(monkeypatch):
    # The start is checked first, so a start outside A reads no vertex list.
    reads = []

    def spy(B):
        reads.append(B)
        return feasible_vertices(B)

    monkeypatch.setattr(certify, "feasible_vertices", spy)
    rng = np.random.default_rng(3)
    inst = next(i for i in (random_pair_instance(rng) for _ in range(50)) if i.poly.dim == 4)
    bound_report(inst.poly, inst.halfspace, inst.x0)
    assert reads == [inst.poly]  # the alpha search of this pair reads it
    reads.clear()
    c, M = inst.halfspace.c, inst.halfspace.M
    outside = inst.x0 + ((M + 1.0 - c @ inst.x0) / (c @ c)) * c  # <c, x> = M + 1
    with pytest.raises(StartNotInA):
        bound_report(inst.poly, inst.halfspace, outside)
    assert reads == []


def test_bound_report_accepts_a_start_on_the_boundary_within_tolerance():
    report = bound_report(absval_polyhedron(1.0), lower_halfplane(), [0.0, 5e-9])
    assert report.d_x0_B == report.d_AB == pytest.approx(1.0, abs=1e-8)
    assert report.N == 0


def test_finite_step_bound_holds_on_random_pairs():
    result = verify.finite_step_compliance(np.random.default_rng(45), 50)
    assert result.ok, result.detail
