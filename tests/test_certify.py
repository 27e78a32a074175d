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
    qp,
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
    """The cone table's alpha is within ``bound`` of the exact constant and
    of the unpruned search.  The table is alpha's route where the optimum's
    face cannot give it, and its family is the one these references take."""
    alpha = certify._table_alpha(B, A)
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
    """The number of cone solves that the cone table's alpha makes on
    ``pairs``, each polyhedron a fresh copy."""
    calls = []

    def spy(vhat, G):
        calls.append(G.shape[1])
        return unit_cone_distance(vhat, G)

    monkeypatch.setattr(certify, "unit_cone_distance", spy)
    for B, A in pairs:
        certify._table_alpha(Polyhedron(B.A, B.b), A)
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
    # Under neither c is the origin a simple optimum (the optimum is an edge
    # under the first, the LP unbounded under the second), so the public
    # alpha takes the table too, and must be as close.
    B = Polyhedron([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, eps]], [0.0, 0.0, 0.0])
    A = HalfSpace(c, -10.0)
    assert cone_solves(monkeypatch, [(B, A)]) == 0
    for alpha in (certify._table_alpha(B, A), alpha_polyhedron_halfspace(B, A)):
        assert exact_alpha_error(B, A, alpha) <= POOL_EXACT_BOUND


def calls_of(monkeypatch, name):
    """Route ``certify.name`` through a spy; returns ``(args, result)`` of
    each call, in call order."""
    original = getattr(certify, name)
    calls = []

    def spy(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(certify, name, spy)
    return calls


def table_cones(table):
    """The independent and the dependent cones of a :func:`_cone_table`, as
    tuples in the table's order, and each independent cone's inverse R
    factor as bytes."""
    independent = [tuple(cone) for cones, _, _ in table for cone in cones.tolist()]
    dependent = [tuple(cone) for _, _, cones in table for cone in cones.tolist()]
    inverses = [inverse.tobytes() for _, block, _ in table for inverse in block]
    return independent, dependent, dict(zip(independent, inverses))


def test_a_reused_table_matches_the_unpruned_search_when_a_row_drops_out(monkeypatch):
    # Under c = -a_0 row 0 does not qualify, and the cones through it leave
    # the family, which each call builds over the qualifying rows alone from
    # the vertex list that a first read under the polyhedron's own c kept;
    # no pool reaches this.  alpha must still be as close to the exact
    # constant as the search it replaced.  The family is the one over every
    # row less the cones through a row that does not qualify, in the same
    # order, and each cone's inverse R factor has the same bits.
    tables = calls_of(monkeypatch, "_cone_table")
    filtered = 0
    for B, A in bad_geometry_pairs():
        kept = Polyhedron(B.A, B.b)
        certify._table_alpha(kept, A)
        tables.clear()
        assert_near_exact(kept, HalfSpace(-B.A[0], -10.0), FLIPPED_EXACT_BOUND)
        [((_, vertices, qualifying), table)] = tables
        assert vertices is kept._vertices and not qualifying[0]
        independent, dependent, inverses = table_cones(table)
        every = table_cones(certify._cone_table(kept, vertices, np.ones(B.num_rows, bool)))
        rows = set(np.flatnonzero(qualifying).tolist())
        assert independent == [cone for cone in every[0] if rows.issuperset(cone)]
        assert dependent == [cone for cone in every[1] if rows.issuperset(cone)]
        assert inverses == {cone: every[2][cone] for cone in independent}
        filtered += len(independent) + len(dependent) < len(every[0]) + len(every[1])
    assert filtered >= 40


def test_the_cone_family_is_every_pair_and_every_active_subset():
    # The reference builds the family as sets of index tuples, sorted; the
    # table keys each subset by an integer instead.  Degenerate apexes with
    # up to 2n + 2 active rows are among the bad geometry.  Each size's
    # independent cones, its dependent cones and the exactly antiparallel
    # pairs the table leaves out are together the family.  The table holds
    # the sizes in increasing order and each size in lexicographic order,
    # and each inverse is the stacked one of its size, bit for bit.
    for B, _ in rng72_pool_pairs() + bad_geometry_pairs():
        m, n = B.num_rows, B.dim
        vertices = feasible_vertices(B)
        cones = [set() for _ in range(n + 1)]
        cones[2].update(itertools.combinations(range(m), 2))
        for _, active in vertices:
            for size in range(3, min(len(active), n) + 1):
                cones[size].update(itertools.combinations(active, size))
        table = certify._cone_table(B, vertices, np.ones(m, bool))
        sizes = [idx.shape[1] for idx, _, _ in table]
        assert sizes == sorted(set(sizes))
        for idx, inverses, measured in table:
            size = idx.shape[1]
            ref = np.array(sorted(cones[size]), dtype=np.intp).reshape(-1, size)
            assert idx.dtype == measured.dtype == np.intp and measured.shape[1] == size
            for part in (idx, measured):
                np.testing.assert_array_equal(np.lexsort(part.T[::-1]), np.arange(len(part)))
            left_out = ref[:0]
            if size == 2:
                left_out = ref[(B._units[ref[:, 0]] == -B._units[ref[:, 1]]).all(axis=1)]
            family = np.concatenate([idx, measured, left_out])
            assert family.shape == ref.shape
            np.testing.assert_array_equal(family[np.lexsort(family.T[::-1])], ref)
            assert inverses.shape == (len(idx), size, size)
            if len(idx):
                R = np.linalg.qr(B._units[idx].transpose(0, 2, 1), mode="r")
                np.testing.assert_array_equal(inverses, np.linalg.inv(R))
        assert sum(len(cones[size]) > 0 for size in range(2, n + 1)) == len(table)


@pytest.mark.parametrize(
    "rows, b, alpha, count",
    [
        # One row: no cone of two rows, an empty table.
        ([[1, 0, 0]], [1], 0.5, 0),
        # Two exactly antiparallel rows: their pair is left out, so the
        # table holds no cone again.
        ([[1, 0, 0], [-1, 0, 0]], [1, 1], 0.47967540647319123, 0),
        # Three rows and no vertex: a family of pairs alone.
        ([[1, 0, 0], [0, 1, 0], [-1, -1, 0]], [1, 1, 1], 0.4703604341917987, 3),
    ],
)
def test_alpha_on_a_family_with_no_cone_or_one_size(monkeypatch, rows, b, alpha, count):
    tables = calls_of(monkeypatch, "_cone_table")
    B = Polyhedron(rows, b)
    assert alpha_polyhedron_halfspace(B, HalfSpace([0.3, 0.2, 1.0], -5.0)) == alpha
    [(_, table)] = tables
    independent, dependent, _ = table_cones(table)
    assert len(independent) == count and dependent == []
    assert [idx.shape[1] for idx, _, _ in table] == ([2] if len(rows) > 1 else [])


def test_the_vertex_list_is_enumerated_once_per_polyhedron(monkeypatch):
    # Each read of the cone table builds its family from B's vertex list,
    # and only the first enumerates it.  bound_report reads alpha off the
    # optimum's face of a pool pair, and the shifted solve takes no alpha:
    # neither reads a vertex list or builds a family.
    reads, enumerated = [], []

    def read(B):
        reads.append(B)
        if B._vertices is None:
            enumerated.append(B)
        return vertex_list(B)

    vertex_list = certify.feasible_vertices
    monkeypatch.setattr(certify, "feasible_vertices", read)
    built = calls_of(monkeypatch, "_cone_table")
    rng = np.random.default_rng(5)
    inst = random_pair_instance(rng)
    while inst.poly.dim < 3:
        inst = random_pair_instance(rng)
    hs, B = inst.halfspace, Polyhedron(inst.poly.A, inst.poly.b)
    bound_report(B, hs, inst.x0)
    assert built == [] and reads == [] and B._vertices is None
    certify._table_alpha(B, hs)
    certify._table_alpha(B, HalfSpace(-hs.c, 0.0))
    assert [args[0] for args, _ in built] == [B, B] and reads == [B, B] and enumerated == [B]
    assert built[0][0][1] is built[1][0][1] is B._vertices
    fresh = Polyhedron(B.A, B.b)
    solve_lp(LPProblem(hs.c, fresh, hs.M), x0=inst.x0, strategy="shifted")
    assert len(built) == 2 and len(reads) == 2
    assert fresh._vertices is None
    moved = translate(B, np.ones(B.dim))
    assert moved._vertices is None
    certify._table_alpha(moved, hs)
    assert built[2][0][0] is moved and enumerated == [B, moved]


def test_a_repeat_alpha_reads_no_vertex_list(monkeypatch):
    # A repeat read of the cone table under another objective builds its
    # family from the kept vertex list, enumerating none, and gives the
    # bits of a first read on a fresh copy of the polyhedron.
    enumerated = []

    def spy(B):
        if B._vertices is None:
            enumerated.append(B)
        return feasible_vertices(B)

    monkeypatch.setattr(certify, "feasible_vertices", spy)
    B = Polyhedron(SQUARE_PYRAMID.A, SQUARE_PYRAMID.b)
    rng = np.random.default_rng(8)
    alphas = [certify._table_alpha(B, HalfSpace(rng.normal(size=3), 0.0)) for _ in range(4)]
    assert enumerated == [B]
    rng = np.random.default_rng(8)
    for value in alphas:
        fresh = Polyhedron(B.A, B.b)
        assert certify._table_alpha(fresh, HalfSpace(rng.normal(size=3), 0.0)).hex() == value.hex()
        assert enumerated[-1] is fresh
    assert len(enumerated) == 5


def test_alpha_errors_keep_no_table(monkeypatch):
    # Past the oracle's limits the cone table raises TooLarge, builds no
    # family and keeps no vertex list.  The public alpha reads these pairs
    # off the optimum's face, with no limit, and builds no family either:
    # ``-c`` is a sum of rows, so the LP is bounded.
    built = calls_of(monkeypatch, "_cone_table")
    B = SQUARE_PYRAMID
    fresh = Polyhedron(B.A, B.b)
    with pytest.raises(DimensionMismatch):
        alpha_polyhedron_halfspace(fresh, HalfSpace([1.0, 2.0], 0.0))
    assert built == [] and fresh._vertices is None
    rng = np.random.default_rng(11)
    for n, m in ((3, 25), (9, 12)):
        big = Polyhedron(rng.normal(size=(m, n)), np.ones(m))
        A = HalfSpace(-big.A[:n].sum(axis=0), 0.0)
        with pytest.raises(TooLarge):
            certify._table_alpha(big, A)
        assert built == [] and big._vertices is None
        assert 0.0 < alpha_polyhedron_halfspace(big, A) <= 0.5
        assert built == [] and big._vertices is None


def nearly_dependent_vertex(eps):
    """A box cut at the origin by the rows (1, 0, 0), (0, 1, 0) and
    (1, 1, eps), with ``c = -(2, 2, eps)``: ``-c`` is the sum of the three
    rows, so the origin is a simple optimum, and the R factor of the three
    unit rows has the diagonal entry ``eps / sqrt(2 + eps^2)``.  Every facet
    of the origin's normal cone is ``eps / sqrt(8 + eps^2)`` from ``v``."""
    rows = [[1, 0, 0], [0, 1, 0], [1, 1, eps], [-1, 0, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    return Polyhedron(rows, [0, 0, 0, 1, 1, 1, 1]), HalfSpace([-2.0, -2.0, -eps], -10.0)


@pytest.mark.parametrize("eps", [1e-5, 1e-6])
def test_a_nearly_dependent_optimum_takes_the_cone_table(monkeypatch, eps):
    # The walk ends on the origin's three rows either way.  At eps = 1e-6
    # their R factor has a diagonal entry below _RANK_TOL (1e-6), where
    # mu and the rows of R^-1 lose digits, so the face gives no alpha and
    # the table reads it, bit for bit, to the exact constant.  At 1e-5 the
    # face reads it; the face's distances err by about 1e-16 absolute, here
    # 5e-11 relative.  A guard left out or 10 times larger moves one case.
    B, A = nearly_dependent_vertex(eps)
    tables = calls_of(monkeypatch, "_table_alpha")
    alpha = alpha_polyhedron_halfspace(B, A)
    _, end, face = B._walk[1]
    assert sorted(face.W) == [0, 1, 2] and not end.point.any()
    diagonal = abs(np.linalg.qr(B._units[:3].T, mode="r").diagonal()).min()
    assert (diagonal < certify._RANK_TOL) == (eps < 1e-5)
    assert diagonal == pytest.approx(eps / math.sqrt(2.0), rel=1e-9)
    assert alpha == pytest.approx(0.5 * eps / math.sqrt(8.0 + eps * eps), rel=1e-10)
    if eps < 1e-5:
        assert [args[0] for args, _ in tables] == [B]
        assert alpha.hex() == certify._table_alpha(Polyhedron(B.A, B.b), A).hex()
        assert exact_alpha_error(B, A, alpha) <= POOL_EXACT_BOUND
    else:
        assert tables == []


def facet_cone_alpha(B, A, W):
    """Half the least distance from ``v = -c/||c||`` to the cone of the rows
    ``W`` less one, each by a cone solve; capped at 1/2.  At a simple
    optimum with working rows ``W`` these are the facets of its normal
    cone, and ``v`` lies inside it."""
    v = -A.c / norm(A.c)
    facets = [np.ascontiguousarray(B._units[[j for j in W if j != i]].T) for i in W]
    return 0.5 * min(1.0, *(unit_cone_distance(v, G) for G in facets))


def vertex_cone_alpha(B, A):
    """Reference for the face-read alpha at a simple, unique optimum.

    Half the least distance from ``v = -c/||c||`` to the cone of a
    non-optimal vertex of :func:`feasible_vertices` (every row active
    there), or to the cone of an unbounded edge from the optimal vertex,
    which no vertex cone holds; capped at 1/2.  Also whether such an edge
    gave the minimum.  None when the oracle's optimal vertex has more than
    n active rows: it can merge a simple optimum with vertices a rounding
    away, whose cones then leave the reference.
    """
    v = -A.c / norm(A.c)
    verts = feasible_vertices(B)
    values = [float(A.c @ x) for x, _ in verts]
    best = min(values)
    tol = 1e-9 * (1.0 + abs(best))
    (W,) = [active for (_, active), value in zip(verts, values) if value <= best + tol]
    if len(W) > B.dim:
        return None
    assert len(W) == B.dim
    cones = [active for (_, active), value in zip(verts, values) if value > best + tol]
    dists = [unit_cone_distance(v, np.ascontiguousarray(B._units[list(rows)].T)) for rows in cones]
    edges = []
    for i in W:
        rows = [j for j in W if j != i]
        d = np.linalg.svd(B._units[rows])[2][-1]
        if B._units[i] @ d > 0.0:
            d = -d
        if (B._units @ d <= 1e-12).all():
            edges.append(unit_cone_distance(v, np.ascontiguousarray(B._units[rows].T)))
    return 0.5 * min(1.0, *dists, *edges), min(edges, default=math.inf) < min(dists, default=math.inf)


def unbounded_pointed_pairs(seed=57, count=60):
    """Pairs of an unbounded polyhedron with a vertex in R^2 to R^4 and a
    half-space whose LP over it is bounded, one unit from it.

    Every row rises along ``e_n``, so B recedes along ``-e_n``; its rows
    have rank n, so it is pointed; and ``-c`` is a positive combination of
    n rows, so ``<c, .>`` is bounded below on B.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 9))
        rows = rng.normal(size=(m, n))
        rows[:, -1] = np.abs(rows[:, -1]) + 0.2
        b = rows @ rng.normal(size=n) + rng.uniform(0.1, 1.0, size=m)
        c = -(rng.uniform(0.1, 1.0, size=n) @ rows[rng.choice(m, n, replace=False)])
        if np.linalg.matrix_rank(rows) < n:
            continue
        B = Polyhedron(rows, b)
        optimum = min(float(c @ x) for x, _ in feasible_vertices(B))
        pairs.append((B, HalfSpace(c, optimum - 1.0)))
    return pairs


def start_in(A):
    # A point of the half-space one unit below its boundary.
    return (A.M - 1.0) / float(A.c @ A.c) * A.c


def face_alpha_pairs(pool):
    """``(B, A, x0)`` of a ``constants`` pool (its seed), of
    :func:`rng72_pool_pairs`, of :func:`unbounded_pointed_pairs` or of
    :func:`bad_geometry_pairs`."""
    named = {"rng72": rng72_pool_pairs, "unbounded": unbounded_pointed_pairs, "bad_geometry": bad_geometry_pairs}
    if pool in named:
        return [(B, A, start_in(A)) for B, A in named[pool]()]
    rng = np.random.default_rng(int(pool))
    return [(inst.poly, inst.halfspace, inst.x0) for inst in (random_pair_instance(rng) for _ in range(200))]


@pytest.mark.parametrize("pool", ["1", "3", "7", "11", "rng72", "unbounded", "bad_geometry"])
def test_alpha_is_read_off_the_optimum_face(monkeypatch, pool):
    # Every pair of the pools has a simple optimum, so alpha is read off its
    # face and no cone table is built.  It is the vertex-cone reference
    # within 1e-12 relative, and never below the cone table's alpha, whose
    # family holds more cones, beyond 1e-13 relative.  bound_report, walking
    # from x0 and from a second start, gives the public alpha's bits.  On
    # the unbounded stream an unbounded edge from the optimum gives the
    # minimum on some pairs.  Of the 52 bad-geometry pairs, 17 have no
    # simple optimum or an unbounded walk and take the table, bit for bit;
    # the other 35 are held to the reference within the table's own bound
    # there, and on the one whose optimal vertex the oracle merges with its
    # neighbours, to the facet cones of the walk's working rows.
    bound = BAD_GEOMETRY_EXACT_BOUND if pool == "bad_geometry" else 1e-12
    reads = calls_of(monkeypatch, "_table_alpha")
    edge_minimum = tables = merged = 0
    for B, A, x0 in face_alpha_pairs(pool):
        fresh = Polyhedron(B.A, B.b)
        reads.clear()
        alpha = alpha_polyhedron_halfspace(fresh, A)
        if reads:
            tables += 1
            assert alpha.hex() == certify._table_alpha(Polyhedron(B.A, B.b), A).hex()
            continue
        assert fresh._vertices is None
        reference = vertex_cone_alpha(B, A)
        if reference is None:
            merged += 1
            expected, by_edge = facet_cone_alpha(B, A, fresh._walk[1][2].W), False
        else:
            expected, by_edge = reference
        edge_minimum += by_edge
        assert abs(alpha - expected) <= bound * expected
        assert alpha >= certify._table_alpha(Polyhedron(B.A, B.b), A) * (1.0 - 1e-13)
        if polyhedron_halfspace_distance(B, A) > 0.0:
            for start in (x0, x0 - A.c):
                assert bound_report(fresh, A, start).alpha.hex() == alpha.hex()
        assert all(args[0] is not fresh for args, _ in reads)
    assert (edge_minimum > 0) == (pool == "unbounded")
    assert (tables, merged) == ((17, 1) if pool == "bad_geometry" else (0, 0))


def near_facet_pair(delta):
    """A vertex at the origin whose normal cone has a facet at distance
    about ``delta`` from ``v``.

    Rows 0 and 1 span the plane ``y = 0``, and ``v`` is ``(0, delta, 1)``
    normalized, so its distance to that facet's hyperplane is ``delta /
    sqrt(1 + delta^2)``; rows 0 to 2 are tight at the origin, the box rows
    keep B bounded, and the other two facets are about 0.58 from ``v``.
    """
    rows = [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 0], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0]]
    B = Polyhedron(rows, [0, 0, 0, 1, 1, 1, 1, 1])
    return B, HalfSpace([0.0, -delta, -1.0], -5.0)


@pytest.mark.parametrize("delta", [0.9e-9, 1.1e-9])
def test_a_facet_within_the_containment_tolerance_takes_the_cone_table(monkeypatch, delta):
    # A facet of the optimum's cone at most _CONTAINS_TOL (1e-9) from v
    # counts as containing v, and alpha takes the cone table, which skips
    # every cone that near: at 0.9e-9 alpha is the table's, far above
    # delta.  At 1.1e-9 the face gives alpha, half that facet's distance.
    # A constant 10 times larger or smaller moves one of the two.
    B, A = near_facet_pair(delta)
    reads = calls_of(monkeypatch, "_table_alpha")
    alphas = (alpha_polyhedron_halfspace(B, A), bound_report(Polyhedron(B.A, B.b), A, start_in(A)).alpha)
    assert len(reads) == (2 if delta < 1e-9 else 0)
    for alpha in alphas:
        if delta < 1e-9:
            assert alpha == certify._table_alpha(Polyhedron(B.A, B.b), A) and alpha > 0.1
        else:
            assert alpha == pytest.approx(0.5 * delta, rel=1e-6)


def test_distances_of_a_pair_of_two_dimensions_raise_dimension_mismatch(monkeypatch):
    # The pair's dimension check is the only length check of c before the
    # walk: without it a 2-D c would reach the walk on a 3-D polyhedron.
    # bound_report validates x0 against A, then raises as alpha does.
    B = Polyhedron(SQUARE_PYRAMID.A, SQUARE_PYRAMID.b)
    A = HalfSpace([1.0, 2.0], -10.0)
    reads = calls_of(monkeypatch, "_table_alpha")
    with pytest.raises(DimensionMismatch):
        polyhedron_halfspace_distance(B, A)
    with pytest.raises(DimensionMismatch):
        bound_report(B, A, [-10.0, 0.0])
    assert B._walk is None and reads == []


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


@pytest.mark.parametrize("below", [0.9e-10, 1.1e-10])
def test_a_start_within_the_strict_margin_below_the_distance_is_accepted(below):
    # d(x0, B) may fall below d(A, B) by the rounding of a start in A, up to
    # _STRICT_MARGIN (1e-10); further below it is impossible geometry.  A
    # constant 10 times larger or smaller moves one of the two.
    if below < 1e-10:
        report = iteration_bound(0.25, 1.0, 1.0 - below)
        assert report.N == 0 and report.one_step and report.d_x0_B == 1.0 - below
    else:
        with pytest.raises(InvalidDistance):
            iteration_bound(0.25, 1.0, 1.0 - below)


@pytest.mark.parametrize("delta", [0.9e-10, 1.1e-10])
def test_a_row_within_the_strict_margin_of_v_leaves_the_table(monkeypatch, delta):
    # A box open at the top under a row whose unit row has cosine 1 - delta
    # with v = -c/||c|| = e_2.  A row with cosine at least 1 - _STRICT_MARGIN
    # (1e-10) counts as antiparallel to c: it and every cone through it
    # leave the family, and alpha caps at 1/2.  Below that it qualifies, and
    # alpha is half its ray distance, about sqrt(2 delta) / 2.  A constant
    # 10 times larger or smaller moves one of the two.
    s = math.sqrt(delta * (2.0 - delta))
    rows = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, -1], [s, 0, 1.0 - delta]]
    B, A = Polyhedron(rows, [1, 1, 1, 1, 1, 0.5]), HalfSpace([0.0, 0.0, -1.0], -10.0)
    assert abs(float(B._units[5] @ -A._unit) - (1.0 - delta)) < 1e-15
    tables = calls_of(monkeypatch, "_cone_table")
    alpha = certify._table_alpha(B, A)
    [((_, _, qualifying), _)] = tables
    assert qualifying[:5].all() and qualifying[5] == (delta > 1e-10)
    if delta < 1e-10:
        assert alpha == 0.5
    else:
        assert alpha == pytest.approx(0.5 * math.sqrt(2.0 * delta), rel=1e-6)


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
    # The start is checked first, so a start outside A walks nowhere and
    # reads no vertex list.  alpha is read off the walk's face, so a start
    # in A walks once and reads no vertex list either.
    reads, walks = [], []

    def spy(B):
        reads.append(B)
        return feasible_vertices(B)

    def walk(B, x, c):
        walks.append(B)
        return walk_to_optimum(B, x, c)

    walk_to_optimum = certify._walk_to_optimum
    monkeypatch.setattr(certify, "feasible_vertices", spy)
    monkeypatch.setattr(certify, "_walk_to_optimum", walk)
    rng = np.random.default_rng(3)
    inst = next(i for i in (random_pair_instance(rng) for _ in range(50)) if i.poly.dim == 4)
    bound_report(inst.poly, inst.halfspace, inst.x0)
    assert walks == [inst.poly] and reads == []
    walks.clear()
    c, M = inst.halfspace.c, inst.halfspace.M
    outside = inst.x0 + ((M + 1.0 - c @ inst.x0) / (c @ c)) * c  # <c, x> = M + 1
    with pytest.raises(StartNotInA):
        bound_report(inst.poly, inst.halfspace, outside)
    assert walks == [] and reads == []


def test_the_public_alpha_reads_the_kept_walk(monkeypatch):
    # bound_report keeps its walk on B.  The public alpha under the same c
    # reads that walk's face, from whatever start, and the shifted solve
    # from x0 reads the walk too: one walk for the three.  After the shifted
    # solve alone the public alpha reads its walk.  A polyhedron that kept
    # no walk, or kept one along another c, walks from the origin.
    walks = []

    def spy(p, *args):
        walks.append(p)
        return walk_from(p, *args)

    walk_from = qp._walk_from
    monkeypatch.setattr(qp, "_walk_from", spy)
    rng = np.random.default_rng(1)
    inst = next(i for i in (random_pair_instance(rng) for _ in range(50)) if i.poly.dim == 3)
    A, x0 = inst.halfspace, inst.x0
    B = Polyhedron(inst.poly.A, inst.poly.b)
    alpha = bound_report(B, A, x0).alpha
    assert alpha_polyhedron_halfspace(B, A).hex() == alpha.hex()
    solve_lp(LPProblem(A.c, B, A.M), x0=x0, strategy="shifted")
    assert walks == [B]
    solved = Polyhedron(B.A, B.b)
    solve_lp(LPProblem(A.c, solved, A.M), x0=x0, strategy="shifted")
    assert alpha_polyhedron_halfspace(solved, A).hex() == alpha.hex()
    assert walks == [B, solved]
    fresh = Polyhedron(B.A, B.b)
    assert alpha_polyhedron_halfspace(fresh, A).hex() == alpha.hex()
    assert walks == [B, solved, fresh] and fresh._walk[0][0] == np.zeros(3).tobytes()
    alpha_polyhedron_halfspace(B, HalfSpace(A.c + 1.0, A.M))
    assert walks == [B, solved, fresh, B]


def test_bound_report_accepts_a_start_on_the_boundary_within_tolerance():
    report = bound_report(absval_polyhedron(1.0), lower_halfplane(), [0.0, 5e-9])
    assert report.d_x0_B == report.d_AB == pytest.approx(1.0, abs=1e-8)
    assert report.N == 0


def test_finite_step_bound_holds_on_random_pairs():
    result = verify.finite_step_compliance(np.random.default_rng(45), 50)
    assert result.ok, result.detail
