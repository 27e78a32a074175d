"""One enumeration per polyhedron, one projection of x0 per shifted solve.

A polyhedron keeps its vertex list from the first enumeration, so the
alpha search, ``d_AB`` and the oracle all read one list; the shifted LP
strategy reads none, and walks on from its one projection of ``x0``.
These tests pin the sharing by counting calls, check by
``float.hex`` that the shared paths give what the public composition gives
on a polyhedron that enumerates afresh, and pin the error that each kind
of bad pair raises.
"""

import numpy as np
import pytest

from altproj import (
    EmptyPolyhedron,
    HalfSpace,
    InvalidDistance,
    LPProblem,
    Polyhedron,
    TooLarge,
    alpha_polyhedron_halfspace,
    bound_report,
    certify,
    engine,
    iteration_bound,
    lp,
    one_step_shift,
    polyhedron_halfspace_distance,
    qp,
    sets,
    solve_lp,
    translate,
    vertex_oracle,
    vertices,
)
from altproj.instances import random_pair_instance
from test_certify import bad_geometry_pairs
from test_lp import pyramid
from test_qp_adversarial import with_duplicates


def random_pairs(seed, count):
    rng = np.random.default_rng(seed)
    return [random_pair_instance(rng) for _ in range(count)]


def start_in(A):
    # A point of the half-space one unit below its boundary.
    return (A.M - 1.0) / float(A.c @ A.c) * A.c


def outcome(fn):
    """``fn()``'s value, or the type of the error it raised."""
    try:
        return fn()
    except Exception as exc:  # compared by type below
        return type(exc)


def hexed(value):
    if isinstance(value, type):
        return value
    if isinstance(value, np.ndarray):
        return [float(v).hex() for v in value]
    return float(value).hex()


def count_calls(monkeypatch, modules, name):
    """Route ``module.name`` through one counting spy in each of ``modules``."""
    original = getattr(modules[0], name)
    calls = []

    def spy(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        assert getattr(module, name) is original
        monkeypatch.setattr(module, name, spy)
    return calls


def spy_enumerations(monkeypatch):
    """Route ``feasible_vertices`` through a spy in each module that calls it.

    Returns the polyhedra it enumerated, one entry per call made while the
    polyhedron held no vertex list yet, and ``(polyhedron, list)`` for
    every call.
    """
    original = vertices.feasible_vertices
    enumerated, listed = [], []

    def spy(p):
        if p._vertices is None:
            enumerated.append(p)
        result = original(p)
        listed.append((p, result))
        return result

    for module in (certify, vertices):
        assert module.feasible_vertices is original
        monkeypatch.setattr(module, "feasible_vertices", spy)
    return enumerated, listed


@pytest.mark.parametrize("dims", [(2,), (3, 4)], ids=["n=2", "n>=3"])
def test_bound_report_enumerates_the_vertices_once(monkeypatch, dims):
    enumerated, listed = spy_enumerations(monkeypatch)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 5:
        enumerated.clear()
        listed.clear()
        inst = random_pair_instance(rng)
        B, A = inst.poly, inst.halfspace
        if B.dim not in dims:
            continue
        bound_report(B, A, inst.x0)
        solve_lp(LPProblem(A.c, B, A.M), x0=inst.x0, strategy="shifted")
        _, argmin = vertex_oracle(B, A.c)
        polyhedron_halfspace_distance(B, A)
        assert len(enumerated) == 1 and enumerated[0] is B
        assert all(p is B and lst is listed[0][1] for p, lst in listed)

        # The stored vertices are read-only; the oracle hands out a copy.
        stored = [v.copy() for v, _ in vertices.feasible_vertices(B)]
        for v, _ in vertices.feasible_vertices(B):
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0] = 0.0
        assert argmin.flags.writeable
        argmin += 1.0
        assert all(np.array_equal(v, w) for (v, _), w in zip(B._vertices, stored))

        # A translate is a new polyhedron with a list of its own.
        moved = translate(B, np.ones(B.dim))
        vertex_oracle(moved, A.c)
        assert len(enumerated) == 2 and enumerated[1] is moved
        assert moved._vertices is not B._vertices
        checked += 1


def test_shifted_solve_projects_the_start_once(monkeypatch):
    # The solve projects x0 with ``_project_from``, whose face the walk
    # continues from; ``project_polyhedron`` goes through it too.  Every
    # module that binds it is counted.
    calls = count_calls(monkeypatch, [engine, lp, qp, sets], "_project_from")
    for inst in random_pairs(19, 30):
        A = inst.halfspace
        calls.clear()
        solve_lp(LPProblem(A.c, inst.poly, A.M), x0=inst.x0, strategy="shifted")
        starts = [args for args in calls if np.array_equal(args[1], inst.x0)]
        assert len(starts) == 1


def shared_and_public(B, A, x0):
    """``bound_report`` and the constants over B's kept vertex list next to
    the public composition over a copy of B, which enumerates its own."""

    def fields(report):
        if isinstance(report, type):
            return report
        return hexed(report.alpha), hexed(report.d_AB), report.N, report.one_step

    report = fields(outcome(lambda: bound_report(B, A, x0)))
    shared = (
        hexed(alpha_polyhedron_halfspace(B, A)),
        hexed(polyhedron_halfspace_distance(B, A)),
        report,
    )
    fresh = Polyhedron(B.A, B.b)
    alpha = alpha_polyhedron_halfspace(fresh, A)
    d_ab = polyhedron_halfspace_distance(fresh, A)

    def composed():
        if d_ab <= 0.0:
            raise InvalidDistance("the sets intersect")
        d_x0 = float(np.linalg.norm(x0 - qp.project_polyhedron(fresh, x0).point))
        return iteration_bound(alpha, d_ab, max(d_x0, d_ab))

    return shared, (hexed(alpha), hexed(d_ab), fields(outcome(composed)))


def shifted_and_walked(B, A, x0):
    """The shifted solution (or its error) next to the walk from ``x0`` out
    to the paper's shift ``mu``.

    The solve stops on the first face where the point stands still, with a
    zero step, and the walk to ``mu`` ends on the same face: both add a
    zero to the point there, so even the sign of a zero agrees.
    """
    solved = outcome(
        lambda: solve_lp(LPProblem(A.c, B, A.M), x0=x0, strategy="shifted").solution
    )
    mu, _ = one_step_shift(A, B, x0, alpha_polyhedron_halfspace(B, A), 0.0)
    return hexed(solved), hexed(qp.project_along_ray(B, x0, -A.c, mu).point)


def test_shared_paths_match_the_public_composition_on_random_pairs():
    pairs = random_pairs(5, 60)
    assert {inst.poly.dim for inst in pairs} == {2, 3, 4}
    for inst in pairs:
        B, A, x0 = inst.poly, inst.halfspace, inst.x0
        shared, public = shared_and_public(B, A, x0)
        assert shared == public
        solved, walked = shifted_and_walked(B, A, x0)
        assert solved == walked


def test_shared_paths_match_the_public_composition_on_bad_geometry():
    intersecting = solved_count = 0
    for B, A in bad_geometry_pairs():
        x0 = start_in(A)
        shared, public = shared_and_public(B, A, x0)
        assert shared == public
        intersecting += shared[2] is InvalidDistance
        solved, walked = shifted_and_walked(B, A, x0)
        if not isinstance(solved, type):
            assert solved == walked
            solved_count += 1
    # Some of these half-spaces cut B and take the d = 0 branch; the rest
    # solve.
    assert intersecting > 0
    assert solved_count > 0


def unit_rows(m, n, rng):
    # m unit rows with rhs 1: the polyhedron holds a ball about the origin.
    rows = rng.normal(size=(m, n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True), np.ones(m)


@pytest.mark.parametrize("n", [2, 3])
def test_bound_report_too_many_rows_raises_too_large(n):
    rows, rhs = unit_rows(25, n, np.random.default_rng(n))
    A = HalfSpace(np.eye(n)[0], -5.0)
    with pytest.raises(TooLarge):
        bound_report(Polyhedron(rows, rhs), A, start_in(A))


@pytest.mark.parametrize("n", [2, 3])
def test_bound_report_empty_box_raises_empty_polyhedron(n):
    # x_i <= -1 and -x_i <= -1: no point, though every row set is regular.
    box = Polyhedron(np.vstack([np.eye(n), -np.eye(n)]), -np.ones(2 * n))
    A = HalfSpace(np.ones(n), -5.0)
    with pytest.raises(EmptyPolyhedron):
        bound_report(box, A, start_in(A))


def test_bound_report_intersecting_pair_raises_invalid_distance():
    # B is the orthant x <= 1, unbounded along -c = -e_3, so it reaches
    # into A = {x_3 <= -5}.
    B = Polyhedron(np.eye(3), np.ones(3))
    A = HalfSpace([0.0, 0.0, 1.0], -5.0)
    with pytest.raises(InvalidDistance):
        bound_report(B, A, start_in(A))


def degenerate_polyhedra():
    rng = np.random.default_rng(23)
    polys = [pyramid(n) for n in range(3, 7)]
    polys += [with_duplicates(rng)[0] for _ in range(8)]
    return polys + [B for B, _ in bad_geometry_pairs()]


def test_block_active_sets_equal_the_per_vertex_formula():
    degenerate = 0
    for p in degenerate_polyhedra():
        for v, active in vertices.feasible_vertices(p):
            slack = np.abs(p.A @ v - p.b)
            expected = tuple(np.flatnonzero(slack <= 1e-7 * (1.0 + np.abs(p.b))).tolist())
            assert active == expected
            degenerate += len(active) > p.dim
    assert degenerate > 0
