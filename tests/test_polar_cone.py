"""Cone distances on bad generators and at extreme scales.

Every cone distance of the package of two or more generators is one
``linalg.nnls`` solve: the projection of the target onto the polar cone of
the unit generators, by the active-set kernel of the polyhedron projection.
No least-squares solve remains beside it.  The optimality conditions
of ``min_{lam >= 0} ||G lam - y||`` certify an answer without an oracle, so
the bad-geometry cases check those, on the generators of
``test_qp_adversarial``.  The scaled boxes are bounded LPs whose rows differ
in norm by up to 1e12; a cone solve whose tolerance grows with the largest
generator read them as unbounded.  On the targets inside a cone that a
least-squares shortcut once answered, the residual is held to the exact
distance of ``exact.cone_family_distance``.
"""

import ast
import contextlib
import io
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from altproj import HalfSpace, Polyhedron, Unbounded, certify, distance_to_finite_cone, lp, run, vertices
from altproj.cli import main
from altproj.linalg import _dot_row_norms, _norm, nnls, unit_cone_distance
from altproj.sets import set_to_json
from exact import cone_family_distance
from test_qp_adversarial import random_poly, tilted, unit, with_duplicates

SRC = Path(__file__).resolve().parent.parent / "src" / "altproj"


def assert_nnls_kkt(G, y, lam, rnorm, tol=1e-9):
    """The optimality conditions of ``min_{lam >= 0} ||G lam - y||``.

    Read on unit columns, so that they do not depend on the columns' norms:
    ``lam >= 0``, no column makes an acute angle with the residual
    ``r = y - G lam`` (``g_i' r <= tol ||y||``), and a column with a positive
    coefficient is orthogonal to it.  A zero column gets 0.  ``rnorm`` is
    ``||r||``.
    """
    norms = np.linalg.norm(G, axis=0)
    r = y - G @ lam
    scale = tol * max(1.0, float(np.linalg.norm(y)))
    assert rnorm == pytest.approx(float(np.linalg.norm(r)), abs=1e-12 * max(1.0, rnorm))
    assert np.all(lam >= 0.0)
    assert not lam[norms == 0.0].any()
    cols = norms > 0.0
    cosines = (G[:, cols].T @ r) / norms[cols]
    assert float(cosines.max(initial=0.0)) <= scale
    assert float(np.abs(lam[cols] * norms[cols] * cosines).max(initial=0.0)) <= scale


def bad_generators(rng):
    """``(kind, G)``: nearly parallel, duplicated and wide-scale columns."""
    for _ in range(60):
        n = int(rng.integers(2, 9))
        a = unit(rng, n)
        angle = 10.0 ** -rng.uniform(5.0, 12.0)
        rows = [tilted(rng, a, angle) for _ in range(int(rng.integers(2, 8)))]
        rows += [unit(rng, n) for _ in range(int(rng.integers(0, 4)))]
        yield "parallel", np.array(rows).T
    for _ in range(60):
        yield "duplicate", with_duplicates(rng)[0].A.T
    for _ in range(60):
        A = random_poly(rng)[0].A
        yield "wide", (A * 10.0 ** rng.uniform(-6.0, 6.0, size=(A.shape[0], 1))).T


def test_nnls_meets_kkt_on_bad_generators():
    rng = np.random.default_rng(2811)
    seen = {"parallel": 0, "duplicate": 0, "wide": 0}
    for kind, G in bad_generators(rng):
        n, k = G.shape
        # A random target, a point of the cone with some coefficients zero,
        # and a target near the ray opposite a generator.
        targets = (
            unit(rng, n),
            G @ (rng.random(k) * (rng.random(k) < 0.6)),
            -G[:, 0] / np.linalg.norm(G[:, 0]) + 0.1 * unit(rng, n),
        )
        for y in targets:
            if not y.any():
                continue
            y = y / np.linalg.norm(y)
            lam, rnorm = nnls(G, y)
            assert_nnls_kkt(G, y, lam, rnorm)
            assert unit_cone_distance(y, G) == min(rnorm, 1.0)
            seen[kind] += 1
    assert all(count >= 150 for count in seen.values()), seen


def test_cone_distance_does_not_depend_on_the_generators_norms():
    # unit_cone_distance(v, G D) == unit_cone_distance(v, G) for a positive
    # diagonal D: the cone is the same.  Half the targets lie in the cone.
    rng = np.random.default_rng(2812)
    for _ in range(300):
        n, k = int(rng.integers(2, 9)), int(rng.integers(2, 25))
        G = rng.normal(size=(n, k))
        v = G @ rng.random(k) if rng.random() < 0.5 else rng.normal(size=n)
        v /= np.linalg.norm(v)
        D = 10.0 ** rng.uniform(-8.0, 8.0, size=k)
        assert abs(unit_cone_distance(v, G * D) - unit_cone_distance(v, G)) <= 1e-12


def test_zero_columns_get_zero_and_change_nothing():
    rng = np.random.default_rng(2813)
    for _ in range(50):
        G = rng.normal(size=(3, 4))
        y = rng.normal(size=3)
        lam, rnorm = nnls(G, y)
        with_zeros = np.insert(G, [0, 2, 4], 0.0, axis=1)
        lam0, rnorm0 = nnls(with_zeros, y)
        assert_nnls_kkt(with_zeros, y, lam0, rnorm0)
        assert not lam0[[0, 3, 6]].any()
        assert rnorm0 == pytest.approx(rnorm, abs=1e-12)
    lam, rnorm = nnls(np.zeros((3, 2)), np.array([1.0, 2.0, 2.0]))
    assert lam.tolist() == [0.0, 0.0] and rnorm == 3.0


# The certified stop of every ``abs`` planar run: B's cone at the apex of
# the abs epigraph, against the unit direction to A straight below it.
ABS_APEX = (np.array([[1.0, -1.0], [-1.0, -1.0]]), np.array([0.0, -1.0]))


def inside_cases(rng, count):
    """``count`` pairs ``(G, y)`` of the kind a least-squares shortcut answered.

    ``m <= n <= 5`` independent columns whose largest entries lie within a
    factor 100 of each other, and ``y = G lam`` with ``lam > 0``, scaled to
    about unit norm, at an acute angle to every column.
    """
    cases = []
    while len(cases) < count:
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        G = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-1.0, 1.0, size=m)
        lam = rng.uniform(0.05, 1.0, size=m)
        y = G @ (lam / np.linalg.norm(G @ lam))
        sizes = np.abs(G).max(axis=0)
        if sizes.max() <= 100.0 * sizes.min() and (G.T @ y > 0.0).all():
            cases.append((G, y))
    return cases


def test_inside_targets_meet_the_exact_distance():
    # The residual is formed from ``y`` and the terms ``lam_i g_i``, so it
    # rounds at the scale ``||y|| + sum_i lam_i ||g_i||``; the polar route
    # stays within two units of that scale (3.9e-16 of it at worst over
    # rng seeds 1..30).  The unconstrained solve on all columns that once
    # answered these targets erred by 5.1e-16 to 3.5e-15 of it, on each
    # of those seeds.
    for seed in (7, 2024):
        for G, y in [*inside_cases(np.random.default_rng(seed), 300), ABS_APEX]:
            lam, rnorm = nnls(G, y)
            m = G.shape[1]
            family = [s for size in range(1, m + 1) for s in itertools.combinations(range(m), size)]
            exact = math.sqrt(cone_family_distance(y, G.T, family))
            scale = float(np.linalg.norm(y)) + float(lam.dot(np.linalg.norm(G, axis=0)))
            assert abs(rnorm - exact) <= 2.0 * np.finfo(float).eps * scale, (G, y)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e154, 1e300])
def test_targets_whose_squares_overflow_are_normalised(scale):
    # The sum of squares of each target overflows; its norm does not, and
    # no overflow warning is raised on the way.
    lam, rnorm = nnls(np.eye(2), [scale, scale])
    assert lam.tolist() == [scale, scale] and rnorm == 0.0
    halfway = math.sqrt(0.5)
    assert distance_to_finite_cone([scale, -scale], [[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(halfway, rel=1e-15)
    assert distance_to_finite_cone([scale, scale], [[1.0, 0.0]]) == pytest.approx(halfway, rel=1e-15)
    # The quadrant is unbounded below along -c; a -c / inf of zeros would
    # lie in every cone and read it as bounded.
    quadrant = Polyhedron([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    with pytest.raises(Unbounded):
        vertices.vertex_oracle(quadrant, [-scale, -scale])


C = np.array([1.0, 2.0, 3.0])
M = -7.0


def scaled_box(big, small):
    """The box [-1, 1]^3 as ``big e_i . x <= big`` and ``-small e_i . x <= small``."""
    eye = np.eye(3)
    return np.vstack([big * eye, -small * eye]), np.r_[big * np.ones(3), small * np.ones(3)]


def cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("big, small", [(1e4, 1e-8), (1e2, 1e-10), (1.0, 1e-11)])
def test_scaled_boxes_are_bounded(big, small, tmp_path, capsys):
    # min c.x over the box is -6 at (-1, -1, -1), and the half-space
    # c.x <= -7 lies 1/sqrt(14) from it.
    A, b = scaled_box(big, small)
    optimum, vertex = vertices.vertex_oracle(Polyhedron(A, b), C)
    assert optimum == pytest.approx(-6.0, abs=1e-12)
    assert vertex.tolist() == pytest.approx([-1.0, -1.0, -1.0], abs=1e-12)
    x0 = (M - 1.0) / 14.0 * C
    report = certify.bound_report(Polyhedron(A, b), HalfSpace(C, M), x0)
    assert report.d_AB == pytest.approx(1.0 / math.sqrt(14.0), rel=1e-12)
    shifted = lp.solve_lp(lp.LPProblem(C, Polyhedron(A, b), M), strategy="shifted")
    assert shifted.objective == pytest.approx(-6.0, abs=1e-9)

    problem = tmp_path / "lp.json"
    problem.write_text(json.dumps({"c": C.tolist(), "A": A.tolist(), "b": b.tolist()}))
    for strategy in ("direct", "shifted"):
        code, text = cli(["lp", str(problem), "--auto-bound", "--strategy", strategy])
        assert code == 0, capsys.readouterr().err
    assert json.loads(text)["objective"] == pytest.approx(-6.0, abs=1e-9)
    pair = tmp_path / "bound.json"
    spec = {
        "setA": set_to_json(HalfSpace(C, M)),
        "setB": set_to_json(Polyhedron(A, b)),
        "x0": x0.tolist(),
    }
    pair.write_text(json.dumps(spec))
    code, text = cli(["bound", str(pair)])
    assert code == 0, capsys.readouterr().err
    assert json.loads(text)["d_AB"] == pytest.approx(1.0 / math.sqrt(14.0), rel=1e-12)


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_rows_whose_squares_overflow_raise_no_warning(scale):
    # The box [0, 1]^3 with its lower rows -scale e_i: their sums of squares
    # overflow.  A run from the half-space -c.x <= -7 ends on the upper
    # rows, and alpha measures cones of all six; both read the box as the
    # box with unit rows.
    def answers(s):
        poly = Polyhedron(np.vstack([np.eye(3), -s * np.eye(3)]), np.r_[np.ones(3), np.zeros(3)])
        halfspace = HalfSpace(-C, M)
        trace = run(halfspace, poly, (M - 1.0) / 14.0 * -C)
        return trace.gaps.tobytes(), certify.alpha_polyhedron_halfspace(poly, halfspace)

    rows = np.array([[scale, scale, 0.0], [3.0, 4.0, 0.0]])
    with np.errstate(over="ignore"):
        rescued = _norm(rows[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert answers(scale) == answers(1.0)
        assert _dot_row_norms(rows).tolist() == [rescued, 5.0]


def lstsq_sites():
    """``(file, innermost function)`` of every reference to ``lstsq`` in the
    package, as an attribute or an imported name."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "lstsq") or (
                isinstance(node, ast.alias) and node.name == "lstsq"
            ):
                owners = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                sites.append((path.name, owners[-1] if owners else "<module>"))
    return sites


def test_no_lstsq_reference_in_the_package():
    # Every cone solve is the active-set kernel's polar projection.
    assert lstsq_sites() == []
