"""Property checks behind the ``verify`` CLI command and the test suite.

Each check is one function ``check(rng, cases) -> CheckResult`` that draws
``cases`` random cases from ``rng``, applies its bound and reports one
pass/fail row.  Fixture checks draw nothing; they take both arguments, with
defaults, only so that every check is called the same way.  ``run_suites``
runs the checks of each suite with the case counts in :data:`SUITES` on one
generator per suite, seeded via the ``ALTPROJ_SEED`` environment variable
(default 42); the tests call the same functions with their own seeds and
counts.
``alpha_scale`` is a test hook that multiplies the computed angle constant
inside the finite-step compliance check; scaling it up must break it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import certify, engine, lp
from .instances import (
    absval_distance,
    absval_epigraph,
    absval_polyhedron,
    lower_halfplane,
    parabola_epigraph,
    random_bounded_polyhedron,
    random_lp_instance,
    random_pair_instance,
    random_set,
    sample_member,
)
from .linalg import nnls, unit_cone_distance, unit_distance_to_ray
from .qp import project_polyhedron
from .sets import (
    HalfSpace,
    Polyhedron,
    normal_cone_columns,
    project,
    project_halfspace,
    translate,
)

DEFAULT_SEED = 42

# Feasible points sampled against each projection in the optimality check.
_SAMPLES_PER_POINT = 20


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def get_seed() -> int:
    raw = os.environ.get("ALTPROJ_SEED", "")
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_SEED


def _bounded(name: str, worst: float, bound: float, label: str = "max dev") -> CheckResult:
    return CheckResult(name, worst <= bound, f"{label} {worst:.2e}")


def _nonzero_pairs(rng: np.random.Generator, cases: int):
    # Two normal vectors in R^n, n in 1..5, per case; near-zero pairs are
    # drawn but skipped.
    for _ in range(cases):
        n = int(rng.integers(1, 6))
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        if np.linalg.norm(u) >= 1e-6 and np.linalg.norm(v) >= 1e-6:
            yield u, v


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def ray_symmetry(rng: np.random.Generator, cases: int) -> CheckResult:
    """``d(v, ray(u)) = d(u, ray(v))`` to 1e-10."""
    worst = max(
        (abs(unit_distance_to_ray(_unit(v), u) - unit_distance_to_ray(_unit(u), v))
         for u, v in _nonzero_pairs(rng, cases)),
        default=0.0,
    )
    return _bounded("linalg/ray-symmetry", worst, 1e-10)


def ray_scale_invariance(rng: np.random.Generator, cases: int) -> CheckResult:
    """``d(lam v, ray(u)) = d(v, ray(u))`` for lam in [0.05, 20], to 1e-10."""
    worst = 0.0
    for u, v in _nonzero_pairs(rng, cases):
        lam = float(rng.uniform(0.05, 20.0))
        worst = max(
            worst,
            abs(unit_distance_to_ray(_unit(lam * v), u) - unit_distance_to_ray(_unit(v), u)),
        )
    return _bounded("linalg/ray-scale-invariance", worst, 1e-10)


def cone_single_generator(rng: np.random.Generator, cases: int) -> CheckResult:
    """The closed-form ray distance equals NNLS on the one column, to 1e-8."""
    worst = max(
        (abs(unit_distance_to_ray(_unit(v), g) - nnls(g[:, None], _unit(v))[1])
         for v, g in _nonzero_pairs(rng, cases)),
        default=0.0,
    )
    return _bounded("linalg/cone-single-generator", worst, 1e-8)


def cone_monotone(rng: np.random.Generator, cases: int) -> CheckResult:
    """Adding a generator never increases the cone distance by more than 1e-9."""
    ok = True
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        v = rng.normal(size=n)
        G = np.column_stack([rng.normal(size=n) for _ in range(4)])
        dists = [unit_cone_distance(_unit(v), G[:, :k]) for k in range(5)]
        ok = ok and all(dists[k + 1] <= dists[k] + 1e-9 for k in range(4))
    return CheckResult("linalg/cone-monotone", ok, "adding generators never increases")


def projection_idempotent(rng: np.random.Generator, cases: int) -> CheckResult:
    """``P(P(x)) = P(x)`` to 1e-9 on random sets."""
    worst = 0.0
    for _ in range(cases):
        s = random_set(rng)
        p = project(s, rng.normal(size=s.dim) * 3.0)
        worst = max(worst, np.linalg.norm(project(s, p) - p))
    return _bounded("sets/projection-idempotent", worst, 1e-9)


def projection_optimal_sampled(rng: np.random.Generator, cases: int) -> CheckResult:
    """No sampled member of the set is closer to ``x`` than ``P(x)`` by 1e-9."""
    ok = True
    for _ in range(cases):
        s = random_set(rng)
        x = rng.normal(size=s.dim) * 3.0
        d = np.linalg.norm(x - project(s, x))
        for _ in range(_SAMPLES_PER_POINT):
            ok = d <= np.linalg.norm(x - sample_member(rng, s)) + 1e-9 and ok
    return CheckResult(
        "sets/projection-optimal-sampled", ok, f"{cases * _SAMPLES_PER_POINT} feasible samples"
    )


def normal_cone_consistency(rng: np.random.Generator, cases: int) -> CheckResult:
    """``x - P(x)`` lies in the normal cone at ``P(x)``, to 1e-7."""
    worst = 0.0
    for _ in range(cases):
        s = random_set(rng)
        x = rng.normal(size=s.dim) * 3.0
        p = project(s, x)
        if np.linalg.norm(x - p) <= 1e-9:
            continue
        worst = max(worst, unit_cone_distance(_unit(x - p), normal_cone_columns(s, p)))
    return _bounded("sets/normal-cone-consistency", worst, 1e-7, "max res")


def translation_equivariance(rng: np.random.Generator, cases: int) -> CheckResult:
    """``P_{S+v}(x+v) = P_S(x) + v`` to 1e-9."""
    worst = 0.0
    for _ in range(cases):
        s = random_set(rng)
        x = rng.normal(size=s.dim) * 3.0
        v = rng.normal(size=s.dim)
        worst = max(worst, np.linalg.norm(project(translate(s, v), x + v) - (project(s, x) + v)))
    return _bounded("sets/translation-equivariance", worst, 1e-9)


def halfspace_agreement(rng: np.random.Generator, cases: int) -> CheckResult:
    """A one-row polyhedron projects like the half-space, to 1e-7."""
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        c = rng.normal(size=n)
        c /= np.linalg.norm(c)
        M = float(rng.normal())
        single = Polyhedron(c.reshape(1, -1), np.array([M]))
        x = rng.normal(size=n) * 3.0
        closed = project_halfspace(HalfSpace(c, M), x)
        worst = max(worst, np.linalg.norm(project_polyhedron(single, x).point - closed))
    return _bounded("qp/halfspace-agreement", worst, 1e-7)


def box_agreement(rng: np.random.Generator, cases: int) -> CheckResult:
    """A box projects like coordinate clipping, to 1e-7."""
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        lo = rng.normal(size=n) - 1.0
        hi = lo + rng.uniform(0.5, 2.0, size=n)
        box = Polyhedron(np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([hi, -lo]))
        x = rng.normal(size=n) * 3.0
        worst = max(worst, np.linalg.norm(project_polyhedron(box, x).point - np.clip(x, lo, hi)))
    return _bounded("qp/box-agreement", worst, 1e-7)


def kkt_certificate(rng: np.random.Generator, cases: int) -> CheckResult:
    """Polyhedron projections satisfy KKT.

    Stationarity ``||x - z - A' lam||`` and complementarity to 1e-6, primal
    feasibility to 1e-8, multipliers at least -1e-10.
    """
    ok = True
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        poly, _ = random_bounded_polyhedron(rng, n, int(rng.integers(0, 5)))
        x = rng.normal(size=n) * 4.0
        res = project_polyhedron(poly, x)
        stat = np.linalg.norm(x - res.point - poly.A.T.dot(res.dual))
        slack = poly.A.dot(res.point) - poly.b
        viol = float(np.max(slack, initial=0.0))
        comp = float(np.max(np.abs(res.dual * slack), initial=0.0))
        negative = -float(res.dual.min(initial=0.0))
        ok = ok and stat <= 1e-6 and comp <= 1e-6 and viol <= 1e-8 and negative <= 1e-10
        worst = max(worst, stat, viol, comp, negative)
    return CheckResult("qp/kkt-certificate", ok, f"max res {worst:.2e}")


def gaps_monotone(rng: np.random.Generator, cases: int) -> CheckResult:
    """Step gaps never rise by more than 1e-10.

    On the absval fixtures k = 0, 0.5, 1 started at ``(1 + 2k, 0)``, then on
    ``cases`` random polyhedron / half-space pairs.
    """
    a_set = lower_halfplane()
    traces = [
        engine.run(a_set, absval_epigraph(k), [1.0 + 2.0 * k, 0.0], max_iters=60, cert_tol=1e-10)
        for k in (0.0, 0.5, 1.0)
    ]
    for _ in range(cases):
        inst = random_pair_instance(rng)
        traces.append(engine.run(inst.halfspace, inst.poly, inst.x0, max_iters=5000))
    worst = max(0.0, *(b - a for t in traces for a, b in zip(t.gaps, t.gaps[1:])))
    return _bounded("engine/gaps-monotone", worst, 1e-10, "max rise")


def per_cycle_contraction(rng=None, cases: int = 0) -> CheckResult:
    """Each half-space projection contracts the gap by ``1 - alpha^2``.

    Fixtures: the shifted absval polyhedra k = 0.5, 1, 2 started at (7, 0)
    and (9, 0); every run must certify within 100 cycles, and each cycle
    before the certificate must contract to within 1e-9.
    """
    a_set = lower_halfplane()
    ok = True
    worst_rate = 0.0
    for k in (0.5, 1.0, 2.0):
        b_set = absval_polyhedron(k)
        alpha = certify.alpha_polyhedron_halfspace(b_set, a_set)
        rate = 1.0 - alpha * alpha
        worst_rate = max(worst_rate, rate)
        for x_start in (7.0, 9.0):
            trace = engine.run(a_set, b_set, [x_start, 0.0], max_iters=100)
            gaps = trace.gaps
            ok = ok and trace.stop_reason is engine.StopReason.CERTIFIED and all(
                gaps[2 * n + 1] <= rate * gaps[2 * n] + 1e-9 for n in range((len(gaps) - 1) // 2)
            )
    return CheckResult(
        "engine/per-cycle-contraction", ok, f"rate {worst_rate:.4f} on 6 shifted fixtures"
    )


def alpha_range(rng: np.random.Generator, cases: int) -> CheckResult:
    """The angle constant of random pairs lies in (0, 1/2]."""
    ok = True
    worst = 0.0
    for _ in range(cases):
        inst = random_pair_instance(rng)
        alpha = certify.alpha_polyhedron_halfspace(inst.poly, inst.halfspace)
        ok = ok and 0.0 < alpha <= 0.5
        worst = max(worst, alpha)
    return CheckResult("bounds/alpha-range", ok, f"max alpha {worst:.4f}")


def finite_step_compliance(
    rng: np.random.Generator, cases: int, alpha_scale: float = 1.0
) -> CheckResult:
    """Random pairs certify within the ``2N + 1`` steps of ``bound_report``.

    ``alpha_scale`` multiplies the angle constant before the bound is taken
    (capped below 1); any value much above 1 must produce violations.
    """
    failures = 0
    for _ in range(cases):
        inst = random_pair_instance(rng)
        report = certify.bound_report(inst.poly, inst.halfspace, inst.x0)
        alpha = min(report.alpha * alpha_scale, 0.999999)
        max_steps = certify.iteration_bound(alpha, report.d_AB, report.d_x0_B).max_steps
        trace = engine.run(inst.halfspace, inst.poly, inst.x0, max_iters=20000)
        if (
            trace.stop_reason is not engine.StopReason.CERTIFIED
            or trace.steps_to_converge > max_steps
        ):
            failures += 1
    return CheckResult(
        "bounds/finite-step-compliance", failures == 0, f"{failures}/{cases} violations"
    )


def shift_forces_one_step(rng: np.random.Generator, cases: int) -> CheckResult:
    """The one-step shift moves the half-space and certifies in one pair.

    ``d(A - mu c, B) = d(A, B) + mu ||c||`` to relative 1e-9, and the run
    from ``x0 - mu c`` certifies within 2 steps.
    """
    ok = True
    for _ in range(cases):
        inst = random_pair_instance(rng)
        alpha = certify.alpha_polyhedron_halfspace(inst.poly, inst.halfspace)
        mu, shifted = certify.one_step_shift(inst.halfspace, inst.poly, inst.x0, alpha, inst.d_ab)
        expected = inst.d_ab + mu * np.linalg.norm(inst.halfspace.c)
        d_shifted = certify.polyhedron_halfspace_distance(inst.poly, shifted)
        trace = engine.run(shifted, inst.poly, inst.x0 - mu * inst.halfspace.c, max_iters=50)
        ok = (
            ok
            and abs(d_shifted - expected) <= max(1e-9 * expected, 1e-12)
            and trace.stop_reason is engine.StopReason.CERTIFIED
            and trace.steps_to_converge <= 2
        )
    return CheckResult("bounds/shift-forces-one-step", ok, f"{cases} random instances")


def _lp_solves(rng: np.random.Generator, cases: int, strategy: str):
    # (problem, oracle optimum, outcome) for ``cases`` random LPs.
    for _ in range(cases):
        problem, optimum, _ = random_lp_instance(rng)
        yield problem, optimum, lp.solve_lp(problem, strategy=strategy)


def _matches_oracle(name: str, rng: np.random.Generator, cases: int, strategy: str) -> CheckResult:
    # Objective within 1e-5 of the oracle, certificate holding, solution
    # feasible to 1e-7.
    ok = True
    worst = 0.0
    for problem, optimum, out in _lp_solves(rng, cases, strategy):
        viol = float(np.max(problem.poly.A.dot(out.solution) - problem.poly.b, initial=0.0))
        ok = ok and out.certificate.holds and viol <= 1e-7
        worst = max(worst, abs(out.objective - optimum))
    return CheckResult(name, ok and worst <= 1e-5, f"max dev {worst:.2e}")


def direct_matches_oracle(rng: np.random.Generator, cases: int) -> CheckResult:
    """The direct LP solve matches the vertex oracle."""
    return _matches_oracle("lp/direct-matches-oracle", rng, cases, "direct")


def shifted_matches_oracle(rng: np.random.Generator, cases: int) -> CheckResult:
    """The shifted LP solve matches the vertex oracle."""
    return _matches_oracle("lp/shifted-matches-oracle", rng, cases, "shifted")


def solution_cone_certificate(rng: np.random.Generator, cases: int) -> CheckResult:
    """At the shifted solution, ``-c`` lies in the cone of the active rows, to 1e-6."""
    worst = 0.0
    for problem, _, out in _lp_solves(rng, cases, "shifted"):
        # At a minimizer of <c, x> the outward normal cone of the feasible
        # set contains -c.
        slack = np.abs(problem.poly.A.dot(out.solution) - problem.poly.b)
        active = problem.poly.A[slack <= 1e-6].T
        worst = max(worst, unit_cone_distance(_unit(-problem.c), active))
    return _bounded("lp/solution-cone-certificate", worst, 1e-6, "max res")


def absval_rate_envelope(rng=None, cases: int = 0) -> CheckResult:
    """Consistent absolute-value pair: gaps stay under ``(7/8)^n gap_0``.

    The run from (1, 0) must certify and record at least 20 gaps.
    """
    trace = engine.run(
        lower_halfplane(), absval_epigraph(0.0), [1.0, 0.0], max_iters=40, cert_tol=1e-12
    )
    gaps = trace.gaps
    ok = (
        trace.stop_reason is engine.StopReason.CERTIFIED
        and len(gaps) >= 20
        and all(gaps[n] <= (7.0 / 8.0) ** n * gaps[0] + 1e-9 for n in range(len(gaps)))
    )
    return CheckResult("examples/absval-rate-envelope", ok, f"{len(gaps)} gaps checked")


def absval_shifted_finite_steps(rng=None, cases: int = 0) -> CheckResult:
    """Shifted absval fixtures certify within ``2 floor(log_{7/8}(k / d0)) + 1`` steps."""
    ok = True
    detail = ""
    for k in (0.5, 1.0, 2.0):
        for x_start in (1.0, 3.0, 10.0):
            d0 = absval_distance(x_start, k)
            bound = 2 * math.floor(math.log(k / d0) / math.log(7.0 / 8.0)) + 1
            trace = engine.run(
                lower_halfplane(), absval_epigraph(k), [x_start, 0.0], max_iters=200
            )
            if trace.stop_reason is not engine.StopReason.CERTIFIED:
                ok = False
                detail = f"k={k} x0={x_start} did not certify"
            elif trace.steps_to_converge > bound:
                ok = False
                detail = f"k={k} x0={x_start}: {trace.steps_to_converge} > {bound}"
    return CheckResult("examples/absval-shifted-finite-steps", ok, detail or "9 fixtures")


def parabola_no_linear_rate(rng=None, cases: int = 0) -> CheckResult:
    """Unshifted parabola: within 1000 cycles some gap ratio exceeds 0.99."""
    trace = engine.run(
        lower_halfplane(), parabola_epigraph(0.0), [1.0, 0.0], max_iters=1000, cert_tol=1e-13
    )
    gaps = trace.gaps
    best = max((b / a for a, b in zip(gaps, gaps[1:]) if a > 0), default=0.0)
    return CheckResult("examples/parabola-no-linear-rate", best > 0.99, f"max gap ratio {best:.4f}")


def parabola_shifted_no_finite_convergence(rng=None, cases: int = 0) -> CheckResult:
    """Shifted parabola: the nearest pair ((0, 0), (0, 1)) is approached, never reached.

    After 8 cycles the run has not certified, the certificate residual
    exceeds 1e-6 and the B-point's first coordinate is still nonzero.
    """
    trace = engine.run(
        lower_halfplane(), parabola_epigraph(1.0), [1.0, 0.0], max_iters=8, cert_tol=1e-13
    )
    residual = max(trace.certificate.residual_A, trace.certificate.residual_B)
    _, b_final = trace.final_pair()
    ok = (
        trace.stop_reason is engine.StopReason.MAX_ITERS
        and residual > 1e-6
        and abs(b_final[0]) > 0.0
    )
    return CheckResult(
        "examples/parabola-shifted-no-finite-convergence",
        ok,
        f"residual {residual:.2e} after 8 cycles",
    )


# (check, cases) per suite; checks of one suite share one generator, in
# this order.
SUITES = {
    "linalg": (
        (ray_symmetry, 200),
        (ray_scale_invariance, 200),
        (cone_single_generator, 200),
        (cone_monotone, 100),
    ),
    "sets": (
        (projection_idempotent, 200),
        (projection_optimal_sampled, 50),
        (normal_cone_consistency, 200),
        (translation_equivariance, 200),
    ),
    "qp": ((halfspace_agreement, 200), (box_agreement, 200), (kkt_certificate, 100)),
    "engine": ((gaps_monotone, 20), (per_cycle_contraction, 0)),
    "bounds": ((alpha_range, 200), (finite_step_compliance, 25), (shift_forces_one_step, 10)),
    "lp": (
        (direct_matches_oracle, 20),
        (shifted_matches_oracle, 20),
        (solution_cone_certificate, 20),
    ),
    "examples": (
        (absval_rate_envelope, 0),
        (absval_shifted_finite_steps, 0),
        (parabola_no_linear_rate, 0),
        (parabola_shifted_no_finite_convergence, 0),
    ),
}


def run_suites(names, alpha_scale: float = 1.0) -> list[CheckResult]:
    """Run the named suites (all of them when ``names`` is empty), each on a
    generator seeded by :func:`get_seed`."""
    if not names:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}")
    seed = get_seed()
    results = []
    for name in sorted(names):
        rng = np.random.default_rng(seed)
        for check, cases in SUITES[name]:
            if check is finite_step_compliance:
                results.append(check(rng, cases, alpha_scale))
            else:
                results.append(check(rng, cases))
    return sorted(results, key=lambda r: r.name)
