"""Acceptance gate.

One test per criterion; every test prints a single PASS/FAIL line (visible
with ``pytest -s`` or in the captured output on failure) and then asserts.
Criteria 1, 2, 4, 6a, 8 and 9 run the property checks of
``altproj.verify``; criterion 7 re-checks the certified runs of criteria 2-4
(the fixture grids and random pairs, with the same seeds) through
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from altproj import (
    Polyhedron,
    StopReason,
    alpha_polyhedron_halfspace,
    check_certificate,
    norm,
    project,
    project_halfspace,
    run,
    verify,
    vertex_oracle,
)
from altproj.instances import (
    absval_distance,
    absval_epigraph,
    lower_halfplane,
    parabola_epigraph,
    random_pair_instance,
)

SEED = 42


def report(name, ok, detail=""):
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def shifted_absval_runs():
    # Criterion 2 grid; every run ends certified, so the pair is exact.
    runs = []
    for k in (0.5, 1.0, 2.0):
        for x_start in (1.0, 3.0, 10.0):
            trace = run(
                lower_halfplane(), absval_epigraph(k), [x_start, 0.0], max_iters=500
            )
            runs.append((k, x_start, trace))
    return runs


@pytest.fixture(scope="module")
def one_step_runs():
    # Criterion 3: k large enough that d(x0, B) < k * 8/7.
    runs = []
    for x_start, k in ((1.0, 2.0), (2.0, 4.0), (3.0, 6.0)):
        assert absval_distance(x_start, k) < k * 8.0 / 7.0
        trace = run(lower_halfplane(), absval_epigraph(k), [x_start, 0.0], max_iters=50)
        runs.append((k, x_start, trace))
    return runs


@pytest.fixture(scope="module")
def random_pair_runs():
    # The pairs of criterion 4: 200 random pairs at oracle-computed positive
    # distance.
    rng = np.random.default_rng(SEED)
    runs = []
    for _ in range(200):
        inst = random_pair_instance(rng)
        trace = run(inst.halfspace, inst.poly, inst.x0, max_iters=20000)
        runs.append((inst, trace))
    return runs


def test_criterion_1_absval_linear_rate():
    started = time.perf_counter()
    result = verify.absval_rate_envelope()
    elapsed = time.perf_counter() - started
    ok = result.ok and elapsed < 1.0
    report("criterion-1 absval linear rate", ok, f"{result.detail}, {elapsed:.2f}s")


def test_criterion_2_finite_bound():
    started = time.perf_counter()
    result = verify.absval_shifted_finite_steps()
    elapsed = time.perf_counter() - started
    ok = result.ok and elapsed < 1.0
    report("criterion-2 finite bound", ok, f"{result.detail}, {elapsed:.2f}s")


def test_criterion_3_one_step_regime(one_step_runs):
    started = time.perf_counter()
    ok = True
    detail = []
    for k, x_start, trace in one_step_runs:
        _, b_final = trace.final_pair()
        good = (
            trace.stop_reason is StopReason.CERTIFIED
            and trace.steps_to_converge == 1
            and norm(b_final - np.array([0.0, k])) <= 1e-8
        )
        ok = ok and good
        detail.append(f"k={k}:steps={trace.steps_to_converge}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report("criterion-3 one-step regime", ok, " ".join(detail))


def test_criterion_4_bound_on_random_polyhedra():
    started = time.perf_counter()
    result = verify.finite_step_compliance(np.random.default_rng(SEED), 200)
    elapsed = time.perf_counter() - started
    ok = result.ok and elapsed < 30.0
    report("criterion-4 random polyhedra bound", ok, f"{result.detail}, {elapsed:.1f}s")


def test_criterion_5_alpha_value():
    alpha = alpha_polyhedron_halfspace(
        Polyhedron([[1.0, -1.0], [-1.0, -1.0]], [0.0, 0.0]), lower_halfplane()
    )
    expected = 1.0 / (2.0 * math.sqrt(2.0))
    ok = abs(alpha - expected) <= 1e-12
    report("criterion-5 alpha value", ok, f"alpha={alpha!r}")


def test_criterion_6a_parabola_no_linear_rate():
    started = time.perf_counter()
    result = verify.parabola_no_linear_rate()
    elapsed = time.perf_counter() - started
    ok = result.ok and elapsed < 5.0
    report("criterion-6a parabola gap ratio", ok, f"{result.detail}, {elapsed:.1f}s")


def test_criterion_6b_shifted_parabola_certificate_stays_open():
    # Shifted case k=1: after 1000 iterations the certificate must still
    # fail with residual above 1e-6.  The engine's stall rule is bypassed
    # by iterating the projections directly so the full 1000 cycles run.
    started = time.perf_counter()
    a_set = lower_halfplane()
    b_set = parabola_epigraph(1.0)
    current = np.array([1.0, 0.0])
    for _ in range(1000):
        b_pt = project(b_set, current)
        current = project(a_set, b_pt)
    cert = check_certificate(a_set, b_set, current, b_pt, tol=1e-6)
    residual = max(cert.residual_A, cert.residual_B)
    elapsed = time.perf_counter() - started
    ok = (not cert.holds) and residual > 1e-6 and elapsed < 5.0
    report(
        "criterion-6b shifted parabola no finite convergence",
        ok,
        f"residual {residual:.2e} after 1000 cycles, {elapsed:.1f}s",
    )


def test_criterion_7_certificates_and_brute_force_pairs(
    shifted_absval_runs, one_step_runs, random_pair_runs
):
    worst_residual = 0.0
    worst_pair_dev = 0.0
    ok = True
    for k, _, trace in list(shifted_absval_runs) + list(one_step_runs):
        ok = ok and trace.stop_reason is StopReason.CERTIFIED
        a_pt, b_pt = trace.final_pair()
        cert = check_certificate(
            lower_halfplane(), absval_epigraph(k), a_pt, b_pt, tol=1e-6
        )
        ok = ok and cert.holds
        worst_residual = max(worst_residual, cert.residual_A, cert.residual_B)
        # the minimum-distance pair of these fixtures is ((0,0),(0,k))
        worst_pair_dev = max(
            worst_pair_dev,
            norm(a_pt - np.array([0.0, 0.0])),
            norm(b_pt - np.array([0.0, k])),
        )
    for inst, trace in random_pair_runs:
        ok = ok and trace.stop_reason is StopReason.CERTIFIED
        a_pt, b_pt = trace.final_pair()
        cert = check_certificate(inst.halfspace, inst.poly, a_pt, b_pt, tol=1e-6)
        ok = ok and cert.holds
        worst_residual = max(worst_residual, cert.residual_A, cert.residual_B)
        _, vertex = vertex_oracle(inst.poly, inst.halfspace.c)
        expected_b = vertex
        expected_a = project_halfspace(inst.halfspace, expected_b)
        worst_pair_dev = max(
            worst_pair_dev, norm(a_pt - expected_a), norm(b_pt - expected_b)
        )
    ok = ok and worst_residual <= 1e-6 and worst_pair_dev <= 1e-6
    report(
        "criterion-7 optimality certificates",
        ok,
        f"max residual {worst_residual:.2e}, max pair deviation {worst_pair_dev:.2e}",
    )


def test_criterion_8_lp_oracle_equivalence():
    started = time.perf_counter()
    results = [
        check(np.random.default_rng(SEED + 1), 200)
        for check in (
            verify.direct_matches_oracle,
            verify.shifted_matches_oracle,
            verify.shifted_single_projection,
        )
    ]
    elapsed = time.perf_counter() - started
    ok = all(r.ok for r in results) and elapsed < 60.0
    details = ", ".join(f"{r.name} {r.detail}" for r in results)
    report("criterion-8 LP oracle equivalence", ok, f"{details}, {elapsed:.1f}s")


def test_criterion_9_property_suites():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    results = [
        check(rng, 1000)
        for check in (
            verify.projection_idempotent,
            verify.projection_optimal_sampled,
            verify.normal_cone_consistency,
            verify.ray_symmetry,
            verify.translation_equivariance,
        )
    ]
    elapsed = time.perf_counter() - started
    failures = [f"{r.name} {r.detail}" for r in results if not r.ok]
    ok = not failures and elapsed < 30.0
    report("criterion-9 property suites", ok, f"failures {failures}, {elapsed:.1f}s")
