import math

import numpy as np
import pytest

from altproj import (
    HalfSpace,
    PointNotInSet,
    StartNotInA,
    StopReason,
    check_certificate,
    norm,
    run,
    verify,
)
from altproj.instances import absval_distance, absval_epigraph, lower_halfplane


def test_run_certifies_from_optimal_start():
    trace = run(lower_halfplane(), absval_epigraph(1.0), [0.0, 0.0])
    assert trace.stop_reason is StopReason.CERTIFIED
    assert trace.steps_to_converge == 1
    a, b = trace.final_pair()
    np.testing.assert_allclose(a, [0, 0], atol=1e-12)
    np.testing.assert_allclose(b, [0, 1], atol=1e-12)
    assert trace.certificate.residual_A <= 1e-10
    assert trace.certificate.residual_B <= 1e-10


def test_run_gap_envelope_consistent_absval():
    result = verify.absval_rate_envelope()
    assert result.ok, result.detail


def test_run_requires_start_in_first_set():
    with pytest.raises(StartNotInA):
        run(lower_halfplane(), absval_epigraph(0.0), [0.0, 1.0])


def test_trace_internal_consistency():
    trace = run(lower_halfplane(), absval_epigraph(0.5), [3.0, 0.0], max_iters=50)
    labels = [lab for _, lab, _ in trace.iterates]
    assert labels == ["A", "B"] * (len(labels) // 2) + (["A"] if len(labels) % 2 else [])
    # labels alternate starting at A
    for k in range(len(labels) - 1):
        assert labels[k] != labels[k + 1]
    points = [p for _, _, p in trace.iterates]
    for n, gap in enumerate(trace.gaps):
        assert gap == pytest.approx(norm(points[n + 1] - points[n]), abs=1e-12)
    for first, second in zip(trace.gaps, trace.gaps[1:]):
        assert second <= first + 1e-10


def test_gaps_monotone_random_pairs():
    result = verify.gaps_monotone(np.random.default_rng(31), 20)
    assert result.ok, result.detail


def test_per_cycle_contraction_on_polyhedral_fixtures():
    # While the certificate has not fired, each half-space projection
    # contracts the gap by at least 1 - alpha^2.
    result = verify.per_cycle_contraction()
    assert result.ok, result.detail


def test_certified_pair_matches_known_minimum_distance_pair():
    for k in (0.5, 1.0, 2.0):
        trace = run(lower_halfplane(), absval_epigraph(k), [5.0, 0.0], max_iters=200)
        assert trace.stop_reason is StopReason.CERTIFIED
        a, b = trace.final_pair()
        np.testing.assert_allclose(a, [0.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(b, [0.0, k], atol=1e-6)


def test_parabola_shifted_never_reaches_the_pair():
    # The nearest pair ((0,0),(0,1)) is approached but never attained: the
    # first coordinate shrinks by about 1/3 per cycle yet stays nonzero,
    # so a strict certificate stays open at any short horizon.
    result = verify.parabola_shifted_no_finite_convergence()
    assert result.ok, result.detail


def test_check_certificate_examples():
    a_set = lower_halfplane()
    b_set = absval_epigraph(1.0)
    cert = check_certificate(a_set, b_set, [0, 0], [0, 1])
    assert cert.holds
    assert cert.residual_A <= 1e-10 and cert.residual_B <= 1e-10

    cert = check_certificate(a_set, b_set, [1, 0], [0, 1])
    assert not cert.holds
    # (b-a)/||b-a|| = (-1,1)/sqrt(2) against the upward normal ray
    assert cert.residual_A == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)


def test_check_certificate_consistent_convention():
    a_set = HalfSpace([1, 0], 0.0)
    b_set = HalfSpace([0, 1], 0.0)
    cert = check_certificate(a_set, b_set, [-1, -1], [-1, -1])
    assert cert.holds
    assert cert.residual_A == 0.0 and cert.residual_B == 0.0


def test_check_certificate_membership_errors():
    with pytest.raises(PointNotInSet):
        check_certificate(lower_halfplane(), absval_epigraph(0.0), [0, 1], [0, 0])


def test_steps_to_converge_counts_projections():
    # One-step regime: the first projection pair certifies.
    trace = run(lower_halfplane(), absval_epigraph(2.0), [1.0, 0.0])
    assert trace.steps_to_converge == 1
    assert len(trace.iterates) == 3  # x0, its B-projection, the closing A-projection

    # Two cycles: slide once along the boundary, then hit the apex.
    d0 = absval_distance(1.5, 1.0)
    assert d0 > 1.0 * 8.0 / 7.0  # not in the one-step regime
    trace = run(lower_halfplane(), absval_epigraph(1.0), [1.5, 0.0])
    assert trace.stop_reason is StopReason.CERTIFIED
    assert trace.steps_to_converge == 2 * ((len(trace.iterates) - 1) // 2 - 1) + 1
