"""A run's record: the point and gap arrays of ``Trace`` and their views.

``Trace.points`` holds every iterate as one row, ``Trace.gaps`` the
distance between consecutive rows, and ``Trace.iterates`` reads the rows as
``(index, label, point)`` tuples.  None of them can be written to.
"""

import csv
import json
import warnings
from collections.abc import Sequence

import numpy as np
import pytest

from altproj import HalfSpace, Polyhedron, StopReason, engine, project, run, solve_lp
from altproj.cli import main
from altproj.instances import absval_epigraph, lower_halfplane, parabola_epigraph, random_lp_instance
from altproj.linalg import _norm
from altproj.sets import set_to_json

BELOW = HalfSpace([0.0, 1.0], -1.0)
WEDGE = Polyhedron([[0.01, -1.0], [-1.0, 0.0]], [0.0, 0.0])  # y >= 0.01 x, x >= 0


def wedge_run(max_iters):
    # Walks one face of the narrow wedge: most cycles are generated.
    return run(BELOW, WEDGE, [20.0, -1.0], max_iters=max_iters)


def test_iterates_is_a_read_only_sequence_of_the_rows():
    trace = wedge_run(37)
    assert trace.generated_cycles > 0
    it = trace.iterates
    assert isinstance(it, Sequence)
    assert len(it) == len(trace.points) == len(trace.gaps) + 1 == 75
    index, label, point = it[5]
    assert (index, label) == (5, "B")
    np.testing.assert_array_equal(point, trace.points[5])
    assert it[-1][:2] == (74, "A")
    np.testing.assert_array_equal(it[-1][2], trace.points[74])
    assert it[-75][:2] == (0, "A")
    assert it[np.int64(2)][:2] == (2, "A")
    for bad in (75, -76):
        with pytest.raises(IndexError):
            it[bad]
    assert [(i, lab) for i, lab, _ in it[1:6:2]] == [(1, "B"), (3, "B"), (5, "B")]
    assert [i for i, _, _ in it[-3:]] == [72, 73, 74]
    assert [(i, lab) for i, lab, _ in it] == [(i, "AB"[i % 2]) for i in range(75)]
    assert [i for i, _, _ in reversed(it)] == list(range(74, -1, -1))
    assert all(np.array_equal(p, row) for (_, _, p), row in zip(it, trace.points))
    assert not hasattr(it, "append")


def test_points_and_gaps_cannot_be_written():
    trace = wedge_run(37)
    assert trace.points.shape == (75, 2) and trace.gaps.shape == (74,)
    assert trace.points.dtype == trace.gaps.dtype == np.float64
    with pytest.raises(ValueError):
        trace.points[0, 0] = 1.0
    with pytest.raises(ValueError):
        trace.iterates[3][2][0] = 1.0
    with pytest.raises(ValueError):
        trace.final_pair()[1][0] = 1.0
    with pytest.raises(ValueError):
        trace.gaps[0] = 1.0


def test_the_counts_are_read_off_the_pieces_and_cannot_be_set(monkeypatch):
    # A trace keeps its run's pieces and no count beside them: the step
    # count, the generated cycles and the final gap are read off the
    # iterates, so none of them can be set.  The real cycles are counted
    # here by the B-projections the run makes.
    projections = []
    project_from = engine._project_from

    def spy(*args):
        projections.append(None)
        return project_from(*args)

    monkeypatch.setattr(engine, "_project_from", spy)
    trace = wedge_run(5000)
    assert trace.stop_reason is StopReason.CERTIFIED
    assert trace.steps_to_converge == trace.num_iterates - 2 == len(trace.gaps) - 1
    assert trace.generated_cycles == len(trace.gaps) // 2 - len(projections) > 1000
    assert trace.final_gap == trace.gaps[-1]
    capped = wedge_run(37)
    assert capped.stop_reason is StopReason.MAX_ITERS and capped.steps_to_converge is None
    for name in ("steps_to_converge", "generated_cycles", "final_gap", "num_iterates"):
        with pytest.raises(AttributeError):
            setattr(trace, name, 0)


def assert_final_fields(trace, set_a, cycles):
    a, b = trace.final_pair()
    assert trace.iterates[-1][1] == "A" and trace.iterates[-2][1] == "B"
    np.testing.assert_array_equal(a, trace.points[-1])
    np.testing.assert_array_equal(b, trace.points[-2])
    # The last cycle is a projected one: its A-point is the projection of
    # its B-point, and its gap their distance.
    np.testing.assert_array_equal(a, project(set_a, b))
    assert trace.final_gap == float(np.linalg.norm(a - b)) == trace.gaps[-1]
    assert type(trace.final_gap) is float
    report = trace.to_json_dict()
    assert report["num_iterates"] == 2 * cycles + 1 == len(trace.points)
    assert report["final_gap"] == trace.final_gap
    if trace.certificate is not None:
        np.testing.assert_array_equal(trace.certificate.a, a)
        np.testing.assert_array_equal(trace.certificate.b, b)


def test_final_fields_of_a_one_cycle_certified_run():
    upper = HalfSpace([0.0, 1.0], 0.0)
    trace = run(upper, HalfSpace([0.0, -1.0], -1.0), [0.0, 0.0])
    assert trace.stop_reason is StopReason.CERTIFIED
    assert trace.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    assert trace.gaps.tolist() == [1.0, 1.0]
    assert_final_fields(trace, upper, 1)


def test_final_fields_of_a_gap_stalled_run():
    upper = HalfSpace([0.0, 1.0], 0.0)
    one_row = Polyhedron([[0.1, -1.0]], [0.0])
    trace = run(upper, one_row, [2e-8, 0.0], max_iters=5000, cert_tol=1e-15)
    assert trace.stop_reason is StopReason.GAP_STALLED
    assert trace.generated_cycles > 0
    assert_final_fields(trace, upper, len(trace.gaps) // 2)


def test_final_fields_of_a_capped_run_with_a_generated_stretch():
    trace = wedge_run(37)
    assert trace.stop_reason is StopReason.MAX_ITERS
    assert trace.generated_cycles > 0
    assert_final_fields(trace, BELOW, 37)


def test_csv_rows_read_back_to_the_arrays(tmp_path, capsys):
    spec = tmp_path / "wedge.json"
    spec.write_text(json.dumps({"setA": set_to_json(BELOW), "setB": set_to_json(WEDGE), "x0": [20.0, -1.0], "max_iters": 5000}))
    assert main(["run", str(spec), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    trace = wedge_run(5000)
    assert trace.generated_cycles > 1000
    with open(tmp_path / "wedge_trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "label", "x0", "x1", "gap"]
    body = rows[1:]
    assert len(body) == len(trace.points)
    assert [(int(r[0]), r[1]) for r in body] == [(i, lab) for i, lab, _ in trace.iterates]
    assert [[float(v) for v in r[2:4]] for r in body] == trace.points.tolist()
    assert body[0][4] == ""
    assert [float(r[4]) for r in body[1:]] == trace.gaps.tolist()


def assert_gaps_are_step_norms(trace):
    # Every stored gap has the bits of _norm on its step, the value the
    # cycle that made the step measured.
    points = trace.points
    want = np.array([_norm(points[i + 1] - points[i]) for i in range(len(points) - 1)])
    assert trace.gaps.tobytes() == want.tobytes()


def test_every_gap_of_a_direct_lp_run_is_the_norm_of_its_step():
    # The lp_direct benchmark pool at seed 1; most of its cycles are
    # generated in closed form.
    rng = np.random.default_rng(1)
    generated = 0
    for _ in range(300):
        trace = solve_lp(random_lp_instance(rng)[0], strategy="direct").trace
        assert_gaps_are_step_norms(trace)
        generated += trace.generated_cycles
    assert generated > 10000


@pytest.mark.parametrize("x", [1.0, 3.0, 10.0, 100.0])
@pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("make", [absval_epigraph, parabola_epigraph], ids=["abs", "square"])
def test_every_gap_of_a_planar_run_is_the_norm_of_its_step(make, k, x):
    assert_gaps_are_step_norms(run(lower_halfplane(), make(k), [x, 0.0]))


def test_a_gap_whose_sum_of_squares_overflows_is_the_norm_of_its_step():
    with np.errstate(over="ignore"):
        trace = run(HalfSpace([0, 1], 0), HalfSpace([0, -1], -1e200), [0, 0], max_iters=5)
        assert_gaps_are_step_norms(trace)
    assert trace.gaps.tolist() == [1e200, 1e200]
    # The final gap is read off the last pair again; its overflow is
    # expected there too and raises no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trace.final_gap == 1e200
