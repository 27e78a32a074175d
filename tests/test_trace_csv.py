"""The trace CSV: its bytes, and what ``altproj lp --out`` writes.

``cli._write_trace_csv`` formats every row after the start with one ``%``
on a repeated row template.  ``per_row_csv`` below is the writer it
replaced, one ``%`` per row; the golden digests pin the bytes of that
writer for the 32 planar runs, and the tests here require the same bytes
from both writers on those traces, on direct LP traces in 2 to 8
dimensions, on a one-cycle trace and on hand-made traces holding the
values at the edges of ``%.17g``.  The writer reads only ``points`` and
``gaps``, so a hand-made trace is a stand-in object with those two fields.
The last test reads back the CSV that ``altproj lp --out`` writes.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from altproj import LPProblem, engine, lp, run, solve_lp
from altproj.cli import _write_trace_csv, main
from altproj.instances import (
    _objective_for,
    absval_epigraph,
    lower_halfplane,
    parabola_epigraph,
    random_bounded_polyhedron,
)
from altproj.vertices import vertex_oracle

PLANAR_KS = (0.0, 0.5, 1.0, 2.0)
PLANAR_X0 = (1.0, 3.0, 10.0, 100.0)


def per_row_csv(trace, path):
    """The trace CSV written one row at a time: the reference bytes."""
    dim = trace.points.shape[1]
    start = "%d,%s" + ",%.17g" * dim
    row = start + ",%.17g\r\n"
    points, gaps = trace.points.tolist(), trace.gaps.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["step", "label", *(f"x{i}" for i in range(dim)), "gap"]) + "\r\n")
        fh.write(start % (0, "A", *points[0]) + ",\r\n")
        fh.writelines(
            row % (idx, engine._LABELS[idx % 2], *point, gap)
            for idx, point, gap in zip(range(1, len(points)), points[1:], gaps)
        )


def assert_same_bytes(trace, tmp_path):
    want, got = tmp_path / "per_row.csv", tmp_path / "got.csv"
    per_row_csv(trace, want)
    _write_trace_csv(trace, got)
    assert got.read_bytes() == want.read_bytes()


def lp_problem(n):
    """A random bounded LP in ``n`` dimensions with ``2n + 2`` rows and
    ``M`` one unit below the optimum."""
    rng = np.random.default_rng([24, n])
    poly, _ = random_bounded_polyhedron(rng, n, 2)
    c = _objective_for(rng, poly)
    optimum, _ = vertex_oracle(poly, c)
    return LPProblem(c, poly, optimum - 1.0)


@pytest.mark.parametrize("x", PLANAR_X0)
@pytest.mark.parametrize("k", PLANAR_KS)
@pytest.mark.parametrize("make", [absval_epigraph, parabola_epigraph], ids=["abs", "square"])
def test_planar_traces_are_written_as_row_by_row(tmp_path, make, k, x):
    assert_same_bytes(run(lower_halfplane(), make(k), [x, 0.0]), tmp_path)


@pytest.mark.parametrize("n", range(2, 9))
def test_direct_lp_traces_are_written_as_row_by_row(tmp_path, n):
    trace = solve_lp(lp_problem(n), strategy="direct").trace
    assert trace.points.shape[1] == n
    assert_same_bytes(trace, tmp_path)


def test_a_one_cycle_trace_is_written_as_row_by_row(tmp_path):
    trace = run(lower_halfplane(), parabola_epigraph(0.0), [1.0, 0.0], max_iters=1)
    assert len(trace.points) == 3
    assert_same_bytes(trace, tmp_path)


# Values at the edges of %.17g: signed zero, the smallest subnormal, the
# largest float, and both sides of the switch to exponent form (below
# 1e-4 and from 1e17 on).
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-5, 1e-4, 0.0001, 9.999999999999999e-5, 1e16, 1e17, 9.999999999999998e16,
    123456789012345680.0, 0.1, 1.0, 3.0, 2.5e-310,
]


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_hand_made_traces_with_edge_values_are_written_as_row_by_row(tmp_path, dim):
    rng = np.random.default_rng(dim)
    values = np.array(EDGE_VALUES)
    points = rng.choice(values, size=(len(values) + 1, dim))
    points[1:, 0] = values  # every value in one column
    gaps = np.array(EDGE_VALUES[::-1])
    assert_same_bytes(SimpleNamespace(points=points, gaps=gaps), tmp_path)


def test_a_trace_of_the_start_alone_is_written_as_row_by_row(tmp_path):
    assert_same_bytes(SimpleNamespace(points=np.array([[1e16, -0.0]]), gaps=np.array([])), tmp_path)


@pytest.mark.parametrize("n", range(3, 9))
def test_lp_out_writes_the_trace_csv_of_the_direct_solve(tmp_path, capsys, n):
    problem = lp_problem(n)
    spec = {"c": problem.c.tolist(), "A": problem.poly.A.tolist(), "b": problem.poly.b.tolist(), "M": problem.M}
    path = tmp_path / f"lp{n}.json"
    path.write_text(json.dumps(spec))
    assert main(["lp", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads(capsys.readouterr().out)
    csv_path = tmp_path / "out" / f"lp{n}_trace.csv"
    assert report["trace_csv"] == str(csv_path)
    trace = solve_lp(lp.problem_from_json(spec)).trace

    text = csv_path.read_bytes().decode("utf-8")
    assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n")
    header, *body = text[:-2].split("\r\n")
    assert header == ",".join(["step", "label", *(f"x{i}" for i in range(n)), "gap"])
    assert len(body) == len(trace.points)
    rows = [line.split(",") for line in body]
    assert [(int(r[0]), r[1]) for r in rows] == [(i, lab) for i, lab, _ in trace.iterates]
    points = np.array([[float(v) for v in r[2 : 2 + n]] for r in rows])
    assert points.tobytes() == trace.points.tobytes()
    assert rows[0][-1] == ""
    assert np.array([float(r[-1]) for r in rows[1:]]).tobytes() == trace.gaps.tobytes()
