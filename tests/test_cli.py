import csv
import errno
import json
import math
import os
import stat
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from altproj import cli, verify
from altproj.cli import EXIT_ERROR, _write_output, main


VERIFY_CHECKS = [
    "bounds/alpha-range",
    "bounds/finite-step-compliance",
    "bounds/shift-forces-one-step",
    "engine/gaps-monotone",
    "engine/per-cycle-contraction",
    "examples/absval-rate-envelope",
    "examples/absval-shifted-finite-steps",
    "examples/parabola-no-linear-rate",
    "examples/parabola-shifted-no-finite-convergence",
    "linalg/cone-monotone",
    "linalg/cone-single-generator",
    "linalg/ray-scale-invariance",
    "linalg/ray-symmetry",
    "lp/direct-matches-oracle",
    "lp/shifted-matches-oracle",
    "lp/solution-cone-certificate",
    "qp/box-agreement",
    "qp/halfspace-agreement",
    "qp/kkt-certificate",
    "sets/normal-cone-consistency",
    "sets/projection-idempotent",
    "sets/projection-optimal-sampled",
    "sets/translation-equivariance",
]


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def absval_run_spec(tmp_path, k=0.0, x0=(1.0, 0.0), max_iters=40, cert_tol=1e-12):
    return write_json(
        tmp_path / "spec.json",
        {
            "setA": {"halfspace": {"c": [0, 1], "M": 0}},
            "setB": {"epigraph": {"kind": "abs", "shift": [0, k]}},
            "x0": list(x0),
            "max_iters": max_iters,
            "cert_tol": cert_tol,
        },
    )


def test_run_certified_outputs_and_exit_code(tmp_path, capsys):
    spec = absval_run_spec(tmp_path)
    assert main(["run", spec, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spec_report.json").read_text())
    assert report["stop_reason"] == "Certified"

    with open(tmp_path / "spec_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["step", "label", "x0", "x1", "gap"]
    assert len(body) == report["num_iterates"]
    # labels alternate A, B, ...
    assert [r[1] for r in body[:4]] == ["A", "B", "A", "B"]
    # the gap column matches recomputed norms
    points = [np.array([float(r[2]), float(r[3])]) for r in body]
    for i in range(1, len(body)):
        gap = float(body[i][4])
        assert gap == pytest.approx(float(np.linalg.norm(points[i] - points[i - 1])), abs=1e-12)
    # per-cycle contraction at least 7/8 on this fixture
    gaps = [float(r[4]) for r in body[1:]]
    for n in range(0, len(gaps) - 2, 2):
        assert gaps[n + 2] <= (7.0 / 8.0) * gaps[n] + 1e-9


def test_run_outputs_are_deterministic(tmp_path):
    spec = absval_run_spec(tmp_path, k=0.5, x0=(3.0, 0.0))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", spec, "--out", str(out1)]) == 0
    assert main(["run", spec, "--out", str(out2)]) == 0
    assert (out1 / "spec_trace.csv").read_bytes() == (out2 / "spec_trace.csv").read_bytes()
    r1 = json.loads((out1 / "spec_report.json").read_text())
    r2 = json.loads((out2 / "spec_report.json").read_text())
    r1.pop("trace_csv"), r2.pop("trace_csv")
    assert r1 == r2


def test_run_not_certified_exit_code(tmp_path):
    spec = write_json(
        tmp_path / "parabola.json",
        {
            "setA": {"halfspace": {"c": [0, 1], "M": 0}},
            "setB": {"epigraph": {"kind": "square", "shift": [0, 1]}},
            "x0": [1, 0],
            "max_iters": 1000,
        },
    )
    assert main(["run", spec, "--out", str(tmp_path)]) == 2


def test_run_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 64
    assert main(["run", str(tmp_path / "missing.json")]) == 64


def test_run_rejects_cycle_cap_below_one(tmp_path, capsys):
    spec = absval_run_spec(tmp_path)
    (tmp_path / "zero").mkdir()
    zero_in_spec = absval_run_spec(tmp_path / "zero", max_iters=0)
    for argv in ([spec, "--max-iters", "0"], [spec, "--max-iters", "-3"], [zero_in_spec]):
        assert main(["run", *argv, "--out", str(tmp_path)]) == 64
        assert capsys.readouterr().err.startswith("error: ")


def test_run_rejects_an_infinite_certificate_tolerance(tmp_path, capsys):
    # JSON reads 1e999 as inf, which would certify any pair.
    spec = absval_run_spec(tmp_path, k=1.0, x0=(3.0, 0.0))
    text = Path(spec).read_text()
    Path(spec).write_text(text.replace('"cert_tol": 1e-12', '"cert_tol": 1e999'))
    assert main(["run", spec, "--out", str(tmp_path)]) == 64
    assert capsys.readouterr().err.startswith("error: cannot parse experiment spec: cert_tol")


MALFORMED_RUN_SPECS = {
    "max_iters fraction": {"max_iters": 2.5},
    "max_iters bool": {"max_iters": True},
    "max_iters string": {"max_iters": "7"},
    "max_iters null": {"max_iters": None},
    "max_iters list": {"max_iters": [3]},
    "max_iters infinite": {"max_iters": math.inf},
    "cert_tol bool": {"cert_tol": True},
    "cert_tol null": {"cert_tol": None},
    "cert_tol string": {"cert_tol": "1e-8"},
    "outputs list": {"outputs": []},
    "outputs path number": {"outputs": {"trace_csv": 5}},
    "outputs path null": {"outputs": {"report_json": None}},
    "halfspace M null": {"setA": {"halfspace": {"c": [0, 1], "M": None}}},
    "halfspace M string": {"setA": {"halfspace": {"c": [0, 1], "M": "0"}}},
    "halfspace body list": {"setA": {"halfspace": [1]}},
    "halfspace c bools": {"setA": {"halfspace": {"c": [False, True], "M": 0}}},
    "halfspace c huge int": {"setA": {"halfspace": {"c": [0, 10**400], "M": 0}}},
    "epigraph shift string": {"setB": {"epigraph": {"kind": "abs", "shift": ["0", "1"]}}},
    "x0 string": {"x0": "12"},
    "x0 object": {"x0": {"u": 1}},
}


@pytest.mark.parametrize("override", MALFORMED_RUN_SPECS.values(), ids=MALFORMED_RUN_SPECS)
def test_run_rejects_a_malformed_spec_with_a_usage_error(tmp_path, capsys, override):
    # Every spec ran or ended in a bare TypeError or AttributeError before:
    # a fraction, a bool or a string cap was rounded or coerced.
    spec = json.loads(Path(absval_run_spec(tmp_path)).read_text())
    spec.update(override)
    assert main(["run", write_json(tmp_path / "bad.json", spec), "--out", str(tmp_path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot parse experiment spec: ")


@pytest.mark.parametrize("cap, cycles", [(7, 7), (3.0, 3), (1e3, 1000)])
def test_run_accepts_an_integral_cycle_cap(tmp_path, cap, cycles):
    # 1e3 reads as the float 1000.0; the parabola touching the half-plane
    # runs to the cap.
    spec = write_json(
        tmp_path / "parabola.json",
        {
            "setA": {"halfspace": {"c": [0, 1], "M": 0}},
            "setB": {"epigraph": {"kind": "square", "shift": [0, 0]}},
            "x0": [1, 0],
            "max_iters": cap,
        },
    )
    assert main(["run", spec, "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "parabola_report.json").read_text())
    assert report["stop_reason"] == "MaxIters"
    assert report["num_iterates"] == 2 * cycles + 1


@pytest.mark.parametrize("command", ["run", "bound", "lp"])
def test_a_spec_that_is_not_an_object_is_a_usage_error(tmp_path, capsys, command):
    path = write_json(tmp_path / "list.json", [1])
    assert main([command, path]) == 64
    assert capsys.readouterr().err.startswith("error: cannot parse ")


def test_run_reports_an_unwritable_output_path(tmp_path, capsys):
    spec = json.loads(Path(absval_run_spec(tmp_path)).read_text())
    spec["outputs"] = {"trace_csv": str(tmp_path / "missing" / "trace.csv")}
    assert main(["run", write_json(tmp_path / "spec.json", spec), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_new_output_gets_the_mode_open_gives_it(tmp_path):
    spec = absval_run_spec(tmp_path)
    old = os.umask(0o027)
    try:
        assert main(["run", spec, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "by_open.txt", "w"):
            pass
    finally:
        os.umask(old)
    modes = {
        stat.S_IMODE(path.stat().st_mode)
        for path in (tmp_path / "out" / "spec_trace.csv", tmp_path / "out" / "spec_report.json", tmp_path / "by_open.txt")
    }
    assert modes == {0o640}


def test_outputs_to_dev_null_are_written_as_before(tmp_path, capsys):
    # A device is written, not cut to length.
    spec = json.loads(Path(absval_run_spec(tmp_path)).read_text())
    spec["outputs"] = {"trace_csv": os.devnull, "report_json": os.devnull}
    assert main(["run", write_json(tmp_path / "spec.json", spec), "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["trace_csv"] == os.devnull
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize("kind", ["directory", "read-only file", "refused open", "file as parent"])
def test_run_reports_an_existing_output_it_cannot_write(tmp_path, capsys, monkeypatch, kind):
    # "refused open" is a read-only file as the writer meets it when the
    # user may not override the mode: its open raises PermissionError,
    # whether or not this user may write read-only files.
    target = tmp_path / "trace.csv"
    if kind == "directory":
        target.mkdir()
    else:
        target.write_text("old")
    if kind == "read-only file":
        target.chmod(0o444)
        if os.access(target, os.W_OK):
            pytest.skip("this user may write a read-only file")
    elif kind == "refused open":
        real_open = os.open

        def refuse(path, *args, **kwargs):
            if os.fspath(path) == str(target):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", refuse)
    spec = json.loads(Path(absval_run_spec(tmp_path)).read_text())
    spec["outputs"] = {"trace_csv": str(target / "trace.csv" if kind == "file as parent" else target)}
    assert main(["run", write_json(tmp_path / "spec.json", spec), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert kind == "directory" or target.read_text() == "old"


def test_outputs_to_named_pipes_are_written_whole(tmp_path, capsys):
    # A pipe has no length to cut and no position to read: the run writes
    # to it what it writes to a regular file, and exits 0.
    spec = json.loads(Path(absval_run_spec(tmp_path)).read_text())
    assert main(["run", write_json(tmp_path / "spec.json", spec), "--out", str(tmp_path / "files")]) == 0
    pipes = {key: tmp_path / f"{key}.fifo" for key in ("trace_csv", "report_json")}
    read = {}

    def drain(key):
        with open(pipes[key], "rb") as fh:
            read[key] = fh.read()

    readers = []
    for key, path in pipes.items():
        os.mkfifo(path)
        readers.append(threading.Thread(target=drain, args=(key,), daemon=True))
        readers[-1].start()
    spec["outputs"] = {key: str(path) for key, path in pipes.items()}
    try:
        code = main(["run", write_json(tmp_path / "spec.json", spec), "--out", str(tmp_path)])
    finally:
        # A reader still waiting for a writer is let go with an empty read.
        for reader, path in zip(readers, pipes.values()):
            if reader.is_alive():
                try:
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:
                    pass
            reader.join(timeout=10)
    assert code == 0, capsys.readouterr().err
    assert read["trace_csv"] == (tmp_path / "files" / "spec_trace.csv").read_bytes()
    report = json.loads((tmp_path / "files" / "spec_report.json").read_text())
    assert json.loads(read["report_json"]) == {**report, "trace_csv": str(pipes["trace_csv"])}


def test_an_output_is_written_over_the_old_bytes_and_cut_to_length(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"0123456789" * 1000)
    _write_output(path, "a,b\r\n", "")
    assert path.read_bytes() == b"a,b\r\n"
    _write_output(path, "{\n}\n", None)
    assert path.read_bytes() == "{\n}\n".replace("\n", os.linesep).encode()
    _write_output(path, "a,b\r\n" * 3, "")
    assert path.read_bytes() == b"a,b\r\n" * 3


def test_an_output_whose_write_raises_is_left_empty(tmp_path):
    # A lone surrogate cannot be encoded, so the write raises; the old
    # bytes must not survive as if they were the new output.
    path = tmp_path / "out.csv"
    path.write_bytes(b"0123456789" * 1000)
    with pytest.raises(UnicodeEncodeError):
        _write_output(path, "a,b\r\n" * 5000 + "\ud800", "")
    assert path.read_bytes() == b""


def test_run_projects_on_rows_too_long_to_square(tmp_path, capsys):
    # The box [0, 1]^3 with rows -1e155 e_i, whose squares overflow: the
    # projections read the rows' unit form, so the run certifies the pair
    # at distance 3 after one cycle, with no overflow warning and nothing
    # on stderr.
    box = {"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1e155, 0, 0], [0, -1e155, 0], [0, 0, -1e155]],
           "b": [1, 1, 1, 0, 0, 0]}
    spec = write_json(
        tmp_path / "long_rows.json",
        {"setA": {"halfspace": {"c": [0, 0, 1], "M": -3}}, "setB": {"polyhedron": box}, "x0": [-1, -2, -3]},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", spec, "--out", str(tmp_path)]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "long_rows_report.json").read_text())
    assert report["stop_reason"] == "Certified" and report["final_gap"] == 3.0


def test_run_reports_a_step_that_overflows_without_a_traceback(tmp_path, capsys):
    # Both half-spaces lie beyond -1e308 on their axis: the spec parses, and
    # the first B-projection's excess overflows, which the run refuses.  It
    # exits 1 with one error line, not a traceback.
    spec = write_json(
        tmp_path / "overflow.json",
        {
            "setA": {"halfspace": {"c": [0, 1], "M": -1e308}},
            "setB": {"halfspace": {"c": [0, -1], "M": -1e308}},
            "x0": [0, -1.7e308],
        },
    )
    assert main(["run", spec, "--out", str(tmp_path)]) == EXIT_ERROR
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: vector entries must be finite"


def test_run_refuses_a_half_space_normal_too_long_to_square(tmp_path, capsys):
    # c = (1e200, 0): the spec is refused as it is read, with exit 64 and
    # one error line, before any overflow warning.
    box = {"A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [1, 1, 1, 1]}
    spec = write_json(
        tmp_path / "long_normal.json",
        {"setA": {"halfspace": {"c": [1e200, 0], "M": -2e200}}, "setB": {"polyhedron": box}, "x0": [-4, -4]},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", spec, "--out", str(tmp_path)]) == 64
    assert [str(w.message) for w in caught] == []
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot parse experiment spec: half-space normal is too long")


def test_bound_command_reports_constants(tmp_path, capsys):
    problem = write_json(
        tmp_path / "bound.json",
        {
            "setA": {"halfspace": {"c": [0, 1], "M": 0}},
            "setB": {"polyhedron": {"A": [[1, -1], [-1, -1]], "b": [-1, -1]}},
            "x0": [0, -1],
        },
    )
    assert main(["bound", problem]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "alpha",
        "beta",
        "rate",
        "d_AB",
        "d_x0_B",
        "N",
        "max_steps",
        "one_step",
        "condition",
    }
    assert report["beta"] == 0.0
    assert report["condition"] == "polyhedral"
    assert report["alpha"] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-12)
    assert report["N"] == 5
    assert report["max_steps"] == 11
    assert report["one_step"] is False


def test_bound_command_one_step_flag(tmp_path, capsys):
    problem = write_json(
        tmp_path / "bound1.json",
        {
            "setA": {"halfspace": {"c": [0, 1], "M": 0}},
            "setB": {"polyhedron": {"A": [[1, -1], [-1, -1]], "b": [-2, -2]}},
            "x0": [0, 0],
        },
    )
    assert main(["bound", problem]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["one_step"] is True
    assert report["N"] == 0


@pytest.mark.parametrize("x0", [[0, 5], [0, 0.9]])
def test_bound_command_rejects_a_start_outside_the_halfspace(tmp_path, capsys, x0):
    problem = write_json(
        tmp_path / "outside.json",
        {
            "setA": {"halfspace": {"c": [0, 1], "M": 0}},
            "setB": {"polyhedron": {"A": [[1, -1], [-1, -1]], "b": [-1, -1]}},
            "x0": x0,
        },
    )
    assert main(["bound", problem]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_bound_command_rejects_non_polyhedral_pair(tmp_path, capsys):
    problem = write_json(
        tmp_path / "nonpoly.json",
        {
            "setA": {"halfspace": {"c": [0, 1], "M": 0}},
            "setB": {"epigraph": {"kind": "square", "shift": [0, 1]}},
            "x0": [0, -1],
        },
    )
    assert main(["bound", problem]) == 65
    assert capsys.readouterr().err == (
        "error: bound requires setA to be a half-space and setB a polyhedron\n"
    )


def test_bound_command_rejects_mixed_dimensions(tmp_path, capsys):
    problem = write_json(
        tmp_path / "mixed.json",
        {
            "setA": {"halfspace": {"c": [0, 0, 1], "M": 0}},
            "setB": {"polyhedron": {"A": [[1, -1], [-1, -1]], "b": [-1, -1]}},
            "x0": [0, -1],
        },
    )
    assert main(["bound", problem]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def box_lp(tmp_path, M=-2.0, with_m=True):
    obj = {
        "c": [-1, 0],
        "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "b": [1, 0, 1, 0],
    }
    if with_m:
        obj["M"] = M
    return write_json(tmp_path / "lp.json", obj)


def test_lp_command_direct_and_shifted(tmp_path, capsys):
    problem = box_lp(tmp_path)
    assert main(["lp", problem]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert direct["objective"] == pytest.approx(-1.0, abs=1e-7)

    assert main(["lp", problem, "--strategy", "shifted"]) == 0
    shifted = json.loads(capsys.readouterr().out)
    assert shifted["steps"] == 1
    assert shifted["objective"] == pytest.approx(-1.0, abs=1e-6)


def test_lp_trace_is_written_over_a_longer_old_file(tmp_path, capsys):
    problem = box_lp(tmp_path)
    assert main(["lp", problem, "--out", str(tmp_path / "fresh")]) == 0
    old = tmp_path / "old" / "lp_trace.csv"
    old.parent.mkdir()
    old.write_bytes(b"9" * 100_000)
    assert main(["lp", problem, "--out", str(old.parent)]) == 0
    assert old.read_bytes() == (tmp_path / "fresh" / "lp_trace.csv").read_bytes()


def test_lp_command_auto_bound(tmp_path, capsys):
    problem = box_lp(tmp_path, with_m=False)
    assert main(["lp", problem]) == 64  # M missing without --auto-bound
    capsys.readouterr()
    assert main(["lp", problem, "--auto-bound"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["objective"] == pytest.approx(-1.0, abs=1e-7)


def test_lp_auto_bound_reads_no_vertex_list(tmp_path, capsys):
    # 30 rows at n = 3, past the enumeration's 24 rows: M is the walk's
    # optimum less one, and the direct solve certifies under it.
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(30, 3))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    c = [1.0, 0.5, -0.2]
    problem = write_json(tmp_path / "lp.json", {"c": c, "A": rows.tolist(), "b": [1.0] * 30})
    for strategy in ("direct", "shifted"):
        assert main(["lp", problem, "--auto-bound", "--strategy", strategy]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["certificate"]["holds"]
        assert out["objective"] == pytest.approx(float(np.dot(c, out["solution"])), abs=1e-12)
        assert np.max(rows @ out["solution"] - 1.0) <= 1e-9


def test_lp_auto_bound_rejects_a_zero_objective_as_the_half_space_does(tmp_path, capsys):
    problem = write_json(
        tmp_path / "lp.json", {"c": [0, 0], "A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [1, 0, 1, 0]}
    )
    assert main(["lp", problem, "--auto-bound"]) == 64
    assert capsys.readouterr().err == (
        "error: cannot parse LP problem: half-space normal must be nonzero\n"
    )


@pytest.mark.parametrize("strategy", ["direct", "shifted"])
def test_lp_auto_bound_reports_solver_errors_as_the_solve_does(tmp_path, capsys, strategy):
    # The walk runs after the spec is read, so its errors are not parse
    # errors: an unbounded objective has no strict lower bound (66), as an
    # explicit M gets from the solve, and an empty polyhedron is an error (1).
    unbounded = {"c": [1, 0], "A": [[0, 1], [0, -1]], "b": [1, 1]}
    empty = {"c": [1, 1], "A": [[1, 0], [-1, 0], [0, 1]], "b": [-1, -2, 1]}
    for spec, code in ((unbounded, 66), (empty, 1)):
        for extra, flags in (({"M": -5}, []), ({}, ["--auto-bound"])):
            problem = write_json(tmp_path / "lp.json", {**spec, **extra})
            assert main(["lp", problem, "--strategy", strategy, *flags]) == code
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "cannot parse" not in err
    main(["lp", write_json(tmp_path / "lp.json", unbounded), "--strategy", strategy, "--auto-bound"])
    assert "unbounded" in capsys.readouterr().err


@pytest.mark.parametrize("M", [None, [3], True, "3", "-2"])
def test_lp_command_rejects_a_bound_that_is_not_a_number(tmp_path, capsys, M):
    # null and a list raised TypeError; true and "3" were coerced to 1.0 and 3.0.
    problem = box_lp(tmp_path, M=M)
    assert main(["lp", problem]) == 64
    assert capsys.readouterr().err.startswith("error: cannot parse LP problem: M must be a number")


@pytest.mark.parametrize("M", [-2, -2.0])
def test_lp_command_accepts_an_integer_or_float_bound(tmp_path, capsys, M):
    assert main(["lp", box_lp(tmp_path, M=M)]) == 0
    assert json.loads(capsys.readouterr().out)["objective"] == pytest.approx(-1.0, abs=1e-7)


def test_lp_command_loose_bound_exit_code(tmp_path):
    problem = box_lp(tmp_path, M=5.0)
    assert main(["lp", problem]) == 66
    # c = (1, 1) over x, y <= 0 is unbounded: no lower bound is strict.
    obj = {"c": [1, 1], "A": [[1, 0], [0, 1]], "b": [0, 0], "M": -10}
    unbounded = write_json(tmp_path / "unbounded.json", obj)
    for strategy in ("direct", "shifted"):
        assert main(["lp", unbounded, "--strategy", strategy]) == 66


def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--suite", "linalg"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_unknown_suite_usage_error(capsys):
    assert main(["verify", "--suite", "nosuch"]) == 64


def test_verify_alpha_perturbation_reports_bound_failures(capsys):
    # Inflating the angle constant tightens the certified bound beyond what
    # the geometry satisfies; the compliance suite must notice.
    assert main(["verify", "--suite", "bounds", "--alpha-scale", "40.0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("scale", ["1e-160", "1e-300"])
def test_verify_bounds_with_tiny_alpha_scale(scale, capsys):
    # The scaled alpha squares to a subnormal number or to 0; the step bound
    # must stay an integer and only grow.
    assert main(["verify", "--suite", "bounds", "--alpha-scale", scale]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3/3 checks passed"


def test_verify_rejects_bad_alpha_scale(capsys):
    for value in ("0", "-1", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bounds", "--alpha-scale", value])
        assert exc.value.code == 64
        assert "--alpha-scale" in capsys.readouterr().err


def test_verify_runs_every_check(monkeypatch, capsys):
    monkeypatch.delenv("ALTPROJ_SEED", raising=False)
    assert main(["verify"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1] == "23/23 checks passed"
    assert [row.split()[:2] for row in rows[:-1]] == [["PASS", name] for name in VERIFY_CHECKS]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_verify_seed_env_var(monkeypatch):
    monkeypatch.setenv("ALTPROJ_SEED", "7")
    assert verify.get_seed() == 7
    monkeypatch.setenv("ALTPROJ_SEED", "not-a-number")
    assert verify.get_seed() == 42
    monkeypatch.delenv("ALTPROJ_SEED")
    assert verify.get_seed() == 42


def test_one_parser_per_process_answers_as_a_fresh_parser(tmp_path, capsys):
    # main builds its parser once; a run, a malformed spec (exit 64) and an
    # LP in one process each give what a freshly built parser gives.
    from altproj import cli

    bad = write_json(tmp_path / "bad.json", {"setA": {"halfspace": {"c": [0, 1], "M": "0"}}})
    calls = [
        ["run", absval_run_spec(tmp_path, k=1.0), "--out", str(tmp_path)],
        ["run", bad, "--out", str(tmp_path)],
        ["lp", box_lp(tmp_path)],
    ]
    answers = {}
    for fresh in (False, True):
        cli._parser.cache_clear()
        answers[fresh] = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            answers[fresh].append((main(argv), capsys.readouterr()))
    assert answers[False] == answers[True]
    assert [code for code, _ in answers[False]] == [0, 64, 0]
    assert cli._parser() is cli._parser()
