import csv
import json
import math

import numpy as np
import pytest

from altproj import verify
from altproj.cli import main


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
    "lp/shifted-single-projection",
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


def test_lp_command_auto_bound(tmp_path, capsys):
    problem = box_lp(tmp_path, with_m=False)
    assert main(["lp", problem]) == 64  # M missing without --auto-bound
    capsys.readouterr()
    assert main(["lp", problem, "--auto-bound"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["objective"] == pytest.approx(-1.0, abs=1e-7)


def test_lp_command_loose_bound_exit_code(tmp_path):
    problem = box_lp(tmp_path, M=5.0)
    assert main(["lp", problem]) == 66


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
    assert rows[-1] == "24/24 checks passed"
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
