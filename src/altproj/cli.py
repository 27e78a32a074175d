"""Command-line front end.

Subcommands: ``run`` (alternating projections from a JSON experiment spec,
emitting a trace CSV and a report JSON), ``bound`` (constants and step
bounds for a polyhedron / half-space problem), ``lp`` (projection-based LP
solve), and ``verify`` (self-check suites).

Exit codes: 0 success / certified, 2 run finished without certifying,
64 usage or parse error, 65 not a polyhedron / half-space pair,
66 lower bound not strict, 1 any other error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain, cycle
from pathlib import Path

import numpy as np

from . import certify, engine, lp, verify
from .errors import AltprojError, LowerBoundNotStrict, NotPolyhedralPair, Unbounded
from .linalg import _check_tol, as_point
from .qp import _walk_to_optimum
from .sets import set_from_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2
EXIT_USAGE = 64
EXIT_NOT_POLYHEDRAL = 65
EXIT_BOUND_NOT_STRICT = 66

# What reading a spec file can raise: a missing or unreadable file, bad
# JSON, a missing key, a bad value or a set the package rejects.  Each
# subcommand reports these as a parse error and exits EXIT_USAGE.
_SPEC_ERRORS = (OSError, json.JSONDecodeError, KeyError, ValueError, AltprojError)


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 64; argparse's default of 2 collides with
    # the "finished without certifying" code.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _alpha_scale(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _load_spec(path: str) -> dict:
    # A spec file holds one JSON object.
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"the spec must be a JSON object, got {spec!r}")
    return spec


def _spec_max_iters(value) -> int:
    # JSON writes an integer such as 1000 also as 1e3; that float is taken
    # as the integer.  The rest is :func:`engine.run`'s rule.
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return engine._check_max_iters(value)


def _spec_outputs(value) -> dict:
    # An object whose "trace_csv" and "report_json", when given, are paths.
    if not isinstance(value, dict):
        raise ValueError(f"outputs must be an object, got {value!r}")
    for key in ("trace_csv", "report_json"):
        if not isinstance(value.get(key, ""), str):
            raise ValueError(f"outputs.{key} must be a string, got {value[key]!r}")
    return value


def _write_trace_csv(trace: engine.Trace, path: Path) -> None:
    # Comma-separated with CRLF line ends, the csv module's default dialect;
    # no field can need quoting.  Values are written with 17 significant
    # digits, so they read back exactly; the start point has no gap.  The
    # rows after it are formatted by one ``%`` on a repeated row template,
    # labelled B, A, B, ... from step 1.
    points = trace.points
    dim = points.shape[1]
    start = "%d,%s" + ",%.17g" * dim
    row = start + ",%.17g\r\n"
    fields = tuple(chain.from_iterable(
        zip(range(1, len(points)), cycle("BA"), *points[1:].T.tolist(), trace.gaps.tolist())
    ))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            ",".join(["step", "label", *(f"x{i}" for i in range(dim)), "gap"]) + "\r\n"
            + start % (0, "A", *points[0].tolist()) + ",\r\n"
            + row * (len(fields) // (dim + 3)) % fields
        )


def cmd_run(args) -> int:
    try:
        spec = _load_spec(args.spec)
        set_a = set_from_json(spec["setA"])
        set_b = set_from_json(spec["setB"])
        x0 = as_point(spec["x0"])
        max_iters = args.max_iters if args.max_iters is not None else spec.get("max_iters", engine._MAX_ITERS)
        max_iters = _spec_max_iters(max_iters)
        cert_tol = _check_tol(spec.get("cert_tol", engine._CERT_TOL), "cert_tol")
        outputs = _spec_outputs(spec.get("outputs", {}))
    except _SPEC_ERRORS as exc:
        print(f"error: cannot parse experiment spec: {exc}", file=sys.stderr)
        return EXIT_USAGE

    trace = engine.run(set_a, set_b, x0, max_iters=max_iters, cert_tol=cert_tol)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.spec).stem
    csv_path = Path(outputs.get("trace_csv", out_dir / f"{stem}_trace.csv"))
    report_path = Path(outputs.get("report_json", out_dir / f"{stem}_report.json"))
    _write_trace_csv(trace, csv_path)

    report = trace.to_json_dict()
    report["trace_csv"] = str(csv_path)
    text = _dump_json(report)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    if trace.stop_reason is engine.StopReason.CERTIFIED:
        return EXIT_OK
    return EXIT_NOT_CERTIFIED


def cmd_bound(args) -> int:
    try:
        spec = _load_spec(args.problem)
        set_a = set_from_json(spec["setA"])
        set_b = set_from_json(spec["setB"])
        x0 = as_point(spec["x0"])
    except _SPEC_ERRORS as exc:
        print(f"error: cannot parse bound problem: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = certify.bound_report(set_b, set_a, x0)
    print(_dump_json(report.to_json_dict()))
    return EXIT_OK


def cmd_lp(args) -> int:
    try:
        spec = _load_spec(args.problem)
        # Under --auto-bound the problem is read with M = 0, which checks c
        # as the LP's half-space does.
        problem = lp.problem_from_json({**spec, "M": 0.0} if args.auto_bound else spec)
    except _SPEC_ERRORS as exc:
        print(f"error: cannot parse LP problem: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.auto_bound:
        # M is the optimum less one, the end of the walk from the projection
        # of the origin.  The walk's errors are the solve's: an empty
        # polyhedron or a walk past its cap exits 1, and an unbounded
        # objective, which no M is strictly below, exits 66.
        try:
            end = _walk_to_optimum(problem.poly, np.zeros(len(problem.c)), problem.c)[1].point
        except Unbounded:
            raise LowerBoundNotStrict(
                "the objective is unbounded below on the polyhedron, so no M is strictly below it"
            ) from None
        problem = lp.LPProblem(problem.c, problem.poly, float(problem.c.dot(end)) - 1.0)
    outcome = lp.solve_lp(problem, strategy=args.strategy)
    trace_csv = None
    if args.out is not None and outcome.trace is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{Path(args.problem).stem}_trace.csv"
        _write_trace_csv(outcome.trace, path)
        trace_csv = str(path)
    print(_dump_json(lp.outcome_to_json(outcome, trace_csv)))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else []
    try:
        results = verify.run_suites(names, alpha_scale=args.alpha_scale)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="altproj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="alternate projections from a JSON spec")
    p_run.add_argument("spec", help="experiment spec JSON path")
    p_run.add_argument("--max-iters", type=int, default=None, help="cycle cap override")
    p_run.add_argument("--out", default=".", help="output directory for CSV/JSON")
    p_run.set_defaults(func=cmd_run)

    p_bound = sub.add_parser("bound", help="constants and step bound for a pair")
    p_bound.add_argument("problem", help="problem JSON path (setA, setB, x0)")
    p_bound.set_defaults(func=cmd_bound)

    p_lp = sub.add_parser("lp", help="solve an LP by projections")
    p_lp.add_argument("problem", help="LP JSON path (c, A, b, M)")
    p_lp.add_argument(
        "--strategy", choices=("direct", "shifted"), default="direct", help="solve strategy"
    )
    p_lp.add_argument(
        "--auto-bound",
        action="store_true",
        help="set M to the LP optimum minus one, found by the walk (test convenience)",
    )
    p_lp.add_argument("--out", default=None, help="directory for the run trace CSV")
    p_lp.set_defaults(func=cmd_lp)

    p_verify = sub.add_parser("verify", help="run self-check suites")
    p_verify.add_argument("--suite", default=None, help="single suite name (default: all)")
    p_verify.add_argument(
        "--alpha-scale",
        type=_alpha_scale,
        default=1.0,
        help="test hook: scale the angle constant inside the finite-step check",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> _Parser:
    # Built once per process: the four subparsers take about 0.6 ms, a
    # quarter of a short ``run``.  Parsing leaves the parser as it was.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except LowerBoundNotStrict as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_NOT_STRICT
    except NotPolyhedralPair as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_POLYHEDRAL
    except (AltprojError, OSError, ValueError) as exc:
        # OSError: an output path that cannot be written.  ValueError: a
        # value that a command meets after its spec is read, such as a
        # projection whose excess overflows; a spec that cannot be read
        # exits EXIT_USAGE before this.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
