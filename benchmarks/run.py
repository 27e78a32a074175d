"""Benchmark of the altproj library and CLI.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
                              [--pool-seed N]

Workloads: lp_direct, constants, far_projection, planar_run (see
benchmarks/layers.json for why each was chosen and what it should move).

One process, one thread, closed loop: each operation starts when the
previous one has returned.  BLAS is pinned to one thread before NumPy loads.

Inputs.  Each workload has a fixed pool of cases made from ``--pool-seed``
(default 1).  ``--seed`` orders the pool: every pass runs all cases in a
fresh permutation drawn from it, so every run sees the same cases, failures
included.  To confirm a claim on cases not used while the change was
written, run both commits with ``--pool-seed N`` for a new N.

Untraced run (``--trace 0``).  Set-up runs three times: a fresh interpreter
imports NumPy, the package and the benchmark modules, and the pool is built;
``setup_s`` is the median of the three import-plus-build times.  Three
untimed warm-up operations follow.  Then a fixed number of whole passes
run: ``--seconds`` over the pass time in ``PASS_SECONDS``, rounded, and at
least enough passes for 200 operations, so at least 10 samples lie beyond
the 95th percentile.  Every run of a workload at one ``--seconds`` thus does
the same work.  Every answer is checked after its timer stops.

Metrics.  ``ops_per_s`` is correct answers per second of measured operation
time; ``latency_p50_ms`` and ``latency_p95_ms`` cover every attempt, failures
included; ``correct_frac`` is correct answers over attempts (``failed_frac``,
printed too, is one minus it).  A raised error or a wrong answer is a failed
operation.  ``correct`` in the last line is false when any answer was wrong
or any error raised was not one of the package's typed errors.

All four timings are scaled to the reference machine's speed: a speed
probe (benchmarks/speed.py) times fixed reference kernels from a timer
signal every 25 ms during set-up and the timed loop, and each latency and
each set-up time is multiplied by the speed measured during and around it
before the metrics are taken.  The figures as measured, and the mean speed,
are printed on the ``speed`` and ``import_s`` lines.

Traced run (``--trace 1``).  One pass over the named workload's pool in
which each case runs twice in a row, once under the tracer, followed by the
same for the first four cases of each other pool, so that every layer runs
and no per-layer time is an unmeasured zero.  The per-layer numbers cover
that work, most of it the named workload's; ``trace.overhead_frac`` is the
extra time the tracer costs on the named pool.  Both runs of a case must
give identical answers.  ``--seconds`` does not apply: the work is fixed so
that call counts repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("lp_direct", "constants", "far_projection", "planar_run")
SETUPS = 3
WARMUP_OPS = 3
MIN_SAMPLES = 200

# Measured seconds of one pass over each workload's default pool, on a
# 2-vCPU Xeon VM (Python 3.11, NumPy 2.4, OpenBLAS on one thread).  They only
# turn --seconds into a pass count; a faster program simply ends sooner.
PASS_SECONDS = {
    "lp_direct": 11.5,
    "constants": 5.1,
    "far_projection": 5.0,
    "planar_run": 1.32,
}
PROBE_CASES = 4

# End-to-end metrics of an untraced run and their units.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("correct_frac", "frac"),
    ("setup_s", "s"),
)

# Per-layer metrics reported by a traced run.
PER_LAYER = (
    "engine.check_certificate.total_s",
    "linalg.nnls.calls",
    "linalg.nnls.self_s",
    "linalg.distance_to_finite_cone.calls",
    "linalg.as_point.calls",
    "sets.proximal_normal_generators.self_s",
    "sets.contains.calls",
    "engine.cycles",
    "engine.run.self_s",
    "qp.project_polyhedron.calls",
    "qp.project_polyhedron.self_s",
    "qp.project_polyhedron.sweeps",
    "qp.nnls.calls",
    "lp.feasible_vertices.calls",
    "lp.feasible_vertices.self_s",
    "lp.vertex_oracle.calls",
    "certify.alpha_polyhedron_halfspace.self_s",
    "certify.bound_report.total_s",
    "certify.one_step_shift.total_s",
    "qp.project_along_ray.self_s",
    "sets.project_halfspace.self_s",
    "sets.project_epigraph.self_s",
    "cli.main.self_s",
    "sets.project.calls",
    "lp.solve_lp.total_s",
    "trace.overhead_frac",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="altproj benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int, help="orders the pool")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-seed", type=int, default=1, help="makes the pool")
    return parser.parse_args(argv)


def import_package():
    """Import the package from this checkout's ``src``; ``None`` if absent."""
    sys.path.insert(0, str(SRC))
    try:
        import altproj
    except ImportError as exc:
        print(f"error: cannot import altproj from {SRC}: {exc}", file=sys.stderr)
        return None
    if Path(altproj.__file__).resolve().parent != SRC / "altproj":
        print(f"error: altproj was imported from {altproj.__file__}", file=sys.stderr)
        return None
    return altproj


# Run by a fresh interpreter: prints the seconds its imports took.
IMPORT_TIMER = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import numpy, altproj, tracer, workloads
print(time.perf_counter() - t0)
"""


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import NumPy, the package and the benchmark."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=60,
    )
    return float(proc.stdout)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, altproj) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "altproj": altproj.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "pool_seed": args.pool_seed,
        "trace": args.trace,
    }


def attempt(workload, case, clock=time.perf_counter):
    """Run one operation; ``(start, seconds, status, signature)``.

    ``status`` is ``"ok"``, ``"wrong"`` or the name of the exception raised.
    """
    t0 = clock()
    try:
        result = workload.op(case)
    except Exception as exc:  # a raised error is a failed operation
        return t0, clock() - t0, type(exc).__name__, (str(exc),)
    elapsed = clock() - t0
    try:
        ok, signature = workload.check(case, result)
    except Exception as exc:  # an answer the check cannot read is wrong
        return t0, elapsed, "wrong", (repr(exc),)
    return t0, elapsed, "ok" if ok else "wrong", signature


class Tally:
    """Latencies and outcomes of one workload's operations."""

    def __init__(self):
        self.start = []
        self.latency = []
        self.status = []
        self.signature = []

    def add(self, outcome):
        start, elapsed, status, signature = outcome
        self.start.append(start)
        self.latency.append(elapsed)
        self.status.append(status)
        self.signature.append(signature)

    @property
    def attempted(self) -> int:
        return len(self.status)

    @property
    def ok(self) -> int:
        return self.status.count("ok")

    def error_types(self) -> dict:
        return dict(Counter(s for s in self.status if s != "ok"))

    def correct(self, error_classes) -> bool:
        """No wrong answer, and every failure is one of the package's typed errors."""
        return all(s == "ok" or s in error_classes for s in self.status)


def pass_order(seed: int, workload_name: str):
    return np.random.default_rng([seed, WORKLOAD_NAMES.index(workload_name)])


def build(workload, pool_seed: int, work: Path, label: str, clock=time.perf_counter):
    t0 = clock()
    cases = workload.build(pool_seed, work / label)
    return cases, clock() - t0


def timed_run(args, workloads, speed, error_classes, work: Path):
    workload = workloads.WORKLOADS[args.workload]
    import_s, build_s, spans = [], [], []
    with speed.SpeedProbe() as probe:
        for i in range(SETUPS):
            start = probe.clock()
            import_s.append(import_seconds())
            cases, seconds = build(workload, args.pool_seed, work, f"setup{i}", probe.clock)
            build_s.append(seconds)
            spans.append((start, probe.clock() - start))
    setup_raw = np.add(import_s, build_s)
    starts, durations = np.array(spans).T
    setup_s = float(np.median(setup_raw * probe.local_speed(starts, durations)))

    rng = pass_order(args.seed, args.workload)
    for i in rng.permutation(len(cases))[:WARMUP_OPS]:
        attempt(workload, cases[i])

    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]),
                 math.ceil(MIN_SAMPLES / len(cases)))
    tally = Tally()
    with speed.SpeedProbe() as probe:
        for _ in range(passes):
            for i in rng.permutation(len(cases)):
                tally.add(attempt(workload, cases[i], probe.clock))

    lat = np.array(tally.latency)
    factor = probe.local_speed(np.array(tally.start), lat)
    scaled = lat * factor
    p95 = float(np.percentile(lat, 95))
    raw = (tally.ok / float(lat.sum()), float(np.median(lat)) * 1e3, p95 * 1e3)
    values = (
        tally.ok / float(scaled.sum()),
        float(np.median(scaled)) * 1e3,
        float(np.percentile(scaled, 95)) * 1e3,
        tally.ok / tally.attempted,
        setup_s,
    )
    metrics = {name: (value, unit) for (name, unit), value in zip(END_TO_END, values)}
    failed = tally.attempted - tally.ok
    print(f"pool {len(cases)} cases, {passes} passes, {tally.attempted} operations, "
          f"{int((lat > p95).sum())} beyond p95, {lat.sum():.3f} s measured")
    print(f"speed {float(scaled.sum() / lat.sum()):.4f} from {len(probe.speeds)} probe samples; "
          f"as measured: ops_per_s {raw[0]:.4f}, latency_p50_ms {raw[1]:.5f}, "
          f"latency_p95_ms {raw[2]:.4f}")
    print(f"failed_frac {failed / tally.attempted:.6f} ({failed}/{tally.attempted}) "
          f"by type {tally.error_types()}")
    print(f"import_s {[round(a, 4) for a in import_s]}, build_s {[round(b, 4) for b in build_s]}, "
          f"setup_s as measured {float(np.median(setup_raw)):.4f}")
    return metrics, tally.correct(error_classes), tally.attempted, failed


def traced_passes(workloads, tracer_mod, pools: dict, orders: dict):
    """One pass per pool in which each case runs twice in a row, once traced.

    Which of the two runs first alternates from case to case, so that both
    see the same machine state and warm caches equally.  Returns
    ``(untraced, traced, tracer)``, the first two keyed like ``pools``.
    """
    tracer = tracer_mod.Tracer()
    plain, traced = {}, {}
    for name, cases in pools.items():
        workload = workloads.WORKLOADS[name]
        for i in orders[name][:WARMUP_OPS]:
            attempt(workload, cases[i])
        plain[name], traced[name] = Tally(), Tally()
        for k, i in enumerate(orders[name]):
            for under_trace in (k % 2 == 1, k % 2 == 0):
                if under_trace:
                    with tracer:
                        traced[name].add(attempt(workload, cases[i]))
                else:
                    plain[name].add(attempt(workload, cases[i]))
    return plain, traced, tracer


def traced_run(args, workloads, tracer_mod, error_classes, work: Path):
    named = args.workload
    pools = {named: build(workloads.WORKLOADS[named], args.pool_seed, work, named)[0]}
    for name in WORKLOAD_NAMES:
        if name != named:
            pools[name] = build(workloads.WORKLOADS[name], args.pool_seed, work, name)[0][:PROBE_CASES]
    orders = {name: pass_order(args.seed, name).permutation(len(cases))
              for name, cases in pools.items()}
    plain, traced, tracer = traced_passes(workloads, tracer_mod, pools, orders)

    correct = True
    for name in pools:
        a, b = plain[name], traced[name]
        same = a.status == b.status and a.signature == b.signature
        if not same:
            print(f"error: {name}: traced answers differ from untraced ones")
        correct = correct and same and b.correct(error_classes)
        print(f"{name}: {b.attempted} operations, untraced {sum(a.latency):.3f} s, "
              f"traced {sum(b.latency):.3f} s, failures {b.error_types()}")

    metrics = layer_metrics(tracer)
    a, b = plain[named], traced[named]
    metrics["trace.overhead_frac"] = (sum(b.latency) / sum(a.latency) - 1.0, "frac")

    spans = WORK / f"spans-{named}-pool{args.pool_seed}-seed{args.seed}.npz"
    tracer.write_spans(spans)
    print(f"{len(tracer.span_name)} spans written to {spans}")
    attempted = sum(t.attempted for t in traced.values())
    failed = sum(t.attempted - t.ok for t in traced.values())
    return metrics, correct, attempted, failed


def layer_metrics(tracer) -> dict:
    metrics = {}
    for name, (calls, total_s, self_s) in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total_s, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name, value in tracer.counts.items():
        metrics[name] = (value, "count")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    altproj = import_package()
    if altproj is None:
        return 1
    import speed
    import tracer as tracer_mod
    import workloads

    print("run_record " + json.dumps(run_record(args, altproj), sort_keys=True))
    error_classes = {
        name for name, obj in vars(altproj.errors).items()
        if isinstance(obj, type) and issubclass(obj, altproj.AltprojError)
    }

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            metrics, correct, attempted, failed = traced_run(
                args, workloads, tracer_mod, error_classes, work
            )
            metrics = {name: metrics[name] for name in PER_LAYER}
        else:
            metrics, correct, attempted, failed = timed_run(
                args, workloads, speed, error_classes, work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
