"""Self-tests of the benchmark.  Run from the root of the repository:

    python3 benchmarks/selftest.py

Checks that the tracer restores every name it wrapped, that call, sweep and
cycle counts repeat exactly across two traced passes of one seed, that the
committed planar table matches what the code produces, and that the metric
names agree with BENCHMARK.json and benchmarks/layers.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

SMALL_POOL = 24


class SelfTestFailure(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def bindings() -> dict:
    """``{(module, attribute): value}`` for every function in the package."""
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "altproj"
        for key, value in vars(module).items()
        if callable(value)
    }


def test_tracer_restores_every_name(tracer_mod, **_):
    before = bindings()
    tracer = tracer_mod.Tracer()
    try:
        with tracer:
            during = bindings()
            for _, home, attr, _ in tracer.targets:
                require(during[(home, attr)] is not before[(home, attr)],
                        f"{home}.{attr} was not wrapped")
            originals = {id(before[(home, attr)]) for _, home, attr, _ in tracer.targets}
            left = [key for key, value in during.items() if id(value) in originals]
            require(not left, f"bindings left unwrapped: {left}")
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    after = bindings()
    changed = [key for key in before if after[key] is not before[key]]
    require(not changed, f"names not restored: {changed}")


def small_pools(workloads, work: Path) -> dict:
    return {
        name: run.build(workloads.WORKLOADS[name], 1, work, name)[0][:SMALL_POOL]
        for name in run.WORKLOAD_NAMES
    }


def test_counts_repeat_exactly(tracer_mod, workloads, work, **_):
    pools = small_pools(workloads, work)
    counts = []
    for _ in range(2):
        orders = {name: run.pass_order(7, name).permutation(len(cases))
                  for name, cases in pools.items()}
        plain, traced, tracer = run.traced_passes(workloads, tracer_mod, pools, orders)
        for name in pools:
            require(plain[name].signature == traced[name].signature,
                    f"{name}: traced answers differ from untraced ones")
        metrics = run.layer_metrics(tracer)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    require(counts[0] == counts[1], "counts differ between two runs of one seed")
    require(counts[0]["engine.cycles"] > 0 and counts[0]["qp.project_polyhedron.sweeps"] > 0,
            "the small pools exercised no engine cycle or sweep")


def test_planar_table_matches_code(workloads, work, **_):
    committed = json.loads(workloads.PLANAR_TABLE.read_text(encoding="utf-8"))
    produced = workloads.planar_table(work / "planar")
    require(produced == committed, "planar_table.json differs from the code's runs")


def test_metric_names_match_benchmark_json(**_):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    require([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
            "end_to_end metrics differ from BENCHMARK.json")
    require([m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER),
            "per_layer metrics differ from BENCHMARK.json")
    require([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
            "workloads differ from BENCHMARK.json")
    layers = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))
    mapped = {name for entry in layers["layers"] for name in entry["metrics"]}
    require(mapped == set(run.PER_LAYER), "layers.json does not map every per-layer metric")
    require(set(layers["workloads"]) == set(run.WORKLOAD_NAMES),
            "layers.json does not describe every workload")


TESTS = (
    test_tracer_restores_every_name,
    test_counts_repeat_exactly,
    test_planar_table_matches_code,
    test_metric_names_match_benchmark_json,
)


def main() -> int:
    altproj = run.import_package()
    if altproj is None:
        return 1
    import tracer as tracer_mod
    import workloads

    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    failures = 0
    try:
        for test in TESTS:
            try:
                test(tracer_mod=tracer_mod, workloads=workloads, work=work)
            except SelfTestFailure as exc:
                failures += 1
                print(f"FAIL  {test.__name__}: {exc}")
            else:
                print(f"PASS  {test.__name__}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(TESTS) - failures}/{len(TESTS)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
