"""Golden digests: the package's answers pinned bit for bit.

``golden_digests.json`` holds SHA-256 digests of

- the trace CSV and the report JSON (without its ``trace_csv`` path) that
  ``altproj run`` writes for each of the 32 half-plane / epigraph fixtures
  (the lower half-plane against the abs and parabola epigraphs shifted up
  by k in {0, 0.5, 1, 2}, from (x, 0) for x in {1, 3, 10, 100}), and
- the direct-strategy ``solve_lp`` runs of 300 ``random_lp_instance`` LPs
  at each of rng seeds 1, 7 and 11: every iterate and gap by bytes, the
  stop reason, the step count, the generated cycles, the active-set steps,
  the certificate residuals and the objective by ``float.hex``, and
- the constants path on 200 ``random_pair_instance`` pairs at each of rng
  seeds 1 and 11, as the ``constants`` benchmark runs it: ``bound_report``
  (alpha, ``d_AB``, ``N`` and ``one_step``), the shift ``mu`` of
  ``one_step_shift`` at that alpha and ``d_AB = 0``, and the shifted
  ``solve_lp`` (its solution by bytes, its objective and certificate
  residuals by ``float.hex``).  ``bound_report`` keeps the cone table on
  each polyhedron, and alpha reads the vertex list for n >= 3;
  ``one_step_shift`` takes its alpha.  ``bound_report``'s ``d_AB`` and the
  shifted solve walk from ``x0`` to one optimum and read nothing kept.

A change that only restructures the arithmetic, without changing what it
computes, must leave every digest as it is.  A change that moves a result
on purpose regenerates the file and says so in its change record:

    PYTHONPATH=src python tests/test_golden_digests.py --write

The digests also pin how the installed BLAS rounds: OpenBLAS's ``ddot``
forms a product of two 2-vectors as ``fma(x1, y1, x0 * y0)``, and the
package's small products and stored gaps keep that rounding.  Its
``ddot`` can also round a strided vector otherwise than a contiguous copy
of it (3,313 of 20,000 random products at n = 2..4), so the package hands
every iterate to BLAS contiguous; a generated block of cycles returned as
a transposed view moved the iterates of 23 of the 600 LPs of pools 1 and
7.  On another NumPy or BLAS build a digest can fail with the package
unchanged, so a failure names the build it ran on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from altproj import certify, instances, lp
from altproj.cli import main
from altproj.sets import set_to_json

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
PLANAR_KS = (0.0, 0.5, 1.0, 2.0)
PLANAR_X0 = (1.0, 3.0, 10.0, 100.0)
LP_SEEDS = (1, 7, 11)
LP_COUNT = 300
CONSTANTS_SEEDS = (1, 11)
CONSTANTS_COUNT = 200


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def numpy_build() -> str:
    """NumPy's version and BLAS build, for the message of a failed digest."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.26 prints its configuration only
        return f"NumPy {np.__version__}, BLAS build unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    return f"NumPy {np.__version__}, BLAS {build}"


def planar_fixtures():
    """``(stem, spec)`` for the 32 half-plane / epigraph experiments."""
    set_a = set_to_json(instances.lower_halfplane())
    kinds = (("abs", instances.absval_epigraph), ("square", instances.parabola_epigraph))
    for kind, make in kinds:
        for k in PLANAR_KS:
            for x in PLANAR_X0:
                spec = {"setA": set_a, "setB": set_to_json(make(k)), "x0": [x, 0.0]}
                yield f"{kind}_k{k:g}_x{x:g}", spec


def planar_digests(work: Path) -> dict:
    """Digests of the trace CSV and the report JSON of every planar run."""
    digests = {}
    for stem, spec in planar_fixtures():
        path = work / f"{stem}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["run", str(path), "--out", str(work)])
        report = json.loads((work / f"{stem}_report.json").read_text(encoding="utf-8"))
        del report["trace_csv"]
        digests[stem] = {
            "trace_csv": _sha((work / f"{stem}_trace.csv").read_bytes()),
            "report_json": _sha(json.dumps(report, sort_keys=True).encode()),
        }
    return digests


def lp_digest(seed: int) -> str:
    """One digest over the direct solves of the LPs drawn at rng ``seed``."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(LP_COUNT):
        problem = instances.random_lp_instance(rng)[0]
        out = lp.solve_lp(problem, strategy="direct")
        trace, cert = out.trace, out.certificate
        h.update(trace.points.tobytes())
        h.update(trace.gaps.tobytes())
        fields = (
            trace.stop_reason.value,
            trace.steps_to_converge,
            trace.generated_cycles,
            trace.active_set_steps,
            out.steps,
            cert.residual_A.hex(),
            cert.residual_B.hex(),
            out.objective.hex(),
        )
        h.update(repr(fields).encode())
    return h.hexdigest()


def constants_digest(seed: int) -> str:
    """One digest over the constants and shifted solves of the pairs drawn at rng ``seed``."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(CONSTANTS_COUNT):
        inst = instances.random_pair_instance(rng)
        hs, poly = inst.halfspace, inst.poly
        report = certify.bound_report(poly, hs, inst.x0)
        mu, _ = certify.one_step_shift(hs, poly, inst.x0, report.alpha, 0.0)
        out = lp.solve_lp(lp.LPProblem(hs.c, poly, hs.M), x0=inst.x0, strategy="shifted")
        cert = out.certificate
        h.update(out.solution.tobytes())
        fields = (
            report.alpha.hex(),
            report.d_AB.hex(),
            report.N,
            report.one_step,
            mu.hex(),
            out.steps,
            cert.residual_A.hex(),
            cert.residual_B.hex(),
            out.objective.hex(),
        )
        h.update(repr(fields).encode())
    return h.hexdigest()


def all_digests(work: Path) -> dict:
    return {
        "planar": planar_digests(work),
        "lp_direct": {str(seed): lp_digest(seed) for seed in LP_SEEDS},
        "constants": {str(seed): constants_digest(seed) for seed in CONSTANTS_SEEDS},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_planar_outputs_match_golden_digests(tmp_path, golden):
    assert planar_digests(tmp_path) == golden["planar"], numpy_build()


@pytest.mark.parametrize("seed", LP_SEEDS)
def test_direct_lp_traces_match_golden_digests(seed, golden):
    assert lp_digest(seed) == golden["lp_direct"][str(seed)], numpy_build()


@pytest.mark.parametrize("seed", CONSTANTS_SEEDS)
def test_constants_path_matches_golden_digests(seed, golden):
    assert constants_digest(seed) == golden["constants"][str(seed)], numpy_build()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = all_digests(Path(tmp))
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
