"""Golden digests: the package's answers pinned bit for bit.

``golden_digests.json`` holds SHA-256 digests of

- the trace CSV and the report JSON (without its ``trace_csv`` path) that
  ``altproj run`` writes for each of the 32 half-plane / epigraph fixtures
  (the lower half-plane against the abs and parabola epigraphs shifted up
  by k in {0, 0.5, 1, 2}, from (x, 0) for x in {1, 3, 10, 100}), and
- the direct-strategy ``solve_lp`` runs of 300 ``random_lp_instance`` LPs
  at each of rng seeds 1, 7 and 11: every iterate and gap by bytes, as the
  trace builds them on their first read (generated stretches filled from
  their closed form), the stop reason, the step count, the generated
  cycles, the active-set steps, the certificate residuals and the
  objective by ``float.hex``, and
- the constants path on 200 ``random_pair_instance`` pairs at each of rng
  seeds 1 and 11, as the ``constants`` benchmark runs it: ``bound_report``
  (alpha, ``d_AB``, ``N`` and ``one_step``), the shift ``mu`` of
  ``one_step_shift`` at that alpha and ``d_AB = 0``, and the shifted
  ``solve_lp`` (its solution by bytes, its objective and certificate
  residuals by ``float.hex``).  ``bound_report`` reads alpha off the face
  its walk ends on, and no pool pair takes the cone table;
  ``one_step_shift`` takes its alpha.  ``bound_report``'s ``d_AB`` and the
  shifted solve walk from ``x0`` to one optimum and read nothing kept.  The
  shifted solve's ``residual_B`` is read from the walk's final face, not
  measured by a cone solve, so it pins the factor the walk ends on too.
  Only these two digests were regenerated when that read replaced the cone
  solve: it moved ``residual_B`` alone, in its last bits (104 of the 200
  pairs at seed 1 and 100 at seed 11, by at most 1.5e-15), and
- the cold projections of the ``far_projection`` benchmark stream at rng
  seeds 1 and 23: 256 random bounded polyhedra with n = 2..4, each probed
  at radii 1e1 and 1e2 from its interior point, by
  ``project_polyhedron``: every point and dual by bytes and the step
  count.  On the same stream the active-set kernel's work is pinned as a
  count: its steps, and its calls of ``_add_column`` and
  ``_delete_column``, and
- the ray walks of ``project_along_ray`` that stop in the middle of a
  face: from each radius-1e1 point of that far stream, along a unit
  direction drawn from rng ``[seed, 1]``, to each ``t_target`` in
  {0.5, 5, 50, 5e3}: every point and dual by bytes and the iteration
  count, and
- the cone solves of ``linalg.nnls`` on the stream of
  ``test_certificate_solve._nnls_cases`` at rng seeds 7 and 2024 (full
  rank, rank-deficient and duplicate columns, targets inside and outside
  the cone), and at the apex of the abs epigraph where every ``abs``
  planar run stops: every ``lam`` by bytes and every residual by
  ``float.hex``, and
- alpha itself, by ``float.hex`` and not digested, on the 91 pairs of
  ``test_certify.bad_geometry_pairs`` and ``test_certify.rng72_pool_pairs``
  under each pair's own ``c`` and under ``c = -a_0``, each on a fresh
  polyhedron.  Under its own ``c`` a pair reads alpha off the optimum's
  face, except 17 of the 52 bad-geometry pairs.  Under ``c = -a_0`` 87 of
  the 91 take the cone table, mostly because the optimum is a face of row
  0 alone.  Row 0 does not qualify there, so the filter of the cone
  family runs, and the bad geometry sends cones to the NNLS route of the
  numerically dependent ones.  The ``constants`` section takes the table
  on no pair.

A change that only restructures the arithmetic, without changing what it
computes, must leave every digest as it is.  A change that moves a result
on purpose regenerates the sections it moves, by name, and says so in its
change record; every other section of the file stays byte for byte:

    PYTHONPATH=src python tests/test_golden_digests.py --write far_projection

For each section it writes, the script prints how many of its entries
changed and which, with the fields that moved in a nested entry, or that
the section is new.  With no arguments it prints every section's digests.

The digests also pin how the installed BLAS rounds: OpenBLAS's ``ddot``
forms a product of two 2-vectors as ``fma(x1, y1, x0 * y0)``, and the
package's small products and stored gaps keep that rounding.  Its
``ddot`` can also round a strided vector otherwise than a contiguous copy
of it (3,313 of 20,000 random products at n = 2..4), so the package hands
every iterate to BLAS contiguous; a generated block of cycles returned as
a transposed view moved the iterates of 23 of the 600 LPs of pools 1 and
7.  The end of a generated stretch, from which the run goes on, is formed
on its own, by the fill's ufuncs on a one-element ``j``, so the digests
also pin that it has the bits of the filled block's last rows.  On another NumPy or BLAS build a digest can fail with the package
unchanged, so a failure names the build it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from altproj import certify, instances, linalg, lp
from altproj.cli import main
from altproj.qp import project_along_ray, project_polyhedron
from altproj.sets import HalfSpace, Polyhedron, set_to_json
from test_certificate_solve import _nnls_cases
from test_certify import bad_geometry_pairs, rng72_pool_pairs
from test_polar_cone import ABS_APEX

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
PLANAR_KS = (0.0, 0.5, 1.0, 2.0)
PLANAR_X0 = (1.0, 3.0, 10.0, 100.0)
LP_SEEDS = (1, 7, 11)
LP_COUNT = 300
CONSTANTS_SEEDS = (1, 11)
CONSTANTS_COUNT = 200
FAR_SEEDS = (1, 23)
FAR_POLYHEDRA = 256
FAR_RADII = (1e1, 1e2)
# ``(steps, adds, drops)`` of the kernel on the far stream at each seed.
FAR_WORK = {1: (1618, 1489, 129), 23: (1706, 1543, 163)}
RAY_TARGETS = (0.5, 5.0, 50.0, 5e3)
CONE_SEEDS = (7, 2024)


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


def far_stream(seed: int):
    """``(polyhedron, point)`` of the ``far_projection`` benchmark pool at rng ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(FAR_POLYHEDRA):
        n = int(rng.integers(2, 5))
        poly, interior = instances.random_bounded_polyhedron(rng, n, int(rng.integers(0, 13 - 2 * n)))
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        for r in FAR_RADII:
            yield poly, interior + r * u


def far_digest(seed: int) -> str:
    """One digest over the cold projections of the far stream at rng ``seed``."""
    h = hashlib.sha256()
    for poly, x in far_stream(seed):
        res = project_polyhedron(poly, x)
        h.update(res.point.tobytes())
        h.update(res.dual.tobytes())
        h.update(repr(res.iterations).encode())
    return h.hexdigest()


def ray_digest(seed: int) -> str:
    """One digest over the finite ray walks from the radius-1e1 points of the far stream at rng ``seed``."""
    rng = np.random.default_rng([seed, 1])
    h = hashlib.sha256()
    for poly, base in itertools.islice(far_stream(seed), 0, None, len(FAR_RADII)):
        u = rng.normal(size=poly.dim)
        u /= np.linalg.norm(u)
        for t in RAY_TARGETS:
            res = project_along_ray(poly, base, u, t)
            h.update(res.point.tobytes())
            h.update(res.dual.tobytes())
            h.update(repr(res.iterations).encode())
    return h.hexdigest()


def cone_digest(cases) -> str:
    """One digest over the ``nnls`` solves of ``(G, y)`` pairs."""
    h = hashlib.sha256()
    for G, y in cases:
        lam, rnorm = linalg.nnls(G, y)
        h.update(lam.tobytes())
        h.update(rnorm.hex().encode())
    return h.hexdigest()


def cone_digests(_work) -> dict:
    digests = {str(seed): cone_digest(_nnls_cases(np.random.default_rng(seed))) for seed in CONE_SEEDS}
    digests["abs_apex"] = cone_digest([ABS_APEX])
    return digests


def alpha_bits(_work) -> dict:
    """``float.hex`` of alpha on each pair of the two pair sets, by set and objective."""
    bits = {}
    for name, pairs in (("bad_geometry", bad_geometry_pairs()), ("rng72_pool", rng72_pool_pairs())):
        for objective in ("own", "flipped"):
            bits[f"{name} {objective}"] = {
                f"{i:03d}": certify.alpha_polyhedron_halfspace(
                    Polyhedron(B.A, B.b), HalfSpace(-B.A[0], -10.0) if objective == "flipped" else A
                ).hex()
                for i, (B, A) in enumerate(pairs)
            }
    return bits


SECTIONS = {
    "planar": planar_digests,
    "lp_direct": lambda _work: {str(seed): lp_digest(seed) for seed in LP_SEEDS},
    "constants": lambda _work: {str(seed): constants_digest(seed) for seed in CONSTANTS_SEEDS},
    "far_projection": lambda _work: {str(seed): far_digest(seed) for seed in FAR_SEEDS},
    "ray_walks": lambda _work: {str(seed): ray_digest(seed) for seed in FAR_SEEDS},
    "cone_solves": cone_digests,
    "alphas": alpha_bits,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_planar_outputs_match_golden_digests(tmp_path, golden):
    # The second pass writes every output over the first pass's file.
    assert planar_digests(tmp_path) == golden["planar"], numpy_build()
    assert planar_digests(tmp_path) == golden["planar"], numpy_build()


def test_a_short_run_written_over_a_longer_one_matches_its_digests(tmp_path, golden):
    # abs_k1_x3's outputs (a 6-line CSV) written over square_k0_x1's (2,002
    # lines, a run that stops at its cap), through the spec's output paths.
    fixtures = dict(planar_fixtures())
    outputs = {"trace_csv": str(tmp_path / "trace.csv"), "report_json": str(tmp_path / "report.json")}
    for stem in ("square_k0_x1", "abs_k1_x3"):
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps({**fixtures[stem], "outputs": outputs}), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["run", str(path)])
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    del report["trace_csv"]
    assert {
        "trace_csv": _sha((tmp_path / "trace.csv").read_bytes()),
        "report_json": _sha(json.dumps(report, sort_keys=True).encode()),
    } == golden["planar"]["abs_k1_x3"], numpy_build()


@pytest.mark.parametrize("seed", LP_SEEDS)
def test_direct_lp_traces_match_golden_digests(seed, golden):
    assert lp_digest(seed) == golden["lp_direct"][str(seed)], numpy_build()


@pytest.mark.parametrize("seed", CONSTANTS_SEEDS)
def test_constants_path_matches_golden_digests(seed, golden):
    assert constants_digest(seed) == golden["constants"][str(seed)], numpy_build()


@pytest.mark.parametrize("seed", FAR_SEEDS)
def test_far_projections_match_golden_digests(seed, golden):
    assert far_digest(seed) == golden["far_projection"][str(seed)], numpy_build()


@pytest.mark.parametrize("seed", FAR_SEEDS)
def test_ray_walks_match_golden_digests(seed, golden):
    assert ray_digest(seed) == golden["ray_walks"][str(seed)], numpy_build()


def test_cone_solves_match_golden_digests(golden):
    assert cone_digests(None) == golden["cone_solves"], numpy_build()


def test_alphas_match_golden_bits(golden):
    assert alpha_bits(None) == golden["alphas"], numpy_build()


@pytest.mark.parametrize("seed", FAR_SEEDS)
def test_far_projections_take_the_pinned_kernel_work(seed, monkeypatch):
    # The steps each projection reports, and the factor updates the kernel
    # makes, counted by name in ``linalg`` where the kernel calls them.  A
    # change that moves no result but takes another path moves these.
    calls = {"add": 0, "drop": 0}

    def counted(name, update):
        def spy(*args):
            calls[name] += 1
            return update(*args)

        return spy

    monkeypatch.setattr(linalg, "_add_column", counted("add", linalg._add_column))
    monkeypatch.setattr(linalg, "_delete_column", counted("drop", linalg._delete_column))
    steps = sum(project_polyhedron(poly, x).iterations for poly, x in far_stream(seed))
    assert (steps, calls["add"], calls["drop"]) == FAR_WORK[seed]


def test_write_regenerates_only_the_named_sections(tmp_path, monkeypatch, capsys, golden):
    # On a copy of the file, with stand-in sections: --write needs a name,
    # rewriting a section with its own digests leaves the file byte for
    # byte, and a new digest moves that section alone.  Each write says
    # which entries it changed, and which fields of a nested one.
    original = GOLDEN.read_bytes()
    copy = tmp_path / "golden_digests.json"
    copy.write_bytes(original)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", copy)
    with pytest.raises(SystemExit):
        script(["--write"])
    capsys.readouterr()
    monkeypatch.setitem(SECTIONS, "far_projection", lambda _work: golden["far_projection"])
    assert script(["--write", "far_projection"]) == 0
    assert copy.read_bytes() == original
    assert capsys.readouterr().out == "far_projection: 0 of 2 entries changed\n"
    monkeypatch.setitem(SECTIONS, "far_projection", lambda _work: {"1": "0" * 64})
    assert script(["--write", "far_projection"]) == 0
    assert json.loads(copy.read_text(encoding="utf-8")) == {**golden, "far_projection": {"1": "0" * 64}}
    assert capsys.readouterr().out == "far_projection: 2 of 2 entries changed: 1, 23\n"
    planar = {**golden["planar"], "square_k2_x3": {**golden["planar"]["square_k2_x3"], "trace_csv": "0" * 64}}
    monkeypatch.setitem(SECTIONS, "planar", lambda _work: planar)
    monkeypatch.setitem(SECTIONS, "extra", lambda _work: {"1": "0" * 64})
    assert script(["--write", "planar", "extra"]) == 0
    assert capsys.readouterr().out == (
        "planar: 1 of 32 entries changed: square_k2_x3 (trace_csv)\nextra: new section of 1 entries\n"
    )


def moved(name: str, old: dict | None, new: dict) -> str:
    """One line on what writing ``new`` over the section ``old`` changes."""
    if old is None:
        return f"{name}: new section of {len(new)} entries"
    changed = []
    for key in sorted(old.keys() | new.keys()):
        was, now = old.get(key), new.get(key)
        if was == now:
            continue
        if isinstance(was, dict) and isinstance(now, dict):
            fields = sorted(f for f in was.keys() | now.keys() if was.get(f) != now.get(f))
            key = f"{key} ({', '.join(fields)})"
        changed.append(key)
    line = f"{name}: {len(changed)} of {len(old.keys() | new.keys())} entries changed"
    return f"{line}: {', '.join(changed)}" if changed else line


def script(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Print the golden digests, or write named sections.")
    parser.add_argument(
        "--write",
        nargs="+",
        choices=sorted(SECTIONS),
        metavar="SECTION",
        help=f"regenerate these sections of the file and keep the others byte for byte: {', '.join(sorted(SECTIONS))}",
    )
    args = parser.parse_args(argv)
    names = args.write or sorted(SECTIONS)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = {name: SECTIONS[name](Path(tmp)) for name in names}
    if args.write is None:
        sys.stdout.write(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        return 0
    digests = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name in names:
        sys.stdout.write(moved(name, digests.get(name), fresh[name]) + "\n")
    digests.update(fresh)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(script(sys.argv[1:]))
