"""Alternating projections between two projectable sets.

The driver records every iterate, checks the nearest-pair optimality
certificate after each full A-B cycle, and stops on the first of:
certificate holds, gap decrease stalled, or the cycle cap.

For a pair of closed convex sets, points ``a`` in A and ``b`` in B are a
minimum-distance pair exactly when ``b - a`` lies in the proximal normal
cone of A at ``a`` and ``a - b`` in that of B at ``b``; the certificate
measures both cone distances.  For nonconvex sets the inclusion is only a
necessary condition, so a certified stop there means "stationary pair".

How a cycle is decided.  One function, :func:`_decide`, decides every
cycle that is not screened on floats (below).  It makes the checks of
:func:`check_certificate` in its order, by the same prelude
(:func:`_cone_prelude`): A's membership, B's membership, each by the one
rule of ``sets._active``, then the direction ``b - a`` (``ZeroVector``
when it cannot be normalised).  The decision takes the A-step's difference
``a - b`` and its gap from :func:`_step_gap` instead of forming them again;
``-(a - b)/gap`` is bitwise ``(b - a)/||b - a||``.  It then measures B's
residual, and A's only when B's is at most the tolerance.  ``a`` is the
A-projection of ``b``, so A's residual is about 0 by construction and B's
decides almost every cycle.
On a half-space/polyhedron run B's residual is read from the face factor of
the cycle's B-projection wherever that decides the cycle, and measured by
the cone solve everywhere else (below, "The face factor").
The ``Certificate`` itself is built once per run, for the pair the run
stops on: on a certified stop from the two residuals just measured, on a
``GAP_STALLED`` or ``MAX_ITERS`` stop by measuring both residuals of the
last pair, exactly as :func:`check_certificate` does.  Every decision
equals that of calling :func:`check_certificate` after every cycle, and so
does every residual except a certified ``residual_B`` read from the factor,
which can differ from the cone solve's in the last bits.
The certificate is face-aware too: :func:`_certificate` takes an optional
face factor of B at ``b``, and B's residual then comes from it by the one
rule of the cycle decision, "face factor first, else the cone solve"
(:func:`_residual_b`).  A run passes no face, so its ``GAP_STALLED`` and
``MAX_ITERS`` certificates and the planar path measure as
:func:`check_certificate` does.  The shifted LP solve passes the final
face of its walk (``qp._walk_to_optimum``), where ``-c`` lies in the cone
of the working rows, so its certificate takes no cone solve wherever the
factor decides; its ``residual_B`` can then differ from the cone solve's in
the last bits, as a direct one already can.  On the 800 pairs of the
``constants`` pools at seeds 1, 3, 7 and 11 the two differ by up to
2.5e-15, and the face read is the closer to the exact distance: within
8.4e-16 of it, where the cone solve is up to 2.6e-15 away.

Planar pairs.  When both sets are 2-D and neither is a polyhedron
(half-planes and the two epigraphs), a cycle of NumPy calls on 2-vectors
is almost all call overhead, so :func:`run` carries each iterate as two
floats through one loop for every such pair (:func:`_run_planar`).  It
binds each set's floats and a kind code once per run, and a cycle then pays
for arithmetic rather than for calls: the loop carries inline the float
kernels of ``sets``, with their operations in their order, so it gives the
array code's bits.  Inline are the projections onto a half-plane whose unit
normal has a zero entry, onto the abs epigraph and onto the parabola's,
whose Newton loop (``sets._parabola_root``) runs inline up to a first step
that is not finite, and the screen below.  The loop calls three kernels:
``sets._parabola_root`` itself where that first step overflows, the
package's one rounding rule ``linalg._feas_tol``, and
``sets._project_halfplane_xy`` for a half-plane whose normal has no zero
entry.  That half-plane's product keeps the BLAS call, because OpenBLAS's
``ddot`` forms a product of two 2-vectors as ``fma(x1, y1, x0 * y0)``,
which can round otherwise than ``x0 * y0 + x1 * y1``: a half-plane is read
in its normal form, the unit normal ``u = c/||c||`` and offset
``o = M/||c||`` of ``HalfSpace``, and its ``<u, x>``, whose rounding enters
the projected point, is taken by ``u.dot`` on the wrapped pair.  When ``u``
has a zero entry, such as the fixtures' ``v <= 0``, one product is an exact
zero, and ``<u, x>`` is the other product rounded once in every summation
order, fused or not, so ``u0 x0 + u1 x1`` on floats has its bits on any
BLAS (a zero sum can differ in sign only, and a zero excess moves no
point).  Each cycle is then screened on floats: the gaps by
``math.hypot``, each point's membership and normal cone by float tests
(an epigraph's are those of the epigraph branch of ``sets._active``, a
half-plane's reads the float ``<u, x> - o``), and B's residual by the ray
rejection on floats.  These can differ from the array code's values in the
last bits, so the screen lets a cycle go on only when every test clears its
threshold by a margin far above that difference.  Each margin is needed:
without it, a run that a seeded search found within a few units in the last
place of its threshold goes on where the arrays stop it
(``tests/test_validated_loop.py``).  The margins:

- the A-step's gap exceeds ``2 max(cert_tol, ZERO_TOL)``, so neither the
  common-point test, the stop on a gap too small to normalise nor
  ``ZeroVector`` can fire;
- the gap decrease ``gap_b - gap_a`` exceeds ``GAP_STALL_TOL`` by
  ``1e-12 gap_b``;
- both points are in their sets: an epigraph's float test is the array
  code's own, and a half-plane's float ``<u, x> - o`` must clear the
  bound of ``sets._active``, ``ACTIVE_TOL`` plus the rounding allowance
  ``linalg._feas_tol`` at the point, by ``1e-15`` times the size of its
  terms;
- B's residual exceeds ``cert_tol`` by ``1e-12``.

Every other cycle, among them those at the abs apex (a cone of two
generators, which takes an NNLS) and those with a gap that is not finite,
is decided again on arrays by :func:`_decide`, which raises what the array
code raises, in its order, and builds the one certificate of a stop.  On the
32 half-plane / epigraph fixtures the arrays decide one to four cycles of
each run, the stopping one included, and none of the 1000 cycles of the
tangent (``square_k0``) runs.  The loop keeps only the floats of its
iterates and puts them into one array at the stop; the ``(k, 2)`` points and
the gaps are built from it on first read, as the general loop's are (below).

Validation happens once, at the boundary.  :func:`run` validates ``x0``
and every cycle then runs on kernels that take validated arrays or floats:
the set projections behind ``sets.project`` (``qp._project_from`` for a
polyhedron, the float kernels for a planar pair) and the cycle decision
:func:`_decide`, which shares its prelude with :func:`_certificate`
behind :func:`check_certificate`, with 1-D norms from ``linalg._norm``.
The sets' dimensions are compared once, before the first cycle.  An iterate
is tested for finite entries only when its distance from the previous one
is not finite, which every non-finite iterate makes it.

Iterates only.  Both loops keep nothing but their iterates: the general
loop one flat array per real point, joined into one whenever a stretch of
generated cycles begins, and for each stretch its closed form
(:class:`_Stretch`), not its points; the planar loop the floats.  These
pieces are the :class:`Trace`, with the stop reason, the certificate and the
active-set step count, the one count the pieces cannot give.  The trace
builds ``points`` and ``gaps`` on their first read: it fills every stretch
from its closed form, stacks the pieces and forms every gap from one block
product, ``linalg._dot_row_norms`` of the differences of consecutive rows,
which rounds each row's sum of squares as ``d.dot(d)`` does.  So every
stored gap is bitwise ``_norm`` of its step, the value the cycle itself
measured, generated cycles included.  The number of iterates, the step
count and the generated cycles are read off the pieces' lengths and the
stretches' ``J``, and the final pair and gap off the last piece, which is
always an array (the stop is decided on a real cycle); the gap is
``_norm`` of the pair's difference, bit for bit the value the last cycle
measured.  A direct LP solve, which reads nothing else, builds nothing and
pays for its real cycles only.

Cycles on one face.  When A is a half-space ``{<c, x> <= M}`` and B a
polyhedron, a run can spend thousands of cycles creeping along one face
``F`` of B, the rows whose projection multipliers are positive.  While the
B-projection stays on ``F`` it is the projection onto the affine hull of
``F``.  With ``u`` and ``o`` the half-space's normal form (above), ``V``
the null space of ``A_F``, ``P_V`` the projection onto it and
``s_k = <u, b_k> - o`` the A-step of cycle ``k``, a distance, one cycle
maps ``b_{k+1} = b_k - s_k P_V u`` and ``s_{k+1} = rho s_k`` with
``rho = 1 - q`` and ``q = ||P_V u||^2``.  After ``j`` cycles

    b_{k+j} = b_k - s_k g(j) P_V u,   g(j) = (1 - rho^j)/q,
    a_{k+j+1} = b_{k+j} - s_k rho^j u.

The multipliers are ``s_k rho^j`` times a fixed vector, so their signs do
not change; the path leaves ``F`` only when an inactive row becomes tight.
``P_V u`` comes from the face factor below: when the working rows ``W`` are
exactly the rows of ``F``, the first ``k`` columns ``Q_1`` of its ``Q``
span them and ``P_V u = u - Q_1 (Q_1' u)``, formed twice to
re-orthogonalise it.  A working row with a zero multiplier makes ``W``
larger than ``F``, and no cycle is generated.  A row outside ``W`` that is
tight with a zero multiplier, such as a copy of a face row, stops nothing
by itself: the path does not move it, and it enters the row event below
like every other inactive row.

The multipliers of the next B-projection on ``F`` are ``s_k`` times the
rates ``-R^-1 Q_1' u`` of the face factor, read with one triangular solve;
a negative rate means that projection drops its row and leaves ``F``.  So
:func:`run` tries the jump once per visit to a face, on the cycle that
enters it, and :func:`_face_jump` refuses unless the working rows are
exactly the rows of ``F`` and every rate is positive.
The jump finds the first cycle at which one of five events could happen:

- an approaching inactive row's slack falls to ``10 * ACTIVE_TOL``, or, for
  a row already within that margin, falls by the smallest feasibility
  tolerance of a B-projection below the larger of its slack and 0;
- the gap ``s_k rho^j`` falls to the certificate tolerance (the
  pair witnesses a common point) or to ``ZERO_TOL``, whichever is larger;
- the A-point's violation of the face rows, ``s_k rho^j max(-U_F u)``,
  falls to the feasibility tolerance of the polyhedron projection, which
  then returns the A-point unchanged (a common point by rounding);
- the gap-stall difference ``s_k rho^(j-1) ||P_r u|| (1 - ||P_r u||)``,
  with ``P_r = I - P_V``, falls below ``GAP_STALL_TOL``;
- the cycle cap.

When the first event is a row's, the stretch runs to it: it keeps every
cycle whose B-point holds each closing row at or above its floor, which is
already a margin, and on the random LPs the next real cycle is the one that
enters the next face.  Before the other events, which are decided at the rounding level or
by the cap, it keeps every cycle up to two before that one.  The run
resumes ordinary cycles from the stretch's last A-point, so every face
change, certificate and stop decision still comes from real projections.
That point, and the B-point before it, are the closed form at ``j = J`` by
the NumPy ufuncs the trace's fill uses, on a one-element ``j``: every
operation is elementwise in ``j``, so they are bit for bit the last two
rows the fill gives.  The iterates and gaps of the generated cycles are
built with all the others, on the trace's first read.  On the 300 LPs of
the ``lp_direct`` pool at seed 1 every stretch ends at a row, and a visit
to a face costs one real cycle, its entry: the pass projects 641 cycles
and generates 74,039.  Other pairs, and a polyhedron A with a half-space
B, run ordinary cycles throughout.

The face factor.  On the same pairs each real B-projection starts from the
face of the one before (``qp._project_from``).  The run keeps that face,
as the active-set method left it, in a local variable: the working rows ``W``,
the QR factor ``A_W' = Q_1 R`` that the method updated on each add and drop
of a row, and ``w = R^-T b_W``; the record also carries ``Q_1``, ``A_W``
and ``b_W``, cut once when the projection builds it, so no reader slices
the factor or the rows again.  For the next point ``x`` the face gives,
with a few products and two triangular solves, the multipliers
``u = R^-1 (Q_1' x - w)`` and the point ``z`` nearest ``x`` on the affine
hull of the face, refined once on the working rows.  When ``u >= 0`` and
``z`` is feasible, ``z`` is the projection exactly, not approximately:
``x - z = A_W' u`` with ``u >= 0``, ``z`` feasible and every working row
tight are the KKT conditions of the projection, and for a convex quadratic
they are sufficient.  Whenever ``u >= 0`` the active-set method continues
from ``(W, u, z)`` and a copy of the factor: a feasible ``z`` ends it at
its first test, with no step and no update of the factor, and the answer
is read off the copy as from any final face.  A negative entry of ``u``
starts it from the empty working set.  A feasible ``x`` is returned
unchanged before the face is tried, as the cold projection does.  On the
random LPs of the ``lp_direct`` pool none of the B-projections lands on the
face of the cycle before, since a visit to a face is its entry and then a
stretch (above); the projection that ends a stretch continues the
active-set method from the face it leaves.  The same factor gives the
closed-form cycles their ``P_V u`` and the jump its rates (above), so a
face is never factored afresh.

The same factor decides the cycle (:func:`_face_residual`).  B's normal
cone at ``b`` is generated by the rows tight there within ``ACTIVE_TOL``,
the mask ``|U b - o| <= ACTIVE_TOL`` of ``sets._active`` on the unit rows
``U`` and offsets ``o``, formed once per decision.  When those rows are exactly the working rows ``W``
(:func:`_on_working_rows`, the test :func:`_face_jump` makes too), the cone
lies in the span of ``Q_1``, so B's residual is at least the span residual
``r = ||w - Q_1 (Q_1' w)||``; and the nearest point of the span,
``Q_1 Q_1' w = A_W' mu`` with ``mu = R^-1 Q_1' w``, lies in the cone when
every ``mu_i`` is positive, so the residual is then ``r`` itself.
The decision reads:

- ``r > tol + _RESIDUAL_MARGIN``: not certified, with no cone solve;
- ``r < tol - _RESIDUAL_MARGIN`` and every ``mu_i > 0``: B's residual is
  ``r`` (at most 1, as the cone solve's is), and A's follows as before;
- every other cycle takes ``unit_cone_distance`` as before: tight rows
  other than ``W`` (a repeated face row is tight with a zero multiplier
  and stays out of ``W``), some ``mu_i <= 0`` (a vertex whose cone does
  not hold ``w``), ``r`` within the margin of ``tol``, a B-projection that
  returned a feasible point unchanged (no face), and every other pair.

Rounding.  The Householder and Givens updates keep ``Q`` orthogonal to
within a few units of rounding (``max |Q'Q - I|`` is 1.3e-15 over the final
faces of the 2,030 B-projections of the ``lp_direct`` pools of seeds 1, 7
and 11, each its own factor) and factor each working row with an error
of a few units of rounding relative to that row.  So ``r`` is the distance
from ``w`` to the span of the working rows to within a few units of
rounding times the conditioning of the unit working rows, and the cone
solve's distance carries an error of the same kind.  A cycle is decided on
the factor only when ``r`` clears the tolerance by ``_RESIDUAL_MARGIN``
(1e-12).  On a decided cycle ``r`` has exceeded the cone solve's distance,
or differed from it where both are below the tolerance, by at most 3.2e-15
on those pools and 1.1e-14 on 1,950 further LPs (other seeds, n up to 7,
repeated, nearly parallel down to 1e-10 rad and rescaled rows, tolerances
1e-6 to 1e-12), so the margin is about 100 times the largest difference
seen and such a cycle is decided as the cone solve decides it.  Working
rows so ill-conditioned that the two distances differ by more than the
margin leave the cone solve's own value no more accurate than ``r``.  On
the 900 LPs of the pools every iterate, stop and step count is as with the
cone solve on every cycle, and a certified ``residual_B`` moves on 477 of
them by at most 3.2e-15.  A pass makes 13, 23 and 29 NNLS calls at seeds 1,
7 and 11, against 552, 600 and 613 with the cone solve on every real cycle.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PointNotInSet, ZeroVector
from .linalg import (
    ZERO_TOL,
    _check_tol,
    _dot_row_norms,
    _feas_tol,
    _norm,
    _substitute,
    as_point,
    unit_cone_distance,
)
from .qp import _Face, _project_from
from .sets import (
    ABS,
    ACTIVE_TOL,
    EpigraphSet,
    HalfSpace,
    Polyhedron,
    ProjectableSet,
    _active,
    _active_columns,
    _check_dims,
    _check_start,
    _parabola_root,
    _project_halfplane_xy,
    _project_point,
)

# Decrease of the step gap below which the run is declared stalled; guards
# fixtures whose convergence is asymptotic only.
GAP_STALL_TOL = 1e-14
# The defaults of a run, read by ``run``, ``check_certificate``,
# ``lp.solve_lp`` and ``altproj run``: the certificate tolerance and the
# cycle cap.
_CERT_TOL = 1e-8
_MAX_ITERS = 1000

# Margins of the float screen of a planar cycle (module docstring): the
# screen's residual must exceed the tolerance by _RESIDUAL_MARGIN, its gap
# decrease GAP_STALL_TOL by _STALL_MARGIN times the B-step's gap, and a
# half-plane's float ``<u, x> - o`` must clear the membership bound of
# ``sets._active`` by _DOT_MARGIN times the size of its terms.  Each is far
# above the rounding by which the float value can differ from the array
# code's (a few units in the last place of 1 for the residual and of the
# gaps, about 3e-16 of the terms for ``<u, x>``).  _DOT_MARGIN bounds that
# difference, not the rounding of the point itself, which the membership
# bound's allowance covers.
_RESIDUAL_MARGIN = 1e-12
_STALL_MARGIN = 1e-12
_DOT_MARGIN = 1e-15


class StopReason(enum.Enum):
    CERTIFIED = "Certified"
    GAP_STALLED = "GapStalled"
    MAX_ITERS = "MaxIters"


@dataclass
class Certificate:
    """Result of the nearest-pair optimality check for ``(a, b)``.

    ``residual_A`` is the distance from ``(b - a)/||b - a||`` to the
    proximal normal cone of A at ``a``; ``residual_B`` symmetrically.  When
    ``||a - b||`` is below tolerance the pair witnesses a common point and
    both residuals are 0 by convention.
    """

    a: np.ndarray
    b: np.ndarray
    residual_A: float
    residual_B: float
    holds: bool

    def to_json_dict(self) -> dict:
        """Report fields of the certificate; the points are not included."""
        return {"residual_A": self.residual_A, "residual_B": self.residual_B, "holds": self.holds}


_LABELS = ("A", "B")  # of the iterates at even and odd indices


class _Iterates(Sequence):
    """The points of a :class:`Trace` as ``(index, label, point)`` tuples.

    A read-only sequence over the rows of ``Trace.points``: index ``i``
    gives ``(i, "A", row)`` for even ``i`` and ``(i, "B", row)`` for odd
    ``i``; a slice gives a list of such tuples.  Each point is a read-only
    view of its row.
    """

    __slots__ = ("_points",)

    def __init__(self, points: np.ndarray):
        self._points = points

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._points)))]
        i = operator.index(i)
        if i < 0:
            i += len(self._points)
        if not 0 <= i < len(self._points):
            raise IndexError("iterate index out of range")
        return i, _LABELS[i % 2], self._points[i]

    def __iter__(self):
        for i, point in enumerate(self._points):
            yield i, _LABELS[i % 2], point


def _read_only(values) -> np.ndarray:
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


class Trace:
    """Full record of one alternating-projections run, built by :func:`run`.

    A trace holds the run's pieces: in run order, flat arrays of
    consecutive real iterates and the :class:`_Stretch` records of
    generated cycles.  The stop is always decided on a real cycle, so the
    last piece is an array that ends with the final B- and A-point.  With
    the dimension, the stop reason and the certificate the pieces fix every
    count of the run; ``active_set_steps`` is the one count they cannot
    give.

    ``points`` is the ``(k, n)`` array of the run's iterates, the start
    point first, then the B- and A-points of each cycle, so row ``i`` has
    label A for even ``i`` and B for odd ``i``; ``gaps`` is the 1-D array
    whose entry ``i`` is bitwise ``_norm(points[i + 1] - points[i])``.
    Both are read-only views, built on their first read (module docstring),
    about ``8 (n + 1)`` bytes per iterate; until then the trace holds its
    real iterates, ``8 n`` bytes each, and a record of a few hundred bytes
    per stretch.  ``iterates`` reads ``points`` as ``(index, label, point)``
    tuples with labels alternating A, B, A, B, ...
    Every other field is read off the pieces and builds nothing:
    ``num_iterates``; ``final_pair``, the last two iterates; ``final_gap``,
    their distance ``_norm(a - b)`` as the last cycle measured it;
    ``steps_to_converge``, the number of projections until the minimum
    distance was attained, i.e. the index of the projection that produced
    the first certified pair's B-point (the A-projection that completes the
    pair confirms it but is not counted), ``num_iterates - 2`` on a
    certified stop and None on any other; ``generated_cycles``, the cycles
    whose iterates were generated in closed form on one face of a
    polyhedron (module docstring) instead of projected, the sum of the
    stretches' ``J``.  Generated cycles are part of ``points`` like every
    other cycle, and their gaps are formed the same way.
    ``certificate`` is that of the final pair, or None when the run stopped
    on a gap too small to normalise (see :func:`run`).  It is built once,
    for the pair the run stops on; a cycle that does not stop the run is
    decided without one (module docstring).
    ``active_set_steps`` sums ``QPResult.iterations`` over the projections
    onto B of a half-space/polyhedron pair, the only pair whose run reads
    them (0 for other pairs); a projection whose start on the previous face
    is already its answer counts 0.  Like ``generated_cycles`` it is not
    part of the report JSON.
    """

    def __init__(
        self,
        pieces: list,
        n: int,
        stop_reason: StopReason,
        certificate: Certificate | None,
        active_set_steps: int = 0,
    ):
        self._pieces, self._n = pieces, n
        self.stop_reason = stop_reason
        self.certificate = certificate
        self.active_set_steps = active_set_steps
        self._arrays = None

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
        # ``points`` and ``gaps``, row for row as the run made them: every
        # stretch filled by its closed form, every gap from one block
        # product that rounds each row as ``_norm`` does.
        pieces = [p.rows(np.arange(1, p.J + 1)).ravel() if isinstance(p, _Stretch) else p for p in self._pieces]
        points = (pieces[0] if len(pieces) == 1 else np.concatenate(pieces)).reshape(-1, self._n)
        return _read_only(points), _read_only(_dot_row_norms(points[1:] - points[:-1]))

    def _built(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = self._build()
        return self._arrays

    @property
    def points(self) -> np.ndarray:
        return self._built()[0]

    @property
    def gaps(self) -> np.ndarray:
        return self._built()[1]

    @property
    def iterates(self) -> _Iterates:
        return _Iterates(self.points)

    @property
    def num_iterates(self) -> int:
        return sum(2 * p.J if isinstance(p, _Stretch) else len(p) // self._n for p in self._pieces)

    def final_pair(self):
        """Last (A-point, B-point) of the run: the last two rows of ``points``."""
        last = _read_only(self._pieces[-1][-2 * self._n :]).reshape(2, -1)
        return last[1], last[0]

    @property
    def final_gap(self) -> float:
        a, b = self.final_pair()
        # A far pair's difference can overflow, as it did in the run.
        with np.errstate(over="ignore"):
            return _norm(a - b)

    @property
    def steps_to_converge(self) -> int | None:
        return self.num_iterates - 2 if self.stop_reason is StopReason.CERTIFIED else None

    @property
    def generated_cycles(self) -> int:
        return sum(p.J for p in self._pieces if isinstance(p, _Stretch))

    def to_json_dict(self) -> dict:
        """Report fields of the run; the iterates and gaps are not included."""
        cert = self.certificate
        return {
            "stop_reason": self.stop_reason.value,
            "steps_to_converge": self.steps_to_converge,
            "num_iterates": self.num_iterates,
            "final_gap": self.final_gap,
            "certificate": None if cert is None else cert.to_json_dict(),
        }


def check_certificate(
    set_a: ProjectableSet,
    set_b: ProjectableSet,
    a,
    b,
    tol: float = _CERT_TOL,
) -> Certificate:
    """Check whether ``(a, b)`` is a nearest pair of ``(set_a, set_b)``.

    The two sets must share a dimension (``DimensionMismatch`` otherwise).
    Each point is validated once, against its set's dimension; membership
    and the cone distances below work on the validated arrays.
    ``residual_A`` is the distance from the unit vector
    ``u = (b - a)/||b - a||`` to the proximal normal cone of A at ``a``
    (``residual_B`` from ``-u`` at ``b``): 1 for an empty cone, the
    closed-form ray rejection for one generator, NNLS otherwise.  ``tol``
    must be finite and nonnegative (``ValueError`` otherwise).
    """
    tol = _check_tol(tol, "cert_tol")
    _check_dims(set_a, set_b)
    a, b = as_point(a, set_a.dim), as_point(b, set_b.dim)
    d = a - b
    return _certificate(set_a, set_b, a, b, d, _norm(d), tol)


def _certificate(
    set_a: ProjectableSet,
    set_b: ProjectableSet,
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
    gap: float,
    tol: float,
    face: _Face | None = None,
) -> Certificate:
    # ``check_certificate`` for points already validated against their sets,
    # with ``d = a - b`` and ``gap = ||d||``.  ``face`` is a face factor of B
    # at ``b`` (the shifted LP solve passes its walk's final face; a run
    # passes none): B's residual is then read from it where it decides, by
    # ``_residual_b``, so ``holds`` is the cone solve's and a residual at
    # most ``tol`` is the cone distance up to rounding.
    cone = _cone_prelude(set_a, set_b, a, b, d, gap, tol)
    if cone is None:
        return Certificate(a, b, 0.0, 0.0, True)
    active_a, active_b, w = cone
    res_a = unit_cone_distance(-w, _active_columns(set_a, active_a))
    res_b = _residual_b(set_b, active_b, w, tol, face)
    return Certificate(a, b, res_a, res_b, res_a <= tol and res_b <= tol)


def _residual_b(
    set_b: ProjectableSet, tight: np.ndarray, w: np.ndarray, tol: float, face: _Face | None
) -> float:
    # B's residual at a pair whose prelude gave B's tight mask ``tight`` and
    # the unit direction ``w``: read from ``face`` wherever its factor
    # decides (``_face_residual``), measured by the cone solve everywhere
    # else, a missing face included.
    res = None if face is None else _face_residual(face, tight, w, tol)
    return unit_cone_distance(w, _active_columns(set_b, tight)) if res is None else res


def _on_working_rows(rows: np.ndarray, W: list[int]) -> bool:
    # Whether the rows that the mask ``rows`` marks are exactly the working
    # rows ``W`` of a face factor.
    rows = rows.tolist()
    return rows.count(True) == len(W) and all(rows[i] for i in W)


def _face_residual(face: _Face, tight: np.ndarray, w: np.ndarray, tol: float) -> float | None:
    # B's residual read from the face factor (module docstring): None when
    # the factor cannot decide the cycle, otherwise a value that decides it
    # as the cone solve ``unit_cone_distance(w, _active_columns(B, tight))``
    # does, and is that distance when it is at most ``tol``.  ``tight`` is
    # B's tight-row mask at the B-point.
    if not _on_working_rows(tight, face.W):
        return None
    Q1 = face.Q1
    h = w.dot(Q1)
    r = _norm(w - Q1.dot(h))
    if r > tol + _RESIDUAL_MARGIN:
        return r
    if r < tol - _RESIDUAL_MARGIN and min(_substitute(face.R, h)) > 0.0:
        return min(r, 1.0)
    return None


def _cone_prelude(
    set_a: ProjectableSet,
    set_b: ProjectableSet,
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
    gap: float,
    tol: float,
) -> tuple | None:
    # Membership, tight constraints and direction of the pair ``(a, b)``,
    # given ``d = a - b`` and ``gap = ||d||``.  Each point must be in its set
    # within ``ACTIVE_TOL`` by the one rule of ``sets._active``, which adds
    # the set's rounding allowance at the point, whatever the gap: a pair
    # with ``gap <= tol`` witnesses a common point only when both points
    # pass it, and the result is then None.  Otherwise it is what is tight
    # at ``a`` in A and at ``b`` in B, which ``sets._active_columns`` turns
    # into cone generators (a cycle decided on the face factor reads B's
    # mask and forms none), and the unit vector ``w = (a - b)/||a - b||``.
    # B's residual measures ``w`` and A's ``-w``, which is bitwise
    # ``(b - a)/||b - a||``: negation is exact and ``||a - b||`` sums the
    # same squares as ``||b - a||``.
    active_a = _active(set_a, a, ACTIVE_TOL)
    if active_a is None:
        raise PointNotInSet("first point is not in the first set")
    active_b = _active(set_b, b, ACTIVE_TOL)
    if active_b is None:
        raise PointNotInSet("second point is not in the second set")
    if gap <= tol:
        return None
    if gap <= ZERO_TOL:
        raise ZeroVector("cannot normalize a zero vector")
    return active_a, active_b, d / gap


def run(
    set_a: ProjectableSet,
    set_b: ProjectableSet,
    x0,
    max_iters: int = _MAX_ITERS,
    cert_tol: float = _CERT_TOL,
) -> Trace:
    """Alternate projections from ``x0`` in A until a stop rule fires.

    Parameters
    ----------
    set_a, set_b : ProjectableSet
        The two closed sets; iterates with label "A" belong to ``set_a``.
    x0 : array_like
        Starting point, must lie in ``set_a`` within 1e-8 and, for a
        half-space or a polyhedron, the rounding allowance at ``x0`` of
        ``sets._active``.
    max_iters : int
        Cap on full A-B cycles (two projections each): an integer of at
        least 1 (``ValueError`` for anything else, a bool, a float or a
        string included).
    cert_tol : float
        Residual threshold for the optimality certificate, checked after
        every completed cycle.  A gap in ``(cert_tol, ZERO_TOL]``, possible
        only for ``cert_tol`` below ``ZERO_TOL``, gives the certificate no
        direction, so the run stops there with ``GAP_STALLED`` and no
        certificate.  It must be finite and nonnegative (``ValueError``
        otherwise).

    Returns
    -------
    Trace
    """
    x0 = as_point(x0, set_a.dim)
    max_iters = _check_max_iters(max_iters)
    cert_tol = _check_tol(cert_tol, "cert_tol")
    _check_start(set_a, x0)
    _check_dims(set_a, set_b)
    # A far iterate's step can square past the float range; ``_norm`` then
    # takes its length again from the scaled step, so the overflow of the
    # first try is expected and raises no warning.
    with np.errstate(over="ignore"):
        if set_a.dim == 2 and not isinstance(set_a, Polyhedron) and not isinstance(set_b, Polyhedron):
            return _run_planar(set_a, set_b, x0, max_iters, cert_tol)

        # The real iterates since the last stretch are flat arrays in ``points``.
        # A stretch joins them into one piece and follows it in ``pieces`` as
        # its closed form; the stop joins the rest.  The joined copies keep the
        # trace apart from ``x0`` and from the certificate's pair, which callers
        # hold (the trace builds the arrays on first read).
        points, pieces = [x0], []
        # On a half-space/polyhedron pair the B-projection's multipliers name
        # the face it lands on, whose cycles are generated in closed form.
        walk = isinstance(set_a, HalfSpace) and isinstance(set_b, Polyhedron)
        last_face = None
        factor = None  # the face factor of the last B-projection (module docstring)
        active_steps = 0
        current = x0
        cycle = 0
        while cycle < max_iters:
            if walk:
                res, factor = _project_from(set_b, current, factor)
                b, face = res.point, res.dual > 0.0
                active_steps += res.iterations
            else:
                b = _project_point(set_b, current)
            gap_b = _step_gap(b, current)[1]
            a = _project_point(set_a, b)
            d, gap_a = _step_gap(a, b)
            points += (b, a)
            stop = _decide(set_a, set_b, a, b, d, gap_b, gap_a, cert_tol, factor)
            if stop is not None:
                break
            current = a
            cycle += 1
            if not walk:
                continue
            # One jump is tried per face visit, on the cycle that enters the
            # face.  A run that goes on has a factor: a projection that
            # returns its point unchanged makes a zero B-step, and the cycle
            # certifies or stalls.
            key = face.tobytes()
            if key != last_face:
                last_face = key
                jump = _face_jump(set_a, set_b, face, factor, b, max_iters - cycle, cert_tol)
                if jump is not None:
                    stretch, last = jump
                    pieces += (np.concatenate(points), stretch)
                    points = []
                    cycle += stretch.J
                    current = last[1]
        else:
            # The last cycle was a real one: a closed-form stretch stops at
            # least one cycle short of the cap.
            stop = StopReason.MAX_ITERS, _certificate(set_a, set_b, a, b, d, gap_a, cert_tol)
        pieces.append(np.concatenate(points))
        return Trace(pieces, x0.shape[0], *stop, active_steps)


def _decide(
    set_a: ProjectableSet,
    set_b: ProjectableSet,
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
    gap_b: float,
    gap_a: float,
    cert_tol: float,
    face: _Face | None = None,
) -> tuple[StopReason, Certificate | None] | None:
    # The decision of a cycle on arrays (module docstring): None when the
    # run goes on, otherwise its stop reason and certificate.  It raises
    # what ``_certificate`` raises, in the same order.  ``d = a - b`` and
    # ``gap_a = ||d||`` are the A-step's, ``gap_b`` the B-step's, and
    # ``face`` the final face of the cycle's B-projection on a
    # half-space/polyhedron run (None otherwise): B's residual is read from
    # its factor where that decides the cycle, and measured by the cone
    # solve everywhere else.  A certified stop means the B-projection of
    # this cycle attained the minimum distance; the closing A-projection
    # confirmed it.
    if cert_tol < gap_a <= ZERO_TOL:
        # Too small a gap to normalise: no certificate can be checked.
        return StopReason.GAP_STALLED, None
    cone = _cone_prelude(set_a, set_b, a, b, d, gap_a, cert_tol)
    if cone is None:
        return StopReason.CERTIFIED, Certificate(a, b, 0.0, 0.0, True)
    active_a, active_b, w = cone
    res_b = _residual_b(set_b, active_b, w, cert_tol, face)
    if res_b <= cert_tol:
        res_a = unit_cone_distance(-w, _active_columns(set_a, active_a))
        if res_a <= cert_tol:
            return StopReason.CERTIFIED, Certificate(a, b, res_a, res_b, True)
    if gap_b - gap_a < GAP_STALL_TOL:
        return StopReason.GAP_STALLED, _certificate(set_a, set_b, a, b, d, gap_a, cert_tol)
    return None


# Kind codes of a planar set in the planar loop: a half-plane whose unit
# normal has a zero entry, any other half-plane, and the two epigraphs.
_AXIS, _TILTED, _ABS, _SQUARE = range(4)


def _planar_floats(s: HalfSpace | EpigraphSet) -> tuple:
    # What the planar loop reads of ``s``, bound once per run: the set, its
    # kind code, then a half-plane's unit normal, offset and ``_scale`` or an
    # epigraph's shift and two unused zeros.
    if isinstance(s, HalfSpace):
        u0, u1 = s._unit_floats
        return s, _AXIS if u0 == 0.0 or u1 == 0.0 else _TILTED, u0, u1, s._offset, s._scale
    s0, s1 = s._shift_floats
    return s, _ABS if s.kind == ABS else _SQUARE, s0, s1, 0.0, 0.0


def _run_planar(
    set_a: HalfSpace | EpigraphSet,
    set_b: HalfSpace | EpigraphSet,
    x0: np.ndarray,
    max_iters: int,
    cert_tol: float,
) -> Trace:
    """:func:`run` for two planar sets, neither a polyhedron, on floats.

    One loop of half-steps, the B-projection and then the A-projection of
    each cycle, carries each iterate as two floats (module docstring).  A
    half-step projects onto its set by the float arithmetic of the ``sets``
    kernels, written out here, and screens the point's membership and
    normal cone as ``_active`` would; the A-step then screens the cycle.  A
    cycle the screen cannot clear is decided again on arrays by
    :func:`_decide`.  Only the floats of the iterates are kept, and put into
    one array at the stop, the trace's one piece; the trace builds the
    points and gaps from it on first read.
    """
    gap_floor = 2.0 * max(cert_tol, ZERO_TOL)
    residual_floor = cert_tol + _RESIDUAL_MARGIN
    turns = _planar_floats(set_b), _planar_floats(set_a)
    xy = x0.tolist()
    p0, p1 = xy
    g0 = g1 = 0.0
    for i in range(2 * max_iters):
        s, kind, f0, f1, o, scale = turns[i & 1]
        # The projection ``(q0, q1)`` of ``(p0, p1)`` onto ``s``.
        if kind == _AXIS:
            # One product is an exact zero, so floats give ``u.dot``'s bits.
            excess = f0 * p0 + f1 * p1 - o
            q0, q1 = (p0, p1) if excess <= 0.0 else (p0 - excess * f0, p1 - excess * f1)
        elif kind == _TILTED:
            q0, q1 = _project_halfplane_xy(s, p0, p1)
        else:
            z0, z1 = p0 - f0, p1 - f1
            if z1 >= (abs(z0) if kind == _ABS else z0 * z0):
                q0, q1 = z0 + f0, z1 + f1
            elif kind == _ABS:
                if z1 <= -abs(z0):
                    q0, q1 = 0.0 + f0, 0.0 + f1
                else:
                    t = 0.5 * (abs(z0) + z1)
                    q0, q1 = math.copysign(t, z0) + f0, t + f1
            else:
                # ``sets._parabola_root``, whose Newton loop runs here up to
                # a first step that is not finite; the root's own scaled
                # iteration takes that case.
                az = abs(z0)
                lin = 1.0 - 2.0 * z1
                back = lin - 1.0
                lin_err = (1.0 - (lin - back)) - (2.0 * z1 + back)
                # ``min`` and ``max`` written as the comparisons they make,
                # which call nothing.
                c = z1 - 0.5
                c = (0.5 * az) ** (1.0 / 3.0) + math.sqrt(0.0 if 0.0 > c else c)
                u = c if c < az else az
                if lin > 0.0:
                    c = az / lin
                    u = c if c < u else u
                last = math.inf
                while True:
                    step = (2.0 * u * u * u + (lin * u - az) + lin_err * u) / (6.0 * u * u + lin)
                    if not abs(step) < last:
                        break
                    u -= step
                    last = abs(step)
                r = _parabola_root(z0, z1) if last == math.inf else math.copysign(u, z0)
                q0, q1 = r + f0, r * r + f1
        xy += (q0, q1)
        d0, d1 = q0 - p0, q1 - p1
        gap = math.hypot(d0, d1)
        # The screen of ``q`` in ``s``: the number of generators of its
        # normal cone, the one generator ``(g0, g1)``, or None when the
        # floats cannot tell that ``q`` is in ``s``.  An epigraph's test is
        # that of ``sets._active``; a half-plane's float ``<u, q> - o``
        # must clear the bound of ``sets._active`` by ``_DOT_MARGIN`` times
        # its terms, and its generator is ``u``.
        if kind >= _ABS:
            z0, z1 = q0 - f0, q1 - f1
            profile = abs(z0) if kind == _ABS else z0 * z0
            if not z1 >= profile - ACTIVE_TOL:
                cone = None
            elif z1 > profile + ACTIVE_TOL:
                cone = 0
            elif kind == _SQUARE:
                cone, g0, g1 = 1, 2.0 * z0, -1.0
            elif abs(z0) <= ACTIVE_TOL:
                cone = 2
            else:
                cone, g0, g1 = 1, 1.0 if z0 > 0 else -1.0, -1.0
        else:
            t0, t1 = f0 * q0, f1 * q1
            excess = t0 + t1 - o
            bound = ACTIVE_TOL + _feas_tol(scale, math.hypot(q0, q1))
            margin = _DOT_MARGIN * (abs(t0) + abs(t1) + abs(o)) + 1e-300
            if abs(excess) <= bound - margin:
                cone, g0, g1 = 1, f0, f1
            else:
                cone = 0 if excess < -bound - margin else None
        p0, p1 = q0, q1
        if not i & 1:
            gap_b, cone_b, h0, h1 = gap, cone, g0, g1
            continue
        # The cycle's screen, with the A-step's gap and difference.
        if (
            gap_floor < gap
            and gap_b < math.inf
            and gap_b - gap >= GAP_STALL_TOL + _STALL_MARGIN * gap_b
            and cone is not None
            and cone_b is not None
            and cone_b < 2
        ):
            # B's residual: the distance from ``w = d/gap`` to B's cone, by
            # the ray rejection on floats.
            w0, w1 = d0 / gap, d1 / gap
            if cone_b == 0 or w0 * h0 + w1 * h1 <= 0.0:
                res = 1.0
            else:
                ng = math.hypot(h0, h1)
                n0, n1 = h0 / ng, h1 / ng
                pr = w0 * n0 + w1 * n1
                res = math.hypot(w0 - pr * n0, w1 - pr * n1)
                res = res if res < 1.0 else 1.0
            if res > residual_floor:
                continue
        current, b, a = np.array(xy[-6:-4]), np.array(xy[-4:-2]), np.array(xy[-2:])
        gap_b = _step_gap(b, current)[1]
        d, gap_a = _step_gap(a, b)
        stop = _decide(set_a, set_b, a, b, d, gap_b, gap_a, cert_tol)
        if stop is not None:
            break
    else:
        b, a = np.array(xy[-4:-2]), np.array(xy[-2:])
        d, gap_a = _step_gap(a, b)
        stop = StopReason.MAX_ITERS, _certificate(set_a, set_b, a, b, d, gap_a, cert_tol)
    return Trace([np.array(xy)], 2, *stop)


def _check_max_iters(max_iters) -> int:
    # The cap must be an integer of at least 1: a bool, a float such as nan
    # or 2.5, or a string, is rejected rather than compared or rounded.  A
    # bool is an int, so it is turned away by name, as ``_real_scalar``
    # turns it away for ``M`` and ``cert_tol``.
    try:
        cap = 0 if isinstance(max_iters, bool) else operator.index(max_iters)
    except TypeError:
        cap = 0
    if cap < 1:
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")
    return cap


def _step_gap(p: np.ndarray, prev: np.ndarray) -> tuple[np.ndarray, float]:
    """The step ``p - prev`` from the iterate ``prev`` to its projection
    ``p``, and its length.

    A non-finite ``p`` makes the length non-finite, so that is the one
    case in which ``p`` itself is tested; it raises the ``ValueError`` that
    ``as_point`` raises for non-finite entries.
    """
    d = p - prev
    gap = _norm(d)
    if not math.isfinite(gap) and not np.isfinite(p).all():
        raise ValueError("vector entries must be finite")
    return d, gap


class _Stretch(NamedTuple):
    """The cycles of one closed-form stretch on a face (module docstring).

    Cycle ``j`` of the stretch, ``1 <= j <= J``, has the B-point
    ``b - g(j) P_V u`` and the A-point ``b - g(j) P_V u - e(j) u``, with
    ``u`` the half-space's unit normal, ``g(j) = s (1 - rho^j)/q``,
    ``e(j) = s rho^j`` and ``b`` the B-point of the real cycle before the
    stretch; ``pvu`` is ``P_V u``.
    """

    b: np.ndarray
    pvu: np.ndarray
    u: np.ndarray
    s: float
    log_rho: float
    q: float
    J: int

    def rows(self, j: np.ndarray) -> np.ndarray:
        # The B- and A-point of each cycle of ``j`` (an integer array) in
        # rows ``2i`` and ``2i + 1``.  Every operation is elementwise in
        # ``j``, so a cycle's rows have the same bits whatever else ``j``
        # holds.  The points are formed with the cycles along the last axis,
        # so that every loop runs along the cycles and not along the few
        # coordinates, and then copied once into C-contiguous rows: the last
        # A-point of a stretch starts the next real cycle, and OpenBLAS's
        # ``ddot`` can round a strided vector otherwise.
        j_log_rho = j * self.log_rho
        g = self.s * -np.expm1(j_log_rho) / self.q
        e = self.s * np.exp(j_log_rho)
        points = np.empty((2, self.b.shape[0], len(j)))
        np.subtract(self.b[:, None], np.multiply.outer(self.pvu, g), out=points[0])
        np.subtract(points[0], np.multiply.outer(self.u, e), out=points[1])
        return np.ascontiguousarray(points.transpose(2, 0, 1)).reshape(2 * len(j), -1)


def _face_jump(
    h: HalfSpace,
    poly: Polyhedron,
    face: np.ndarray,
    factor: _Face,
    b: np.ndarray,
    cycles_left: int,
    cert_tol: float,
) -> tuple[_Stretch, np.ndarray] | None:
    """The stretch of cycles after ``b`` that stay on ``face``, and its end.

    ``b`` is the B-point of the cycle just completed, on the face whose
    rows ``face`` marks, and ``factor`` the face factor of its projection;
    ``cycles_left`` cycles remain under the cap.  The stretch covers the
    cycles ``k + 1`` to ``k + J`` (module docstring).  ``J`` is the last
    cycle whose B-point keeps every approaching inactive row at or above
    its floor (``10 * ACTIVE_TOL``, or for a row already within that margin
    its slack less the smallest B-projection feasibility tolerance), and at
    most two short of the first cycle at which a stop rule could fire: a
    gap at the certificate tolerance, an A-point feasible within the
    projection's tolerance, a stall, or the cap.  The
    second value holds the B- and A-point of the stretch's last cycle as
    the C-contiguous rows of ``stretch.rows`` at ``j = J``, bit for bit the
    last two rows of the stretch's block.  ``P_V u``, for the unit normal
    ``u`` of ``h``, is ``u - Q_1 (Q_1' u)``, formed twice to
    re-orthogonalise it, with ``Q_1`` the factor's first ``k`` columns,
    which span the working rows.  The result is None when the working rows
    are not exactly the rows of ``face`` (a working row with a zero
    multiplier), when a multiplier rate ``-R^-1 Q_1' u`` is not positive
    (the next projection leaves the face) and when ``J`` is below 1.  A
    row within the margin that the path does not move, such as a copy of a
    face row, limits nothing.
    The other guards refuse ``b`` in the half-space (a zero A-step, on
    which the run has stopped) and a face that does not move the run,
    ``||P_V u||`` below ``ZERO_TOL`` or all of ``u``.
    """
    u = h._unit
    s = float(u.dot(b)) - h._offset
    if not s > 0.0 or not _on_working_rows(face, factor.W):
        return None
    Q1 = factor.Q1
    # The multiplier rates -R^-1 Q_1' u: a falling one drops its row at the
    # next projection, which leaves the face.
    if not all(r < 0.0 for r in _substitute(factor.R, u.dot(Q1))):
        return None
    pvu = u - Q1.dot(u.dot(Q1))
    pvu -= Q1.dot(pvu.dot(Q1))
    q = float(pvu.dot(pvu))
    if not ZERO_TOL < math.sqrt(q) < 1.0:
        return None
    log_rho = math.log1p(-q)

    def reached(value: float, floor: float) -> int:
        # The first j with value * rho^j <= floor, or the one before it (the
        # floor of the real solution); 0 when the value is already there.
        return math.floor(math.log(floor / value) / log_rho) if value > floor else 0

    horizon = float(cycles_left + 1)  # the first cycle past the cap
    # Inactive rows, read as the unit rows u_i of the polyhedron's normal
    # form: slack_i(j) = slack_i + s g(j) u_i P_V u, a distance, so an
    # approaching row reaches its floor once 1 - rho^j >= t.  A row beyond
    # the margin may fall to it.  A row already within it may fall by the
    # smallest feasibility tolerance of any B-projection, ``_feas_tol`` of
    # the polyhedron's scale and a zero norm, below max(slack_i, 0): every
    # slack of a generated B-point then stays above minus that tolerance,
    # so the point passes the feasibility test of the real projection that
    # would return it.  A copy of a face row has u_i P_V u = 0 but for
    # rounding, so over the whole stretch it falls by about 1 / sqrt(q)
    # times the unit roundoff of the gap and seldom limits it; a row the
    # path moves ends the stretch once it has fallen by the tolerance.  The
    # margin stays absolute, with no rounding allowance of the point as
    # ``sets._active`` adds: it decides no membership, only where a stretch
    # ends, and the closed form holds up to it at any scale.  A stretch that
    # ends early costs real cycles only, and each real cycle after it
    # decides membership, tightness and the stop again by that rule.
    # The row event keeps no two-cycle margin: its floor is one, so the
    # stretch runs to the last cycle that keeps every row at or above it.
    units, fall = poly._units, _feas_tol(poly._scale, 0.0)
    t = _closing_ratios(units, poly._offsets, face, pvu, b, s, q, 10.0 * ACTIVE_TOL, fall)
    # ``np.log1p``, not ``math.log1p``, whose bits differ on some floats.
    row = float(np.floor(np.log1p(-np.array(t)) / log_rho).min()) if t else math.inf
    # Common point: s rho^j <= max(cert_tol, ZERO_TOL), where the run
    # certifies or stops on a gap too small to normalise.
    horizon = min(horizon, reached(s, max(cert_tol, ZERO_TOL)))
    # Common point by rounding: the A-point of cycle k + j violates a face
    # row by at most s rho^j max(-U_F u), and the next B-projection returns
    # it unchanged once that is within the projection's feasibility
    # tolerance; ||a|| <= ||b|| + s (1 + 1/sqrt(q)) along the face.
    reach = _norm(b) + s * (1.0 + 1.0 / math.sqrt(q))
    feas_tol = _feas_tol(poly._scale, reach)
    horizon = min(horizon, 1 + reached(-s * float(units[face].dot(u).min()), feas_tol))
    # Gap stall: s rho^(j-1) ||P_r u|| (1 - ||P_r u||) < GAP_STALL_TOL.
    pru = _norm(u - pvu)
    horizon = min(horizon, 1 + reached(s * pru * (1.0 - pru), GAP_STALL_TOL))
    jumps = int(min(row, horizon - 2))
    if jumps < 1:
        return None
    stretch = _Stretch(b, pvu, u, s, log_rho, q, jumps)
    return stretch, stretch.rows(np.arange(jumps, jumps + 1))


def _closing_ratios(units, offsets, face, pvu, b, s, q, margin, fall) -> list[float]:
    """The ratios ``t < 1`` of :func:`_face_jump`'s row event, in row order.

    An inactive unit row ``u_i`` (``face`` marks the face rows) closes when
    ``c_i = -u_i P_V u > 0``, ``pvu`` being ``P_V u``.  Its slack
    ``sl = o_i - u_i b`` reaches its floor, ``margin`` when ``sl > margin``
    and otherwise ``max(sl, 0) - fall``, once ``1 - rho^j >= t`` with
    ``t = q (sl - floor) / (s c_i)``.  The closing rows are read from one
    product ``units.dot(pvu)`` and their slacks from one ``units.dot(b)``,
    formed only when a row closes; the ratio test runs on floats
    (``linalg``'s module docstring, "Ratio tests and substitutions on
    floats").
    """
    rates = zip(units.dot(pvu).tolist(), face.tolist())
    closing = [(i, -c) for i, (c, on_face) in enumerate(rates) if c < 0.0 and not on_face]
    if not closing:
        return []
    slack = (offsets - units.dot(b)).tolist()
    ratios = []
    for i, c in closing:
        sl = slack[i]
        floor = margin if sl > margin else (sl if sl > 0.0 or sl != sl else 0.0) - fall
        t = q * (sl - floor) / (s * c)
        if t < 1.0:
            ratios.append(t)
    return ratios
