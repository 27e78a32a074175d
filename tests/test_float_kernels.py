"""The ratio tests and substitutions that run on Python floats keep every bit.

The walk's next event (``qp._next_event``), the face jump's row event
(``engine._closing_ratios``) and the triangular solve
(``linalg._substitute``) once ran on small NumPy arrays.  They now compare,
clamp and divide floats, which round once each, as the array forms did, and
every product in them is still one ``.dot``.  The array forms are kept here
as references, and seeded random states, built to reach each rule's edge
cases, are compared bit for bit (``float.hex``).  ``_substitute`` sums each
row from 0.0 in index order, which pins it to the same bits on every Python
version (``sum`` of floats is compensated from Python 3.12 on).
"""

import math

import numpy as np
import pytest

from altproj import DegenerateRow, HalfSpace
from altproj.engine import _closing_ratios
from altproj.linalg import _entry_norm, _substitute
from altproj.qp import _next_event

LIMIT = 2.0**510


def hexes(values):
    return [float(v).hex() for v in values]


# -- _substitute ------------------------------------------------------------


def substitute_whole_rows(T, y, lower=False):
    """Each row read whole against the unsolved zeros and summed from 0.0 in
    index order: the loop ``_substitute`` ran before, with the summation
    that ``sum`` of floats makes on Python 3.11 written out."""
    rows, y = T.tolist(), y.tolist()
    v = [0.0] * len(y)
    for i in range(len(y)) if lower else reversed(range(len(y))):
        row = rows[i]
        s = 0.0
        for t_j, v_j in zip(row, v):
            s += t_j * v_j
        v[i] = (y[i] - s) / row[i]
    return v


def test_substitute_sums_each_row_from_zero_in_index_order():
    # 1e16 + 1 rounds back to 1e16, so the last row's sum is 0.0 and the
    # last entry 5 / 1.  A compensated sum keeps the 1 and gives 4.0.
    T = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1e16, 1, -1e16, 1]])
    y = np.array([1.0, 1.0, 1.0, 5.0])
    assert _substitute(T, y, lower=True) == [1.0, 1.0, 1.0, 5.0]
    # The upper triangle sums row 0 over columns 1, 2, 3 in that order.
    U = np.array([[1.0, 1e16, 1, -1e16], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert _substitute(U, y[::-1].copy()) == [5.0, 1.0, 1.0, 1.0]


def test_substitute_gives_the_bits_of_the_whole_row_loop():
    # Triangles as the factor keeps them (zero off the triangle), with rows
    # of -0.0 and of 1e-300 entries among them, upper and lower, k = 1..4.
    rng = np.random.default_rng(49)
    solves = 0
    for _ in range(1500):
        k = int(rng.integers(1, 5))
        T = np.triu(rng.normal(size=(k, k)) * 10.0 ** rng.integers(-3, 4, size=(k, k)))
        T[np.diag_indices(k)] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.1, 3.0, size=k)
        row = int(rng.integers(k))
        if rng.random() < 0.3:
            T[row, row + 1 :] = -0.0
        elif rng.random() < 0.3:
            T[row, row + 1 :] = 1e-300
        y = rng.normal(size=k)
        y[rng.random(k) < 0.2] = -0.0
        for M, lower in ((T, False), (T.T, True)):
            assert hexes(_substitute(M, y, lower)) == hexes(substitute_whole_rows(M, y, lower))
            solves += 1
    assert solves == 3000


def test_substitute_reads_nothing_off_the_triangle():
    T = np.array([[2.0, 1.0], [np.nan, 4.0]])
    assert _substitute(T, np.array([4.0, 8.0])) == [1.0, 2.0]
    assert _substitute(T.T, np.array([2.0, 9.0]), lower=True) == [1.0, 2.0]


# -- the walk's next event ----------------------------------------------------


def next_event_arrays(A, b, W, u, r, z, dz):
    """The event search of ``qp._walk_from`` as it ran on arrays: the row,
    its step and the steps of all rows."""
    m, n = A.shape
    if dz is None:
        dz = np.zeros(n)
    dt = np.full(m, math.inf)
    dt[W] = [u_i / -r_i if r_i < -1e-13 else math.inf for u_i, r_i in zip(u, r)]
    approach = A.dot(dz)
    approach[W] = 0.0
    add = approach > 1e-13
    dt[add] = np.maximum((b - A.dot(z))[add], 0.0) / approach[add]
    i = int(dt.argmin())
    return i, float(dt[i]), dt


def walk_state(rng):
    """A random state of the walk, drawn to reach the rule's edge cases.

    Axis rows and a zero or axis point make the slacks and approach rates
    exact, so that ties, slacks of -0.0 and rates of exactly 1e-13 occur;
    NaN offsets give NaN slacks.
    """
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 9))
    axes = np.vstack([np.eye(n), -np.eye(n)])
    A = np.where(
        rng.random((m, 1)) < 0.5, axes[rng.integers(2 * n, size=m)], rng.normal(size=(m, n))
    )
    if m > 1 and rng.random() < 0.3:
        A[1] = A[0]  # a copied row: an exact tie
    A /= np.linalg.norm(A, axis=1)[:, None]
    z = np.zeros(n) if rng.random() < 0.4 else rng.normal(size=n)
    b = A.dot(z) + rng.choice([0.0, 0.0, 0.5, 1.0, 2.0, -0.3], size=m)
    b[rng.random(m) < 0.1] = -0.0
    b[rng.random(m) < 0.05] = np.nan
    if rng.random() < 0.2:
        b[rng.integers(m)] = rng.choice([-1.0, -1e-9])  # a violated row
    k = int(rng.integers(0, min(n, m) + 1))
    W = [int(i) for i in rng.permutation(m)[:k]]
    u = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=k).tolist()
    r = rng.choice([-1.0, -0.5, -1e-13, -2e-13, 0.0, 0.25], size=k).tolist()
    if rng.random() < 0.3:
        dz = None
    elif rng.random() < 0.3:
        dz = np.zeros(n)
        dz[rng.integers(n)] = rng.choice([1e-13, -1e-13, 0.5, 1.0])
    else:
        dz = rng.choice([0.0, 0.5, 1.0, -1.0, 1e-13], size=n) * rng.choice([1.0, 2.0], size=n)
    return A, b, W, u, r, z, dz


def test_the_walks_next_event_on_floats_gives_the_array_bits():
    rng = np.random.default_rng(4901)
    seen = dict.fromkeys(("tie", "-0.0", "negative", "nan", "face", "1e-13", "still falling"), 0)
    for _ in range(6000):
        A, b, W, u, r, z, dz = walk_state(rng)
        i, dt_i = _next_event(A, b, W, u, r, z, dz)
        j, ref, dt = next_event_arrays(A, b, W, u, r, z, dz)
        assert (i, dt_i.hex()) == (j, ref.hex())
        # What the states reached: a least step at two rows, slacks of -0.0,
        # below zero and NaN on approaching rows, working rows, a rate of
        # exactly 1e-13, and a still face whose multiplier falls.
        seen["tie"] += math.isfinite(ref) and int((dt == ref).sum()) > 1
        seen["face"] += bool(W)
        if dz is None:
            seen["still falling"] += any(r_i < -1e-13 for r_i in r)
            continue
        approach = A.dot(dz).tolist()
        seen["1e-13"] += 1e-13 in approach
        slack = (b - A.dot(z)).tolist()
        for k, (a_k, s_k) in enumerate(zip(approach, slack)):
            if a_k > 1e-13 and k not in W:
                seen["-0.0"] += s_k == 0.0 and math.copysign(1.0, s_k) < 0.0
                seen["negative"] += s_k < 0.0
                seen["nan"] += math.isnan(s_k)
    assert min(seen.values()) >= 20, seen


# -- the face jump's row event ------------------------------------------------


def closing_ratios_arrays(units, offsets, face, pvu, b, s, q, margin, fall):
    """The row event of ``engine._face_jump`` as it ran on arrays."""
    closing = -units.dot(pvu)
    closing[face] = 0.0
    hit = closing > 0.0
    slack = (offsets - units.dot(b))[hit]
    floor = np.where(slack > margin, margin, np.maximum(slack, 0.0) - fall)
    t = q * (slack - floor) / (s * closing[hit])
    return t[t < 1.0]


def test_the_face_jumps_row_event_on_floats_gives_the_array_bits():
    rng = np.random.default_rng(4902)
    margin, fall = 1e-7, 1e-13
    seen = dict.fromkeys(("tie", "-0.0", "negative", "nan", "face", "margin"), 0)
    for _ in range(6000):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 13))
        units = rng.normal(size=(m, n))
        if m > 1 and rng.random() < 0.3:
            units[1] = units[0]
        units /= np.linalg.norm(units, axis=1)[:, None]
        b = np.zeros(n) if rng.random() < 0.4 else rng.normal(size=n)
        offsets = units.dot(b) + rng.choice([0.0, margin, 1e-9, 0.3, 2.0, -1e-12], size=m)
        offsets[rng.random(m) < 0.1] = -0.0
        offsets[rng.random(m) < 0.05] = np.nan
        face = rng.random(m) < 0.25
        pvu = rng.normal(size=n)
        s, q = rng.uniform(0.1, 5.0), rng.uniform(1e-4, 0.9)
        ref = closing_ratios_arrays(units, offsets, face, pvu, b, s, q, margin, fall)
        got = _closing_ratios(units, offsets, face, pvu, b, s, q, margin, fall)
        assert hexes(got) == hexes(ref)
        if got:
            log_rho = math.log1p(-q)
            horizon = float(np.floor(np.log1p(-np.array(got)) / log_rho).min())
            assert horizon.hex() == float(np.floor(np.log1p(-ref) / log_rho).min()).hex()
        closing = -units.dot(pvu)
        hit = (closing > 0.0) & ~face
        slack = (offsets - units.dot(b))[hit]
        seen["tie"] += len(set(got)) < len(got)
        seen["-0.0"] += int(((slack == 0.0) & np.signbit(slack)).sum())
        seen["negative"] += int((slack < 0.0).sum())
        seen["nan"] += int(np.isnan(slack).sum())
        seen["face"] += int(((-units.dot(pvu) > 0.0) & face).sum())
        seen["margin"] += int((slack == margin).sum())
    assert min(seen.values()) >= 20, seen


# -- HalfSpace at the norm limit -----------------------------------------------


@pytest.mark.filterwarnings("error")
def test_a_normal_within_a_few_ulps_of_the_limit_is_decided_by_its_norm():
    # ``math.hypot`` only chooses whether the norm is taken under the
    # overflow errstate; the decision and the bits stay ``_norm``'s.  The
    # normals lie within 4 ulps of 2**510 on both sides, in 1 to 4
    # coordinates, and on some of them ``hypot`` and ``_norm`` fall on
    # opposite sides of it.
    rng = np.random.default_rng(510)
    decided, split = {True: 0, False: 0}, 0
    for _ in range(400):
        n = int(rng.integers(1, 5))
        d = rng.normal(size=n)
        c = d / np.linalg.norm(d) * LIMIT
        ulps = int(rng.integers(-4, 5))
        for _ in range(abs(ulps)):
            c = np.nextafter(c, np.sign(c) * (math.inf if ulps > 0 else 0.0))
        norm = _entry_norm(c)
        if norm < LIMIT:
            hs = HalfSpace(c, 1.0)
            assert hexes(hs._unit) == hexes(c / norm) and hs._offset == 1.0 / norm
        else:
            with pytest.raises(DegenerateRow, match="normal is too long"):
                HalfSpace(c, 1.0)
        decided[norm < LIMIT] += 1
        split += (math.hypot(*c.tolist()) < LIMIT) != (norm < LIMIT)
    # Far beyond the limit the square overflows: still no warning.
    for c in ([1e300, 1e300], [LIMIT * 4.0, 0.0, 1.0]):
        with pytest.raises(DegenerateRow, match="normal is too long"):
            HalfSpace(c, 1.0)
    assert min(decided.values()) >= 50 and split >= 2, (decided, split)
