"""The product rule of ``altproj.linalg``: small products go through ``ndarray.dot``.

``x.dot(y)`` costs about half of ``x @ y`` on the package's small arrays and
gives the same bits.  One test holds the source to the rule; the others
check its premises on the installed NumPy, so that an upgrade on which the
two forms round differently, or on which a block product (of a run's
gaps, or of alpha's rows) stops rounding as ``.dot``, fails here instead
of moving results silently.  One more premise is the reason
``sets._project_halfplane_xy`` reads an axis-aligned half-plane's
``<c, x>`` on floats.
"""

import ast
from pathlib import Path

import numpy as np

from altproj.linalg import _dot_row_norms, _dot_rows, _norm

SRC = Path(__file__).resolve().parent.parent / "src" / "altproj"

# The block products of vertices.feasible_vertices, one call for many
# vertices, of a run's gaps, one call for every step, and of alpha's row
# cosines and ray distances, one call for every row.
ALLOWED = {
    ("vertices.py", "feasible_vertices", "v @ p.A.T"),
    ("vertices.py", "feasible_vertices", "p.A @ v[..., None]"),
    ("linalg.py", "_dot_row_norms", "D[:, None, :] @ D[:, :, None]"),
    ("linalg.py", "_dot_rows", "M[:, None, :] @ x[:, None]"),
}


class MatMulSites(ast.NodeVisitor):
    """``(file, innermost function, source)`` of every ``@`` and ``@=``."""

    def __init__(self, file: str):
        self.file, self.func, self.sites = file, "<module>", set()

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self.sites.add((self.file, self.func, ast.unparse(node)))
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_AugAssign = visit_BinOp


def matmul_sites() -> set:
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        finder = MatMulSites(path.name)
        finder.visit(ast.parse(path.read_text(), str(path)))
        sites |= finder.sites
    return sites


def test_no_matmul_outside_the_block_products_of_feasible_vertices():
    assert matmul_sites() == ALLOWED


def test_dot_and_matmul_give_the_same_bits():
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 25))
        scale = 10.0 ** rng.integers(-8, 9)
        x = rng.standard_normal(n) * scale
        y = rng.standard_normal(n)
        z = rng.standard_normal(m)
        A = rng.standard_normal((m, n)) * scale
        B = rng.standard_normal((n, m))
        pairs = [
            (x, y),
            (x, x),
            (A, x),  # C-contiguous matrix
            (A.T, z),  # transposed view
            (B.T, x),
            (B, z),
            (np.asfortranarray(A), x),
            (A[::2], x),  # strided rows
        ]
        # Views with negative strides are left out: there the two forms can
        # round differently, and the package makes no such view.
        for left, right in pairs:
            expected = left @ right
            got = left.dot(right)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), (left, right)


def test_the_block_product_of_the_gaps_is_norm_row_by_row():
    # Every engine run stores its gaps from one _dot_row_norms call; they
    # must be the bits _norm(d), and so d.dot(d), gives each step, for every
    # dimension the package serves.
    rng = np.random.default_rng(20261019)
    for n in range(1, 9):
        for scale in (1e-150, 1e-75, 1e-8, 1.0, 1e8, 1e75, 1e150):
            D = rng.standard_normal((5000, n)) * scale
            want = np.array([_norm(d) for d in D])
            assert _dot_row_norms(D).tobytes() == want.tobytes(), (n, scale)
    # Rows whose sum of squares overflows are rescaled as _norm does.
    D = np.array([[3e200, -4e200], [1.7e308, 1.7e308], [np.inf, 1.0], [0.0, -0.5]])
    with np.errstate(over="ignore"):
        assert _dot_row_norms(D).tobytes() == np.array([_norm(d) for d in D]).tobytes()


def test_the_block_product_of_the_rows_is_dot_row_by_row():
    # alpha reads every row's cosine and ray distance from _dot_rows calls;
    # they must be the bits M[i].dot(x) gives each row, for every dimension
    # alpha serves, on unit rows and on raw ones.
    rng = np.random.default_rng(20261021)
    for n in range(2, 9):
        for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
            M = rng.standard_normal((2000, n)) * scale
            x = rng.standard_normal(n)
            for rows in (M, M / np.linalg.norm(M, axis=1, keepdims=True)):
                want = np.array([row.dot(x) for row in rows])
                assert _dot_rows(rows, x).tobytes() == want.tobytes(), (n, scale)


def test_a_product_with_a_zero_entry_is_the_other_product_rounded_once():
    # For c = (0, c1) or (c0, 0), c.dot(x) adds an exact zero to one rounded
    # product, in whatever order and with or without a fused multiply-add,
    # so it has the bits of c0 * x0 + c1 * x1.  Only a zero sum may differ,
    # in its sign: OpenBLAS sums from +0.0, so two products of -0.0 give
    # +0.0 there and -0.0 on floats.  The cases include products that
    # overflow (3.7 * 1.7976931348623157e308) and underflow (1e-300 * 1e-300).
    rng = np.random.default_rng(20261020)
    entries = [3.7, -3.7, 1.0, -1.0, 1e-300, -1e300, 5e-324]
    xs = [3.7, -3.7, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1.7976931348623157e308]
    cases = [(c, x) for c in entries for x in xs]
    for _ in range(10000):
        c = rng.standard_normal() * 10.0 ** rng.uniform(-5.0, 5.0)
        cases.append((c, rng.standard_normal() * 10.0 ** rng.uniform(-300.0, 300.0)))
    checked = 0
    for ce, xe in cases:
        for zero in (0.0, -0.0):
            for c, x in (((zero, ce), (xe, -xe)), ((ce, zero), (-xe, xe)), ((zero, ce), (xe, xe))):
                with np.errstate(over="ignore"):
                    blas = float(np.array(c).dot(np.array(x)))
                    floats = c[0] * x[0] + c[1] * x[1]
                if floats == 0.0:
                    assert blas == 0.0, (c, x)
                else:
                    assert blas.hex() == floats.hex(), (c, x)
                    checked += 1
    assert checked > 50000
