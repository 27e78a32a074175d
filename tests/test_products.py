"""The product rule of ``altproj.linalg``: small products go through ``ndarray.dot``.

``x.dot(y)`` costs about half of ``x @ y`` on the package's small arrays and
gives the same bits.  One test holds the source to the rule; the other
checks its premise on the installed NumPy, so that an upgrade on which the
two forms round differently fails here instead of moving results silently.
"""

import ast
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src" / "altproj"

# The block products of vertices.feasible_vertices: one call for many vertices.
ALLOWED = {
    ("vertices.py", "feasible_vertices", "v @ p.A.T"),
    ("vertices.py", "feasible_vertices", "p.A @ v[..., None]"),
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
