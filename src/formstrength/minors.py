"""Generic matrices, Laplace determinants and maximal minors.

A generic (n+1) x n matrix of independent variables yields n+1 maximal
minors f_i = det(drop row i), each column-homogeneous of multidegree
(1,...,1); together they generate a codimension-2 ideal, and first-column
cofactor expansion witnesses the strength bound n-1 for every minor.  Both
read one memoized Laplace table per matrix, which expands each row set once.
"""

from __future__ import annotations

from .domains import QQ
from .poly import Poly, Ring


def _laplace_table(grid, ring: Ring):
    """minor(rows): the determinant of those rows of grid, which may have
    more rows than columns, on its last len(rows) columns, expanded along
    the first of them and memoized on the row tuple."""
    memo = {}

    def minor(rows):
        if len(rows) == 1:
            return grid[rows[0]][-1]
        cached = memo.get(rows)
        if cached is not None:
            return cached
        col = -len(rows)
        total = ring.zero()
        for k, r in enumerate(rows):
            term = grid[r][col] * minor(rows[:k] + rows[k + 1 :])
            total = total + (-term if k % 2 else term)
        memo[rows] = total
        return total

    return minor


def determinant_laplace(grid, ring: Ring | None = None) -> Poly:
    """Exact determinant of a square matrix of polynomials, expanded along
    the first column; symbolic sparsity keeps this cheap at desk scale."""
    n = len(grid)
    for row in grid:
        if len(row) != n:
            raise ValueError("determinant of a non-square matrix")
    if ring is None:
        ring = grid[0][0].ring
    if n == 0:
        return ring.one()
    return _laplace_table(grid, ring)(tuple(range(n)))


class GenericMatrix:
    """Matrix of independent ring variables x<i>_<j>; ``minor`` is its Laplace table."""

    __slots__ = ("rows", "cols", "ring", "minor")

    def __init__(self, rows, cols, domain=QQ):
        self.rows = rows
        self.cols = cols
        self.ring = Ring.matrix(rows, cols, domain)
        self.minor = _laplace_table(self.grid(), self.ring)

    def entry(self, row, col) -> Poly:
        """Variable at (row, col), 1-based."""
        return self.ring.var(self.ring.entry_index(row, col))

    def grid(self):
        return [[self.entry(i, j) for j in range(1, self.cols + 1)] for i in range(1, self.rows + 1)]

    def __repr__(self):
        return f"GenericMatrix({self.rows}x{self.cols}, {self.ring.domain!r})"


MINOR_COLS_LIMIT = 7
"""Most columns n of a minor family.  The Laplace table grows about tenfold
per column: on a 2-core machine with Python 3.11, ``minors --json`` takes
0.25 s at 7x6 and 1.3-1.8 s (66 MB) at 8x7, start-up included, so 9x8 would
run for well over ten seconds and 10x9 and up for minutes or until memory
runs out.  A larger family is refused before any determinant is computed."""


def check_family_shape(rows, cols):
    """Refuse, with ValueError, a shape that is not (n+1) x n with
    1 <= n <= MINOR_COLS_LIMIT.  It needs no ring, so the CLI checks a shape
    before it builds one."""
    if rows != cols + 1:
        raise ValueError(f"need a (n+1) x n matrix, got {rows}x{cols}")
    if not 1 <= cols <= MINOR_COLS_LIMIT:
        raise ValueError(
            f"a {rows}x{cols} family is refused: the columns must be "
            f"between 1 and {MINOR_COLS_LIMIT}"
        )


def maximal_minors(matrix: GenericMatrix) -> list:
    """The n+1 maximal minors of a generic (n+1) x n matrix, 1 <= n <=
    MINOR_COLS_LIMIT: entry i is det(drop row i+1), with no alternating
    sign."""
    check_family_shape(matrix.rows, matrix.cols)
    rows = tuple(range(matrix.rows))
    return [matrix.minor(rows[:i] + rows[i + 1 :]) for i in rows]


def column_multidegree(f: Poly):
    """The common column multidegree of the terms of f in a matrix ring,
    where x<i>_<j> has the j-th unit vector as its degree; None when the
    terms disagree.  The zero polynomial has no degree, so it raises
    ValueError, as does a ring that is not a matrix ring."""
    if f.ring.matrix_shape is None:
        raise ValueError("column multidegrees need a matrix ring")
    if not f.terms:
        raise ValueError("multidegree of the zero polynomial is undefined")
    cols = f.ring.matrix_shape[1]
    # entries are flattened row-major, so column j holds slots j, j + cols, ...
    degrees = {tuple(sum(m[j::cols]) for j in range(cols)) for m in f.terms}
    return degrees.pop() if len(degrees) == 1 else None


class StrengthBound:
    """Upper strength bound with an explicit product-decomposition witness.

    ``bound is None`` means no decomposition into lower-degree products
    exists at all (a linear form; strength is infinite).
    """

    __slots__ = ("bound", "products")

    def __init__(self, bound, products):
        self.bound = bound
        self.products = products

    def reconstruct(self, ring) -> Poly:
        total = ring.zero()
        for g, h in self.products:
            total = total + g * h
        return total


def laplace_strength_bound(matrix: GenericMatrix, drop_row: int) -> StrengthBound:
    """Strength bound n-1 for the minor dropping the given row (1-based),
    witnessed by first-column cofactor expansion."""
    n = matrix.cols
    rows = tuple(r for r in range(matrix.rows) if r != drop_row - 1)
    if len(rows) != n:
        raise ValueError(f"no minor drops row {drop_row} of a {matrix.rows}x{n} matrix")
    if n == 1:
        return StrengthBound(None, [])
    pairs = [(matrix.entry(r + 1, 1), matrix.minor(rows[:k] + rows[k + 1 :])) for k, r in enumerate(rows)]
    return StrengthBound(n - 1, [(-g if k % 2 else g, h) for k, (g, h) in enumerate(pairs)])
