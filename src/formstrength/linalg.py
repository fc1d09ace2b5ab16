"""Exact dense linear algebra over the coefficient domains.

Matrices are lists of row lists holding domain elements.  One elimination
routine, ``eliminate``, serves rank, inverse and kernel: over F_p it works
on int rows with an inline ``% p``, over Q on ``Fraction`` rows with plain
operators, and it makes no domain method call per entry.  Rank stops at
row-echelon form; inverse and kernel finish it to reduced row-echelon form,
which is unique, so their outputs do not depend on how the elimination got
there.  Short of the reduced form, each row swap negates the row moved
down, so no step changes the determinant: once ``eliminate`` has brought a
square n x n matrix of rank n to row-echelon form, the product of its
diagonal is its determinant.  The F_p Gram-rank scans read determinants
this way.

One congruence kernel, ``gram_diagonal``, serves both the rank of one Gram
matrix (``QuadraticForm.rank``) and the transforms of the pencil
diagonalization.  It diagonalizes a symmetric matrix by congruence,
clearing each pivot's column over the indices still live, so every step
works on a smaller block and the symmetry spares reading the pivot column.
Its steps are congruences by matrices of determinant 1, so the number of
entries it returns is the rank and, at full rank, their product is the
determinant.  Columns appended to the matrix receive every row operation,
so an identity appended to it ends as the transposed transform.
"""

from __future__ import annotations

from fractions import Fraction


def mat_mul(a, b, dom):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[dom.zero] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if not c:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                if bk[j]:
                    oi[j] = dom.add(oi[j], dom.mul(c, bk[j]))
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def eliminate(a, ncols, p, reduced=False):
    """Row-reduce ``a`` in place over columns ``0..ncols-1`` and return the
    pivot columns; the pivot rows end up first, in pivot order.

    ``p`` is the field's characteristic: entries are ints in ``[0, p)`` over
    F_p, and ``Fraction`` (or int) over Q when ``p`` is 0.  The pivot of a
    column is its first nonzero entry at or below the pivot rows found so
    far.  Without ``reduced`` only the rows below each pivot are cleared
    (row-echelon form, enough for the rank); with it every other row is
    cleared and the pivots are scaled to 1, giving the reduced row-echelon
    form.  Without ``reduced`` the row a swap moves down is negated, so each
    step keeps the determinant: a square matrix of full rank ends with its
    determinant as the product of its diagonal.  (The reduced form is
    unique, so there the sign is left alone.)  A pivot's inverse is taken
    only when some row has an entry to clear in its column.
    """
    rows = len(a)
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        if top == rows:
            break
        for r in range(top, rows):
            if a[r][col]:
                break
        else:
            continue
        prow = a[r]
        if r != top:
            low = a[top]
            if not reduced:
                low = [-v % p for v in low] if p else [-v for v in low]
            a[r], a[top] = low, prow
        inv = None
        for r in range(0 if reduced else top + 1, rows):
            row = a[r]
            f = row[col]
            if f and r != top:
                if inv is None:
                    inv = pow(prow[col], -1, p) if p else 1 / Fraction(prow[col])
                if p:
                    f = f * inv % p
                    a[r] = [(v - f * w) % p for v, w in zip(row, prow)]
                else:
                    f *= inv
                    a[r] = [v - f * w for v, w in zip(row, prow)]
        pivots.append(col)
    if reduced:
        for top, col in enumerate(pivots):
            row = a[top]
            inv = pow(row[col], -1, p) if p else 1 / Fraction(row[col])
            a[top] = [v * inv % p for v in row] if p else [v * inv for v in row]
    return pivots


def gram_diagonal(a, p):
    """The nonzero diagonal entries of a congruence diagonalization of the
    symmetric n x n block of the n x w matrix ``a``, which is worked on in
    place; ``p`` and the entries follow ``eliminate`` (p odd over F_p).

    A list of live indices replaces row and column swaps.  Each step takes
    the first live index k with a_kk != 0 as the pivot, drops k from the
    live list and clears column k from the live rows: row r -= f * row k,
    over the live columns and the columns past n, with f = a_kr / a_kk by
    symmetry.  The matching column op, column r -= f * column k, would only
    touch row k, which is no longer live, so it is not made.  When every
    live diagonal entry is 0 but some live a_ij is not, the congruence
    x_i -> x_i + x_j (row i += row j, then column i += column j within the
    block) first makes a_ii = 2 a_ij, nonzero as 2 is a unit.  Every step is
    a congruence by a matrix of determinant 1, so the entries number the
    rank, and for a nonsingular block their product is its determinant
    exactly.  The columns past n receive every row op, so n of them that
    start as the identity end as T^t, with T^t G T diagonal, the entries
    its nonzero diagonal.  Entries of the block outside the live indices
    are left stale.
    """
    n = len(a)
    live = list(range(n))
    tail = list(range(n, len(a[0]))) if a else []
    out = []
    while live:
        for k in live:
            if a[k][k]:
                break
        else:
            pair = next(((i, j) for i in live for j in live if a[i][j]), None)
            if pair is None:
                break
            k, j = pair
            rk, rj = a[k], a[j]
            for c in live + tail:
                rk[c] = (rk[c] + rj[c]) % p if p else rk[c] + rj[c]
            for r in live:
                row = a[r]
                row[k] = (row[k] + row[j]) % p if p else row[k] + row[j]
        live.remove(k)
        span = live + tail if tail else live
        prow = a[k]
        d = prow[k]
        out.append(d)
        inv = None
        for r in live:
            f = prow[r]
            if f:
                if inv is None:
                    inv = pow(d, -1, p) if p else 1 / Fraction(d)
                row = a[r]
                if p:
                    f = f * inv % p
                    for c in span:
                        row[c] = (row[c] - f * prow[c]) % p
                else:
                    f *= inv
                    for c in span:
                        row[c] -= f * prow[c]
    return out


def _field_copy(m, dom):
    """A copy of m to eliminate in place, and the field's characteristic;
    F_p entries are reduced into [0, p) on the way."""
    p = dom.characteristic
    if p:
        return [[v % p for v in row] for row in m], p
    return [list(row) for row in m], p


def mat_rank(m, dom):
    """Rank by exact row elimination over a field."""
    a, p = _field_copy(m, dom)
    return len(eliminate(a, len(a[0]) if a else 0, p))


def mat_inverse(m, dom):
    """Inverse of a square matrix; raises on singular input."""
    n = len(m)
    unit = [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]
    a, p = _field_copy([list(row) + e for row, e in zip(m, unit)], dom)
    if len(eliminate(a, n, p, reduced=True)) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in a]


def kernel_basis(m, dom):
    """Basis of the right kernel of an r-by-c matrix (list of c-vectors)."""
    cols = len(m[0]) if m else 0
    a, p = _field_copy(m, dom)
    pivots = eliminate(a, cols, p, reduced=True)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [dom.zero] * cols
        vec[fc] = dom.one
        for r, pc in enumerate(pivots):
            vec[pc] = dom.neg(a[r][fc])
        basis.append(vec)
    return basis


def is_symmetric(m):
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))
