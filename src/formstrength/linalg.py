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
this way.  The symmetric congruence diagonalization used for quadratic
forms lives here as well.
"""

from __future__ import annotations

from fractions import Fraction


def mat_copy(m):
    return [list(row) for row in m]


def identity(n, dom):
    return [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]


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
    a, p = _field_copy([list(row) + e for row, e in zip(m, identity(n, dom))], dom)
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


def congruence_diagonalize(gram, dom):
    """Invertible T with T^t G T diagonal, for symmetric G over char != 2.

    Returns (T, diag) where diag is the list of diagonal entries.
    """
    n = len(gram)
    a = mat_copy(gram)
    t = identity(n, dom)

    def add_col(dst, src, factor):
        # column op on a (and mirror row op), recorded in t
        for r in range(n):
            a[r][dst] = dom.add(a[r][dst], dom.mul(factor, a[r][src]))
        for c in range(n):
            a[dst][c] = dom.add(a[dst][c], dom.mul(factor, a[src][c]))
        for r in range(n):
            t[r][dst] = dom.add(t[r][dst], dom.mul(factor, t[r][src]))

    def swap_cols(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    for k in range(n):
        if not a[k][k]:
            swap = None
            for j in range(k + 1, n):
                if a[j][j]:
                    swap = j
                    break
            if swap is not None:
                swap_cols(k, swap)
            else:
                off = None
                for j in range(k + 1, n):
                    if a[k][j]:
                        off = j
                        break
                if off is None:
                    continue
                add_col(k, off, dom.one)  # makes a[k][k] = 2*a[k][off] != 0
        pivot = a[k][k]
        for j in range(k + 1, n):
            if a[k][j]:
                add_col(j, k, dom.neg(dom.div(a[k][j], pivot)))
    return t, [a[i][i] for i in range(n)]


def is_symmetric(m):
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))
