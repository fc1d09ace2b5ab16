"""The one elimination routine behind rank, inverse and kernel gives exactly
what the separate Gauss-Jordan loops it replaced gave; those loops are kept
below as the reference.  Its row-echelon form of a square matrix of full
rank carries the determinant on its diagonal, checked against the Leibniz
formula."""

import copy
from fractions import Fraction
from itertools import permutations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from formstrength.domains import GF, QQ
from formstrength.linalg import eliminate, kernel_basis, mat_inverse, mat_rank

DOMAINS = [GF(3), GF(31), GF(32003), QQ]

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# reference: full Gauss-Jordan through the domain's methods, one copy per
# operation


def _ref_reduce(a, cols, dom):
    rows = len(a)
    pivots = []
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, rows):
            if a[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = dom.inv(a[row][col])
        a[row] = [dom.mul(v, inv) for v in a[row]]
        for r in range(rows):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [dom.sub(v, dom.mul(f, w)) for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == rows:
            break
    return pivots


def ref_rank(m, dom):
    a = [list(row) for row in m]
    return len(_ref_reduce(a, len(a[0]) if a else 0, dom))


def ref_inverse(m, dom):
    n = len(m)
    a = [list(row) + [dom.one if i == j else dom.zero for j in range(n)] for i, row in enumerate(m)]
    if len(_ref_reduce(a, n, dom)) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in a]


def ref_kernel(m, dom):
    cols = len(m[0]) if m else 0
    a = [list(row) for row in m]
    pivots = _ref_reduce(a, cols, dom)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [dom.zero] * cols
        vec[fc] = dom.one
        for r, pc in enumerate(pivots):
            vec[pc] = dom.neg(a[r][fc])
        basis.append(vec)
    return basis


def ref_determinant(m, dom):
    """Leibniz formula: the signed sum over all permutations."""
    n = len(m)
    total = dom.zero
    for perm in permutations(range(n)):
        term = dom.one
        for i, j in enumerate(perm):
            term = dom.mul(term, m[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = dom.sub(total, term) if inversions % 2 else dom.add(total, term)
    return total


# ---------------------------------------------------------------------------
# inputs


def _entries(dom):
    if dom.characteristic:
        # small residues make repeated rows and cancellations likely
        return st.one_of(st.integers(0, 2), st.integers(0, dom.characteristic - 1))
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _mul(a, b, inner, cols, dom):
    out = []
    for row in a:
        acc = [dom.zero] * cols
        for k in range(inner):
            acc = [dom.add(s, dom.mul(row[k], v)) for s, v in zip(acc, b[k])]
        out.append(acc)
    return out


@st.composite
def matrices(draw, square=False):
    """(domain, matrix): dense, zero, or a product of an r-by-k and a k-by-c
    factor, so of rank at most k; 0 to 5 rows, 0 to 6 columns."""
    dom = draw(st.sampled_from(DOMAINS))
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["dense", "zero", "low-rank"]))
    entry = _entries(dom)

    def block(r, c):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]

    if kind == "zero":
        m = [[dom.zero] * cols for _ in range(rows)]
    elif kind == "low-rank":
        k = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        m = _mul(block(rows, k), block(k, cols), k, cols, dom)
    else:
        m = block(rows, cols)
    return dom, m


F7 = GF(7)
EMPTY = (QQ, [])
NO_COLUMNS = (F7, [[], []])
ZERO = (GF(31), [[0, 0, 0], [0, 0, 0]])
WIDE = (QQ, [[Fraction(1), Fraction(2), Fraction(3), Fraction(4)], [Fraction(2), Fraction(4), Fraction(6), Fraction(9)]])
TALL = (F7, [[1, 2], [3, 4], [5, 6], [0, 1]])
SINGULAR = (GF(3), [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
SINGULAR_Q = (QQ, [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]])


@SETTINGS
@given(case=matrices())
@example(case=EMPTY)
@example(case=NO_COLUMNS)
@example(case=ZERO)
@example(case=WIDE)
@example(case=TALL)
@example(case=SINGULAR)
def test_rank_and_kernel_equal_the_reference(case):
    dom, m = case
    before = copy.deepcopy(m)
    assert mat_rank(m, dom) == ref_rank(m, dom)
    assert kernel_basis(m, dom) == ref_kernel(m, dom)
    assert m == before


@SETTINGS
@given(case=matrices(square=True))
@example(case=EMPTY)
@example(case=(GF(31), [[0, 0], [0, 0]]))
@example(case=SINGULAR)
@example(case=SINGULAR_Q)
@example(case=(GF(32003), [[0, 5], [7, 1]]))
def test_inverse_equals_the_reference(case):
    dom, m = case
    before = copy.deepcopy(m)
    try:
        want = ref_inverse(m, dom)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            mat_inverse(m, dom)
    else:
        assert mat_inverse(m, dom) == want
    assert m == before


def test_fixed_examples_are_singular_as_named():
    for dom, m in (SINGULAR, SINGULAR_Q):
        assert ref_rank(m, dom) < len(m)


@SETTINGS
@given(case=matrices(square=True))
@example(case=EMPTY)
@example(case=SINGULAR)
@example(case=(GF(31), [[0, 1], [1, 0]]))
@example(case=(GF(3), [[0, 0, 1], [0, 1, 0], [1, 0, 0]]))
@example(case=(QQ, [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1, 2)]]))
@example(case=(GF(32003), [[0, 5, 1], [0, 0, 7], [2, 1, 1]]))
def test_row_echelon_diagonal_is_the_determinant(case):
    # the examples need one or two row swaps, which flip the sign unless the
    # row moved down is negated
    dom, m = case
    n = len(m)
    a = [list(row) for row in m]
    rank = len(eliminate(a, n, dom.characteristic))
    want = ref_determinant(m, dom)
    if rank == n:
        det = dom.one
        for i in range(n):
            det = dom.mul(det, a[i][i])
        assert det == want
    else:
        assert want == dom.zero
