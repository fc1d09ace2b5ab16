"""The one elimination routine behind rank, inverse and kernel gives exactly
what the separate Gauss-Jordan loops it replaced gave; those loops are kept
below as the reference.  Its row-echelon form of a square matrix of full
rank carries the determinant on its diagonal, checked against the Leibniz
formula.  Its sparse in-place row update leaves every entry as the dense
full-width update did, which is kept below as a second reference."""

import copy
import random
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


@st.composite
def symmetric_of_planted_rank(draw):
    """(field, matrix): L D L^t over F_3, F_31 or F_101 for an n-by-k L and
    a k-by-k diagonal D of nonzero entries, so symmetric of rank at most k;
    0 to 6 rows."""
    dom = draw(st.sampled_from([GF(3), GF(31), GF(101)]))
    p = dom.characteristic
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, n))
    lower = [[draw(_entries(dom)) for _ in range(k)] for _ in range(n)]
    diag = [draw(st.integers(1, p - 1)) for _ in range(k)]
    return dom, [[sum(lower[i][t] * diag[t] * lower[j][t] for t in range(k)) % p for j in range(n)]
                 for i in range(n)]


@SETTINGS
@given(case=symmetric_of_planted_rank())
@example(case=(GF(3), [[0, 1], [1, 0]]))
@example(case=(GF(31), [[0, 0, 1], [0, 0, 0], [1, 0, 0]]))
def test_pivot_columns_of_a_symmetric_matrix_index_a_nonsingular_principal_submatrix(case):
    # the F_p Gram scans track det of M[S, S], S the pivot columns of a
    # point of largest rank on a line
    dom, m = case
    pivots = eliminate([list(row) for row in m], len(m), dom.characteristic)
    sub = [[m[i][j] for j in pivots] for i in pivots]
    assert ref_rank(sub, dom) == len(pivots) == ref_rank(m, dom)


# ---------------------------------------------------------------------------
# the sparse in-place row update against the dense full-width one


def _dense_eliminate(a, ncols, p, reduced=False):
    """``eliminate`` as it was before its row update went sparse: each row
    it clears, and each row a swap moves down, is rebuilt across its full
    width."""
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


SPARSE_FIELDS = [GF(2), GF(3), GF(7), GF(32003), QQ]


def _sparse_case(rng, dom, density):
    """(rows, ncols) of a random matrix at about ``density`` nonzero entries:
    up to 9 rows and 9 eliminated columns, then, half the time, tag columns
    past ``ncols`` as the gcd's multiplier matrices carry them (a unit
    vector on a leading block of rows, zeros below); some rows repeat or
    combine earlier ones.  Over Q the entries mix ints, as the gcd builds
    its rows, and ``Fraction``s."""
    p = dom.characteristic

    def entry():
        if rng.random() >= density:
            return 0
        if p:
            return rng.randrange(1, p)
        c = rng.choice([-1, 1]) * rng.randint(1, 5)
        return c if rng.random() < 0.5 else Fraction(c, rng.randint(1, 3))

    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for r in range(1, nrows):
        if rng.random() < 0.25:  # a dependent row
            s, t = rng.randrange(r), rng.randrange(r)
            c = rng.randrange(p) if p else rng.randint(-2, 2)
            rows[r] = [(x + c * y) % p if p else x + c * y for x, y in zip(rows[s], rows[t])]
    if rng.random() < 0.5:
        block = rng.randint(1, nrows)
        for r, row in enumerate(rows):
            row += [1 if r == t else 0 for t in range(block)]
    return rows, ncols


@pytest.mark.parametrize("reduced", [False, True], ids=["echelon", "reduced"])
@pytest.mark.parametrize("dom", SPARSE_FIELDS, ids=lambda d: d.name)
def test_sparse_row_update_leaves_every_entry_as_the_dense_update(dom, reduced):
    rng = random.Random(f"{dom.name}:{reduced}")
    p = dom.characteristic
    for density in (0.1, 0.25, 0.5, 0.75, 1.0):
        for _ in range(60):
            rows, ncols = _sparse_case(rng, dom, density)
            ours, dense = copy.deepcopy(rows), copy.deepcopy(rows)
            pivots = eliminate(ours, ncols, p, reduced)
            assert pivots == _dense_eliminate(dense, ncols, p, reduced), rows
            assert ours == dense, rows


def test_rank_kernel_and_inverse_leave_their_argument_unchanged():
    # eliminate updates rows in place; each entry point hands it a copy, so
    # the caller's rows, even one list given twice and entries not reduced
    # mod p, come back untouched
    for dom in SPARSE_FIELDS:
        p = dom.characteristic
        entry = (lambda c: c + p) if p else Fraction  # unreduced over F_p
        shared = [entry(1), entry(2), entry(0)]
        for m in ([shared, shared, [entry(0), entry(1), entry(3)]],
                  [[entry(0), entry(1), entry(1)], shared, [entry(1), entry(0), entry(1)]]):
            want = [[v % p for v in row] if p else list(row) for row in m]
            before = copy.deepcopy(m)
            assert mat_rank(m, dom) == ref_rank(want, dom)
            assert kernel_basis(m, dom) == ref_kernel(want, dom)
            try:
                inverse = ref_inverse(want, dom)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    mat_inverse(m, dom)
            else:
                assert mat_inverse(m, dom) == inverse
            assert m == before and m[1] is shared
