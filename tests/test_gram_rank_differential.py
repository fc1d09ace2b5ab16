"""``QuadraticForm.rank`` (the congruence kernel ``linalg.gram_diagonal``)
agrees with the row-echelon ``linalg.mat_rank`` on the same Gram matrix,
leaves the form's matrix as it was, and, for a nonsingular matrix, returns
entries whose product is the determinant (``minors.determinant_laplace``)."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod

import pytest

from formstrength.domains import GF, QQ
from formstrength.linalg import _field_copy, gram_diagonal, mat_rank
from formstrength.minors import determinant_laplace
from formstrength.poly import Ring
from formstrength.quadratic import QuadraticForm


def _determinant(gram, dom):
    ring = Ring.flat(0, dom)
    det = determinant_laplace([[ring.const(v) for v in row] for row in gram], ring)
    return det.terms.get((), dom.zero)


def _check(gram, dom, det=True):
    """The form's rank equals mat_rank, its matrix is unchanged, and (with
    ``det``) at full rank the kernel's entries multiply to the determinant."""
    n = len(gram)
    q = QuadraticForm(Ring.flat(n, dom), gram)
    before = [list(row) for row in q.gram]
    rank = q.rank()
    assert q.gram == before
    assert rank == mat_rank(gram, dom)
    if det and rank == n:
        a, p = _field_copy(gram, dom)
        entries = gram_diagonal(a, p)
        want = _determinant(gram, dom)
        assert (prod(entries) % p if p else prod(entries)) == (want % p if p else want)
    return rank


def _symmetric(n, entry):
    """The symmetric n x n matrix with entry() drawn for each i <= j."""
    gram = [[0] * n for _ in range(n)]
    for i, j in combinations_with_replacement(range(n), 2):
        gram[i][j] = gram[j][i] = entry()
    return gram


@pytest.mark.parametrize("p", [3, 5])
def test_every_symmetric_three_by_three(p):
    dom = GF(p)
    slots = list(combinations_with_replacement(range(3), 2))
    ranks = set()
    for values in product(range(p), repeat=len(slots)):
        gram = [[0] * 3 for _ in range(3)]
        for (i, j), v in zip(slots, values):
            gram[i][j] = gram[j][i] = v
        # Laplace expansion on Polys is the slow part: F_3 covers it
        ranks.add(_check(gram, dom, det=p == 3))
    assert ranks == {0, 1, 2, 3}


@pytest.mark.parametrize("field", ["fp:7", "fp:32003", "q"])
def test_random_matrices(field):
    rng = random.Random(field)
    dom = QQ if field == "q" else GF(int(field[3:]))
    p = dom.characteristic

    def entry():
        if rng.random() < 0.3:
            return dom.zero
        if p:
            return rng.randrange(p)
        return Fraction(rng.randint(-20, 20), rng.randint(1, 6))

    for n in range(1, 9):
        for _ in range(25):
            _check(_symmetric(n, entry), dom)
            # M^t D M with M k x n has rank at most k
            k = rng.randrange(n)
            m = [[entry() for _ in range(n)] for _ in range(k)]
            d = [entry() for _ in range(k)]
            gram = [[sum(m[t][i] * d[t] * m[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
            if p:
                gram = [[v % p for v in row] for row in gram]
            assert _check(gram, dom) <= k


@pytest.mark.parametrize("dom", [GF(7), QQ], ids=["fp:7", "q"])
def test_zero_diagonals_need_the_pair_step(dom):
    half = dom.inv(dom.from_int(2))
    x1x2 = [[0, half], [half, 0]]
    assert _check(x1x2, dom) == 2
    # x1*x2 + x3*x4
    two_pairs = [[0] * 4 for _ in range(4)]
    for i, j in ((0, 1), (2, 3)):
        two_pairs[i][j] = two_pairs[j][i] = half
    assert _check(two_pairs, dom) == 4
    # one nonzero entry deep in an all-zero block, and the same entry with
    # x1^2 in front: the pair step then comes after a pivot
    deep = [[dom.zero] * 6 for _ in range(6)]
    deep[4][5] = deep[5][4] = dom.from_int(3)
    assert _check(deep, dom) == 2
    deep[0][0] = dom.one
    assert _check(deep, dom) == 3


@pytest.mark.parametrize("dom", [GF(5), QQ], ids=["fp:5", "q"])
def test_zero_and_tiny_forms(dom):
    assert _check([], dom) == 0
    assert _check([[dom.zero]], dom) == 0
    assert _check([[dom.from_int(3)]], dom) == 1
    assert _check([[dom.zero] * 4 for _ in range(4)], dom) == 0


def test_unreduced_entries_over_fp():
    dom = GF(5)
    # reduced mod 5: [[4, 2, 0], [2, 0, 2], [0, 2, 2]], nonsingular
    gram = [[-1, 7, 0], [7, 10, -3], [0, -3, 12]]
    assert _check(gram, dom) == 3
    assert gram == [[-1, 7, 0], [7, 10, -3], [0, -3, 12]]
    # entries that vanish mod 5 only after reduction: rank 1
    assert _check([[5, -10], [-10, 6]], dom) == 1


def test_forms_over_fp_hold_reduced_entries():
    """A form built over F_7 from negative or large ints holds its entries
    reduced into [0, 7), and its rank is mat_rank's on the unreduced ints."""
    dom = GF(7)
    rng = random.Random(71)
    for n in range(1, 6):
        for _ in range(10):
            gram = _symmetric(n, lambda: rng.randrange(-30, 30))
            q = QuadraticForm(Ring.flat(n, dom), gram)
            assert q.gram == [[v % 7 for v in row] for row in gram]
            assert q.rank() == mat_rank(gram, dom)
