import random

import pytest

from formstrength.domains import GF, QQ
from formstrength.groebner import Ideal, codimension
from formstrength.minors import (
    GenericMatrix,
    MinorFamily,
    determinant_laplace,
    laplace_strength_bound,
    maximal_minors,
)
from formstrength.parse import parse_poly
from formstrength.poly import Grading

DELTA1 = (
    "x2_1*x3_2*x4_3 - x2_1*x3_3*x4_2 - x2_2*x3_1*x4_3"
    " + x2_2*x3_3*x4_1 + x2_3*x3_1*x4_2 - x2_3*x3_2*x4_1"
)


def test_determinant_small_cases():
    m1 = GenericMatrix(1, 1, QQ)
    # 1x1 determinant of the single entry
    assert determinant_laplace([[m1.entry(1, 1)]], m1.ring) == m1.entry(1, 1)

    m2 = GenericMatrix(2, 2, QQ)
    det = determinant_laplace(m2.grid(), m2.ring)
    assert det == parse_poly("x1_1*x2_2 - x1_2*x2_1", m2.ring)


def test_determinant_rejects_non_square():
    m = GenericMatrix(3, 2, QQ)
    with pytest.raises(ValueError):
        determinant_laplace(m.grid(), m.ring)


def test_delta1_is_the_six_term_cubic():
    m = GenericMatrix(4, 3, QQ)
    det = determinant_laplace(m.grid(drop_row=1), m.ring)
    assert det == parse_poly(DELTA1, m.ring)


def _expand_along_row(grid, k, ring):
    """Independent oracle: cofactor expansion along row k."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    total = ring.zero()
    for j in range(n):
        sub = [
            [row[c] for c in range(n) if c != j]
            for r, row in enumerate(grid)
            if r != k
        ]
        term = grid[k][j] * _expand_along_row(sub, 0, ring)
        total = total + (-term if (k + j) % 2 else term)
    return total


def test_determinant_expansion_independence():
    m = GenericMatrix(3, 3, QQ)
    grid = m.grid()
    det = determinant_laplace(grid, m.ring)
    for k in range(3):
        assert _expand_along_row(grid, k, m.ring) == det
    transposed = [[grid[j][i] for j in range(3)] for i in range(3)]
    assert determinant_laplace(transposed, m.ring) == det


def test_determinant_alternating_property():
    m = GenericMatrix(3, 3, QQ)
    grid = m.grid()
    det = determinant_laplace(grid, m.ring)
    swapped = [grid[1], grid[0], grid[2]]
    assert determinant_laplace(swapped, m.ring) == -det
    perm = [grid[2], grid[0], grid[1]]  # even permutation keeps the sign
    assert determinant_laplace(perm, m.ring) == det


def test_maximal_minors_3x2():
    family = maximal_minors(GenericMatrix(3, 2, QQ))
    ring = family.ring
    assert family.minors[0] == parse_poly("x2_1*x3_2 - x3_1*x2_2", ring)
    assert family.minors[1] == parse_poly("x1_1*x3_2 - x3_1*x1_2", ring)
    assert family.minors[2] == parse_poly("x1_1*x2_2 - x2_1*x1_2", ring)


def test_maximal_minors_edge_and_shape():
    family = maximal_minors(GenericMatrix(2, 1, QQ))
    ring = family.ring
    assert family.minors == [ring.var(ring.entry_index(2, 1)), ring.var(ring.entry_index(1, 1))]
    with pytest.raises(ValueError):
        MinorFamily(GenericMatrix(3, 3, QQ))


def test_minors_are_column_homogeneous_of_unit_multidegree():
    for rows, cols in ((2, 1), (3, 2), (4, 3)):
        family = maximal_minors(GenericMatrix(rows, cols, QQ))
        grading = Grading.by_columns(family.ring)
        for f in family.minors:
            assert f.multidegree(grading) == (1,) * cols


def _evaluate_mod(f, point, p):
    """f at the point {variable index: int}, reduced mod p."""
    total = 0
    for mono, c in f.terms.items():
        for i, e in enumerate(mono):
            c *= point[i] ** e
        total += c
    return total % p


def test_minors_vanish_on_rank_deficient_matrices():
    rng = random.Random(83)
    dom = GF(101)
    family = maximal_minors(GenericMatrix(4, 3, dom))
    for _ in range(200):
        # a random 4x3 matrix of rank < 3, built as (4x2) * (2x3)
        left = [[rng.randrange(101) for _ in range(2)] for _ in range(4)]
        right = [[rng.randrange(101) for _ in range(3)] for _ in range(2)]
        point = {}
        for i in range(4):
            for j in range(3):
                value = sum(left[i][k] * right[k][j] for k in range(2)) % 101
                point[family.ring.entry_index(i + 1, j + 1)] = value
        for f in family.minors:
            assert _evaluate_mod(f, point, 101) == 0


def test_laplace_strength_bound_witnesses():
    m2 = GenericMatrix(2, 1, QQ)
    bound = laplace_strength_bound(m2, 1)
    assert bound.bound is None and bound.products == []

    m3 = GenericMatrix(3, 2, QQ)
    bound = laplace_strength_bound(m3, 1)
    assert bound.bound == 1
    assert len(bound.products) == 2
    assert bound.reconstruct(m3.ring) == maximal_minors(m3).minors[0]

    m4 = GenericMatrix(4, 3, QQ)
    family = maximal_minors(m4)
    for i in range(1, 5):
        bound = laplace_strength_bound(m4, i)
        assert bound.bound == 2
        assert len(bound.products) == 3
        assert bound.reconstruct(m4.ring) == family.minors[i - 1]


def test_codim_two_checks():
    assert codimension(maximal_minors(GenericMatrix(3, 2, QQ)).ideal()) == 2
    assert codimension(maximal_minors(GenericMatrix(2, 1, QQ)).ideal()) == 2
    f7 = maximal_minors(GenericMatrix(4, 3, GF(7)))
    assert codimension(f7.ideal()) == 2


def test_subfamily_not_regular(family_3x2_q, family_4x3_f7):
    # three minors generate a codimension-2 ideal, so they are not regular
    for family in (family_3x2_q, family_4x3_f7):
        assert codimension(Ideal(family.ring, family.minors[:3])) == 2
