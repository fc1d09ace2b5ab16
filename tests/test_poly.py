import random

import pytest

from formstrength.domains import GF, QQ
from formstrength.minors import column_multidegree
from formstrength.poly import Poly, Ring
from formstrength.parse import parse_poly

from conftest import random_poly


def test_additive_inverse():
    ring = Ring.flat(3, QQ)
    x1 = ring.var(0)
    assert not (x1 + (-x1)).terms


def test_difference_of_squares():
    ring = Ring.flat(3, QQ)
    x1, x2 = ring.var(0), ring.var(1)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_cofactor_block_product():
    # x2_1 * (x3_2*x4_3 - x3_3*x4_2), the first block of a 3x3 minor expansion
    ring = Ring.matrix(4, 3, QQ)
    lhs = parse_poly("x2_1", ring) * parse_poly("x3_2*x4_3 - x3_3*x4_2", ring)
    assert lhs == parse_poly("x2_1*x3_2*x4_3 - x2_1*x3_3*x4_2", ring)


def test_ring_ops_are_distributive_and_commutative_over_f7():
    rng = random.Random(7)
    ring = Ring.flat(4, GF(7))
    for _ in range(60):
        f = random_poly(rng, ring, max_degree=3)
        g = random_poly(rng, ring, max_degree=3)
        h = random_poly(rng, ring, max_degree=3)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)


def test_mixed_domains_rejected():
    a = Ring.flat(2, QQ).var(0)
    b = Ring.flat(2, GF(7)).var(0)
    with pytest.raises(ValueError):
        _ = a + b


def test_multidegree_column_grading():
    ring = Ring.matrix(4, 3, QQ)
    mixed = parse_poly("x1_1 + x2_3", ring)
    assert column_multidegree(mixed) is None  # columns 1 and 3 disagree
    assert column_multidegree(parse_poly("x1_1", ring)) == (1, 0, 0)
    assert column_multidegree(parse_poly("x4_3^2*x1_2 - 3*x1_3*x2_3*x3_2", ring)) == (0, 1, 2)


def test_multidegree_standard_grading():
    # on a one-column matrix ring the column grading is the standard grading
    ring = Ring.matrix(2, 1, QQ)
    f = parse_poly("x1_1^2 + x1_1*x2_1", ring)
    assert column_multidegree(f) == (2,)


def test_multidegree_of_zero_raises():
    ring = Ring.matrix(2, 1, QQ)
    with pytest.raises(ValueError):
        column_multidegree(ring.zero())
    with pytest.raises(ValueError):
        column_multidegree(Ring.flat(2, QQ).var(0))  # no columns to count


def test_multidegree_additive_on_homogeneous_parts():
    rng = random.Random(11)
    ring = Ring.matrix(3, 2, GF(7))
    for _ in range(30):
        f = random_poly(rng, ring, max_degree=2)
        g = random_poly(rng, ring, max_degree=2)
        df = column_multidegree(f)
        dg = column_multidegree(g)
        if df is None or dg is None:
            continue
        assert column_multidegree(f * g) == tuple(a + b for a, b in zip(df, dg))


def test_bidegree_piece_is_spanned_by_cross_column_products():
    # the (1,1,0) piece of the 4x3 matrix ring is spanned by the sixteen
    # products of a column-1 variable with a column-2 variable
    ring = Ring.matrix(4, 3, QQ)
    expected = set()
    for i in range(1, 5):
        for j in range(1, 5):
            prod = ring.var(ring.entry_index(i, 1)) * ring.var(ring.entry_index(j, 2))
            expected.add(next(iter(prod.terms)))
    assert len(expected) == 16
    for mono in expected:
        piece = Poly(ring, {mono: QQ(1)})
        assert column_multidegree(piece) == (1, 1, 0)
