import random

import pytest

from formstrength.domains import GF, QQ
from formstrength.poly import Grading, Poly, Ring
from formstrength.parse import parse_poly

from conftest import random_poly


def test_additive_inverse():
    ring = Ring.flat(3, QQ)
    x1 = ring.var(0)
    assert (x1 + (-x1)).is_zero()


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
    grading = Grading.by_columns(ring)
    mixed = parse_poly("x1_1 + x2_3", ring)
    assert mixed.multidegree(grading) is None  # columns 1 and 3 disagree
    assert parse_poly("x1_1", ring).multidegree(grading) == (1, 0, 0)


def test_multidegree_standard_grading():
    ring = Ring.flat(2, QQ)
    grading = Grading.standard(ring)
    f = parse_poly("x1^2 + x1*x2", ring)
    assert f.multidegree(grading) == (2,)


def test_multidegree_of_zero_raises():
    ring = Ring.flat(2, QQ)
    with pytest.raises(ValueError):
        ring.zero().multidegree(Grading.standard(ring))


def test_multidegree_additive_on_homogeneous_parts():
    rng = random.Random(11)
    ring = Ring.matrix(3, 2, GF(7))
    grading = Grading.by_columns(ring)
    for _ in range(30):
        f = random_poly(rng, ring, max_degree=2)
        g = random_poly(rng, ring, max_degree=2)
        df = f.multidegree(grading)
        dg = g.multidegree(grading)
        if df is None or dg is None:
            continue
        assert (f * g).multidegree(grading) == tuple(a + b for a, b in zip(df, dg))


def test_component_selection():
    ring = Ring.matrix(4, 3, QQ)
    grading = Grading.by_columns(ring)
    f = parse_poly("x1_1 + x2_3", ring)
    assert f.component(grading, (1, 0, 0)) == parse_poly("x1_1", ring)
    assert ring.zero().component(grading, (1, 0, 0)).is_zero()


def test_component_extracts_pure_first_column_cube():
    # with a = x1_1 + ..., the (3,0,0) piece of a*b + c*d is exactly
    # a100*b200 + c100*d200
    ring = Ring.matrix(4, 3, QQ)
    grading = Grading.by_columns(ring)
    a100 = parse_poly("x1_1", ring)
    b200 = parse_poly("x2_1*x3_1", ring)
    b011 = parse_poly("x2_2*x3_3", ring)
    c100 = parse_poly("x2_1", ring)
    d200 = parse_poly("x1_1^2", ring)
    d011 = parse_poly("x3_2*x4_3", ring)
    product = a100 * (b200 + b011) + c100 * (d200 + d011)
    assert product.component(grading, (3, 0, 0)) == a100 * b200 + c100 * d200


def test_bidegree_piece_is_spanned_by_cross_column_products():
    # the (1,1,0) piece of the 4x3 matrix ring is spanned by the sixteen
    # products of a column-1 variable with a column-2 variable
    ring = Ring.matrix(4, 3, QQ)
    grading = Grading.by_columns(ring)
    expected = set()
    for i in range(1, 5):
        for j in range(1, 5):
            prod = ring.var(ring.entry_index(i, 1)) * ring.var(ring.entry_index(j, 2))
            expected.add(next(iter(prod.terms)))
    assert len(expected) == 16
    for mono in expected:
        piece = Poly(ring, {mono: QQ(1)})
        assert piece.multidegree(grading) == (1, 1, 0)


def test_component_decomposition_reassembles():
    rng = random.Random(3)
    ring = Ring.matrix(3, 2, GF(7))
    grading = Grading.by_columns(ring)
    for _ in range(25):
        f = random_poly(rng, ring, max_degree=3, max_terms=6)
        total = ring.zero()
        for d in f.multidegree_support(grading):
            piece = f.component(grading, d)
            assert piece.is_zero() or piece.multidegree(grading) == d
            total = total + piece
        assert total == f


def test_evaluate():
    ring = Ring.flat(2, QQ)
    f = parse_poly("x1*x2", ring)
    assert f.evaluate({0: QQ(2), 1: QQ(3)}) == 6
    assert ring.zero().evaluate({}) == 0
    f5 = Ring.flat(2, GF(5))
    g = parse_poly("x1^2 + x2^2", f5)
    assert g.evaluate([1, 2]) == 0  # 1 + 4 = 0 mod 5


def test_evaluate_missing_assignment():
    ring = Ring.flat(3, QQ)
    f = parse_poly("x1*x3", ring)
    with pytest.raises(KeyError):
        f.evaluate({0: QQ(1)})

