import random
from itertools import combinations

import pytest

from formstrength.domains import GF, QQ
from formstrength.groebner import (
    Ideal,
    codimension,
    dimension,
    groebner_basis,
    normal_form,
)
from formstrength.orders import LEX
from formstrength.parse import parse_poly
from formstrength.poly import Poly, Ring

from conftest import random_homogeneous, random_poly, spolynomial


def test_coordinate_ideal_already_reduced():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    basis = groebner_basis([x, y])
    assert sorted(str(g) for g in basis) == ["x1", "x2"]


def test_lex_elimination_produces_the_twisted_cubic_relation():
    ring = Ring.flat(3, QQ)
    x, y, z = ring.gens()
    basis = groebner_basis([x * x - y, x * x * x - z], LEX)
    eliminant = parse_poly("x2^3 - x3^2", ring)
    # oracle: every basis element vanishes under x=t, y=t^2, z=t^3
    t_ring = Ring(1, QQ, names=("t",))
    t = t_ring.var(0)
    for g in basis:
        image = t_ring.zero()
        for mono, c in g.terms.items():
            term = t_ring.const(c) * t ** (mono[0] + 2 * mono[1] + 3 * mono[2])
            image = image + term
        assert image.is_zero()
    assert basis.contains(eliminant)
    assert any(g == eliminant for g in basis)


def test_unit_ideal_basis():
    ring = Ring.flat(1, QQ)
    x = ring.var(0)
    basis = groebner_basis([x, x + ring.one()])
    assert basis.is_unit()
    assert [str(g) for g in basis] == ["1"]


def test_buchberger_idempotent():
    rng = random.Random(2)
    ring = Ring.flat(3, GF(7))
    gens = [random_poly(rng, ring, max_degree=2) for _ in range(3)]
    basis = groebner_basis(gens)
    again = groebner_basis(list(basis))
    assert basis == again


def test_every_spolynomial_reduces_to_zero():
    rng = random.Random(4)
    for _ in range(10):
        ring = Ring.flat(rng.randint(2, 3), GF(7))
        gens = [random_poly(rng, ring, max_degree=2) for _ in range(rng.randint(2, 3))]
        basis = groebner_basis(gens)
        for f, g in combinations(basis.elements, 2):
            s = spolynomial(f, g)
            assert normal_form(s, basis).is_zero()


def test_membership_of_random_combinations():
    rng = random.Random(6)
    ring = Ring.flat(3, GF(7))
    gens = [random_poly(rng, ring, max_degree=2) for _ in range(3)]
    basis = groebner_basis(gens)
    for _ in range(20):
        combo = ring.zero()
        for g in gens:
            combo = combo + random_poly(rng, ring, max_degree=1) * g
        assert normal_form(combo, basis).is_zero()
    # and a polynomial outside the ideal (degree too small to be a member)
    outside = ring.one()
    if not basis.is_unit():
        assert not normal_form(outside, basis).is_zero()


def test_reduced_basis_unique_across_presentations():
    rng = random.Random(8)
    ring = Ring.flat(3, QQ)
    for _ in range(10):
        f = random_poly(rng, ring, max_degree=2)
        g = random_poly(rng, ring, max_degree=2)
        h = random_poly(rng, ring, max_degree=2)
        b1 = groebner_basis([f, g, h])
        remixed = [f + g, g, h + f, f.scale(QQ(3))]
        b2 = groebner_basis(remixed)
        assert b1.elements == b2.elements


def test_normal_form_examples():
    ring = Ring.matrix(4, 3, QQ)
    pair = groebner_basis([ring.var(ring.entry_index(1, 1)), ring.var(ring.entry_index(1, 2))])
    mono = parse_poly("x1_1*x3_2*x4_3", ring)
    assert normal_form(mono, pair).is_zero()
    # a minor with no x1_1/x1_2 support passes through untouched
    delta1 = parse_poly(
        "x2_1*x3_2*x4_3 - x2_1*x3_3*x4_2 - x2_2*x3_1*x4_3"
        " + x2_2*x3_3*x4_1 + x2_3*x3_1*x4_2 - x2_3*x3_2*x4_1",
        ring,
    )
    assert normal_form(delta1, pair) == delta1
    empty = Ideal(ring, []).groebner()
    assert normal_form(delta1, empty) == delta1


def test_dimension_and_codimension_examples():
    ring = Ring.flat(3, QQ)
    x, y, z = ring.gens()
    assert codimension(Ideal(ring, [x, y])) == 2
    # V(xy, xz) = {x=0} u {y=z=0}: a plane union a line, so codim 1
    assert codimension(Ideal(ring, [x * y, x * z])) == 1
    assert dimension(Ideal(ring, [x * y, x * z])) == 2
    assert dimension(Ideal(ring, [])) == 3
    assert codimension(Ideal(ring, [])) == 0
    assert dimension(Ideal(ring, [ring.one()])) == -1


def test_codimension_requires_homogeneous_input():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    with pytest.raises(ValueError):
        codimension(Ideal(ring, [x + ring.one()]))


def test_unit_ideal_codimension_convention():
    # constants are degree-0 homogeneous, so the unit ideal slips through
    # the homogeneity gate; dim -1 puts its codim at n + 1
    ring = Ring.flat(3, QQ)
    assert codimension(Ideal(ring, [ring.const(QQ(5))])) == 4


def test_codimension_order_independent():
    rng = random.Random(10)
    for _ in range(50):
        n = rng.randint(2, 4)
        ring = Ring.flat(n, GF(7))
        gens = [
            random_homogeneous(rng, ring, rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        ]
        # R/I and R/LT(I) have the same dimension under every order
        one = ring.domain.one
        lex_leads = groebner_basis(gens, LEX).lead_monomials
        lead_ideal = Ideal(ring, [Poly(ring, {m: one}) for m in lex_leads])
        assert codimension(Ideal(ring, gens)) == codimension(lead_ideal)


def test_minor_family_codimension(family_4x3_f7):
    # the full maximal-minor ideal of the generic 4x3 matrix has codim 2
    assert codimension(family_4x3_f7.ideal()) == 2


def test_spolynomial_certificate_on_minor_bases(family_3x2_q, family_4x3_f7):
    # the post-hoc Buchberger certificate also holds on the big bases
    for family in (family_3x2_q, family_4x3_f7):
        basis = family.ideal().groebner()
        for f, g in combinations(basis.elements, 2):
            assert normal_form(spolynomial(f, g), basis).is_zero()
