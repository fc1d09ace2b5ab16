import random

import pytest

from formstrength.domains import GF, QQ
from formstrength.groebner import (
    Ideal,
    exact_divide,
    ideal_intersection,
    ideal_quotient,
)
from formstrength.poly import Ring
from formstrength.polygcd import multivariate_gcd

from conftest import random_homogeneous, random_poly


def test_principal_intersection():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    inter = ideal_intersection(Ideal(ring, [x]), Ideal(ring, [y]))
    assert inter.equals(Ideal(ring, [x * y]))


@pytest.mark.parametrize("domain", [GF(7), GF(32003), QQ], ids=["f7", "f32003", "q"])
def test_principal_intersection_is_the_lcm(domain):
    # the elimination route against <f g / gcd(f, g)> from the PRS gcd, on
    # pairs with a planted common factor u
    rng = random.Random(53)
    for _ in range(12):
        ring = Ring.flat(rng.randint(2, 3), domain)
        u, h1, h2 = (random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(3))
        f, g = u * h1, u * h2
        lcm = exact_divide(f * g, multivariate_gcd(f, g)).monic()
        assert ideal_intersection(Ideal(ring, [f]), Ideal(ring, [g])).gens == [lcm]


def test_plane_line_intersection_by_mutual_membership():
    ring = Ring.flat(3, QQ)
    x1, x2, x3 = ring.gens()
    inter = ideal_intersection(Ideal(ring, [x3]), Ideal(ring, [x1, x2]))
    expected = Ideal(ring, [x1 * x3, x2 * x3])
    assert inter.equals(expected)


def test_intersection_with_unit_ideal():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    ideal = Ideal(ring, [x * x + y * y, x * y])
    inter = ideal_intersection(ideal, Ideal(ring, [ring.one()]))
    assert inter.equals(ideal)


def test_intersection_with_zero_ideal():
    ring = Ring.flat(2, QQ)
    x, _ = ring.gens()
    inter = ideal_intersection(Ideal(ring, [x]), Ideal(ring, []))
    assert not inter.gens


def test_quotient_examples():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    q1 = ideal_quotient(Ideal(ring, [x * y]), y)
    assert q1.equals(Ideal(ring, [x]))
    # y is a nonzerodivisor mod (x): the quotient does not grow
    q2 = ideal_quotient(Ideal(ring, [x]), y)
    assert q2.equals(Ideal(ring, [x]))


def test_quotient_by_zero_rejected():
    ring = Ring.flat(2, QQ)
    with pytest.raises(ValueError):
        ideal_quotient(Ideal(ring, [ring.var(0)]), ring.zero())


def test_quotient_detects_planted_zerodivisor():
    # with f1 = g*h1 and f2 = g*h2, the quotient (I : h1*g) strictly
    # contains I: h2 lands in it
    rng = random.Random(21)
    ring = Ring.flat(3, GF(7))
    for _ in range(10):
        g = random_homogeneous(rng, ring, 1, max_terms=2)
        h1 = random_homogeneous(rng, ring, 1, max_terms=2)
        h2 = random_homogeneous(rng, ring, 2, max_terms=2)
        ideal = Ideal(ring, [g * h1, g * h2])
        quotient = ideal_quotient(ideal, h1 * g)
        assert quotient.contains_ideal(ideal)
        assert quotient.contains(h2)
        if not ideal.contains(h2):
            assert not ideal.contains_ideal(quotient)  # strict growth


def test_quotient_of_zero_ideal():
    ring = Ring.flat(2, QQ)
    q = ideal_quotient(Ideal(ring, []), ring.var(0))
    assert not q.gens
