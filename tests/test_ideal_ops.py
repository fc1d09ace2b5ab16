import random
import sys

import pytest

from formstrength import groebner
from formstrength.domains import GF, QQ
from formstrength.groebner import (
    Ideal,
    exact_divide,
    ideal_intersection,
    ideal_quotient,
)
from formstrength.parse import parse_poly
from formstrength.poly import Ring
from formstrength.polygcd import multivariate_gcd

from conftest import contains, contains_ideal, random_homogeneous, random_poly, same_ideal


def test_principal_intersection():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    inter = ideal_intersection(Ideal(ring, [x]), Ideal(ring, [y]))
    assert same_ideal(inter, Ideal(ring, [x * y]))


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


def test_kernel_step_tries_each_pivot_once(monkeypatch):
    # x1*x2 ∩ x1*(x3 + ... + x1000): the kernel step in degree 3 keeps the
    # 997 rows x1*x2*xi, i > 3, as pivots, and the one row with 997 terms
    # meets each of them once; a division that tried every pivot kept so
    # far on every term of every row would try millions of them
    ring = Ring.flat(1000, QQ)
    total = parse_poly(" + ".join(f"x1*x{i}" for i in range(3, 1001)), ring)
    reduce_terms = groebner._reduce_terms
    tries = []

    class Tried(tuple):
        # the division kernel unpacks a reducer each time it tries one
        def __iter__(self):
            tries.append(1)
            return super().__iter__()

    def counted(work, reducers, *args):
        if sys._getframe(1).f_code.co_name == "_meet_in_degree":
            reducers = [Tried(r) for r in reducers]
        return reduce_terms(work, reducers, *args)

    monkeypatch.setattr(groebner, "_reduce_terms", counted)
    inter = ideal_intersection(Ideal(ring, [parse_poly("x1*x2", ring)]), Ideal(ring, [total]))
    assert inter.gens == [total * parse_poly("x2", ring)]
    assert 0 < len(tries) < 2 * ring.nvars


def test_plane_line_intersection_by_mutual_membership():
    ring = Ring.flat(3, QQ)
    x1, x2, x3 = ring.gens()
    inter = ideal_intersection(Ideal(ring, [x3]), Ideal(ring, [x1, x2]))
    expected = Ideal(ring, [x1 * x3, x2 * x3])
    assert same_ideal(inter, expected)


def test_intersection_with_unit_ideal():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    ideal = Ideal(ring, [x * x + y * y, x * y])
    inter = ideal_intersection(ideal, Ideal(ring, [ring.one()]))
    assert same_ideal(inter, ideal)


def test_intersection_with_zero_ideal():
    ring = Ring.flat(2, QQ)
    x, _ = ring.gens()
    inter = ideal_intersection(Ideal(ring, [x]), Ideal(ring, []))
    assert not inter.gens


def test_quotient_examples():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    q1 = ideal_quotient(Ideal(ring, [x * y]), y)
    assert same_ideal(q1, Ideal(ring, [x]))
    # y is a nonzerodivisor mod (x): the quotient does not grow
    q2 = ideal_quotient(Ideal(ring, [x]), y)
    assert same_ideal(q2, Ideal(ring, [x]))


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
        assert contains_ideal(quotient, ideal)
        assert contains(quotient, h2)
        if not contains(ideal, h2):
            assert not contains_ideal(ideal, quotient)  # strict growth


def test_quotient_of_zero_ideal():
    ring = Ring.flat(2, QQ)
    q = ideal_quotient(Ideal(ring, []), ring.var(0))
    assert not q.gens
