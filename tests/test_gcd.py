import itertools
import random

import pytest

import formstrength.polygcd as polygcd
from formstrength.domains import GF, QQ
from formstrength.groebner import GroebnerError, exact_divide
from formstrength.parse import parse_poly
from formstrength.poly import Poly, Ring
from formstrength.polygcd import multivariate_gcd

from conftest import random_poly


def divides(f: Poly, g: Poly) -> bool:
    """True when f divides g exactly (f nonzero)."""
    if not f.terms:
        raise ZeroDivisionError("divisibility by zero polynomial")
    try:
        exact_divide(g, f)
        return True
    except GroebnerError:
        return False


def test_common_variable_factor():
    ring = Ring.flat(3, QQ)
    f = parse_poly("x1*x2", ring)
    g = parse_poly("x1*x3", ring)
    assert multivariate_gcd(f, g) == ring.var(0)


def _low_degree_factors(f, ring):
    """Oracle: exhaustive trial division by small-coefficient linear forms,
    returning the multiset of monic linear factors."""
    factors = []
    rest = f
    changed = True
    while changed and rest.degree() > 0:
        changed = False
        for coeffs in itertools.product([-2, -1, 0, 1, 2], repeat=ring.nvars):
            if all(c == 0 for c in coeffs):
                continue
            cand = ring.zero()
            for i, c in enumerate(coeffs):
                cand = cand + ring.var(i).scale(QQ(c))
            cand = cand.monic()
            if divides(cand, rest):
                quotient = exact_divide(rest, cand)
                factors.append(cand)
                rest = quotient
                changed = True
                break
    return factors, rest


def test_gcd_by_factor_intersection_oracle():
    ring = Ring.flat(2, QQ)
    f = parse_poly("x1^2 - x2^2", ring)
    g = parse_poly("x1^2 + 2*x1*x2 + x2^2", ring)
    d = multivariate_gcd(f, g)
    assert d == parse_poly("x1 + x2", ring)

    ff, rf = _low_degree_factors(f, ring)
    gf, rg = _low_degree_factors(g, ring)
    assert rf.is_constant() and rg.is_constant()
    common = []
    pool = list(gf)
    for p in ff:
        if p in pool:
            common.append(p)
            pool.remove(p)
    product = ring.one()
    for p in common:
        product = product * p
    assert product.monic() == d


def test_gcd_with_zero_is_normalized_input():
    ring = Ring.flat(2, QQ)
    f = parse_poly("2*x1 + 2*x2", ring)
    assert multivariate_gcd(f, ring.zero()) == parse_poly("x1 + x2", ring)
    assert not multivariate_gcd(ring.zero(), ring.zero()).terms


def test_gcd_of_constants_is_one():
    ring = Ring.flat(2, QQ)
    assert multivariate_gcd(ring.const(QQ(4)), ring.const(QQ(6))) == ring.one()


def test_gcd_divides_both_inputs():
    rng = random.Random(13)
    for dom in (QQ, GF(7)):
        ring = Ring.flat(3, dom)
        for _ in range(15):
            u = random_poly(rng, ring, max_degree=2, max_terms=2)
            f = random_poly(rng, ring, max_degree=2, max_terms=3)
            g = random_poly(rng, ring, max_degree=2, max_terms=3)
            d = multivariate_gcd(u * f, u * g)
            assert divides(d, u * f)
            assert divides(d, u * g)
            assert divides(u.monic(), d)  # the planted factor survives


def test_gcd_monomial_scaling_up_to_scalar():
    rng = random.Random(17)
    ring = Ring.flat(3, GF(7))
    for _ in range(10):
        f = random_poly(rng, ring, max_degree=2, max_terms=3)
        g = random_poly(rng, ring, max_degree=2, max_terms=3)
        mono = tuple(rng.randint(0, 1) for _ in range(3))
        u = Poly(ring, {mono: ring.domain.one})
        lhs = multivariate_gcd(u * f, u * g)
        rhs = (u * multivariate_gcd(f, g)).monic()
        assert lhs == rhs


def test_gcd_over_prime_field():
    ring = Ring.flat(2, GF(5))
    f = parse_poly("x1^2 + 4*x2^2", ring)  # (x1 + x2)(x1 + 4*x2) mod 5
    g = parse_poly("x1 + x2", ring)
    assert multivariate_gcd(f, g) == g


def test_exact_divide_raises_on_nondivisible():
    ring = Ring.flat(2, QQ)
    with pytest.raises(GroebnerError):
        exact_divide(parse_poly("x1^2 + x2", ring), parse_poly("x1 + x2", ring))


# multipliers of M_1 for x1*x2, x1*x3: x1, x2, x3 for f, then for g; the true
# kernel is (x3, x2).  u = x1+x2+x3 does not divide g; u = x1 gives g/u = x3,
# which does not divide f.  Over either field the u-part of the kernel, the
# last row of the elimination's tag columns, is fed to the cofactor step.
@pytest.mark.parametrize("dom", [GF(7), QQ], ids=lambda d: d.name)
@pytest.mark.parametrize("vector", [[1] * 6, [1, 0, 0, 0, 0, 0]])
def test_a_wrong_kernel_raises_instead_of_returning_a_gcd(monkeypatch, dom, vector):
    rows = []
    divide_out = polygcd._divide_out

    def wrong_row(f, g, row, *args):
        rows.append(list(row))
        return divide_out(f, g, vector[:3], *args)

    monkeypatch.setattr(polygcd, "_divide_out", wrong_row)
    ring = Ring.flat(3, dom)
    with pytest.raises(GroebnerError):
        multivariate_gcd(parse_poly("x1*x2", ring), parse_poly("x1*x3", ring))
    # the true row is x3 up to a unit
    assert [[bool(c) for c in row] for row in rows] == [[False, False, True]]
