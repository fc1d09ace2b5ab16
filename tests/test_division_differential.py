"""The heap-driven division kernel against a plain max-driven reference."""

import random

import pytest

from formstrength.domains import GF, QQ
from formstrength.groebner import (
    GroebnerBasis,
    GroebnerError,
    exact_divide,
    groebner_basis,
    normal_form,
)
from formstrength.orders import DEGREVLEX, LEX, KeyWidthError
from formstrength.poly import Poly, Ring

from conftest import random_poly

ORDERS = [DEGREVLEX, LEX]
FIELDS = [GF(32003), QQ]


def _reference_divide(f, divisors, order, exact=False):
    """Division with the leading term found by max() at every step; each
    lead goes to the first divisor whose lead divides it.  Returns the
    remainder and, for one divisor, the quotient."""
    dom = f.ring.domain
    zero = dom.zero
    work = dict(f.terms)
    remainder, quotient = {}, {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for g in divisors:
            lm = max(g.terms, key=order.key)
            if all(x <= y for x, y in zip(lm, m)):
                coef = dom.div(c, g.terms[lm])
                q = tuple(x - y for x, y in zip(m, lm))
                quotient[q] = coef
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    mm = tuple(x + y for x, y in zip(gm, q))
                    s = dom.sub(work.get(mm, zero), dom.mul(coef, gc))
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            if exact:
                raise GroebnerError("not divisible")
            remainder[m] = c
    return remainder, quotient


def _cases(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        dom = FIELDS[k % 2]
        order = ORDERS[(k // 2) % len(ORDERS)]
        ring = Ring.flat(rng.randint(2, 4), dom)
        yield rng, ring, order


def test_normal_form_matches_reference_on_reduced_bases():
    for rng, ring, order in _cases(7001, 60):
        gens = [random_poly(rng, ring, max_degree=3) for _ in range(rng.randint(1, 3))]
        basis = groebner_basis(gens, order)
        for _ in range(3):
            f = random_poly(rng, ring, max_degree=4, max_terms=6)
            expected, _ = _reference_divide(f, basis.elements, order)
            assert normal_form(f, basis).terms == expected
        # members cancel to zero on both sides
        member = Poly(ring, {})
        for g in gens:
            member = member + random_poly(rng, ring, max_degree=2) * g
        assert _reference_divide(member, basis.elements, order)[0] == {}
        assert normal_form(member, basis).terms == {}


def test_normal_form_matches_reference_on_arbitrary_divisor_lists():
    # not Groebner bases and not monic: the remainder depends on which
    # divisor takes each lead, and both sides take the first that divides
    for rng, ring, order in _cases(7002, 60):
        divisors = [random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(rng.randint(1, 4))]
        basis = GroebnerBasis(ring, order, divisors)
        for _ in range(3):
            f = random_poly(rng, ring, max_degree=4, max_terms=6)
            expected, _ = _reference_divide(f, divisors, order)
            assert normal_form(f, basis).terms == expected


def test_exact_divide_matches_reference():
    for rng, ring, order in _cases(7003, 60):
        g = random_poly(rng, ring, max_degree=2, max_terms=3)
        h = random_poly(rng, ring, max_degree=3, max_terms=4)
        f = g * h
        _, expected = _reference_divide(f, [g], order, exact=True)
        quotient = exact_divide(f, g)
        assert quotient.terms == expected
        assert quotient == h
        assert exact_divide(Poly(ring, {}), g).terms == {}


def test_exact_divide_with_cancelling_product():
    # (x1 - x2)(x1 + x2) = x1^2 - x2^2: the cross terms cancel in the product
    for dom in FIELDS:
        ring = Ring.flat(2, dom)
        one, neg = dom.one, dom.from_int(-1)
        g = Poly(ring, {(1, 0): one, (0, 1): neg})
        h = Poly(ring, {(1, 0): one, (0, 1): one})
        f = g * h
        assert len(f.terms) == 2
        for order in ORDERS:
            assert exact_divide(f, g) == h


def test_exact_divide_refuses_like_reference():
    for rng, ring, order in _cases(7004, 40):
        g = random_poly(rng, ring, max_degree=2, max_terms=3)
        if g.is_constant():
            continue
        f = g * random_poly(rng, ring, max_degree=2) + random_poly(rng, ring, max_degree=1, max_terms=1)
        try:
            _, expected = _reference_divide(f, [g], order, exact=True)
        except GroebnerError:
            with pytest.raises(GroebnerError):
                exact_divide(f, g)
        else:
            assert exact_divide(f, g).terms == expected


def test_exponent_overflow_in_division_raises():
    # under lex, x1 reduces to x2^20000, so x1^2 reduces to x2^40000:
    # past the key limit, although every input exponent is within it
    ring = Ring.flat(2, GF(32003))
    one = ring.domain.one
    g = Poly(ring, {(1, 0): one, (0, 20000): ring.domain.from_int(-1)})
    basis = GroebnerBasis(ring, LEX, [g])
    assert normal_form(Poly(ring, {(1, 0): one}), basis).terms == {(0, 20000): one}
    with pytest.raises(KeyWidthError):
        normal_form(Poly(ring, {(2, 0): one}), basis)
