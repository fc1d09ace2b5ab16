"""``QuadraticForm.from_poly`` agrees with a reference that accumulates every
term into the Gram matrix and builds the form through the checking
constructor: same matrix, same round trip, same refusals."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from formstrength.domains import GF, QQ
from formstrength.parse import parse_poly
from formstrength.poly import Poly, Ring
from formstrength.quadratic import QuadraticForm


def ref_from_poly(f):
    ring = f.ring
    dom = ring.domain
    n = ring.nvars
    half = dom.inv(dom.from_int(2))
    gram = [[dom.zero] * n for _ in range(n)]
    for m, c in f.terms.items():
        support = [(i, e) for i, e in enumerate(m) if e]
        if sum(e for _, e in support) != 2:
            raise ValueError("not a homogeneous quadratic form")
        if len(support) == 1:
            i = support[0][0]
            gram[i][i] = dom.add(gram[i][i], c)
        else:
            i, j = support[0][0], support[1][0]
            ch = dom.mul(c, half)
            gram[i][j] = dom.add(gram[i][j], ch)
            gram[j][i] = dom.add(gram[j][i], ch)
    return QuadraticForm(ring, gram)


def _monomials(n):
    out = []
    for i, j in combinations_with_replacement(range(n), 2):
        m = [0] * n
        m[i] += 1
        m[j] += 1
        out.append(tuple(m))
    return out


def _check(f):
    q = QuadraticForm.from_poly(f)
    assert q == ref_from_poly(f)
    assert q.to_poly() == f


def test_every_quadric_over_f3_in_three_variables():
    ring = Ring.flat(3, GF(3))
    monos = _monomials(3)
    for coeffs in product(range(3), repeat=len(monos)):
        _check(Poly(ring, dict(zip(monos, coeffs))))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("field", ["fp:32003", "q"])
def test_random_quadrics(n, field):
    rng = random.Random(f"{field}:{n}")
    dom = GF(32003) if field != "q" else QQ
    ring = Ring.flat(n, dom)
    monos = _monomials(n)
    for _ in range(40):
        terms = {}
        for m in monos:
            if rng.random() < 0.6:
                if dom is QQ:
                    terms[m] = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                else:
                    terms[m] = dom.from_int(rng.randrange(32003))
        _check(Poly(ring, terms))


@pytest.mark.parametrize("text", ["x1^3", "x1", "1", "x1*x2*x3", "x1^2 + x2"])
def test_refusals_match_the_reference(text):
    f = parse_poly(text, Ring.flat(3, QQ))
    with pytest.raises(ValueError) as ref:
        ref_from_poly(f)
    with pytest.raises(ValueError) as got:
        QuadraticForm.from_poly(f)
    assert str(got.value) == str(ref.value) == "not a homogeneous quadratic form"
