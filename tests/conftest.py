import random
from types import SimpleNamespace

import pytest

from formstrength.domains import GF, QQ
from formstrength.groebner import Ideal, codimension, ideal_intersection
from formstrength.minors import GenericMatrix, maximal_minors
from formstrength.poly import Poly
from formstrength.quadratic import combine, jacobian_minor_ideal, minrank_bruteforce, minrank_formula


def random_poly(rng, ring, max_degree=3, max_terms=4, homogeneous=False, degree=None):
    """Random nonzero polynomial with small coefficients."""
    dom = ring.domain
    n = ring.nvars
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            d = degree if degree is not None else rng.randint(0 if not homogeneous else 1, max_degree)
            mono = [0] * n
            for _ in range(d):
                mono[rng.randrange(n)] += 1
            if dom.characteristic:
                c = dom.from_int(rng.randrange(1, dom.characteristic))
            else:
                c = dom.from_int(rng.randint(-3, 3))
            if c:
                terms[tuple(mono)] = c
        f = Poly(ring, terms)
        if f.terms:
            return f


def random_homogeneous(rng, ring, degree, max_terms=4):
    return random_poly(rng, ring, homogeneous=True, degree=degree, max_terms=max_terms)


def coordinate_ideals(dp):
    """One ideal per distinct ratio b_i/a_i of a diagonal pair, in the order
    of dp.alphas: the ideal of the variables whose ratio differs."""
    ring = dp.ring()
    return [
        Ideal(ring, [ring.var(i) for i, r in enumerate(dp.ratios) if r != alpha])
        for alpha in dp.alphas
    ]


def minrank_identity(dp, prime=101):
    """The minrank identity of a diagonal pair, four ways: the Jacobian-minor
    ideal J equals the intersection of the coordinate ideals (mutual
    containment), codim J and the brute-force scan over F_prime (over the
    pair's own field when it is finite) equal the formula n - lambda_max,
    and the formula's witness combination has that rank."""
    jac = jacobian_minor_ideal(dp)
    comps = coordinate_ideals(dp)
    inter = comps[0]
    for c in comps[1:]:
        inter = ideal_intersection(inter, c)
    formula = minrank_formula(dp).value
    image = dp if dp.domain.characteristic else dp.reduce_mod(prime)
    q1, q2 = image.forms()
    report = SimpleNamespace(
        intersection_matches=jac.equals(inter),
        jacobian_codim=codimension(jac),
        formula_value=formula,
        bruteforce_value=minrank_bruteforce(q1, q2).value,
        witness_rank_ok=combine((q1, q2), minrank_formula(image).witness).rank() == formula,
    )
    report.passed = (
        report.intersection_matches
        and report.jacobian_codim == formula
        and report.bruteforce_value == formula
        and report.witness_rank_ok
    )
    return report


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def family_3x2_q():
    return maximal_minors(GenericMatrix(3, 2, QQ))


@pytest.fixture(scope="session")
def family_4x3_q():
    return maximal_minors(GenericMatrix(4, 3, QQ))


@pytest.fixture(scope="session")
def family_4x3_f7():
    return maximal_minors(GenericMatrix(4, 3, GF(7)))
