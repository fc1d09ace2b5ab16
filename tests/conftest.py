import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from formstrength.domains import GF, QQ
from formstrength.groebner import Ideal, codimension, ideal_intersection
from formstrength.minors import GenericMatrix, maximal_minors
from formstrength.orders import DEGREVLEX
from formstrength.poly import Poly, Ring, mono_lcm
from formstrength.quadratic import (
    QuadraticForm,
    combine,
    diagonal_pair_mod,
    jacobian_minor_ideal,
    minrank_bruteforce,
    minrank_formula,
)


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


def mono_div(a, b):
    """Quotient a / b of two monomials, b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def spolynomial(f, g, order=DEGREVLEX):
    """S-polynomial of two nonzero polynomials, from their monic forms; the
    tests check a basis by reducing every one of its S-polynomials to 0."""
    fm = f.monic(order)
    gm = g.monic(order)
    lmf = fm.leading_monomial(order)
    lmg = gm.leading_monomial(order)
    l = mono_lcm(lmf, lmg)
    one = f.ring.domain.one
    qf = Poly(f.ring, {mono_div(l, lmf): one}, _clean=False)
    qg = Poly(f.ring, {mono_div(l, lmg): one}, _clean=False)
    return qf * fm - qg * gm


def diagonal_pair(a, b, domain=QQ):
    """The pair of diagonal forms with diagonals a and b, in len(a)
    variables x1..xn."""
    ring = Ring.flat(len(a), domain)
    return QuadraticForm.diagonal(ring, a), QuadraticForm.diagonal(ring, b)


def pencil_ratios(f1, f2):
    """The ratios b_i/a_i of a diagonal pair, in variable order."""
    dom = f1.domain
    return [dom.div(f2.gram[i][i], f1.gram[i][i]) for i in range(f1.n)]


def block_sizes(f1, f2):
    """How often each distinct ratio of a diagonal pair occurs, in order of
    first appearance."""
    ratios = pencil_ratios(f1, f2)
    return [ratios.count(alpha) for alpha in dict.fromkeys(ratios)]


def ratio_jacobian_ideal(f1, f2):
    """Reference Jacobian-minor ideal of a diagonal pair, from its ratios:
    (b_j/a_j - b_i/a_i) x_i x_j over all i < j, vanishing ones omitted."""
    ring = f1.ring
    dom = ring.domain
    ratios = pencil_ratios(f1, f2)
    gens = []
    for i in range(f1.n):
        for j in range(i + 1, f1.n):
            diff = dom.sub(ratios[j], ratios[i])
            if diff:
                mono = tuple(1 if k in (i, j) else 0 for k in range(f1.n))
                gens.append(Poly(ring, {mono: diff}))
    return Ideal(ring, gens)


def coordinate_ideals(f1, f2):
    """One ideal per distinct ratio b_i/a_i of a diagonal pair, in order of
    first appearance: the ideal of the variables whose ratio differs."""
    ring = f1.ring
    ratios = pencil_ratios(f1, f2)
    return [
        Ideal(ring, [ring.var(i) for i, r in enumerate(ratios) if r != alpha])
        for alpha in dict.fromkeys(ratios)
    ]


def minrank_identity(f1, f2, prime=101):
    """The minrank identity of a diagonal pair, four ways: the Jacobian-minor
    ideal J equals the intersection of the coordinate ideals (mutual
    containment), codim J and the brute-force scan over F_prime (over the
    pair's own field when it is finite) equal the formula n - lambda_max,
    and the formula's witness combination has that rank."""
    jac = jacobian_minor_ideal(f1, f2)
    comps = coordinate_ideals(f1, f2)
    inter = comps[0]
    for c in comps[1:]:
        inter = ideal_intersection(inter, c)
    formula = minrank_formula(f1, f2).value
    q1, q2 = (f1, f2) if f1.domain.characteristic else diagonal_pair_mod(f1, f2, prime)
    report = SimpleNamespace(
        intersection_matches=jac.equals(inter),
        jacobian_codim=codimension(jac),
        formula_value=formula,
        bruteforce_value=minrank_bruteforce(q1, q2).value,
        witness_rank_ok=combine((q1, q2), minrank_formula(q1, q2).witness).rank() == formula,
    )
    report.passed = (
        report.intersection_matches
        and report.jacobian_codim == formula
        and report.bruteforce_value == formula
        and report.witness_rank_ok
    )
    return report


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """The benchmark's tracer module, ``perfbench/tracing.py``, loaded from
    its file (``perfbench`` is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
