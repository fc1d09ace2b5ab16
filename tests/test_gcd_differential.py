"""The multiplier-matrix gcd against the recursive primitive PRS it replaced,
kept below as the reference, over small and large prime fields and Q."""

import random

import pytest

import formstrength.polygcd as polygcd
from formstrength.domains import GF, QQ
from formstrength.groebner import exact_divide
from formstrength.parse import parse_poly
from formstrength.poly import Poly, Ring
from formstrength.polygcd import multivariate_gcd

from conftest import random_poly

FIELDS = [GF(3), GF(7), GF(32003), QQ]


# ---------------------------------------------------------------------------
# reference: primitive pseudo-remainder sequences, recursing on the
# lowest-index variable the inputs share


def _deg_in(f, v):
    if not f.terms:
        return -1
    return max(m[v] for m in f.terms)


def _coeff_in(f, v, k):
    """Coefficient of v^k, as a polynomial not involving v."""
    terms = {}
    for m, c in f.terms.items():
        if m[v] == k:
            mm = list(m)
            mm[v] = 0
            terms[tuple(mm)] = c
    return Poly(f.ring, terms)


def _var_power(ring, v, k):
    mono = tuple(k if i == v else 0 for i in range(ring.nvars))
    return Poly(ring, {mono: ring.domain.one})


def _pseudo_rem(F, G, v):
    dg = _deg_in(G, v)
    lg = _coeff_in(G, v, dg)
    R = F
    while R.terms and _deg_in(R, v) >= dg:
        dr = _deg_in(R, v)
        lr = _coeff_in(R, v, dr)
        R = lg * R - lr * _var_power(F.ring, v, dr - dg) * G
    return R


def _content(f, v):
    """Monic gcd of the univariate coefficients of f with respect to v."""
    coeffs = [_coeff_in(f, v, k) for k in range(_deg_in(f, v) + 1)]
    coeffs = [c for c in coeffs if c.terms]
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_constant():
            break
        g = _ref_gcd(g, c)
    return g.monic()


def _primitive_part(f, v):
    if not f.terms:
        return f
    cont = _content(f, v)
    if cont.is_constant():
        return f
    return exact_divide(f, cont)


def _ref_gcd(f, g):
    if not f.terms:
        return g
    if not g.terms:
        return f
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    common = set(f.variables()) & set(g.variables())
    if not common:
        return f.ring.one()
    v = min(common)
    c = _ref_gcd(_content(f, v), _content(g, v))
    F = _primitive_part(f, v)
    G = _primitive_part(g, v)
    if _deg_in(F, v) < _deg_in(G, v):
        F, G = G, F
    while G.terms:
        R = _pseudo_rem(F, G, v)
        F, G = G, _primitive_part(R, v)
    return c * F


def reference_gcd(f, g):
    return _ref_gcd(f, g).monic()


# ---------------------------------------------------------------------------


def _monomial(ring, exps):
    return Poly(ring, {tuple(exps): ring.domain.one})


def _cases(rng, ring):
    """Input pairs of every shape the gcd has to handle."""
    n = ring.nvars
    x1, x2 = ring.var(0), ring.var(1)
    yield ring.zero(), ring.zero()
    yield random_poly(rng, ring), ring.zero()
    yield ring.zero(), random_poly(rng, ring)
    yield ring.const(ring.domain.from_int(2)), random_poly(rng, ring)
    yield random_poly(rng, ring), ring.one()
    for d in range(1, 5):
        yield x1 ** d, x2 ** d
        yield x1 ** d, x1 ** rng.randint(1, 4) * x2
    for forms in (True, False):

        def draw():
            if forms:
                return random_poly(rng, ring, max_terms=3, homogeneous=True, degree=rng.randint(1, 2))
            return random_poly(rng, ring, max_degree=2, max_terms=3)

        for _ in range(6):
            u, f, g = draw(), draw(), draw()
            yield u * f, u * g  # planted common factor
            yield f, f * g  # one input divides the other
            yield u * g, g
            mono = _monomial(ring, [rng.randint(0, 2) for _ in range(n)])
            yield mono * f, mono * g  # monomial factor
            yield f, g


@pytest.mark.parametrize("dom", FIELDS, ids=lambda d: d.name)
def test_gcd_matches_the_prs_reference(dom):
    rng = random.Random(2024 + (dom.characteristic or 1))
    for n in (2, 3):
        ring = Ring.flat(n, dom)
        for f, g in _cases(rng, ring):
            expected = reference_gcd(f, g)
            assert multivariate_gcd(f, g) == expected, (str(f), str(g))
            assert multivariate_gcd(g, f) == expected, (str(g), str(f))


def _counting_kernels(monkeypatch):
    calls = []
    original = polygcd.kernel_basis

    def kernel_basis(m, dom):
        calls.append(m)
        return original(m, dom)

    monkeypatch.setattr(polygcd, "kernel_basis", kernel_basis)
    return calls


def test_q_degree_bound_steps_down_when_the_bound_prime_overestimates(monkeypatch):
    monkeypatch.setattr(polygcd, "_BOUND_PRIME", 5)
    calls = _counting_kernels(monkeypatch)
    ring = Ring.flat(2, QQ)
    f = parse_poly("x1^2 + 5*x2^2", ring)
    g = parse_poly("x1*x2 + 5*x2^2", ring)  # mod 5 both are multiples of x1
    assert multivariate_gcd(f, g) == ring.one()
    assert len(calls) == 1  # j = 1 gave a zero kernel over Q
    h = parse_poly("x1 - 3*x2", ring)
    del calls[:]
    assert multivariate_gcd(h * f, h * g) == h
    assert len(calls) == 2  # bound 2 mod 5, true degree 1
    assert multivariate_gcd(h * f, h * g) == reference_gcd(h * f, h * g)
