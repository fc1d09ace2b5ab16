"""Cross-check the Buchberger engine against an independent implementation."""

import random

import pytest

sympy = pytest.importorskip("sympy")

import formstrength.groebner as groebner
from formstrength.domains import GF, QQ
from formstrength.groebner import Ideal, groebner_basis, ideal_intersection, ideal_quotient
from formstrength.poly import Ring

from conftest import dense_form, random_homogeneous, random_poly


def _to_sympy(f, xs):
    expr = sympy.Integer(0)
    for mono, c in f.terms.items():
        term = sympy.Rational(c)
        for i, e in enumerate(mono):
            if e:
                term *= xs[i] ** e
        expr += term
    return expr


def _monic_strings(exprs, xs):
    out = []
    for e in exprs:
        p = sympy.Poly(e, *xs)
        out.append(str(sympy.expand(e / p.coeffs()[0])))
    return sorted(out)


def test_reduced_bases_match_sympy():
    rng = random.Random(12345)
    for _ in range(25):
        n = rng.randint(2, 3)
        ring = Ring.flat(n, QQ)
        gens = [random_poly(rng, ring, max_degree=2) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g.terms]
        if not gens:
            continue
        xs = sympy.symbols(f"x1:{n + 1}")
        mine = groebner_basis(gens)
        theirs = sympy.groebner([_to_sympy(g, xs) for g in gens], *xs, order="grevlex")
        assert _monic_strings([_to_sympy(g, xs) for g in mine.elements], xs) == _monic_strings(
            list(theirs.exprs), xs
        )


def _system(rng, kind, ring):
    """Generators of one of the shapes the Hilbert-driven pair criterion
    sees, or (r > n, inhomogeneous) must stay off for."""
    n = ring.nvars

    def forms(count, max_terms=4):
        return [random_homogeneous(rng, ring, rng.randint(1, 3), max_terms) for _ in range(count)]

    def dense(count, tails=False):
        # the criterion drops pairs where a degree has several, and dense
        # forms of degree 2 and 3 give it many
        return [dense_form(rng, ring, rng.randint(2, 3), tails) for _ in range(count)]

    if kind == "regular":
        return dense(rng.randint(2, n))
    if kind == "planted":
        g = random_homogeneous(rng, ring, rng.randint(1, 2), 3)
        return [g * f for f in forms(rng.randint(2, n))]
    if kind == "repeated":
        fs = forms(rng.randint(1, n - 1))
        return fs + [fs[0]]
    if kind == "monomial":
        return [random_homogeneous(rng, ring, rng.randint(1, 4), 1) for _ in range(rng.randint(1, n + 1))]
    if kind == "artinian":
        return dense(n)
    if kind == "inhomogeneous":
        return dense(rng.randint(2, min(n, 3)), tails=True)
    assert kind == "overdetermined"
    return forms(n + rng.randint(1, 2))


def _sympy_poly(expr, xs, modulus):
    p = sympy.Poly(expr, *xs, modulus=modulus) if modulus else sympy.Poly(expr, *xs, domain="QQ")
    return p.monic()


KINDS = ["regular", "planted", "repeated", "monomial", "artinian", "overdetermined", "inhomogeneous"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("domain", [QQ, GF(7), GF(32003)], ids=["q", "f7", "f32003"])
def test_bases_around_the_hilbert_criterion_match_sympy(monkeypatch, kind, domain):
    fired = []
    prune = groebner._HilbertBound.__call__
    monkeypatch.setattr(groebner._HilbertBound, "__call__", lambda self, *a: fired.append(prune(self, *a)) or fired[-1])
    rng = random.Random(f"{kind}:{domain.name}")
    p = domain.characteristic
    for _ in range(8):
        n = rng.randint(2, 4)
        ring = Ring.flat(n, domain)
        gens = _system(rng, kind, ring)
        xs = sympy.symbols(f"x1:{n + 1}")
        mine = [_sympy_poly(_to_sympy(g, xs), xs, p) for g in groebner_basis(gens)]
        theirs = sympy.groebner([_to_sympy(g, xs) for g in gens], *xs, order="grevlex", modulus=p or None)
        theirs = [_sympy_poly(e, xs, p) for e in theirs.exprs]
        assert sorted(map(str, mine)) == sorted(map(str, theirs)), [str(g) for g in gens]
    # the criterion runs for r <= n forms only, and drops pairs on these inputs
    if kind in ("overdetermined", "inhomogeneous"):
        assert not fired
    elif kind in ("regular", "artinian"):
        assert any(fired)



def _intersection_case(rng, kind, ring):
    """(I, J), generator lists of one of the shapes ``ideal_intersection``
    meets; J[0] is also the quotient's divisor."""

    def forms(count, degree=None, max_terms=3):
        return [random_homogeneous(rng, ring, degree or rng.randint(1, 2), max_terms) for _ in range(count)]

    if kind == "regular":
        return forms(rng.randint(1, 2)), forms(rng.randint(1, 2))
    if kind == "planted":
        # a common factor g makes g·h a zerodivisor modulo I
        g = forms(1, 1)[0]
        return [g * h for h in forms(rng.randint(1, 2), 1)], [g * forms(1, 1)[0]]
    if kind == "contained":
        I = forms(rng.randint(1, 2))
        return I, [I[0] * forms(1, 1)[0]]
    if kind == "equal":
        I = forms(rng.randint(1, 2))
        return I, I[::-1]
    if kind == "unit":
        return forms(rng.randint(1, 2)), [ring.one()]
    if kind == "zero":
        return forms(rng.randint(1, 2)), []
    if kind == "inhomogeneous":
        # a common factor, with a constant term now and then, in every
        # generator: I ∩ J is more than I·J, and it is found after
        # homogenizing
        g = random_poly(rng, ring, max_degree=1, max_terms=3)
        tails = [random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(rng.randint(2, 3))]
        return [g * h for h in tails[1:]], [g * tails[0]]
    assert kind == "monomial"
    return forms(rng.randint(1, 3), max_terms=1), forms(rng.randint(1, 2), max_terms=1)


def _sympy_poly_in(expr, xs, modulus):
    return sympy.Poly(expr, *xs, modulus=modulus) if modulus else sympy.Poly(expr, *xs, domain="QQ")


def _sympy_intersection(I, J, xs, p):
    """The t-free elements of sympy's lex basis of t·I + (1 - t)·J."""
    if not I or not J:
        return []
    t = sympy.Symbol("t")
    gens = [t * _to_sympy(f, xs) for f in I] + [(1 - t) * _to_sympy(g, xs) for g in J]
    basis = sympy.groebner(gens, t, *xs, order="lex", modulus=p or None)
    return [e for e in basis.exprs if not e.has(t)]


def _reduced_grevlex(exprs, xs, p):
    if not exprs:
        return []
    basis = sympy.groebner(exprs, *xs, order="grevlex", modulus=p or None)
    return sorted(str(_sympy_poly(e, xs, p)) for e in basis.exprs)


INTERSECTION_KINDS = ["regular", "planted", "contained", "equal", "unit", "zero", "monomial", "inhomogeneous"]


@pytest.mark.parametrize("kind", INTERSECTION_KINDS)
@pytest.mark.parametrize("domain", [QQ, GF(7), GF(32003)], ids=["q", "f7", "f32003"])
def test_intersections_and_quotients_match_sympy_elimination(kind, domain):
    rng = random.Random(f"intersect:{kind}:{domain.name}")
    p = domain.characteristic
    for _ in range(5):
        n = rng.randint(2, 3)
        ring = Ring.flat(n, domain)
        xs = sympy.symbols(f"x1:{n + 1}")
        I, J = _intersection_case(rng, kind, ring)
        expected = _reduced_grevlex(_sympy_intersection(I, J, xs, p), xs, p)
        mine = ideal_intersection(Ideal(ring, I), Ideal(ring, J)).gens
        # the generators are the reduced basis itself
        assert sorted(str(_sympy_poly(_to_sympy(g, xs), xs, p)) for g in mine) == expected, (I, J)
        if not J:
            with pytest.raises(ValueError):
                ideal_quotient(Ideal(ring, I), ring.zero())
            continue
        f = _sympy_poly_in(_to_sympy(J[0], xs), xs, p)
        multiples = _sympy_intersection(I, J[:1], xs, p)
        expected_quotient = _reduced_grevlex([_sympy_poly_in(e, xs, p).exquo(f).as_expr() for e in multiples], xs, p)
        quotient = ideal_quotient(Ideal(ring, I), J[0]).gens
        assert _reduced_grevlex([_to_sympy(g, xs) for g in quotient], xs, p) == expected_quotient, (I, J[0])


@pytest.mark.parametrize("kind", ["planted", "contained"])
@pytest.mark.parametrize("domain", [QQ, GF(7), GF(32003)], ids=["q", "f7", "f32003"])
def test_an_intersection_without_its_kernel_step_fails(monkeypatch, kind, domain):
    # here I ∩ J is larger than I·J, so the basis of the products alone falls
    # short of sympy's intersection; the kernel step supplies the rest, and
    # a mutant whose kernel step adds nothing is refused, never returned
    rng = random.Random(f"intersect:{kind}:{domain.name}")
    p = domain.characteristic
    steps = []
    meet = groebner._meet_in_degree
    monkeypatch.setattr(groebner, "_meet_in_degree", lambda *a: steps.append(a[2]) or meet(*a))
    short = 0
    for _ in range(5):
        n = rng.randint(2, 3)
        ring = Ring.flat(n, domain)
        xs = sympy.symbols(f"x1:{n + 1}")
        I, J = _intersection_case(rng, kind, ring)
        expected = _reduced_grevlex(_sympy_intersection(I, J, xs, p), xs, p)
        products = groebner_basis([f * g for f in I for g in J])
        if sorted(str(_sympy_poly(_to_sympy(g, xs), xs, p)) for g in products) == expected:
            continue
        short += 1
        steps.clear()
        mine = ideal_intersection(Ideal(ring, I), Ideal(ring, J)).gens
        assert sorted(str(_sympy_poly(_to_sympy(g, xs), xs, p)) for g in mine) == expected, (I, J)
        assert steps
        with monkeypatch.context() as mutant:
            mutant.setattr(groebner, "_meet_in_degree", lambda *a: [])
            with pytest.raises(groebner.GroebnerError, match="kernel"):
                ideal_intersection(Ideal(ring, I), Ideal(ring, J))
    assert short
