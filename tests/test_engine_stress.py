"""Stress the engine kernels against slow but obviously-correct references."""

import random
from itertools import combinations

from formstrength.domains import GF
from formstrength.groebner import (
    Ideal,
    groebner_basis,
    ideal_intersection,
    ideal_quotient,
    normal_form,
)
from formstrength.orders import DEGREVLEX
from formstrength.poly import Poly, Ring, mono_divides, mono_mul

from conftest import mono_div, random_homogeneous, random_poly, spolynomial


def _naive_reduce(f, basis, order):
    """One full division pass with no strategy at all."""
    rem = f
    changed = True
    while changed and rem.terms:
        changed = False
        for g in basis:
            lm = g.leading_monomial(order)
            lc = g.terms[lm]
            for m in sorted(rem.terms, key=order.key, reverse=True):
                if mono_divides(lm, m):
                    c = rem.ring.domain.div(rem.terms[m], lc)
                    shift = mono_div(m, lm)
                    shifted = Poly(
                        rem.ring,
                        {
                            mono_mul(gm, shift): rem.ring.domain.mul(gc, c)
                            for gm, gc in g.terms.items()
                        },
                        _clean=False,
                    )
                    rem = rem - shifted
                    changed = True
                    break
            if changed:
                break
    return rem


def _naive_buchberger(gens, order=DEGREVLEX):
    """Textbook Buchberger with no pair criteria: every pair is processed."""
    basis = [g.monic(order) for g in gens if g.terms]
    pairs = list(combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop(0)
        rem = _naive_reduce(spolynomial(basis[i], basis[j], order), basis, order)
        if rem.terms:
            t = len(basis)
            basis.append(rem.monic(order))
            pairs.extend((k, t) for k in range(t))
    return basis


def test_criteria_pruning_agrees_with_naive_buchberger():
    rng = random.Random(31337)
    for _ in range(20):
        n = rng.randint(2, 3)
        ring = Ring.flat(n, GF(7))
        gens = [random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if g.terms]
        if not gens:
            continue
        fast = groebner_basis(gens)
        naive = _naive_buchberger(gens)
        # same ideal: the reduced basis of the naive output must be identical
        assert groebner_basis(naive).elements == fast.elements


def test_quotient_matches_definition_on_random_candidates():
    rng = random.Random(424242)
    ring = Ring.flat(3, GF(7))
    for _ in range(12):
        gens = [random_homogeneous(rng, ring, rng.randint(1, 2)) for _ in range(2)]
        ideal = Ideal(ring, gens)
        f = random_homogeneous(rng, ring, rng.randint(1, 2))
        quotient = ideal_quotient(ideal, f)
        basis = ideal.groebner()
        for _ in range(20):
            g = random_poly(rng, ring, max_degree=2, max_terms=3)
            in_quotient = quotient.contains(g)
            definition = normal_form(g * f, basis).is_zero()
            assert in_quotient == definition


def test_intersection_matches_definition_on_random_candidates():
    rng = random.Random(777)
    ring = Ring.flat(3, GF(7))
    for _ in range(12):
        a = Ideal(ring, [random_homogeneous(rng, ring, rng.randint(1, 2)) for _ in range(2)])
        b = Ideal(ring, [random_homogeneous(rng, ring, rng.randint(1, 2)) for _ in range(2)])
        inter = ideal_intersection(a, b)
        for g in inter.gens:
            assert a.contains(g) and b.contains(g)
        for _ in range(20):
            g = random_poly(rng, ring, max_degree=3, max_terms=3)
            assert inter.contains(g) == (a.contains(g) and b.contains(g))
