"""The coded brute-force strength oracle against a plain term-dict search."""

import random
from itertools import product

import pytest

from formstrength.domains import GF
from formstrength.poly import Poly, Ring
from formstrength.strength import _quadric_codes, strength_bruteforce_small


def _quadratic_monomials(n):
    out = []
    for i in range(n):
        for j in range(i, n):
            mono = [0] * n
            mono[i] += 1
            mono[j] += 1
            out.append(tuple(mono))
    return out


def _all_quadrics(ring):
    monos = _quadratic_monomials(ring.nvars)
    for coeffs in product(range(ring.domain.p), repeat=len(monos)):
        yield Poly(ring, {m: c for m, c in zip(monos, coeffs) if c})


def _key(terms):
    return tuple(sorted(terms.items()))


def _add_terms(a, b, p, sign=1):
    out = dict(a)
    for mono, c in b.items():
        s = (out.get(mono, 0) + sign * c) % p
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


class _Reference:
    """Term-dict products scalar * l1 * l2 of all nonzero linear forms;
    strength 1 subtracts one product and looks the rest up among the
    products, strength 2 subtracts one and looks the rest up among every
    sum of at most two products."""

    def __init__(self, ring):
        p = ring.domain.p
        n = ring.nvars
        vectors = [v for v in product(range(p), repeat=n) if any(v)]
        self.p = p
        self.products = []
        self.product_keys = set()
        for u in vectors:
            for v in vectors:
                terms = {}
                for i in range(n):
                    for j in range(n):
                        mono = [0] * n
                        mono[i] += 1
                        mono[j] += 1
                        mono = tuple(mono)
                        terms[mono] = (terms.get(mono, 0) + u[i] * v[j]) % p
                terms = {m: c for m, c in terms.items() if c}
                key = _key(terms)
                if key not in self.product_keys:
                    self.product_keys.add(key)
                    self.products.append(terms)
        self._le_one = None

    def le_one(self):
        if self._le_one is None:
            self._le_one = set(self.product_keys) | {()}
            for a in self.products:
                for b in self.products:
                    self._le_one.add(_key(_add_terms(a, b, self.p)))
        return self._le_one

    def strength(self, f, s_max):
        key = _key(f.terms)
        if not key:
            return -1
        if key in self.product_keys:
            return 0
        if s_max < 1:
            return None
        rests = [_key(_add_terms(f.terms, q, self.p, sign=-1)) for q in self.products]
        if any(rest in self.product_keys for rest in rests):
            return 1
        if s_max < 2:
            return None
        le_one = self.le_one()
        if any(rest in le_one for rest in rests):
            return 2
        return None


@pytest.mark.parametrize(
    "p, n, s_maxes",
    [(3, 1, (0, 1, 2)), (3, 2, (0, 1, 2)), (3, 3, (0, 1, 2)), (5, 2, (0, 1))],
)
def test_oracle_equals_reference_exhaustively(p, n, s_maxes):
    ring = Ring.flat(n, GF(p))
    reference = _Reference(ring)
    assert len(_quadric_codes(p, n).products) == len(reference.products)
    for f in _all_quadrics(ring):
        for s_max in s_maxes:
            assert strength_bruteforce_small(f, s_max=s_max) == reference.strength(f, s_max), (str(f), s_max)


def test_oracle_equals_reference_on_sampled_f5_ternary_forms():
    # three variables over F_5: codes of two base-125 chunks
    ring = Ring.flat(3, GF(5))
    reference = _Reference(ring)
    assert len(_quadric_codes(5, 3).products) == len(reference.products)
    rng = random.Random(5)
    forms = list(_all_quadrics(ring))
    for f in rng.sample(forms, 150):
        for s_max in (0, 1):
            assert strength_bruteforce_small(f, s_max=s_max) == reference.strength(f, s_max), (str(f), s_max)


def test_oracle_invariants_f3_four_variables():
    ring = Ring.flat(4, GF(3))
    codes = _quadric_codes(3, 4)
    assert len(codes.products) == 1640
    assert sum(codes.le_one()) == 42201
    histogram = {}
    for f in _all_quadrics(ring):
        s = strength_bruteforce_small(f, s_max=2)
        histogram[s] = histogram.get(s, 0) + 1
    assert histogram == {-1: 1, 0: 1640, 1: 40560, 2: 16848}
