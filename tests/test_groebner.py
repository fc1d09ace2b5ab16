import random
from itertools import combinations, permutations, product

import pytest

import formstrength.groebner as groebner
from formstrength.domains import GF, QQ
from formstrength.groebner import (
    GroebnerBasis,
    Ideal,
    _add_shifted,
    _hilbert_numerator,
    _hilbert_value,
    _HilbertBound,
    codimension,
    dimension,
    groebner_basis,
    ideal_intersection,
    is_regular_sequence_codim,
    is_regular_sequence_direct,
    normal_form,
)
from formstrength.minors import GenericMatrix, maximal_minors
from formstrength.orders import DEGREVLEX, LEX, packing
from formstrength.parse import parse_poly
from formstrength.polygcd import regular_pair_gcd_check
from formstrength.poly import Poly, Ring, mono_divides

from conftest import contains, dense_form, random_homogeneous, random_poly, spolynomial


def test_coordinate_ideal_already_reduced():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    basis = groebner_basis([x, y])
    assert sorted(str(g) for g in basis) == ["x1", "x2"]


def test_lex_elimination_produces_the_twisted_cubic_relation():
    ring = Ring.flat(3, QQ)
    x, y, z = ring.gens()
    basis = groebner_basis([x * x - y, x * x * x - z], LEX)
    eliminant = parse_poly("x2^3 - x3^2", ring)
    # oracle: every basis element vanishes under x=t, y=t^2, z=t^3
    t_ring = Ring(1, QQ, names=("t",))
    t = t_ring.var(0)
    for g in basis:
        image = t_ring.zero()
        for mono, c in g.terms.items():
            term = t_ring.const(c) * t ** (mono[0] + 2 * mono[1] + 3 * mono[2])
            image = image + term
        assert not image.terms
    assert not normal_form(eliminant, basis).terms
    assert any(g == eliminant for g in basis)


def test_unit_ideal_basis():
    ring = Ring.flat(1, QQ)
    x = ring.var(0)
    basis = groebner_basis([x, x + ring.one()])
    assert basis.is_unit()
    assert [str(g) for g in basis] == ["1"]


def test_buchberger_idempotent():
    rng = random.Random(2)
    ring = Ring.flat(3, GF(7))
    gens = [random_poly(rng, ring, max_degree=2) for _ in range(3)]
    basis = groebner_basis(gens)
    again = groebner_basis(list(basis))
    assert basis == again


def test_every_spolynomial_reduces_to_zero():
    rng = random.Random(4)
    for _ in range(10):
        ring = Ring.flat(rng.randint(2, 3), GF(7))
        gens = [random_poly(rng, ring, max_degree=2) for _ in range(rng.randint(2, 3))]
        basis = groebner_basis(gens)
        for f, g in combinations(basis.elements, 2):
            s = spolynomial(f, g)
            assert not normal_form(s, basis).terms


def test_membership_of_random_combinations():
    rng = random.Random(6)
    ring = Ring.flat(3, GF(7))
    gens = [random_poly(rng, ring, max_degree=2) for _ in range(3)]
    basis = groebner_basis(gens)
    for _ in range(20):
        combo = ring.zero()
        for g in gens:
            combo = combo + random_poly(rng, ring, max_degree=1) * g
        assert not normal_form(combo, basis).terms
    # and a polynomial outside the ideal (degree too small to be a member)
    outside = ring.one()
    if not basis.is_unit():
        assert normal_form(outside, basis).terms


def test_reduced_basis_unique_across_presentations():
    rng = random.Random(8)
    ring = Ring.flat(3, QQ)
    for _ in range(10):
        f = random_poly(rng, ring, max_degree=2)
        g = random_poly(rng, ring, max_degree=2)
        h = random_poly(rng, ring, max_degree=2)
        b1 = groebner_basis([f, g, h])
        remixed = [f + g, g, h + f, f.scale(QQ(3))]
        b2 = groebner_basis(remixed)
        assert b1.elements == b2.elements


def test_normal_form_examples():
    ring = Ring.matrix(4, 3, QQ)
    pair = groebner_basis([ring.var(ring.entry_index(1, 1)), ring.var(ring.entry_index(1, 2))])
    mono = parse_poly("x1_1*x3_2*x4_3", ring)
    assert not normal_form(mono, pair).terms
    # a minor with no x1_1/x1_2 support passes through untouched
    delta1 = parse_poly(
        "x2_1*x3_2*x4_3 - x2_1*x3_3*x4_2 - x2_2*x3_1*x4_3"
        " + x2_2*x3_3*x4_1 + x2_3*x3_1*x4_2 - x2_3*x3_2*x4_1",
        ring,
    )
    assert normal_form(delta1, pair) == delta1
    empty = Ideal(ring, []).groebner()
    assert normal_form(delta1, empty) == delta1


def test_dimension_and_codimension_examples():
    ring = Ring.flat(3, QQ)
    x, y, z = ring.gens()
    assert codimension(Ideal(ring, [x, y])) == 2
    # V(xy, xz) = {x=0} u {y=z=0}: a plane union a line, so codim 1
    assert codimension(Ideal(ring, [x * y, x * z])) == 1
    assert dimension(Ideal(ring, [x * y, x * z])) == 2
    assert dimension(Ideal(ring, [])) == 3
    assert codimension(Ideal(ring, [])) == 0
    assert dimension(Ideal(ring, [ring.one()])) == -1


def _dimension_by_subsets(n, supports):
    """Krull dimension of R/I from the lead supports of I by trying every
    variable subset from size n down: the largest one containing no
    support."""
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if not any(s <= set(subset) for s in supports):
                return size
    return 0


def test_dimension_matches_the_subset_search_on_monomial_ideals():
    # the supports of a monomial ideal's generators decide its dimension,
    # with no Groebner basis in the oracle
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 8)
        ring = Ring.flat(n, GF(7))
        monos = [tuple(rng.randint(0, 2) if rng.random() < 0.35 else 0 for _ in range(n))
                 for _ in range(rng.randint(1, 6))]
        monos = [m for m in monos if any(m)] or [(1,) + (0,) * (n - 1)]
        supports = [frozenset(i for i, e in enumerate(m) if e) for m in monos]
        ideal = Ideal(ring, [Poly(ring, {m: 1}) for m in monos])
        assert dimension(ideal) == _dimension_by_subsets(n, supports)


def test_dimension_matches_the_subset_search_on_random_ideals():
    rng = random.Random(32)
    for _ in range(60):
        n = rng.randint(2, 6)
        ring = Ring.flat(n, GF(7))
        ideal = Ideal(ring, [random_homogeneous(rng, ring, rng.randint(1, 2), max_terms=2)
                             for _ in range(rng.randint(1, 4))])
        supports = [frozenset(i for i, e in enumerate(m) if e) for m in ideal.groebner().lead_monomials]
        assert dimension(ideal) == _dimension_by_subsets(n, supports)


def test_codimension_requires_homogeneous_input():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    with pytest.raises(ValueError):
        codimension(Ideal(ring, [x + ring.one()]))


def test_unit_ideal_codimension_convention():
    # constants are degree-0 homogeneous, so the unit ideal slips through
    # the homogeneity gate; dim -1 puts its codim at n + 1
    ring = Ring.flat(3, QQ)
    assert codimension(Ideal(ring, [ring.const(QQ(5))])) == 4


def test_codimension_order_independent():
    rng = random.Random(10)
    for _ in range(50):
        n = rng.randint(2, 4)
        ring = Ring.flat(n, GF(7))
        gens = [
            random_homogeneous(rng, ring, rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        ]
        # R/I and R/LT(I) have the same dimension under every order
        one = ring.domain.one
        lex_leads = groebner_basis(gens, LEX).lead_monomials
        lead_ideal = Ideal(ring, [Poly(ring, {m: one}) for m in lex_leads])
        assert codimension(Ideal(ring, gens)) == codimension(lead_ideal)


def test_minor_family_codimension(minors_4x3_f7):
    # the full maximal-minor ideal of the generic 4x3 matrix has codim 2
    assert codimension(Ideal(minors_4x3_f7[0].ring, minors_4x3_f7)) == 2


def test_spolynomial_certificate_on_minor_bases(minors_3x2_q, minors_4x3_f7):
    # the post-hoc Buchberger certificate also holds on the big bases
    for minors in (minors_3x2_q, minors_4x3_f7):
        basis = groebner_basis(minors)
        for f, g in combinations(basis.elements, 2):
            assert not normal_form(spolynomial(f, g), basis).terms


def _box_numerator(gens, n):
    """Brute-force Hilbert numerator of R/(gens), gens exponent tuples.

    Divisibility by a generator reads each exponent only up to a_i, the
    largest exponent of x_i among the generators, so a monomial m is
    standard exactly when its cap min(m, a) is.  Counting the standard caps
    in the box [0, a] gives HS(R/L) = Σ_c ∏_i s_i(c_i), s_i(c) = t^c below
    a_i and t^(a_i)/(1 - t) at it; times (1 - t)^n that is the numerator."""
    a = [max((g[i] for g in gens), default=0) for i in range(n)]
    num = {}
    for cap in product(*(range(e + 1) for e in a)):
        if any(all(x >= y for x, y in zip(cap, g)) for g in gens):
            continue
        # each factor is t^(c_i) - t^(c_i + 1) or t^(a_i): one sign, one shift
        shift = sum(cap)
        for below in product(*((0,) if c == e else (0, 1) for c, e in zip(cap, a))):
            j = shift + sum(below)
            num[j] = num.get(j, 0) + (-1) ** sum(below)
    top = max((j for j, c in num.items() if c), default=-1)
    return [num.get(j, 0) for j in range(top + 1)]


def _standard_count(gens, n, k):
    """The number of monomials of degree k outside the ideal of gens."""
    return sum(
        1
        for m in product(range(k + 1), repeat=n)
        if sum(m) == k and not any(all(x >= y for x, y in zip(m, g)) for g in gens)
    )


def _strip(num):
    num = list(num)
    while num and not num[-1]:
        num.pop()
    return num


def _monomial_ideals():
    rng = random.Random(19)
    for n in range(1, 5):
        yield n, []                                        # the zero ideal
        yield n, [(0,) * n]                                # the unit ideal
        yield n, [(0,) * n, (1,) + (0,) * (n - 1)]
        # pairwise coprime: pure powers, then disjoint mixed supports
        yield n, [tuple(rng.randint(1, 8) if v == i else 0 for v in range(n)) for i in range(n)]
        if n >= 2:
            yield n, [(2, 3) + (0,) * (n - 2)] + ([(0, 0, 1, 4)[:n]] if n == 4 else [])
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(1, 6)):
                m = [0] * n
                for _ in range(rng.randint(1, 8)):
                    m[rng.randrange(n)] += 1
                gens.append(tuple(m))
            yield n, gens


def test_hilbert_numerator_counts_standard_monomials():
    for n, gens in _monomial_ideals():
        num = _hilbert_numerator(gens)
        assert _strip(num) == _box_numerator(gens, n), gens
        for k in range(11):
            assert _hilbert_value(num, n, k) == _standard_count(gens, n, k), (gens, k)
        # the bound's incremental update, N(L + (m)) = N(L) - t^|m| N(L : m);
        # against the target numerator 1, CI of no forms, its excess is N(L) - 1
        bound = _HilbertBound(n, [1])
        for t in range(1, len(gens) + 1):
            bound.take(gens[t - 1 : t])
            assert _strip(_add_shifted(bound.excess, [1], 0, 1)) == _strip(_hilbert_numerator(gens[:t]))


@pytest.mark.parametrize("n, degree", [(6, 2), (5, 3)])
def test_dense_regular_triples_reach_zero_in_no_reduction(monkeypatch, n, degree):
    # a regular sequence meets the complete-intersection bound in every
    # degree, so each S-pair that would reduce to zero is dropped unreduced
    ring = Ring.flat(n, GF(32003))
    rng = random.Random(n)
    forms = [dense_form(rng, ring, degree) for _ in range(3)]
    reduce_terms = groebner._reduce_terms
    zeros = []

    def counted(work, *args):
        rem = reduce_terms(work, *args)
        zeros.append(not rem)
        return rem

    monkeypatch.setattr(groebner, "_reduce_terms", counted)
    basis = groebner_basis(forms)
    assert zeros and not any(zeros)
    assert codimension(Ideal(ring, forms)) == 3
    for f, g in combinations(basis.elements, 2):
        assert not normal_form(spolynomial(f, g), basis).terms


@pytest.mark.parametrize("rows, domain", [(4, QQ), (7, GF(32003))])
def test_maximal_minor_bases_are_the_minors(rows, domain):
    # maximal minors are a universal Groebner basis (Bernstein & Zelevinsky,
    # J. Algebraic Combin. 2, 1993), so their reduced basis is the monic
    # minors themselves; the minors are not a regular sequence, and the
    # bound must leave that basis as it was
    minors = maximal_minors(GenericMatrix(rows, rows - 1, domain))
    basis = groebner_basis(minors)
    assert sorted(basis.elements, key=str) == sorted((f.monic() for f in minors), key=str)


@pytest.mark.parametrize("n", [6, 8])
def test_direct_route_on_dense_regular_triples_runs_no_elimination(monkeypatch, n):
    # the direct route compares the Hilbert numerators of its prefixes, read
    # from their degrevlex bases, so every reduction it runs is under the
    # degrevlex packing: no intersection or quotient
    ring = Ring.flat(n, GF(32003))
    rng = random.Random(n)
    forms = [dense_form(rng, ring, 2) for _ in range(3)]
    grevlex = packing(DEGREVLEX, n)
    reduce_terms = groebner._reduce_terms
    packings = []

    def counted(work, reducers, pk, *args):
        packings.append(pk)
        return reduce_terms(work, reducers, pk, *args)

    def refused(*args):
        raise AssertionError("the direct route reached an intersection")

    monkeypatch.setattr(groebner, "_reduce_terms", counted)
    for name in ("ideal_intersection", "ideal_quotient"):
        monkeypatch.setattr(groebner, name, refused)
    assert is_regular_sequence_direct(forms)
    assert packings and all(pk is grevlex for pk in packings)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_direct_route_builds_one_basis_of_up_to_n_forms_and_none_past_n(monkeypatch, n):
    # r ≤ n forms are regular exactly when the numerator of their one basis
    # is ∏(1 - t^d_i), and r > n forms never are; a single form needs none
    ring = Ring.flat(n, GF(32003))
    rng = random.Random(n)
    buchberger = groebner._buchberger
    orders = []

    def counted(gens, order, *args):
        orders.append(order)
        return buchberger(gens, order, *args)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    x1 = ring.var(0)
    for r in range(1, n + 3):
        regular = [dense_form(rng, ring, rng.randint(1, 2)) for _ in range(r)]
        # a common factor: a zerodivisor at the second form already
        planted = [x1 * random_homogeneous(rng, ring, 1) for _ in range(r)]
        for forms, verdict in ((regular, r <= n), (planted, r == 1)):
            orders.clear()
            assert is_regular_sequence_direct(forms) is verdict, (r, forms)
            assert orders == ([DEGREVLEX] if 2 <= r <= n else []), r


@pytest.mark.parametrize("n, split", [(3, 1), (4, 2), (5, 2)])
def test_no_kernel_step_when_the_two_ideals_make_one_regular_sequence(monkeypatch, n, split):
    # n dense forms, split between I and J, are a regular sequence: I + J is
    # artinian and I ∩ J = I·J (Tor_1(R/I, R/J) = 0), so the basis of the
    # products reaches the Hilbert target with no linear algebra
    ring = Ring.flat(n, GF(32003))
    rng = random.Random(f"artinian:{n}")
    forms = [dense_form(rng, ring, rng.randint(2, 3)) for _ in range(n)]
    I, J = forms[:split], forms[split:]

    def refused(*args):
        raise AssertionError("the kernel step ran")

    monkeypatch.setattr(groebner, "_meet_in_degree", refused)
    inter = ideal_intersection(Ideal(ring, I), Ideal(ring, J))
    assert inter.gens == groebner_basis([f * g for f in I for g in J]).elements


def test_leads_and_membership_never_build_the_reduced_elements(monkeypatch):
    # dimension, membership and normal forms read only the packed minimal
    # basis; the interreduced, decoded elements are built only when read
    def refused(*args):
        raise AssertionError("the reduced elements were built")

    monkeypatch.setattr(groebner, "_interreduced", refused)
    # the 2x2 minors of a generic 2x3 matrix: codimension 2, three minors
    ring = Ring.flat(6, GF(32003))
    x1, x2, x3, x4, x5, x6 = ring.gens()
    minors = [x1 * x5 - x2 * x4, x1 * x6 - x3 * x4, x2 * x6 - x3 * x5]
    ideal = Ideal(ring, minors)
    assert codimension(ideal) == 2
    assert dimension(ideal) == 4
    assert contains(ideal, x3 * minors[0] + x1 * minors[2])
    assert not contains(ideal, x1 * x5)
    basis = ideal.groebner()
    assert normal_form(x1 * x5, basis) == normal_form(x2 * x4, basis)
    assert len(basis) == 3 and not basis.is_unit()
    assert repr(basis) == f"GroebnerBasis(3 elements, {DEGREVLEX!r})"
    assert is_regular_sequence_codim(minors[:2])
    assert is_regular_sequence_codim([x1 * x5, x1 * x6]) is False
    assert regular_pair_gcd_check(x1 * x2, x1 * x3).codim_route_regular is False
    assert regular_pair_gcd_check(x1 * x2, x3 * x4).codim_route_regular is True
    with pytest.raises(AssertionError, match="reduced elements"):
        basis.elements


def _is_reduced(basis):
    """Monic elements by strictly descending leads, the ones ``lead_monomials``
    lists, and no term of any element divisible by the lead of another."""
    order, leads = basis.order, basis.lead_monomials
    if [max(g.terms, key=order.key) for g in basis.elements] != leads:
        return False
    if [order.key(m) for m in leads] != sorted((order.key(m) for m in leads), reverse=True):
        return False
    one = basis.ring.domain.one
    return all(
        g.terms[lead] == one
        and not any(mono_divides(other, m) for other in leads if other != lead for m in g.terms)
        for g, lead in zip(basis.elements, leads)
    )


def test_packed_basis_divides_as_its_reduced_elements():
    # a remainder on division by a Groebner basis is unique, so the packed
    # minimal basis and the reduced elements decoded from it give the same
    # normal forms; reading the elements changes no lead, length or verdict
    rng = random.Random(25)
    fields = [QQ, GF(7), GF(32003)]
    seen = {"unit": 0, "zero": 0}
    for case in range(200):
        ring = Ring.flat(rng.randint(1, 5), fields[case % 3])
        order = LEX if case % 4 == 3 else DEGREVLEX
        homogeneous = rng.random() < 0.7
        gens = [random_poly(rng, ring, max_degree=3, homogeneous=homogeneous) for _ in range(rng.randint(1, 4))]
        if case % 20 == 0:
            gens = [ring.zero()]
        elif case % 20 == 10:
            gens += [ring.var(0), ring.var(0) + ring.one()]
        basis = groebner_basis(gens, order, ring=ring)
        probes = [random_poly(rng, ring, max_degree=3) for _ in range(4)] + gens
        remainders = [normal_form(f, basis) for f in probes]
        leads, size, unit = list(basis.lead_monomials), len(basis), basis.is_unit()
        seen["unit"] += unit
        seen["zero"] += not leads
        assert all(not mono_divides(a, b) for a, b in permutations(leads, 2)), (case, leads)
        assert all(not r.terms for r in remainders[4:])
        rebuilt = GroebnerBasis(ring, order, basis.elements)
        assert [normal_form(f, rebuilt) for f in probes] == remainders, case
        assert basis.lead_monomials == leads and len(basis) == size == len(basis.elements)
        assert basis.is_unit() == unit == rebuilt.is_unit()
        assert _is_reduced(basis), case
        assert basis.elements is basis.elements and basis == rebuilt
    assert seen["unit"] >= 10 and seen["zero"] == 10
