import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from formstrength.domains import GF, QQ
from formstrength.groebner import Ideal, codimension, is_regular_sequence_codim
from formstrength.linalg import mat_mul, mat_rank, transpose
from formstrength.minors import GenericMatrix, maximal_minors
from formstrength.parse import parse_poly
from formstrength.poly import Poly, Ring
from formstrength.quadratic import (
    DegenerateFormError,
    QuadraticForm,
    collective_strength_quadrics,
    combine,
    diagonal_pair_mod,
    jacobian_minor_ideal,
    minrank_bruteforce,
    minrank_formula,
    prime_certificate,
    rank_scan_all_nonzero,
    simultaneous_diagonalize,
    strength_from_rank,
)
from formstrength.strength import _quadric_codes

from conftest import (
    block_sizes,
    coordinate_ideals,
    diagonal_pair,
    minrank_identity,
    pencil_ratios,
    ratio_jacobian_ideal,
    same_ideal,
)


def _fraction_free_rank(int_matrix):
    """Oracle: Bareiss-style fraction-free elimination over the integers."""
    m = [row[:] for row in int_matrix]
    n = len(m)
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[row][col] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
    return rank


def test_rank_examples():
    ring1 = Ring.flat(1, QQ)
    assert QuadraticForm.from_poly(parse_poly("x1^2", ring1)).rank() == 1
    ring2 = Ring.flat(2, QQ)
    assert QuadraticForm.from_poly(parse_poly("3*x1^2 + 5*x2^2", ring2)).rank() == 2
    ring3 = Ring.flat(3, QQ)
    q = QuadraticForm.from_poly(parse_poly("x1*x2 - x3^2", ring3))
    assert q.rank() == 3
    # doubled Gram matrix is integral: compare with the fraction-free oracle
    doubled = [[int(v * 2) for v in row] for row in q.gram]
    assert _fraction_free_rank(doubled) == 3


def test_from_poly_keeps_nothing_of_a_large_form():
    # a dense form in 120 variables has 7260 monomials, each a tuple of 120
    # exponents; once the form is dropped, none of them may stay behind
    ring = Ring.flat(120, GF(7))
    pairs = [(i, j) for i in range(120) for j in range(i, 120)]
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        terms = {}
        for k, (i, j) in enumerate(pairs):
            m = [0] * 120
            m[i] += 1
            m[j] += 1
            terms[tuple(m)] = k % 6 + 1
        q = QuadraticForm.from_poly(Poly(ring, terms))
        assert q.rank() <= 120
        del terms, q
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 10**6, kept


def test_rank_requires_odd_characteristic():
    with pytest.raises(ValueError):
        Ring.flat(2, GF(2))
        QuadraticForm.diagonal(Ring.flat(2, GF(2)), [1, 1])


def test_strength_from_rank():
    assert strength_from_rank(0) == -1
    assert strength_from_rank(1) == 0
    assert strength_from_rank(2) == 0
    assert strength_from_rank(4) == 1
    assert strength_from_rank(5) == 2
    with pytest.raises(ValueError):
        strength_from_rank(-1)


def test_rank5_form_has_no_two_product_decomposition_over_f3():
    # definitional confirmation of strength_from_rank(5) = 2: exhaustive
    # search finds no decomposition of a rank-5 form into two products
    ring = Ring.flat(5, GF(3))
    f = parse_poly("x1^2 + x2^2 + x3^2 + x4^2 + x5^2", ring)
    assert QuadraticForm.from_poly(f).rank() == 5
    codes = _quadric_codes(3, 5)
    fcode = codes.code(f.terms)
    assert fcode not in codes.product_set

    def negated(code):
        out, k = 0, 1
        while code:
            code, d = divmod(code, 3)
            out += (-d % 3) * k
            k *= 3
        return out

    # the products are closed under negation, so f - q runs over the
    # codes f + q: f is a sum of two products exactly when some f + q is
    # a product
    assert {negated(q) for q in codes.products} == codes.product_set
    assert codes.product_set.isdisjoint(codes.sums(fcode))


def test_rank_is_congruence_invariant():
    rng = random.Random(61)
    dom = GF(11)
    ring = Ring.flat(4, dom)
    for _ in range(5):
        raw = [[dom.from_int(rng.randrange(11)) for _ in range(4)] for _ in range(4)]
        gram = [[dom.add(raw[i][j], raw[j][i]) for j in range(4)] for i in range(4)]
        q = QuadraticForm(ring, gram)
        base = q.rank()
        for _ in range(20):
            while True:
                t = [[dom.from_int(rng.randrange(11)) for _ in range(4)] for _ in range(4)]
                if mat_rank(t, dom) == 4:
                    break
            moved = mat_mul(mat_mul(transpose(t), gram, dom), t, dom)
            assert QuadraticForm(ring, moved).rank() == base


def _check_pencil(f1, f2, source):
    """simultaneous_diagonalize(f1, f2) returns a checked transform t, and
    its diagonal pair has the ratios and the formula minrank of the diagonal
    pair ``source``; returns the formula's result."""
    dom = f1.domain
    n = f1.n
    pencil = simultaneous_diagonalize(f1, f2)
    assert pencil is not None
    g1, g2, t = pencil
    assert mat_rank(t, dom) == n
    for q, g in ((f1, g1), (f2, g2)):
        assert mat_mul(mat_mul(transpose(t), q.gram, dom), t, dom) == g.gram
    assert sorted(pencil_ratios(g1, g2)) == sorted(pencil_ratios(*source))
    result = minrank_formula(g1, g2)
    assert result.value == minrank_formula(*source).value
    return result


def test_simultaneous_diagonalize_diagonal_inputs():
    ring = Ring.flat(3, QQ)
    f1 = QuadraticForm.diagonal(ring, [1, 1, 1])
    f2 = QuadraticForm.diagonal(ring, [1, 2, 2])
    pencil = simultaneous_diagonalize(f1, f2)
    assert pencil is not None
    g1, g2, _ = pencil
    assert sorted(pencil_ratios(g1, g2)) == [Fraction(1), Fraction(2), Fraction(2)]
    assert sorted(block_sizes(g1, g2)) == [1, 2]


def test_simultaneous_diagonalize_cross_term():
    ring = Ring.flat(2, QQ)
    f1 = QuadraticForm.from_poly(parse_poly("x1^2 + x2^2", ring))
    f2 = QuadraticForm.from_poly(parse_poly("2*x1*x2", ring))
    _check_pencil(f1, f2, diagonal_pair([1, 1], [-1, 1]))


def test_simultaneous_diagonalize_irrational_pencil_unsupported():
    ring = Ring.flat(2, QQ)
    f1 = QuadraticForm.from_poly(parse_poly("x1^2 + x2^2", ring))
    f2 = QuadraticForm.from_poly(parse_poly("x1*x2 + x2^2", ring))
    # char poly t^2 - t - 1/4 has non-square discriminant 2
    assert simultaneous_diagonalize(f1, f2) is None


def test_simultaneous_diagonalize_degenerate_base():
    ring = Ring.flat(2, QQ)
    f1 = QuadraticForm.from_poly(parse_poly("x1^2", ring))
    f2 = QuadraticForm.from_poly(parse_poly("x2^2", ring))
    with pytest.raises(DegenerateFormError):
        simultaneous_diagonalize(f1, f2)


@pytest.mark.parametrize("dom", [QQ, GF(7), GF(13)], ids=["q", "fp:7", "fp:13"])
def test_simultaneous_diagonalize_moved_diagonal_pairs(dom):
    """Diagonal pairs with repeated ratios, moved by a random invertible T:
    each repeated ratio gives an eigenspace of dimension above 1, whose
    restriction of the first form is no longer diagonal."""
    rng = random.Random(f"pencil:{dom}")
    for _ in range(20):
        n = rng.randint(2, 5)
        ratios = [dom.from_int(rng.choice([0, 1, 2, -3])) for _ in range(n)]
        a = [dom.from_int(rng.choice([1, 2, 3, -1, -5])) for _ in range(n)]
        source = diagonal_pair(a, [dom.mul(r, v) for r, v in zip(ratios, a)], dom)
        while True:
            t = [[dom.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            if mat_rank(t, dom) == n:
                break
        ring = source[0].ring
        moved = [QuadraticForm(ring, mat_mul(mat_mul(transpose(t), q.gram, dom), t, dom)) for q in source]
        _check_pencil(*moved, source)


def test_simultaneous_diagonalize_isotropic_block():
    """The ratio 3 has the eigenspace x1, x2, on which the first form is
    2*x1*x2, with a zero diagonal; the witness kills that block."""
    ring = Ring.flat(3, QQ)
    f1 = QuadraticForm.from_poly(parse_poly("2*x1*x2 + x3^2", ring))
    f2 = QuadraticForm.from_poly(parse_poly("6*x1*x2 + 2*x3^2", ring))
    result = _check_pencil(f1, f2, diagonal_pair([1, 1, 1], [2, 3, 3]))
    assert result.value == 1
    assert result.witness == (-3, 1)


def test_minrank_formula_examples():
    res = minrank_formula(*diagonal_pair([1, 1, 1, 1], [1, 1, 2, 3]))
    assert res.value == 2
    assert res.witness == (Fraction(-1), Fraction(1))  # f2 - f1
    assert minrank_formula(*diagonal_pair([1, 1, 1], [5, 5, 5])).value == 0
    assert minrank_formula(*diagonal_pair([1, 1, 1], [1, 2, 3])).value == 2


def test_minrank_formula_refuses_a_pair_that_is_not_diagonal_or_a_degenerate_first_form():
    ring = Ring.flat(2, QQ)
    f1 = QuadraticForm.from_poly(parse_poly("x1^2 + x2^2", ring))
    cross = QuadraticForm.from_poly(parse_poly("2*x1*x2", ring))
    for pair in ((f1, cross), (cross, f1)):
        with pytest.raises(ValueError, match="diagonal pair") as info:
            minrank_formula(*pair)
        assert not isinstance(info.value, DegenerateFormError)
    with pytest.raises(DegenerateFormError):
        minrank_formula(*diagonal_pair([1, 0, 1], [1, 2, 3]))


def test_diagonal_pair_mod_refuses_a_vanishing_entry_or_collapsing_blocks():
    with pytest.raises(ValueError, match="diagonal entry vanishes mod 7"):
        diagonal_pair_mod(*diagonal_pair([1, 7], [1, 2]), 7)
    with pytest.raises(ValueError, match="block structure collapses mod 7"):
        diagonal_pair_mod(*diagonal_pair([1, 1], [1, 8]), 7)
    g1, g2 = diagonal_pair_mod(*diagonal_pair([2, 1], [1, 8]), 7)
    assert (g1, g2) == diagonal_pair([2, 1], [1, 1], GF(7))


def test_minrank_witness_rank_matches_value():
    rng = random.Random(63)
    for _ in range(20):
        n = rng.randint(2, 5)
        q1, q2 = diagonal_pair(
            [rng.choice([1, 2, 3]) for _ in range(n)],
            [rng.randint(-3, 3) for _ in range(n)],
        )
        res = minrank_formula(q1, q2)
        assert combine((q1, q2), res.witness).rank() == res.value


def test_minrank_bruteforce_examples():
    dom = GF(5)
    ring = Ring.flat(4, dom)
    f1 = QuadraticForm.from_poly(parse_poly("x1*x2", ring))
    f2 = QuadraticForm.from_poly(parse_poly("x3*x4", ring))
    assert minrank_bruteforce(f1, f2).value == 2
    assert minrank_bruteforce(f1, f1).value == 0


def test_minrank_formula_matches_bruteforce_on_random_pairs():
    rng = random.Random(67)
    for _ in range(200):
        n = rng.randint(2, 5)
        pair = diagonal_pair(
            [rng.choice([1, 2, 3, 4, 5]) for _ in range(n)],
            [rng.randint(-5, 5) for _ in range(n)],
        )
        scan = minrank_bruteforce(*diagonal_pair_mod(*pair, 101))
        assert scan.value == minrank_formula(*pair).value


def test_jacobian_minor_ideal_examples():
    ring2 = Ring.flat(2, QQ)
    ideal = jacobian_minor_ideal(*diagonal_pair([1, 1], [1, 2]))
    assert same_ideal(ideal, Ideal(ring2, [parse_poly("x1*x2", ring2)]))
    ring3 = Ring.flat(3, QQ)
    ideal = jacobian_minor_ideal(*diagonal_pair([1, 1, 1], [4, 4, 7]))
    assert same_ideal(ideal, Ideal(ring3, [parse_poly("x1*x3", ring3), parse_poly("x2*x3", ring3)]))
    assert not jacobian_minor_ideal(*diagonal_pair([1, 1], [3, 3])).gens


def test_jacobian_minor_ideal_matches_the_ratio_construction_on_diagonal_pairs():
    rng = random.Random(79)
    for _ in range(40):
        n = rng.randint(1, 5)
        dom = rng.choice([QQ, GF(7)])
        firsts = [1, 2, 3, -1] + ([Fraction(1, 2)] if dom == QQ else [])
        pair = diagonal_pair(
            [rng.choice(firsts) for _ in range(n)],
            [rng.randint(-3, 3) for _ in range(n)],
            dom,
        )
        assert same_ideal(jacobian_minor_ideal(*pair), ratio_jacobian_ideal(*pair))


def test_jacobian_minor_codimension_is_a_congruence_invariant():
    # J is built from the Gram matrices of any pair, so it can be compared
    # across a change of variables: for invertible T, the pair T^t A T,
    # T^t B T has a Jacobian-minor ideal of the codimension of A, B's.  (codim
    # J is not asserted equal to the minrank here: that identity is for
    # diagonalizable pencils.)
    rng = random.Random(83)
    dom = QQ
    for _ in range(60):
        n = rng.randint(2, 5)
        pair = diagonal_pair(
            [rng.choice([1, 2, 3]) for _ in range(n)],
            [rng.choice([-1, 0, 1, 2]) for _ in range(n)],
        )
        while True:
            t = [[Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n)] for _ in range(n)]
            if mat_rank(t, dom) == n:
                break
        moved = [
            QuadraticForm(q.ring, mat_mul(mat_mul(transpose(t), q.gram, dom), t, dom))
            for q in pair
        ]
        assert codimension(jacobian_minor_ideal(*moved)) == codimension(jacobian_minor_ideal(*pair))


def test_coordinate_primary_components():
    # pins the conftest helper that the minrank identity checks rest on
    comps = coordinate_ideals(*diagonal_pair([1, 1, 1], [4, 4, 7]))  # blocks {0,1} and {2}
    ring = comps[0].ring
    assert same_ideal(comps[0], Ideal(ring, [ring.var(2)]))
    assert same_ideal(comps[1], Ideal(ring, [ring.var(0), ring.var(1)]))

    single = coordinate_ideals(*diagonal_pair([1, 1], [3, 3]))
    assert len(single) == 1 and not single[0].gens

    distinct = coordinate_ideals(*diagonal_pair([1, 1, 1], [1, 2, 3]))
    assert len(distinct) == 3
    assert all(codimension(c) == 2 for c in distinct)


def test_minrank_identity_report():
    rep = minrank_identity(*diagonal_pair([1, 1, 1], [4, 4, 7]))
    assert rep.passed and rep.jacobian_codim == 1
    rep = minrank_identity(*diagonal_pair([1, 1], [3, 3]))
    assert rep.passed and rep.jacobian_codim == 0 and rep.formula_value == 0


def test_minrank_identity_on_random_pairs():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(2, 5)
        pair = diagonal_pair(
            [rng.choice([1, 2, 3]) for _ in range(n)],
            [rng.randint(-5, 5) for _ in range(n)],
        )
        assert minrank_identity(*pair).passed


def test_prime_certificate():
    assert prime_certificate(*diagonal_pair([1] * 6, [1, 2, 3, 4, 5, 6]))["status"] == "certified-prime"
    cert = prime_certificate(*diagonal_pair([1] * 4, [1, 2, 3, 4]))
    assert cert["status"] != "certified-prime" and cert["jacobian_codim"] == 3
    assert prime_certificate(*diagonal_pair([1, 1], [3, 3]))["status"] != "certified-prime"


def test_prime_certificate_never_fires_in_low_dimension():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(1, 4)
        pair = diagonal_pair(
            [rng.choice([1, 2]) for _ in range(n)],
            [rng.randint(-2, 2) for _ in range(n)],
        )
        assert prime_certificate(*pair)["status"] != "certified-prime"


def test_collective_strength_of_minor_triple_is_one():
    minors = maximal_minors(GenericMatrix(3, 2, GF(5)))
    forms = [QuadraticForm.from_poly(f) for f in minors]
    assert collective_strength_quadrics(forms) == 1


def test_collective_strength_simple_pencils():
    ring = Ring.flat(2, GF(5))
    f1 = QuadraticForm.from_poly(parse_poly("x1^2", ring))
    f2 = QuadraticForm.from_poly(parse_poly("x2^2", ring))
    assert collective_strength_quadrics([f1, f2]) == 0
    zero = QuadraticForm.diagonal(ring, [0, 0])
    assert collective_strength_quadrics([f1, zero]) == -1


def test_collective_strength_invariant_under_pencil_remix():
    rng = random.Random(77)
    dom = GF(7)
    minors = maximal_minors(GenericMatrix(3, 2, dom))
    forms = [QuadraticForm.from_poly(f) for f in minors]
    base = collective_strength_quadrics(forms)
    for _ in range(5):
        while True:
            t = [[dom.from_int(rng.randrange(7)) for _ in range(3)] for _ in range(3)]
            if mat_rank(t, dom) == 3:
                break
        mixed = [combine(forms, row) for row in t]
        assert collective_strength_quadrics(mixed) == base


def test_rank_scan_all_nonzero_counts():
    minors = maximal_minors(GenericMatrix(3, 2, GF(5)))
    forms = [QuadraticForm.from_poly(f) for f in minors]
    histogram, offender = rank_scan_all_nonzero(forms, expect=4)
    assert offender is None
    assert histogram == {4: 124}


def test_reduce_mod_keeps_the_variables_and_refuses_denominators():
    ring = Ring.matrix(1, 2, QQ)
    q = QuadraticForm.from_poly(parse_poly("x1_1*x1_2 - 3*x1_2^2", ring))
    image = q.reduce_mod(7)
    assert image.ring == Ring.matrix(1, 2, GF(7)) and image.ring.matrix_shape == (1, 2)
    assert image.gram == [[0, 4], [4, 4]]  # 1/2 = 4 and -3 = 4 mod 7
    assert image.to_poly() == parse_poly("x1_1*x1_2 - 3*x1_2^2", image.ring)
    with pytest.raises(ZeroDivisionError):
        QuadraticForm.diagonal(Ring.flat(1, QQ), [Fraction(1, 7)]).reduce_mod(7)
    with pytest.raises(ValueError):
        q.reduce_mod(2)


def test_triple_report_on_certifying_sample():
    ring = Ring.flat(6, QQ)
    f1 = QuadraticForm.diagonal(ring, [1] * 6)
    f2 = QuadraticForm.diagonal(ring, [1, 2, 3, 4, 5, 6])
    f3 = QuadraticForm.from_poly(
        parse_poly("x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x6 + x1*x6 + x1*x3", ring)
    )
    g1, g2, _ = simultaneous_diagonalize(f1, f2)
    assert minrank_formula(g1, g2).value == 5
    assert minrank_bruteforce(f1.reduce_mod(11), f2.reduce_mod(11)).value == 5
    assert prime_certificate(g1, g2)["status"] == "certified-prime"
    assert is_regular_sequence_codim([q.to_poly() for q in (f1, f2, f3)])


def test_triple_report_on_dependent_pair():
    ring = Ring.flat(3, QQ)
    f1 = QuadraticForm.diagonal(ring, [1, 1, 1])
    f2 = QuadraticForm.diagonal(ring, [2, 2, 2])
    f3 = QuadraticForm.from_poly(parse_poly("x1*x2", ring))
    assert collective_strength_quadrics([q.reduce_mod(11) for q in (f1, f2, f3)]) == -1
    assert minrank_formula(*simultaneous_diagonalize(f1, f2)[:2]).value == 0
    assert not is_regular_sequence_codim([q.to_poly() for q in (f1, f2, f3)])


def test_triple_report_on_strength_one_family():
    # the 3x2 minors: collective strength 1, not regular; the hypothesis of
    # the upper-bound theorem really is necessary
    minors = maximal_minors(GenericMatrix(3, 2, QQ))
    forms = [QuadraticForm.from_poly(f) for f in minors]
    scan_forms = [q.reduce_mod(5) for q in forms]
    assert collective_strength_quadrics(scan_forms) == 1
    with pytest.raises(DegenerateFormError):  # f1 has rank 4 < 6
        simultaneous_diagonalize(forms[0], forms[1])
    assert not is_regular_sequence_codim(minors)
    assert minrank_bruteforce(scan_forms[0], scan_forms[1]).value == 4  # every nonzero combination has rank 4
