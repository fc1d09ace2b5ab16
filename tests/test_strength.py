import random
from itertools import combinations

import pytest

from formstrength.domains import GF, QQ
from formstrength.groebner import Ideal
from formstrength.linalg import mat_rank
from formstrength.parse import parse_poly
from formstrength.poly import Ring
from formstrength.quadratic import QuadraticForm, strength_from_rank
from formstrength.strength import (
    PARALLEL_ROWS,
    SAME_COLUMN,
    SKEW,
    class_ideals,
    exclusion_matrix,
    strength_bruteforce_small,
)


# ---------------------------------------------------------------------------
# exclusion matrices


def test_exclusion_row_counts_and_kernels(minors_4x3_q):
    ring = minors_4x3_q[0].ring
    ideals = class_ideals(ring)
    triple = minors_4x3_q[:3]
    expected_rows = {PARALLEL_ROWS: 10, SAME_COLUMN: 10, SKEW: 11}
    for tag, ideal in ideals.items():
        report = exclusion_matrix(triple, ideal)
        assert report.row_count() == expected_rows[tag]
        assert report.trivial_kernel


def test_exclusion_dependent_family_has_kernel(minors_4x3_q):
    ring = minors_4x3_q[0].ring
    f1 = minors_4x3_q[0]
    report = exclusion_matrix([f1, f1.scale(QQ(2))], class_ideals(ring)[SKEW])
    assert report.kernel_dim >= 1


def test_exclusion_detects_strength_one_member(minors_4x3_q):
    ring = minors_4x3_q[0].ring
    x11 = ring.var(ring.entry_index(1, 1))
    q = parse_poly("x2_2*x3_3 - x2_3*x3_2", ring)
    family = [x11 * q]
    ideals = class_ideals(ring)
    assert not all(exclusion_matrix(family, ideal).trivial_kernel for ideal in ideals.values())
    report = exclusion_matrix(family, ideals[PARALLEL_ROWS])
    assert report.kernel_dim == 1 and report.row_count() == 0


def test_exclusion_kernel_invariant_under_family_remix(minors_4x3_q):
    rng = random.Random(97)
    ring = minors_4x3_q[0].ring
    triple = minors_4x3_q[:3]
    ideals = list(class_ideals(ring).values())
    for _ in range(5):
        while True:
            t = [[QQ(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if mat_rank(t, QQ) == 3:
                break
        mixed = []
        for row in t:
            combo = ring.zero()
            for c, f in zip(row, triple):
                combo = combo + f.scale(c)
            mixed.append(combo)
        for ideal in ideals:
            assert exclusion_matrix(mixed, ideal).trivial_kernel


def test_strength_one_excluded_with_extra_class(minors_4x3_q):
    ring = minors_4x3_q[0].ring
    triple = minors_4x3_q[:3]
    ideals = list(class_ideals(ring).values())
    extra = Ideal(ring, [ring.var(ring.entry_index(1, 1)), ring.var(ring.entry_index(1, 3))])
    for ideal in ideals + [extra]:
        assert exclusion_matrix(triple, ideal).trivial_kernel


def test_four_minor_exclusion_variant(minors_4x3_q):
    for ideal in class_ideals(minors_4x3_q[0].ring).values():
        assert exclusion_matrix(minors_4x3_q, ideal).trivial_kernel


def test_exhaustive_variable_pair_exclusion(minors_4x3_q):
    # belt-and-braces replacement for the symmetry argument: every ideal
    # generated by two distinct matrix variables excludes the family
    ring = minors_4x3_q[0].ring
    rows, cols = ring.matrix_shape
    entries = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    pairs = list(combinations(entries, 2))
    assert len(pairs) == 66
    tags = set()
    triple = minors_4x3_q[:3]
    for (r1, c1), (r2, c2) in pairs:
        tags.add(SAME_COLUMN if c1 == c2 else PARALLEL_ROWS if r1 == r2 else SKEW)
        ideal = Ideal(ring, [ring.var(ring.entry_index(r1, c1)), ring.var(ring.entry_index(r2, c2))])
        assert exclusion_matrix(triple, ideal).trivial_kernel
    assert tags == {SAME_COLUMN, PARALLEL_ROWS, SKEW}


# ---------------------------------------------------------------------------
# brute-force strength for small quadrics


def test_bruteforce_single_product():
    ring = Ring.flat(4, GF(3))
    assert strength_bruteforce_small(parse_poly("x1*x2", ring)) == 0
    assert strength_bruteforce_small(ring.zero()) == -1


def test_bruteforce_split_rank_four_needs_two_products():
    ring = Ring.flat(4, GF(3))
    f = parse_poly("x1*x2 + x3*x4", ring)
    assert strength_bruteforce_small(f) == 1
    assert QuadraticForm.from_poly(f).rank() == 4


def test_bruteforce_f5_sum_of_three_squares():
    ring = Ring.flat(3, GF(5))
    f = parse_poly("x1^2 + x2^2 + x3^2", ring)
    assert strength_bruteforce_small(f, s_max=1) == 1


def test_bruteforce_respects_smax():
    ring = Ring.flat(2, GF(3))
    f = parse_poly("x1^2 + x2^2", ring)  # anisotropic: needs two products
    assert strength_bruteforce_small(f, s_max=0) is None
    assert strength_bruteforce_small(f, s_max=1) == 1


def test_bruteforce_guards():
    ring = Ring.flat(5, GF(3))
    with pytest.raises(ValueError):
        strength_bruteforce_small(parse_poly("x1*x2", ring))
    ring7 = Ring.flat(2, GF(7))
    with pytest.raises(ValueError):
        strength_bruteforce_small(parse_poly("x1*x2", ring7))
    # a non-split rank-4 form over F_5 would need the two-product stage,
    # which is combinatorially out of reach there
    ring5 = Ring.flat(4, GF(5))
    with pytest.raises(ValueError):
        strength_bruteforce_small(parse_poly("x1*x2 + x3^2 + 2*x4^2", ring5), s_max=2)
    ring3 = Ring.flat(2, GF(3))
    with pytest.raises(ValueError):
        strength_bruteforce_small(parse_poly("x1^3", ring3))


def test_bruteforce_matches_witt_prediction_exhaustively_n2():
    # all 3^3 quadrics in two variables over F_3: brute force equals the
    # closed-field formula except on even-rank non-split forms, where it is
    # exactly one higher; in two variables those are the six irreducible
    # (anisotropic) binary quadrics, the ones with non-square discriminant
    ring = Ring.flat(2, GF(3))
    x1, x2 = ring.gens()
    mismatch = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                f = (x1 * x1).scale(a) + (x1 * x2).scale(b) + (x2 * x2).scale(c)
                brute = strength_bruteforce_small(f)
                k = QuadraticForm.from_poly(f).rank()
                formula = strength_from_rank(k)
                assert brute in (formula, formula + 1)
                if brute != formula:
                    mismatch.append(((a, b, c), k))
    assert len(mismatch) == 6
    assert all(k == 2 for _, k in mismatch)
    # discriminant b^2 - ac is the non-square 2 exactly on the mismatches
    assert {(a, b, c) for (a, b, c), _ in mismatch} == {
        (a, b, c)
        for a in range(3)
        for b in range(3)
        for c in range(3)
        if (b * b - a * c) % 3 == 2
    }
