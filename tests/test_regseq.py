import random

import pytest

import formstrength.polygcd as polygcd
from formstrength.domains import GF, QQ
from formstrength.groebner import (
    is_regular_sequence_codim,
    is_regular_sequence_direct,
)
from formstrength.parse import parse_poly
from formstrength.poly import Ring
from formstrength.polygcd import regular_pair_gcd_check

from conftest import random_homogeneous


def test_coordinates_are_regular():
    ring = Ring.flat(3, QQ)
    xs = ring.gens()
    assert is_regular_sequence_codim(xs)
    assert is_regular_sequence_direct(xs)


def test_common_factor_fails():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    assert not is_regular_sequence_codim([x, x * y])
    assert not is_regular_sequence_direct([x, x * y])


def test_planted_common_factor_fails_direct():
    rng = random.Random(31)
    ring = Ring.flat(3, GF(7))
    for _ in range(5):
        h1 = random_homogeneous(rng, ring, 1, max_terms=2)
        h2 = random_homogeneous(rng, ring, 2, max_terms=2)
        x1 = ring.var(0)
        fs = [x1 * h1, x1 * h2]
        assert not is_regular_sequence_direct(fs)
        assert not is_regular_sequence_codim(fs)


def test_minor_triples_are_not_regular(minors_3x2_q, minors_4x3_f7):
    assert not is_regular_sequence_codim(minors_3x2_q)
    assert not is_regular_sequence_direct(minors_3x2_q)
    assert not is_regular_sequence_codim(minors_4x3_f7[:3])


def test_zero_and_inhomogeneous_inputs_rejected():
    ring = Ring.flat(2, QQ)
    x, y = ring.gens()
    with pytest.raises(ValueError):
        is_regular_sequence_codim([x, ring.zero()])
    with pytest.raises(ValueError):
        is_regular_sequence_direct([x + ring.one(), y])
    with pytest.raises(ValueError):
        is_regular_sequence_codim([ring.const(QQ(2))])


def test_direct_test_never_reaches_the_gcd(monkeypatch):
    def no_gcd(*args):
        raise AssertionError("the direct test computed a gcd")

    # the gcd and every helper it reaches, the elimination of M_1 included
    for name in ("multivariate_gcd", "_multiplier_rows", "monomials", "_count", "_divide_out", "eliminate"):
        monkeypatch.setattr(polygcd, name, no_gcd)
    ring = Ring.flat(3, GF(7))
    x1, x2, x3 = ring.gens()
    assert is_regular_sequence_direct([x1 * x1, x2 * x2])
    assert not is_regular_sequence_direct([x1 * x2, x1 * x3])
    assert is_regular_sequence_direct([x1, x2 * x2, x3 * x3 * x3])
    assert not is_regular_sequence_direct([x1 * x2, x2 * x3, x1 * x3])


def test_direct_and_codim_agree_on_random_systems():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 4)
        ring = Ring.flat(n, GF(7))
        fs = [
            random_homogeneous(rng, ring, rng.randint(1, 2))
            for _ in range(rng.randint(1, min(3, n)))
        ]
        assert is_regular_sequence_codim(fs) == is_regular_sequence_direct(fs)


def test_codim_verdict_is_permutation_invariant():
    rng = random.Random(43)
    ring = Ring.flat(3, GF(7))
    for _ in range(10):
        fs = [random_homogeneous(rng, ring, rng.randint(1, 2)) for _ in range(3)]
        base = is_regular_sequence_codim(fs)
        shuffled = list(fs)
        rng.shuffle(shuffled)
        assert is_regular_sequence_codim(shuffled) == base


def test_pair_report_examples():
    ring = Ring.flat(2, QQ)
    report = regular_pair_gcd_check(parse_poly("x1^2", ring), parse_poly("x2^2", ring))
    assert report.gcd.is_constant()
    assert report.gcd_route_regular and report.codim_route_regular and report.agree

    ring3 = Ring.flat(3, QQ)
    report = regular_pair_gcd_check(
        parse_poly("x1*x2", ring3), parse_poly("x1*x3", ring3)
    )
    assert str(report.gcd) == "x1"
    assert not report.gcd_route_regular and not report.codim_route_regular


def test_pair_routes_agree_on_random_pairs():
    rng = random.Random(47)
    ring = Ring.flat(3, GF(7))
    for _ in range(25):
        f1 = random_homogeneous(rng, ring, rng.randint(1, 3))
        f2 = random_homogeneous(rng, ring, rng.randint(1, 3))
        assert regular_pair_gcd_check(f1, f2).agree
