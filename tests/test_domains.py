from fractions import Fraction

import pytest

from formstrength.domains import GF, QQ, domain_from_name


def test_rationals_reduce_and_normalize_sign():
    assert QQ(2, 4) == Fraction(1, 2)
    assert QQ(3, -6) == Fraction(-1, 2)
    assert QQ(3, -6).denominator == 2  # denominator stays positive


def test_rational_zero_denominator_is_an_error():
    with pytest.raises(ZeroDivisionError):
        QQ(3, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_prime_field_arithmetic():
    f7 = GF(7)
    assert f7.add(5, 4) == 2
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    assert f7(10, 2) == 5
    assert f7.neg(0) == 0


def test_prime_field_division_by_zero():
    f5 = GF(5)
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ZeroDivisionError):
        f5(1, 5)  # denominator vanishes mod 5


def test_nonprime_modulus_rejected():
    # 561, 41041 and 825265 are Carmichael numbers;
    # 318665857834031151167461 passes Miller-Rabin on every prime base up
    # to 37, and base 41 exposes it
    for n in (4, 1, 561, 41041, 825265, 318665857834031151167461):
        with pytest.raises(ValueError):
            GF(n)


def test_large_prime_accepted_and_equal_by_modulus():
    assert GF(32003) == GF(32003) and hash(GF(32003)) == hash(GF(32003))
    assert GF(32003) != GF(31991)
    assert GF(32003).inv(2) == (32003 + 1) // 2


def test_domain_from_name():
    assert domain_from_name("q") is QQ or domain_from_name("q") == QQ
    assert domain_from_name("fp:7") == GF(7)
    with pytest.raises(ValueError):
        domain_from_name("fp7")


def test_large_prime_accepted():
    assert GF(2**61 - 1).inv(2) == 2**60


def test_modulus_beyond_the_deterministic_range_refused():
    with pytest.raises(ValueError, match="too large"):
        GF(2**89 - 1)
