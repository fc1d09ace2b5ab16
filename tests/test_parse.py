import random
import sys
import time
from fractions import Fraction

import pytest

from formstrength.domains import GF, QQ
from formstrength.minors import GenericMatrix, maximal_minors
from formstrength.orders import MAX_EXPONENT
from formstrength.parse import (
    _MAX_VARIABLES,
    PolyParseError,
    dump_ideal_text,
    format_poly,
    load_ideal_text,
    parse_poly,
    parse_ring_header,
)
from formstrength.poly import Ring

from conftest import random_poly


def test_basic_parse():
    ring = Ring.flat(3, QQ)
    f = parse_poly("x1*x2 - x3^2", ring)
    x1, x2, x3 = ring.gens()
    assert f == x1 * x2 - x3 * x3


def test_matrix_variable_monomial():
    ring = Ring.matrix(4, 3, QQ)
    f = parse_poly("x2_1*x3_2*x4_3", ring)
    expected = (
        ring.var(ring.entry_index(2, 1))
        * ring.var(ring.entry_index(3, 2))
        * ring.var(ring.entry_index(4, 3))
    )
    assert f == expected


def test_zero_denominator_rejected():
    ring = Ring.flat(2, QQ)
    with pytest.raises(PolyParseError, match="zero denominator"):
        parse_poly("3/0*x1", ring)


def test_unknown_variable_rejected_with_position():
    ring = Ring.flat(3, QQ)
    with pytest.raises(PolyParseError, match="x9"):
        parse_poly("x1 + x9", ring)


def test_rational_coefficients_and_whitespace():
    ring = Ring.flat(2, QQ)
    f = parse_poly("  3/2*x1   -x2 ", ring)
    assert f == ring.var(0).scale(QQ(3, 2)) - ring.var(1)


def test_canonical_sign_handling():
    ring = Ring.flat(3, QQ)
    f = parse_poly("x3^2 - x1*x2", ring)
    text = format_poly(f)
    assert " + -" not in text
    assert parse_poly(text, ring) == f


def test_round_trip_on_random_polynomials():
    rng = random.Random(99)
    rings = [Ring.flat(3, QQ), Ring.flat(4, GF(7)), Ring.matrix(3, 2, QQ)]
    for i in range(1000):
        ring = rings[i % len(rings)]
        f = random_poly(rng, ring, max_degree=4, max_terms=5)
        text = format_poly(f)
        assert parse_poly(text, ring) == f          # parse . format = id
        assert format_poly(parse_poly(text, ring)) == text  # format . parse = id


def test_zero_polynomial_formats_as_zero():
    ring = Ring.flat(2, QQ)
    assert format_poly(ring.zero()) == "0"
    assert not parse_poly("0", ring).terms


def test_ring_headers():
    ring = parse_ring_header("ring n=3 field=q")
    assert ring.nvars == 3 and ring.domain == QQ
    ring = parse_ring_header("ring n=12 field=fp:32003 matrix=4x3")
    assert ring.matrix_shape == (4, 3) and ring.domain is GF(32003)
    with pytest.raises(ValueError):
        parse_ring_header("ring n=5 field=fp:32003 matrix=4x3")
    with pytest.raises(ValueError):
        parse_ring_header("ring field=q")


# the most digits int() converts (0: no limit in this Python)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (INT_DIGITS + 1)
needs_int_digit_limit = pytest.mark.skipif(not INT_DIGITS, reason="int() converts numbers of any length")


@needs_int_digit_limit
@pytest.mark.parametrize(
    "text, pos",
    [
        (f"{LONG}*x1", 0),  # coefficient
        (f"x1^{LONG}", 3),  # exponent
        (f"x1 ^ {LONG} + x2", 5),
        (f"x2 + 3/{LONG}", 7),  # denominator
        (f"x1 - {LONG}/2", 5),  # numerator of a fraction
    ],
)
@pytest.mark.parametrize("domain", [QQ, GF(7)])
def test_numbers_longer_than_int_converts_are_refused_with_position(text, pos, domain):
    with pytest.raises(PolyParseError, match=f"number of more than {INT_DIGITS} digits") as info:
        parse_poly(text, Ring.flat(2, domain))
    assert info.value.pos == pos


@needs_int_digit_limit
def test_numbers_as_long_as_int_converts_are_read():
    ring = Ring.flat(2, QQ)
    longest = "1" * INT_DIGITS
    assert parse_poly(f"{longest}*x1", ring).terms == {(1, 0): int(longest)}


@needs_int_digit_limit
@pytest.mark.parametrize(
    "header", [f"ring n={LONG} field=q", f"ring n=2 field=fp:{LONG}", f"ring n=4 field=q matrix={LONG}x2"]
)
def test_ring_header_numbers_longer_than_int_converts_are_refused(header):
    with pytest.raises(ValueError, match=f"bad ring header: a number of more than {INT_DIGITS} digits"):
        parse_ring_header(header)


@pytest.mark.parametrize(
    "header",
    ["ring n=1000000000 field=q", f"ring n={_MAX_VARIABLES + 1} field=fp:7",
     "ring n=1000000000 field=q matrix=1000x1000000"],
)
def test_ring_header_with_too_many_variables_is_refused_before_any_ring(monkeypatch, header):
    def no_ring(*args, **kwargs):
        raise AssertionError("a refused header built a ring")

    monkeypatch.setattr(Ring, "__init__", no_ring)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"bad ring header: more than {_MAX_VARIABLES} variables"):
        parse_ring_header(header)
    assert time.perf_counter() - start < 0.5


def test_ring_header_at_the_variable_limit_is_read():
    # the limit leaves room for the wide linear systems gb codim answers
    assert _MAX_VARIABLES >= 50000
    assert parse_ring_header(f"ring n={_MAX_VARIABLES} field=q").nvars == _MAX_VARIABLES


def test_ideal_file_round_trip():
    ring = Ring.matrix(3, 2, GF(7))
    rng = random.Random(5)
    polys = [random_poly(rng, ring) for _ in range(4)]
    text = dump_ideal_text(ring, polys)
    ring2, polys2 = load_ideal_text(text)
    assert ring2 == ring
    assert polys2 == polys


def test_ideal_file_comments_and_conflicts():
    text = "# a comment\nring n=2 field=q\nx1 + x2  # inline\n"
    ring, polys = load_ideal_text(text)
    assert len(polys) == 1
    with pytest.raises(ValueError, match="conflicts"):
        load_ideal_text(text, Ring.flat(3, QQ))
    with pytest.raises(ValueError, match="before any ring"):
        load_ideal_text("x1 + x2\n")


# one case per refusal: (field, text, message, position)
REFUSALS = [
    (QQ, "x1 + @", "unexpected character '@'", 4),
    (QQ, "x1 x2", "expected '+' or '-', got 'x2'", 3),
    (QQ, "x1^2^3", "expected '+' or '-', got '^'", 4),
    (QQ, "x1 + * x2", "expected coefficient or variable, got '*'", 5),
    (QQ, "x1 +", "unexpected end of input", 3),
    (QQ, "x1*", "unexpected end of input", 2),
    (QQ, "3/x1", "expected denominator after '/'", 2),
    (QQ, "3 / ", "expected denominator after '/'", 2),
    (QQ, "3/0*x1", "invalid rational: zero denominator", 2),
    (GF(7), "3/0*x1", "invalid rational: zero denominator", 2),
    (GF(7), "x2 + 3/14", "invalid rational: invalid denominator 14 mod 7", 7),
    (QQ, "x1 + x9", "unknown variable name 'x9'", 5),
    (QQ, "x1^x2", "expected integer exponent after '^'", 3),
    (QQ, "x1 ^ +", "expected integer exponent after '^'", 5),
    (QQ, "x1^40000", f"exponent above {MAX_EXPONENT}, the packed key limit", 0),
    (QQ, "x1^20000*x1^20000", f"exponent above {MAX_EXPONENT}, the packed key limit", 9),
    (QQ, "", "empty polynomial text", 0),
    (QQ, "   ", "empty polynomial text", 0),
]


@pytest.mark.parametrize("field, text, message, pos", REFUSALS)
def test_refusal_message_and_position(field, text, message, pos):
    with pytest.raises(PolyParseError) as info:
        parse_poly(text, Ring.flat(3, field))
    assert str(info.value) == f"{message} (at position {pos})"
    assert info.value.pos == pos


@pytest.mark.parametrize("text, pos", [("x1 2", 3), ("2 3", 2), ("x1 x2", 3), ("x1\t2", 3)])
def test_adjacent_tokens_without_star_are_refused(text, pos):
    # x12 names a variable of this ring: a blank inside never merges two tokens
    with pytest.raises(PolyParseError, match="expected '\\+' or '-'") as info:
        parse_poly(text, Ring.flat(12, QQ))
    assert info.value.pos == pos


def test_blanks_around_caret_slash_and_star():
    ring = Ring.flat(2, QQ)
    expected = parse_poly("3/4*x1^2*x2", ring)
    for text in ("3 / 4 * x1 ^ 2 * x2", "3\t/\t4\t*\tx1\t^\t2\t*\tx2", " 3/ 4 *x1^ 2*  x2 "):
        assert parse_poly(text, ring) == expected


def test_coefficient_types():
    f = parse_poly("-1/2*x1 + 3 - 5/3*x2", Ring.flat(2, QQ))
    assert all(type(c) is Fraction for c in f.terms.values())
    assert sorted(f.terms.values()) == [Fraction(-5, 3), Fraction(-1, 2), Fraction(3)]
    f = parse_poly("-1/2*x1 + 3 - 5/3*x2 + 10", Ring.flat(2, GF(7)))
    assert all(type(c) is int and 0 <= c < 7 for c in f.terms.values())
    assert sorted(f.terms.values()) == [3, 3, 6]  # -1/2 = 3, -5/3 = 3, 3 + 10 = 6 mod 7


@pytest.mark.parametrize("place", ["leading", "inner", "trailing"])
@pytest.mark.parametrize("bad", ["a", "@", "x2"])
def test_long_blank_runs_are_refused_in_linear_time(place, bad):
    run = " " * 10**5 + bad
    text = {"leading": run + " x1", "inner": "x1" + run + " + x2", "trailing": "x1 + x2" + run}[place]
    start = time.perf_counter()
    with pytest.raises(PolyParseError):
        parse_poly(text, Ring.flat(3, QQ))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("rows, cols", [(4, 3), (7, 6)])
@pytest.mark.parametrize("field", [GF(32003), QQ])
def test_minor_families_round_trip(rows, cols, field):
    matrix = GenericMatrix(rows, cols, field)
    minors = maximal_minors(matrix)
    ring, polys = load_ideal_text(dump_ideal_text(matrix.ring, minors))
    assert ring == matrix.ring
    assert polys == minors
