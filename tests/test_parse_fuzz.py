"""Fuzzing of the polynomial parser.  On polynomial text with random edits,
``parse_poly`` and the token-by-token reference parser in ``conftest`` both
accept, with equal polynomials, or both refuse, with a ``PolyParseError`` of
the same message and position and never another exception; and the text
``format_poly`` writes parses back to the same polynomial."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from formstrength.domains import GF, QQ
from formstrength.parse import PolyParseError, format_poly, parse_poly
from formstrength.poly import Poly, Ring

from conftest import random_poly, reference_parse_poly

RINGS = [Ring.flat(3, QQ), Ring.flat(4, GF(7)), Ring.matrix(3, 2, QQ)]
# tokens of the grammar, pieces of them, blank runs, and characters outside it
PIECES = ["x", "x1", "x4", "x9", "x0", "x01", "x2_1", "x3_2", "_", "_1", "^", "^2", "^0", "*", "/", "/0", "/7",
          "/14", "1/7*", " + 3/14", "+", "-", " ", "\t", "0", "1", "7", "14", "10000000000000000000000", "(", ".",
          "e", "é", "٣", "x٣", "", "  ", "\t\t", " \t ", " " * 7]

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def edited_texts(draw):
    """(ring, polynomial, text): a random polynomial and its canonical text
    after one to four edits, each replacing up to three characters at a
    random position by one of PIECES."""
    ring = draw(st.sampled_from(RINGS))
    f = random_poly(random.Random(draw(st.integers(0, 2**32))), ring, max_degree=4, max_terms=5)
    text = format_poly(f)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.sampled_from(PIECES)) + text[j:]
    return ring, f, text


def _outcome(parse, text, ring):
    try:
        return parse(text, ring)
    except PolyParseError as exc:
        return str(exc), exc.pos


@SETTINGS
@given(case=edited_texts())
def test_parse_poly_on_edited_text_returns_a_poly_or_a_parse_error(case):
    ring, f, text = case
    assert parse_poly(format_poly(f), ring) == f
    got = _outcome(parse_poly, text, ring)
    assert got == _outcome(reference_parse_poly, text, ring)
    if isinstance(got, Poly):
        assert got.ring == ring
        assert parse_poly(format_poly(got), ring) == got


def test_denominator_divisible_by_p_is_a_parse_error():
    ring = Ring.flat(2, GF(7))
    for text in ("1/7*x1", "x2 + 3/14"):
        with pytest.raises(PolyParseError, match="invalid rational"):
            parse_poly(text, ring)
    assert parse_poly("1/8*x1", ring) == ring.var(0)
