"""Packed order keys agree with the tuple keys of every order in use."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from formstrength.orders import (
    DEGREVLEX,
    LEX,
    MAX_EXPONENT,
    WIDTH,
    ELIMINATION,
    KeyWidthError,
    packing,
)
from formstrength.parse import _MAX_VARIABLES

ORDERS = [DEGREVLEX, LEX, ELIMINATION]

# small exponents make ties in the leading slots likely; large ones reach
# the width limit
EXPONENT = st.one_of(
    st.integers(0, 4),
    st.integers(MAX_EXPONENT - 4, MAX_EXPONENT),
    st.integers(0, MAX_EXPONENT),
)


@st.composite
def monomials(draw, count):
    n = draw(st.integers(1, 6))
    return [tuple(draw(st.lists(EXPONENT, min_size=n, max_size=n))) for _ in range(count)]


def _cmp(x, y):
    return (x > y) - (x < y)


def _mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(order=st.sampled_from(ORDERS), monos=monomials(2))
def test_packed_key_orders_like_the_tuple_key(order, monos):
    a, b = monos
    pk = packing(order, len(a))
    # larger monomial, smaller packed key
    assert _cmp(order.key(a), order.key(b)) == _cmp(pk.key(b), pk.key(a))
    assert pk.monomial(pk.key(a)) == a


@SETTINGS
@given(order=st.sampled_from(ORDERS), monos=monomials(4))
def test_sum_of_keys_is_the_exact_key_of_the_product(order, monos):
    # the kernel forms products by adding keys, and products of two
    # accepted monomials may carry exponents up to twice the limit
    a, b, c, d = monos
    pk = packing(order, len(a))
    ab, cd = _mul(a, b), _mul(c, d)
    kab, kcd = pk.key(a) + pk.key(b), pk.key(c) + pk.key(d)
    assert _cmp(order.key(ab), order.key(cd)) == _cmp(kcd, kab)
    assert kab & pk.mask == (pk.key(a) & pk.mask) + (pk.key(b) & pk.mask)
    assert pk.monomial(kab) == ab
    assert bool(kab & pk.mask & pk.guard) == (max(ab) > MAX_EXPONENT)


@SETTINGS
@given(order=st.sampled_from(ORDERS), monos=monomials(2))
def test_vector_difference_decides_divisibility(order, monos):
    a, b = monos
    pk = packing(order, len(a))
    divides = all(x <= y for x, y in zip(a, b))
    assert divides == (not ((pk.key(b) & pk.mask) - (pk.key(a) & pk.mask)) & pk.guard)


@pytest.mark.parametrize("order", ORDERS)
def test_exponent_past_the_limit_is_refused(order):
    pk = packing(order, 3)
    pk.key((MAX_EXPONENT, 0, MAX_EXPONENT))
    with pytest.raises(KeyWidthError):
        pk.key((0, MAX_EXPONENT + 1, 0))


@pytest.mark.parametrize("order", ORDERS)
def test_guard_is_the_top_bit_of_every_slot(order):
    for n in [*range(40), _MAX_VARIABLES]:
        pk = packing(order, n)
        # little-endian 16-bit slots, each with only its top bit set
        assert WIDTH == 16 and pk.guard == int.from_bytes(b"\x00\x80" * n, "little")
        assert pk.mask == int.from_bytes(b"\xff\xff" * n, "little")


# the widest keys: one variable, many, and the most a ring header declares
SIZES = [1, 40, _MAX_VARIABLES]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("order", ORDERS)
def test_first_variable_against_the_largest_product_free_of_it(order, n):
    # under lex and elimination x1 outranks the product of two monomials in
    # x2..xn at the limit, whose degree 2(n - 1)·MAX_EXPONENT is the largest
    # the kernel can form: the weight of x1 must sit above it
    pk = packing(order, n)
    x1 = (1,) + (0,) * (n - 1)
    rest = (0,) + (MAX_EXPONENT,) * (n - 1)
    square = (0,) + (2 * MAX_EXPONENT,) * (n - 1)
    assert _cmp(order.key(x1), order.key(square)) == _cmp(2 * pk.key(rest), pk.key(x1))
    if order is not DEGREVLEX:
        assert pk.key(x1) < 2 * pk.key(rest)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("order", ORDERS)
def test_products_at_twice_the_limit_round_trip(order, n):
    pk = packing(order, n)
    top = (MAX_EXPONENT,) * n
    mixed = tuple(i % 3 * MAX_EXPONENT // 2 for i in range(n))
    for a, b in [(top, top), (top, mixed), (mixed, mixed)]:
        k = pk.key(a) + pk.key(b)
        assert pk.monomial(k) == _mul(a, b)
        assert k & pk.mask == (pk.key(a) & pk.mask) + (pk.key(b) & pk.mask)
        assert bool(k & pk.mask & pk.guard) == (max(_mul(a, b)) > MAX_EXPONENT)
