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
    assert pk.vector(kab) == pk.vector(pk.key(a)) + pk.vector(pk.key(b))
    assert bool(pk.vector(kab) & pk.guard) == (max(ab) > MAX_EXPONENT)


@SETTINGS
@given(order=st.sampled_from(ORDERS), monos=monomials(2))
def test_vector_difference_decides_divisibility(order, monos):
    a, b = monos
    pk = packing(order, len(a))
    divides = all(x <= y for x, y in zip(a, b))
    assert divides == (not (pk.vector(pk.key(b)) - pk.vector(pk.key(a))) & pk.guard)


@pytest.mark.parametrize("order", ORDERS)
def test_exponent_past_the_limit_is_refused(order):
    pk = packing(order, 3)
    pk.key((MAX_EXPONENT, 0, MAX_EXPONENT))
    with pytest.raises(KeyWidthError):
        pk.key((0, MAX_EXPONENT + 1, 0))


def test_guard_is_the_top_bit_of_every_slot():
    for n in range(40):
        assert packing(DEGREVLEX, n).guard == sum(1 << (WIDTH * i + WIDTH - 1) for i in range(n))
