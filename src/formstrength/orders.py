"""Monomial orders as sort-key providers over exponent tuples.

An order exposes ``key(mono)``; monomial ``a`` is larger than ``b`` exactly
when ``key(a) > key(b)``.  Keys are plain tuples so ``max``/``sorted`` on
term dicts stay cheap.

For the division kernel an order also gives a ``Packing``: one int per
monomial that compares in the order and adds under multiplication, after
Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors" (CASC 2007).  Both orders share one layout, the
packed exponent vector below a weight the order chooses: degrevlex weighs
the degree, and lex, being a weight order with a degrevlex tie-break on
bounded exponents (Cox, Little & O'Shea, "Ideals, Varieties, and
Algorithms", ch. 3 §1), weighs the exponents first to last.
"""

from __future__ import annotations

import struct
from functools import lru_cache


class MonomialOrder:
    """One instance per order (``DEGREVLEX``, ``LEX``), so orders compare
    and hash by identity."""

    name = "?"

    def key(self, mono):  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self):
        return self.name


class _DegRevLex(MonomialOrder):
    name = "degrevlex"

    @staticmethod
    def key(mono):
        total = 0
        rev = []
        for e in reversed(mono):
            total += e
            rev.append(-e)
        return (total, tuple(rev))


class _Lex(MonomialOrder):
    name = "lex"

    @staticmethod
    def key(mono):
        return mono


DEGREVLEX = _DegRevLex()
LEX = _Lex()


def order_from_name(name: str) -> MonomialOrder:
    if name == "degrevlex":
        return DEGREVLEX
    if name == "lex":
        return LEX
    raise ValueError(f"unknown monomial order {name!r}")


# ---------------------------------------------------------------------------
# packed keys

WIDTH = 16                             # bits per exponent slot
MAX_EXPONENT = (1 << (WIDTH - 1)) - 1  # the top bit of each slot is a guard


class KeyWidthError(OverflowError):
    """An exponent beyond MAX_EXPONENT, the limit of the packed keys."""


class Packing:
    """Packed keys of the monomials of an ``nvars``-variable ring, in the one
    layout every order shares.

    The vector of a monomial holds its exponents in 16-bit slots, the first
    in the lowest slot, and its key is ``vector - (weight << S)``, S = WIDTH
    * nvars, for a weight the order chooses (``packing``): a nonnegative
    int, additive under multiplication.  A larger weight makes a larger
    monomial, and between equal weights a smaller vector does, which is
    degrevlex's tie-break: the last exponent, smallest first.  So ``key``
    has the two properties the division kernel relies on: ``a`` is larger
    than ``b`` in the order exactly when ``key(a) < key(b)``, so a min-heap
    of keys yields leading terms first; and ``key(a*b) == key(a) +
    key(b)``, so shifting a polynomial by a monomial adds one int to each
    of its keys.

    ``key`` accepts exponents up to MAX_EXPONENT (beyond that it raises
    KeyWidthError), so the top bit of every slot is clear.  The product of
    two accepted monomials still fits its slots, so its key is exact, and a
    set top bit flags an exponent past the limit.  The vector of a key
    ``k`` is ``k & mask`` under every order: ``a`` divides ``b`` exactly
    when ``((kb & mask) - (ka & mask)) & guard == 0``, and ``monomial(k)``,
    its exponent tuple, decodes products of two accepted monomials too.
    """

    __slots__ = ("key", "monomial", "mask", "guard")

    def __init__(self, nvars, weight):
        signed, unsigned = struct.Struct(f"<{nvars}h"), struct.Struct(f"<{nvars}H")
        size = signed.size
        shift = WIDTH * nvars
        mask = (1 << shift) - 1

        def key(m):
            try:
                vector = int.from_bytes(signed.pack(*m), "little")
            except struct.error:
                raise KeyWidthError(f"exponent above {MAX_EXPONENT}, the packed key limit") from None
            return vector - (weight(m) << shift)

        def monomial(k):
            return unsigned.unpack((k & mask).to_bytes(size, "little"))

        self.key = key
        self.monomial = monomial
        self.mask = mask
        # the top bit of every slot: the base-2^WIDTH repunit, shifted
        self.guard = mask // ((1 << WIDTH) - 1) << (WIDTH - 1)


# one small-r build (seed 0) asks 1256 times, 238 of them from exact_divide:
# 0.11 us a call cached against 1.5 us, about 2 ms of a 50 ms build
@lru_cache(maxsize=32)
def packing(order: MonomialOrder, nvars: int) -> Packing:
    """The packed keys of ``order`` on ``nvars`` variables, by its weight:

    - degrevlex: the degree;
    - lex: the exponents in 16-bit slots, the first in the highest.  A
      product's slots stay below 2^WIDTH, so the weight alone decides, as
      in ``LEX.key``.
    """
    if order is DEGREVLEX:
        weight = sum
    elif order is LEX:
        first_highest = struct.Struct(f">{nvars}h")

        def weight(m):
            return int.from_bytes(first_highest.pack(*m), "big")

    else:
        raise TypeError(f"no packed keys for the order {order!r}")
    return Packing(nvars, weight)
