"""Monomial orders as sort-key providers over exponent tuples.

An order exposes ``key(mono)``; monomial ``a`` is larger than ``b`` exactly
when ``key(a) > key(b)``.  Keys are plain tuples so ``max``/``sorted`` on
term dicts stay cheap.

For the division kernel an order also gives a ``Packing``: one int per
monomial that compares in the order and adds under multiplication, after
Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors" (CASC 2007).
"""

from __future__ import annotations

import struct
from functools import lru_cache


class MonomialOrder:
    """One instance per order (``DEGREVLEX``, ``LEX``, ``ELIMINATION``), so
    orders compare and hash by identity."""

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


class _Elimination(MonomialOrder):
    """Eliminates the first variable: its exponent decides first, then
    degrevlex on the rest."""

    name = "elim"

    @staticmethod
    def key(mono):
        return (mono[0],) + _DegRevLex.key(mono[1:])


DEGREVLEX = _DegRevLex()
LEX = _Lex()
ELIMINATION = _Elimination()


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


def _slots(nvars):
    """Pack and unpack ``nvars`` exponents in 16-bit slots, the first
    exponent in the lowest slot."""
    layout = struct.Struct(f"<{nvars}h")
    size = layout.size

    def pack(mono) -> int:
        try:
            return int.from_bytes(layout.pack(*mono), "little")
        except struct.error:
            raise KeyWidthError(f"exponent above {MAX_EXPONENT}, the packed key limit") from None

    def unpack(vector: int) -> tuple:
        return layout.unpack(vector.to_bytes(size, "little"))

    return pack, unpack


class Packing:
    """Packed keys of the monomials of an ``nvars``-variable ring.

    ``key(m)`` is an int with two properties the division kernel relies on:
    ``a`` is larger than ``b`` in the order exactly when ``key(a) <
    key(b)``, so a min-heap of keys yields leading terms first; and
    ``key(a*b) == key(a) + key(b)``, so shifting a polynomial by a monomial
    adds one int to each of its keys.  Each exponent sits in a 16-bit slot
    whose top bit is clear for every monomial ``key`` accepts (exponents up
    to MAX_EXPONENT; beyond that it raises KeyWidthError).  The product of
    two such monomials still fits its slots, so its key is exact, and a set
    top bit flags an exponent past the limit.

    ``vector(k)`` is the packed exponent vector of the monomial with key
    ``k``: ``a`` divides ``b`` exactly when ``(vector(kb) - vector(ka)) &
    guard == 0``.  ``monomial(k)`` is its exponent tuple.
    """

    __slots__ = ("key", "vector", "monomial", "guard")

    def __init__(self, nvars, key, vector, monomial):
        self.key = key
        self.vector = vector
        self.monomial = monomial
        # the top bit of every slot: the base-2^WIDTH repunit, shifted
        self.guard = ((1 << WIDTH * nvars) - 1) // ((1 << WIDTH) - 1) << (WIDTH - 1)


def _degrevlex_packing(nvars):
    # key = vector - (degree << S): the degree decides first, then the last
    # exponent, smallest first, in the highest slot of the vector
    pack, unpack = _slots(nvars)
    shift = WIDTH * nvars
    mask = (1 << shift) - 1

    def key(m):
        return pack(m) - (sum(m) << shift)

    def vector(k):
        return k & mask

    def monomial(k):
        return unpack(k & mask)

    return Packing(nvars, key, vector, monomial)


def _lex_packing(nvars):
    # key = -vector with the first exponent in the highest slot
    pack, unpack = _slots(nvars)

    def key(m):
        return -pack(m[::-1])

    def vector(k):
        return -k

    def monomial(k):
        return unpack(-k)[::-1]

    return Packing(nvars, key, vector, monomial)


def _elimination_packing(nvars):
    # key = (degrevlex key of the first variable << T) + degrevlex key of the
    # rest; T leaves room for the second part of any product of two accepted
    # monomials, whose absolute value stays below 2^(T-1)
    n2 = nvars - 1
    pack1, _ = _slots(1)
    pack2, _ = _slots(n2)
    _, unpack = _slots(nvars)
    s2 = WIDTH * n2
    mask1, mask2 = (1 << WIDTH) - 1, (1 << s2) - 1
    t = s2 + (n2 << WIDTH).bit_length() + 1
    half = 1 << (t - 1)

    def key(m):
        head, rest = m[:1], m[1:]
        return ((pack1(head) - (m[0] << WIDTH)) << t) + pack2(rest) - (sum(rest) << s2)

    def vector(k):
        hi = (k + half) >> t
        return (hi & mask1) | ((k - (hi << t)) & mask2) << WIDTH

    def monomial(k):
        return unpack(vector(k))

    return Packing(nvars, key, vector, monomial)


@lru_cache(maxsize=32)  # exact_divide asks once per call: ~1.6k times in small-r
def packing(order: MonomialOrder, nvars: int) -> Packing:
    """The packed keys of ``order`` on ``nvars`` variables."""
    if isinstance(order, _DegRevLex):
        return _degrevlex_packing(nvars)
    if isinstance(order, _Lex):
        return _lex_packing(nvars)
    if isinstance(order, _Elimination):
        return _elimination_packing(nvars)
    raise TypeError(f"no packed keys for the order {order!r}")
