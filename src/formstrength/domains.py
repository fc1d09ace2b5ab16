"""Exact coefficient fields: the rationals and prime fields.

Every computation in this package runs over one of these two domains.
Rational elements are `fractions.Fraction` (always reduced, positive
denominator); prime-field elements are plain ints in ``[0, p)`` with the
modulus carried by the field object, so one field instance is shared per
computation context.
"""

from __future__ import annotations

import sys
from fractions import Fraction


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on these 13 bases is exact below this bound, the least strong
# pseudoprime to all of them (Sorenson & Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017); the first 12 bases alone admit the
# composite 318665857834031151167461
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; moduli at or above _MR_LIMIT are refused
    with ValueError rather than answered probabilistically."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"modulus {n} is too large: primality is decided only below {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers."""

    name = "q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, num, den=1) -> Fraction:
        if den == 0:
            raise ZeroDivisionError("invalid rational: zero denominator")
        return Fraction(num, den)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if not a:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero in Q")
        return Fraction(a) / b

    @staticmethod
    def from_int(k):
        return Fraction(k)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(("domain", "q"))

    def __repr__(self):
        return "QQ"


QQ = Rationals()


class PrimeField:
    """The field F_p; elements are int residues in ``[0, p)``."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"fp:{p}"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def __call__(self, num, den=1) -> int:
        p = self.p
        if den % p == 0:
            raise ZeroDivisionError(f"invalid denominator {den} mod {p}")
        a = num % p
        if den % p == 1:
            return a
        return a * pow(den, -1, p) % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def from_int(self, k):
        return k % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("domain", self.p))

    def __repr__(self):
        return f"GF({self.p})"


_FIELD_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the (cached) prime field with p elements."""
    field = _FIELD_CACHE.get(p)
    if field is None:
        field = _FIELD_CACHE[p] = PrimeField(p)
    return field


def _digit_limit():
    """The most digits ``int()`` converts to a number: Python's
    ``sys.get_int_max_str_digits()``, or 0 (no limit) where it has none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def domain_from_name(name: str):
    """Resolve a field tag: exactly ``q`` for the rationals, or ``fp:`` and
    the decimal digits of p for F_p.  ``int()`` alone would also take
    blanks, a sign and underscores, which the ring header refuses."""
    if name == "q":
        return QQ
    digits = name[3:]
    if not (name.startswith("fp:") and digits.isascii() and digits.isdigit()):
        raise ValueError(f"unknown field {name!r} (expected 'q' or 'fp:<p>')")
    limit = _digit_limit()
    if limit and len(digits) > limit:
        raise ValueError(f"bad field: a number of more than {limit} digits")
    return GF(int(digits))
