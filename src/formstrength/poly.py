"""Sparse exact multivariate polynomials.

Monomials are dense exponent tuples (one slot per ring variable); a
polynomial is a dict from monomial to nonzero coefficient.  Values are
immutable by convention: no operation mutates an existing polynomial.
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement

from .domains import QQ
from .orders import DEGREVLEX

# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a, b):
    return tuple(map(operator.add, a, b))


def mono_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


def monomials(variables, nvars, d, forms):
    """The monomials over the given variable indices of degree exactly d
    (``forms``) or at most d, as exponent tuples of length nvars, in
    descending degrevlex order: the combinations of one degree, drawn from
    the variables last to first, come in ascending degrevlex order."""
    out = []
    for e in [d] if forms else range(d, -1, -1):
        block = []
        for combo in combinations_with_replacement(variables[::-1], e):
            mono = [0] * nvars
            for v in combo:
                mono[v] += 1
            block.append(tuple(mono))
        out += reversed(block)
    return out


# ---------------------------------------------------------------------------


class Ring:
    """Ambient polynomial ring: a variable-name table over an exact domain.

    Flat rings use names x1..xn; matrix rings use x<i>_<j> for the entries
    of a generic rows-by-cols matrix, flattened row-major.
    """

    __slots__ = ("nvars", "domain", "names", "matrix_shape", "_index")

    def __init__(self, nvars, domain=QQ, names=None, matrix_shape=None):
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(nvars))
        if len(names) != nvars:
            raise ValueError("one name per variable required")
        self.nvars = nvars
        self.domain = domain
        self.names = tuple(names)
        self.matrix_shape = matrix_shape
        self._index = {n: i for i, n in enumerate(self.names)}

    @classmethod
    def flat(cls, nvars, domain=QQ):
        return cls(nvars, domain)

    @classmethod
    def matrix(cls, rows, cols, domain=QQ):
        names = tuple(
            f"x{i + 1}_{j + 1}" for i in range(rows) for j in range(cols)
        )
        return cls(rows * cols, domain, names, matrix_shape=(rows, cols))

    def entry_index(self, row, col):
        """Variable index of matrix entry (row, col), 1-based."""
        rows, cols = self.matrix_shape
        if not (1 <= row <= rows and 1 <= col <= cols):
            raise IndexError(f"entry ({row},{col}) outside {rows}x{cols}")
        return (row - 1) * cols + (col - 1)

    def index_of(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable name {name!r}") from None

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.const(self.domain.one)

    def const(self, c):
        c = self.domain.from_int(c) if isinstance(c, int) else c
        if not c:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, i):
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        mono = tuple(1 if k == i else 0 for k in range(self.nvars))
        return Poly(self, {mono: self.domain.one})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.nvars == other.nvars
            and self.domain == other.domain
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.nvars, self.domain, self.names))

    def __repr__(self):
        return f"Ring({self.nvars} vars, {self.domain!r})"


class Poly:
    """Sparse multivariate polynomial over an exact field."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, _clean=True):
        if _clean:
            terms = {m: c for m, c in terms.items() if c}
        self.ring = ring
        self.terms = terms

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(not any(m) for m in self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) == 1

    def variables(self):
        """Sorted indices of variables that actually occur."""
        seen = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    seen.add(i)
        return sorted(seen)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("mixed rings / coefficient domains")

    def __add__(self, other):
        self._check(other)
        res = dict(self.terms)
        add = self.ring.domain.add
        for m, c in other.terms.items():
            s = add(res.get(m, self.ring.domain.zero), c)
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Poly(self.ring, res, _clean=False)

    def __sub__(self, other):
        self._check(other)
        res = dict(self.terms)
        dom = self.ring.domain
        for m, c in other.terms.items():
            s = dom.sub(res.get(m, dom.zero), c)
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Poly(self.ring, res, _clean=False)

    def __neg__(self):
        neg = self.ring.domain.neg
        return Poly(self.ring, {m: neg(c) for m, c in self.terms.items()}, _clean=False)

    def __mul__(self, other):
        self._check(other)
        dom = self.ring.domain
        mul, add = dom.mul, dom.add
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                prod = mul(c1, c2)
                s = add(res.get(m, dom.zero), prod)
                if s:
                    res[m] = s
                else:
                    res.pop(m, None)
        return Poly(self.ring, res, _clean=False)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale(self, c):
        """Multiply by a domain scalar."""
        if not c:
            return self.ring.zero()
        mul = self.ring.domain.mul
        return Poly(self.ring, {m: mul(cc, c) for m, cc in self.terms.items()}, _clean=False)

    def monic(self, order=DEGREVLEX):
        """Divide by the leading coefficient under the given order."""
        if not self.terms:
            return self
        lm = max(self.terms, key=order.key)
        inv = self.ring.domain.inv(self.terms[lm])
        return self.scale(inv)

    # -- comparisons / hashing -----------------------------------------------

    def key(self):
        """Canonical hashable key (order-free)."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        from .parse import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"<{self}>"
