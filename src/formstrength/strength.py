"""Strength: the strength-1 exclusion for the cubic minor family, and a
brute-force strength oracle for small quadrics.

A strength-1 combination of three maximal minors of the generic 4x3 matrix
would lie in an ideal generated by two column-homogeneous linear forms, and
up to the row and column group action such a pair is one of three normal
forms: same column, parallel rows or skew (the ``n33`` certificate cites
both facts).  ``exclusion_matrix`` reduces the family modulo one class
ideal and computes the exact kernel over Q of the coefficient matrix of the
surviving monomials; a trivial kernel rules the class out.  The tests also
run it over all 66 ideals generated by two matrix variables, which needs no
symmetry argument.

A definitional brute-force strength search over F_3 and F_5 serves as the
independent oracle for quadrics; it uses no Gram matrix, rank or linear
algebra.  A quadric in n variables is an integer code: with the quadratic
monomials in a fixed order m_0, m_1, ..., sum c_k m_k has code sum c_k p^k.
The products scalar * l1 * l2 of linear forms are enumerated once per
(p, n) as codes, and two codes add digit by digit mod p through tables over
chunks of w digits with p^w <= 243, one lookup per chunk.  Over F_3 with at
most four variables, "strength <= 1" is a byte map over all 3^10 codes.  A
quadric is zero, a product or a sum of two products exactly when it lies in
(a, b)_2 = {a*m1 + b*m2} for some plane <a, b> of linear forms, so the map
is filled one plane at a time: the [n choose 2]_p planes (130 for n = 4)
are taken once each as reduced echelon pairs, and each span (a, b)_2 is
built from its 2n - 1 generators a*x_k (every k) and b*x_k (k != t), where
a has its leading 1 at t: writing a*b two ways makes b*x_t a combination of
them.  A form has strength 2 when adding some product lands on that map.
Over F_5 one product is subtracted and the rest looked up among the
products.
"""

from __future__ import annotations

from functools import cache
from operator import add, mul

from .domains import PrimeField
from .groebner import Ideal, normal_form
from .linalg import mat_rank
from .orders import DEGREVLEX
from .poly import Poly, Ring

SAME_COLUMN = "same-column"
PARALLEL_ROWS = "parallel-rows"
SKEW = "skew"

_CLASS_REPRESENTATIVES = {
    SAME_COLUMN: ((1, 1), (2, 1)),
    PARALLEL_ROWS: ((1, 1), (1, 2)),
    SKEW: ((1, 1), (2, 2)),
}


# ---------------------------------------------------------------------------
# exclusion matrices


class ExclusionReport:
    """Family reduced modulo one class ideal: surviving monomials (the rows
    of the coefficient matrix, whose columns are the family members) and
    the dimension of that matrix's kernel."""

    __slots__ = ("ideal_gens", "monomials", "kernel_dim")

    def __init__(self, ideal_gens, monomials, kernel_dim):
        self.ideal_gens = ideal_gens
        self.monomials = monomials
        self.kernel_dim = kernel_dim

    @property
    def trivial_kernel(self):
        return self.kernel_dim == 0

    def row_count(self):
        return len(self.monomials)


def exclusion_matrix(family, class_ideal: Ideal) -> ExclusionReport:
    """Reduce every family member modulo the class ideal and compute the
    kernel dimension of the surviving-monomial coefficient matrix, the
    family's size less its exact rank; a trivial kernel means no nontrivial
    combination of the family lies in the ideal."""
    ring = family[0].ring
    dom = ring.domain
    basis = class_ideal.groebner()
    reduced = [normal_form(f, basis) for f in family]
    monos = set()
    for f in reduced:
        monos.update(f.terms)
    monomials = sorted(monos, key=DEGREVLEX.key, reverse=True)
    matrix = [
        [f.terms.get(m, dom.zero) for f in reduced]
        for m in monomials
    ]
    # with no rows (everything reduced to zero) the rank is 0: a full kernel
    return ExclusionReport(class_ideal.gens, monomials, len(family) - mat_rank(matrix, dom))


def class_ideals(ring: Ring):
    """The three normal-form pair ideals, keyed by class tag."""
    out = {}
    for tag, ((r1, c1), (r2, c2)) in _CLASS_REPRESENTATIVES.items():
        gens = [
            ring.var(ring.entry_index(r1, c1)),
            ring.var(ring.entry_index(r2, c2)),
        ]
        out[tag] = Ideal(ring, gens)
    return out


# ---------------------------------------------------------------------------
# definitional brute-force strength for small quadrics


_CHUNK_LIMIT = 243  # p^w <= 243, so a chunk table has at most 243^2 entries


def _digit_sum_rows(p, w):
    """rows[a][b] = a + b digit by digit mod p, for a, b < p^w."""
    low = [[(a + b) % p for b in range(p)] for a in range(p)]  # one digit
    rows = [[0]]
    for _ in range(w):
        # prepend a low digit to every code of the previous width
        rows = [
            [s + h for h in shifted for s in sums]
            for shifted in ([p * h for h in row] for row in rows)
            for sums in low
        ]
    return rows


class _QuadricCodes:
    """The codes of the quadrics in n variables over F_p (see the module
    docstring), the codes of the products among them, and the chunk tables
    that add two codes digit by digit mod p."""

    __slots__ = ("p", "n", "size", "weights", "products", "product_set", "_base", "_tables", "_columns", "_le_one")

    def __init__(self, p, n):
        self.p = p
        self.n = n
        pairs = [(i, j) for i in range(n) for j in range(i, n)]  # monomial x_i x_j
        m = len(pairs)
        powers = [p**k for k in range(m)]
        self.size = p**m
        self.weights = {
            tuple((k == i) + (k == j) for k in range(n)): power
            for (i, j), power in zip(pairs, powers)
        }

        products = []
        seen = set()
        lins = _linear_forms(p, n)
        for a, u in enumerate(lins):
            for v in lins[a:]:
                digits = [(u[i] * v[j] + (u[j] * v[i] if i != j else 0)) % p for i, j in pairs]
                for s in range(1, p):
                    code = sum(d * s % p * power for d, power in zip(digits, powers))
                    if code not in seen:
                        seen.add(code)
                        products.append(code)
        self.products = products
        self.product_set = seen

        w = 1
        while w < m and p ** (w + 1) <= _CHUNK_LIMIT:
            w += 1
        base = p**w
        rows = _digit_sum_rows(p, w)
        chunks = -(-m // w)
        shifts = [base**c for c in range(chunks)]
        self._base = base
        # chunk c's table holds its sums already shifted into place
        self._tables = [rows] + [[[x * shift for x in row] for row in rows] for shift in shifts[1:]]
        self._columns = [[q // shift % base for q in products] for shift in shifts]
        self._le_one = None

    def code(self, terms):
        """Code of a term dict; KeyError on a monomial that is not quadratic."""
        return sum(map(mul, terms.values(), map(self.weights.__getitem__, terms)))

    def sums(self, code):
        """code + q digit by digit mod p, for every product q."""
        return self._add(code, self._columns)

    def _add(self, code, columns):
        """code + q digit by digit mod p, for the codes q whose chunks (as
        integers below p^w) are listed in columns, one list per chunk."""
        base = self._base
        total = None
        for table, column in zip(self._tables, columns):
            row = table[code % base]
            code //= base
            part = map(row.__getitem__, column)
            total = part if total is None else map(add, total, part)
        return total

    def le_one(self):
        """Byte map over all codes: 1 exactly on the quadrics that are zero,
        a product or a sum of two products (strength at most 1).

        Such a quadric is a*m1 + b*m2 with linear a, b, m1, m2, so it lies
        in (a, b)_2 = {a*m1 + b*m2} for a plane <a, b> of linear forms, and
        every element of (a, b)_2 is such a sum.  Each plane is taken once,
        as its reduced echelon pair: a with its leading 1 at t, b with its
        leading 1 at j > t and a_j = 0, [n choose 2]_p planes in all (130
        for p = 3, n = 4).  (a, b)_2 is spanned by the 2n - 1 quadrics
        a*x_k (every k) and b*x_k (k != t): writing a*b two ways and using
        a_t = 1 gives b*x_t = sum_k b_k*(a*x_k) - sum_{k != t} a_k*(b*x_k).
        The span of each plane is grown from its generators through the
        chunk tables, S -> S + {0, g, ..., (p-1)*g}, and marked as soon as
        it is complete.  Zero and the products are marked directly: with
        n = 1 there is no plane.
        """
        if self._le_one is None:
            p, n, base, rows = self.p, self.n, self._base, self._tables[0]
            # square[i][k]: the weight of the monomial x_i x_k
            square = [
                [self.weights[tuple((v == i) + (v == k) for v in range(n))] for k in range(n)]
                for i in range(n)
            ]
            table = bytearray(self.size)
            table[0] = 1
            for q in self.products:
                table[q] = 1
            lins = _linear_forms(p, n)
            for a in lins:
                t = a.index(1)
                for b in lins:
                    j = b.index(1)
                    if j <= t or a[j]:
                        continue
                    generators = [(a, k) for k in range(n)] + [(b, k) for k in range(n) if k != t]
                    # per generator u*x_k, the codes of s*u*x_k for s = 0, ..., p-1
                    multiples = [
                        [sum(s * ui % p * w for ui, w in zip(u, square[k])) for s in range(p)]
                        for u, k in generators
                    ]
                    # the span of all generators but the last, as chunk columns
                    columns = [[0] for _ in self._tables]
                    for codes in multiples[:-1]:
                        for c, column in enumerate(columns):
                            span = column[:]
                            for g in codes[1:]:
                                row = rows[g // base**c % base]
                                column.extend(map(row.__getitem__, span))
                    for g in multiples[-1]:
                        for code in self._add(g, columns):
                            table[code] = 1
            self._le_one = table
        return self._le_one


@cache  # without it every oracle call rebuilds the strength table: 75 ms at p = 3, n = 4
def _quadric_codes(p, n):
    return _QuadricCodes(p, n)


def _linear_forms(p, n):
    """Projective representatives of nonzero linear forms over F_p."""
    forms = []
    for lead in range(n):
        tails = [[]]
        for _ in range(n - lead - 1):
            tails = [t + [v] for t in tails for v in range(p)]
        for t in tails:
            forms.append([0] * lead + [1] + t)
    return forms


def strength_bruteforce_small(f: Poly, s_max: int = 2):
    """Definitional strength of a small quadric over F_3 or F_5: least s
    with a decomposition into s+1 products of linear forms, or None when
    every decomposition needs more than s_max products.

    Exhaustive over all products of linear forms; the two-product stage for
    p=5 and the three-product stage beyond p=3 blow up combinatorially and
    are rejected.
    """
    ring = f.ring
    dom = ring.domain
    if not isinstance(dom, PrimeField) or dom.p not in (3, 5):
        raise ValueError("brute-force strength supports F_3 and F_5 only")
    if ring.nvars > 4:
        raise ValueError("brute-force strength supports at most 4 variables")
    if not f.terms:
        return -1
    codes = _quadric_codes(dom.p, ring.nvars)
    try:
        code = codes.code(f.terms)
    except KeyError:  # a monomial of degree other than 2
        raise ValueError("brute-force strength expects a homogeneous quadric") from None
    if code in codes.product_set:
        return 0
    if s_max < 1:
        return None
    # the products are closed under scaling by -1, so f - q runs over the
    # codes f + q: f is a sum of k+1 products exactly when some f + q is a
    # sum of k
    if dom.p == 3:
        le_one = codes.le_one()
        if le_one[code]:
            return 1
        if s_max < 2:
            return None
        if any(map(le_one.__getitem__, codes.sums(code))):
            return 2
        return None
    # p == 5: one product subtracted, looked up among the products
    if not codes.product_set.isdisjoint(codes.sums(code)):
        return 1
    if s_max >= 2:
        raise ValueError("two-product search over F_5 is combinatorially out of reach")
    return None
