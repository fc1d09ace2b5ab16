"""Multivariate gcd by exact linear algebra on multiplier matrices.

Let f and g have degrees a and b, and let S(d) hold the monomials, in the
variables of f and g, of degree exactly d when both are forms and of degree
at most d otherwise.  The matrix M_j has a column f*m for each m in
S(b - j) and a column -g*m for each m in S(a - j), so its kernel is the set
of pairs (u, v) with f*u = g*v.  With h = gcd(f, g) of degree k those pairs
are u = (g/h)*w, v = (f/h)*w for w in S(k - j): the nullity of M_1 is
|S(k - 1)|, so one rank gives k (the Sylvester rank deficiency of Corless,
Gianni, Trager & Watt, ISSAC 1995), as the largest k <= min(a, b) with
|S(k - 1)| <= nullity.  |S(d)| is a binomial coefficient.

Each row f*m of M_j^T goes on with the unit vector of m among S(b - j),
each row -g*m with zeros, and only the product columns are eliminated:
the pivots number the rank, and the rows past it hold, in those tag
columns, the u-parts of a basis of the kernel.

M_1 is eliminated modulo p over F_p, where its rank gives k exactly, and
modulo a fixed word-size prime over Q, where the rank can only drop, so
it bounds k from above.  The tagged M_j is then eliminated over the field
at that bound and at each lower j until it has a kernel (over F_p the
elimination of M_1 is reused at j = 1).  At j = k the kernel is one line,
u = g/h up to a scalar, and the last row holds it in its tag columns.  A
kernel of more than one line, or over F_p no kernel at the bound, which
is exact there, raises ``GroebnerError``.

The gcd is g divided by the cofactor, and it must divide f; either
division failing raises ``GroebnerError``, so a wrong gcd can never stand
as a verdict.  Both fields use only ``linalg.eliminate``.
The gcd is the gcd route of the two-form regularity check; ``groebner``
never calls back here, so the direct test, which compares Hilbert series,
stays independent of it.
"""

from __future__ import annotations

from math import comb, lcm

from .groebner import GroebnerError, exact_divide, is_regular_sequence_codim
from .linalg import eliminate
from .orders import DEGREVLEX, packing
from .poly import Poly, monomials

# the modulus of the degree bound over Q; any prime gives a valid bound, a
# large one makes a bound above the true degree (a wasted kernel) rare
_BOUND_PRIME = 2**31 - 1


def _count(nv, d, forms):
    """|S(d)| over nv variables; 0 for d < 0."""
    if d < 0:
        return 0
    return comb(nv + d - 1, d) if forms else comb(nv + d, d)


def _multiplier_rows(f, g, j, variables, nvars, forms, p):
    """M_j transposed: the coefficient vectors of f*m for m in S(b - j),
    then of -g*m for m in S(a - j), over the product monomials that occur,
    each row f*m going on with the unit vector of m among S(b - j) and each
    row -g*m with zeros; returned with the number of product columns and
    S(b - j).  ``f`` and ``g`` are term dicts with integer coefficients,
    reduced mod ``p`` unless ``p`` is 0."""
    a, b = (max(map(sum, h)) for h in (f, g))
    left = monomials(variables, nvars, b - j, forms)
    key = packing(DEGREVLEX, nvars).key  # key(t*m) == key(t) + key(m)
    index = {}
    sparse = []
    for h, sign, multipliers in ((f, 1, left), (g, -1, monomials(variables, nvars, a - j, forms))):
        coeffs = [(key(t), sign * c % p if p else sign * c) for t, c in h.items()]
        for m in multipliers:
            km = key(m)
            sparse.append([(index.setdefault(kt + km, len(index)), c) for kt, c in coeffs])
    ncols = len(index)
    rows = []
    for r, entries in enumerate(sparse):
        row = [0] * (ncols + len(left))
        for i, c in entries:
            row[i] = c
        if r < len(left):
            row[ncols + r] = 1
        rows.append(row)
    return rows, ncols, left


def _integer_terms(f):
    """f scaled to integer coefficients (a term dict); F_p residues are
    integers already."""
    if f.ring.domain.characteristic:
        return f.terms
    den = lcm(*(c.denominator for c in f.terms.values()))
    return {m: int(c * den) for m, c in f.terms.items()}


def _divide_out(f, g, row, multipliers):
    """The gcd g/q, monic, where q is the cofactor with coefficients ``row``
    on ``multipliers``; the gcd must divide f as well.  Either division
    failing raises ``GroebnerError``, so a wrong kernel vector never stands
    as a gcd."""
    q = Poly(f.ring, {m: c for m, c in zip(multipliers, row) if c}, _clean=False)
    h = exact_divide(g, q).monic()
    exact_divide(f, h)
    return h


def multivariate_gcd(f: Poly, g: Poly) -> Poly:
    """A gcd of f and g, monic under degrevlex; gcd(f, 0) is f normalized."""
    if f.ring != g.ring:
        raise ValueError("gcd of polynomials from different rings")
    ring = f.ring
    if not f.terms or not g.terms:
        return (f if f.terms else g).monic()
    if f.is_constant() or g.is_constant():
        return ring.one()
    p = ring.domain.characteristic
    forms = f.is_homogeneous() and g.is_homogeneous()
    variables = sorted(set(f.variables()) | set(g.variables()))
    nv, nvars = len(variables), ring.nvars
    fi, gi = _integer_terms(f), _integer_terms(g)
    modulus = p or _BOUND_PRIME
    rows, ncols, multipliers = _multiplier_rows(fi, gi, 1, variables, nvars, forms, modulus)
    nullity = len(rows) - len(eliminate(rows, ncols, modulus))
    # k := the largest k <= min(a, b) with |S(k - 1)| <= nullity
    cap, k = min(f.degree(), g.degree()), 0
    while k < cap and _count(nv, k, forms) <= nullity:
        k += 1
    # over F_p k is exact and the descent stops at j = k, so j = 1 means
    # k = 1 and the rows eliminated above are M_1's
    for j in range(k, 0, -1):
        if j > 1 or not p:
            rows, ncols, multipliers = _multiplier_rows(fi, gi, j, variables, nvars, forms, p)
            nullity = len(rows) - len(eliminate(rows, ncols, p))
        if nullity > 1 or (p and j == k and not nullity):
            raise GroebnerError("multiplier kernel is not one line at the gcd degree")
        if nullity:
            return _divide_out(f, g, rows[-1][ncols:], multipliers)
    return ring.one()


class PairReport:
    """Outcome of the two-form regularity check: gcd route vs codim route."""

    __slots__ = ("gcd", "gcd_route_regular", "codim_route_regular", "agree")

    def __init__(self, gcd, gcd_route_regular, codim_route_regular):
        self.gcd = gcd
        self.gcd_route_regular = gcd_route_regular
        self.codim_route_regular = codim_route_regular
        self.agree = gcd_route_regular == codim_route_regular

    def to_dict(self):
        return {
            "gcd": str(self.gcd),
            "gcd_route_regular": self.gcd_route_regular,
            "codim_route_regular": self.codim_route_regular,
            "agree": self.agree,
        }


def regular_pair_gcd_check(f1: Poly, f2: Poly) -> PairReport:
    """Two independent verdicts on a pair of forms: a pair is regular exactly
    when its gcd is constant."""
    codim_regular = is_regular_sequence_codim([f1, f2])  # refuses non-forms
    g = multivariate_gcd(f1, f2)
    return PairReport(g, g.is_constant(), codim_regular)
