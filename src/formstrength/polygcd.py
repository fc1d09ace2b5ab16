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
columns, the u-parts of a basis of the kernel.  The terms of f and -g are
keyed once per gcd, by packed degrevlex keys (``orders.packing``, with
key(t*m) = key(t) + key(m)), with the sign and over F_p the reduction mod
p applied once; the degrees, whether both are forms and the variables
used are read off those keys.  A multiplier's key is the sum of its
variables' keys, so S(d) is built as sums and no multiplier is keyed, and
it comes out ascending, that is in descending degrevlex order.

The product columns of M_j are numbered by ascending key as well, which
is Macaulay-matrix order (Faugere's F4, J. Pure Appl. Algebra 139, 1999):
the lead of f*m, lead(f)*m, falls in a different column for each m, so
the f-rows, and likewise the -g-rows, arrive in row-echelon form and the
elimination only clears one block against the other, with little fill-in.
The column order changes the work, never the kernel.  Only the cofactor's
nonzero entries are decoded back to exponent tuples.

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

from functools import reduce
from itertools import combinations_with_replacement
from math import comb, lcm
from operator import or_

from .groebner import GroebnerError, exact_divide, is_regular_sequence_codim
from .linalg import eliminate
from .orders import DEGREVLEX, WIDTH, packing
from .poly import Poly

# the modulus of the degree bound over Q; any prime gives a valid bound, a
# large one makes a bound above the true degree (a wasted kernel) rare
_BOUND_PRIME = 2**31 - 1


def _count(nv, d, forms):
    """|S(d)| over nv variables; 0 for d < 0."""
    if d < 0:
        return 0
    return comb(nv + d - 1, d) if forms else comb(nv + d, d)


def _multiplier_keys(variables, d, forms):
    """The packed degrevlex keys of S(d), ascending, that is in descending
    degrevlex order: the sums of ``variables``, the keys of the variables
    used, taken d at a time (``forms``) or at most d at a time."""
    return sorted([sum(combo) for e in ([d] if forms else range(d + 1))
                   for combo in combinations_with_replacement(variables, e)])


def _multiplier_rows(f, g, j, variables, forms):
    """M_j transposed: the coefficient vectors of f*m for m in S(b - j),
    then of -g*m for m in S(a - j), over the product monomials that occur
    in ascending key order, each row f*m going on with the unit vector of m
    among S(b - j) and each row -g*m with zeros; returned with the number of
    product columns and the keys of S(b - j).  ``f`` and ``g`` are each a
    degree and a list of terms as (packed degrevlex key, coefficient)
    pairs, g's coefficients negated and both reduced mod the field's
    characteristic if it is not 0; ``variables`` are the keys of the
    variables of f and g."""
    (a, f_terms), (b, g_terms) = f, g
    left = _multiplier_keys(variables, b - j, forms)
    blocks = ((f_terms, left), (g_terms, _multiplier_keys(variables, a - j, forms)))
    # multipliers ascend, so in each block the lead kt + km of a row, its
    # first nonzero column, lies strictly right of the row above's
    columns = sorted({kt + km for terms, multipliers in blocks for km in multipliers for kt, _ in terms})
    index = {k: i for i, k in enumerate(columns)}
    ncols = len(columns)
    rows = []
    for terms, multipliers in blocks:
        for km in multipliers:
            row = [0] * (ncols + len(left))
            for kt, c in terms:
                row[index[kt + km]] = c
            rows.append(row)
    for r in range(len(left)):
        rows[r][ncols + r] = 1
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
    on the monomials of packed degrevlex keys ``multipliers``; the gcd must
    divide f as well.  Either division failing raises ``GroebnerError``, so
    a wrong kernel vector never stands as a gcd."""
    monomial = packing(DEGREVLEX, f.ring.nvars).monomial
    q = Poly(f.ring, {monomial(km): c for km, c in zip(multipliers, row) if c}, _clean=False)
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
    p = ring.domain.characteristic
    nvars = ring.nvars
    pk = packing(DEGREVLEX, nvars)
    shift = WIDTH * nvars  # a key is its exponent vector less degree << shift
    # the terms of f and -g, keyed once; each degree, whether both are forms
    # and the variables used (the OR of the vectors, the low shift bits of
    # the keys' OR) are read off the keys.  Over F_p the terms are reduced
    # once, over Q the modular M_1 takes its own residues.
    keyed, forms, used = [], True, 0
    for h, sign in ((f, 1), (g, -1)):
        terms = _integer_terms(h)
        keys = [pk.key(t) for t in terms]
        degree = -(min(keys) >> shift)
        forms = forms and degree == -(max(keys) >> shift)
        used = reduce(or_, keys, used)
        keyed.append((degree, list(zip(keys, [sign * c for c in terms.values()]))))
    (a, _), (b, _) = keyed
    if not a or not b:
        return ring.one()
    zeros = (0,) * nvars
    variables = [pk.key(zeros[:v] + (1,) + zeros[v + 1:])
                 for v in range(nvars) if used >> WIDTH * v & (1 << WIDTH) - 1]
    nv = len(variables)
    modulus = p or _BOUND_PRIME
    modular = [(d, [(kt, c % modulus) for kt, c in terms]) for d, terms in keyed]
    if p:
        keyed = modular
    rows, ncols, multipliers = _multiplier_rows(*modular, 1, variables, forms)
    nullity = len(rows) - len(eliminate(rows, ncols, modulus))
    # k := the largest k <= min(a, b) with |S(k - 1)| <= nullity
    cap, k = min(a, b), 0
    while k < cap and _count(nv, k, forms) <= nullity:
        k += 1
    # over F_p k is exact and the descent stops at j = k, so j = 1 means
    # k = 1 and the rows eliminated above are M_1's
    for j in range(k, 0, -1):
        if j > 1 or not p:
            rows, ncols, multipliers = _multiplier_rows(*keyed, j, variables, forms)
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
