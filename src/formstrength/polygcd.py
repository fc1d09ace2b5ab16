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

Over F_p one elimination of M_1 gives g/h as well.  Each row f*m of M_1^T
goes on with the unit vector of m among S(b - 1), each row -g*m with
zeros, and the product columns are eliminated: the pivots number the rank,
and the rows past it hold, in those extra columns, the u-parts of a basis
of the kernel, which span U = (g/h) * span S(k - 1).  The leading monomials
of U under degrevlex are lm(g/h) * S(k - 1), and the least of them belongs
to (g/h) * x_v^(k - 1), x_v the last variable occurring in f or g (to g/h
itself for non-forms, as S(k - 1) then contains 1), the only element of U
with that lead up to a scalar.  With S(b - 1) in descending degrevlex, the
last row of an echelon form of the u-parts is therefore that element, and
g/h is read off it with no second matrix.  A nullity other than
|S(k - 1)| raises ``GroebnerError``.

Over Q the rank is taken modulo a fixed word-size prime instead: it can
only drop there, so it bounds k from above, and the exact kernel of M_j
over Q is solved at that bound and then at each lower j until it is
nonzero; at j = k it is one line whose u-part is g/h up to a scalar.

Either way the gcd is g divided by the cofactor, and it must divide f;
either division failing raises ``GroebnerError``, so a wrong gcd can never
stand as a verdict.  Rank and kernel are the ``linalg`` elimination kernel.
The gcd is the gcd route of the two-form regularity check; ``groebner``
never calls back here, so the direct test, which compares Hilbert series,
stays independent of it.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, lcm

from .domains import GF
from .groebner import GroebnerError, exact_divide, is_regular_sequence_codim
from .linalg import eliminate, kernel_basis, mat_rank, transpose
from .orders import DEGREVLEX, packing
from .poly import Poly

# the modulus of the degree bound over Q; any prime gives a valid bound, a
# large one makes a bound above the true degree (a wasted kernel) rare
_BOUND_PRIME = 2**31 - 1


def _count(nv, d, forms):
    """|S(d)| over nv variables; 0 for d < 0."""
    if d < 0:
        return 0
    return comb(nv + d - 1, d) if forms else comb(nv + d, d)


def _monomials(variables, nvars, d, forms):
    """S(d) over the given variable indices, as exponent tuples in
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


def _multiplier_rows(f, g, j, variables, nvars, forms, p=0):
    """M_j transposed: the coefficient vectors of f*m for m in S(b - j),
    then of -g*m for m in S(a - j), over the product monomials that occur;
    returned with the number of those product columns and S(b - j).  ``f``
    and ``g`` are term dicts with integer coefficients.  With a prime ``p``
    the entries are reduced mod p and each row f*m goes on with the unit
    vector of m among S(b - j), each row -g*m with zeros."""
    a, b = (max(map(sum, h)) for h in (f, g))
    left = _monomials(variables, nvars, b - j, forms)
    key = packing(DEGREVLEX, nvars).key  # key(t*m) == key(t) + key(m)
    index = {}
    sparse = []
    for h, sign, multipliers in ((f, 1, left), (g, -1, _monomials(variables, nvars, a - j, forms))):
        coeffs = [(key(t), sign * c % p if p else sign * c) for t, c in h.items()]
        for m in multipliers:
            km = key(m)
            sparse.append([(index.setdefault(kt + km, len(index)), c) for kt, c in coeffs])
    ncols = len(index)
    units = len(left) if p else 0
    rows = []
    for r, entries in enumerate(sparse):
        row = [0] * (ncols + units)
        for i, c in entries:
            row[i] = c
        if r < units:
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


def _divide_out(f, g, row, multipliers, v=0, shift=0):
    """The gcd g/q, monic, where q is the cofactor with coefficients ``row``
    on ``multipliers``, each divided by x_v^shift; the gcd must divide f as
    well.  A multiplier that x_v^shift does not divide, or either division
    failing, raises ``GroebnerError``, so a wrong kernel vector never
    stands as a gcd."""
    terms = {}
    for m, c in zip(multipliers, row):
        if c:
            if m[v] < shift:
                raise GroebnerError("the kernel row is not a multiple of the shift monomial")
            terms[m[:v] + (m[v] - shift,) + m[v + 1:]] = c
    h = exact_divide(g, Poly(f.ring, terms, _clean=False)).monic()
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
    rows, ncols, multipliers = _multiplier_rows(fi, gi, 1, variables, nvars, forms, p)
    if p:
        rank = len(eliminate(rows, ncols, p))
    else:
        rank = mat_rank(rows, GF(_BOUND_PRIME))
    nullity = len(rows) - rank
    # k := the largest k <= min(a, b) with |S(k - 1)| <= nullity
    cap, k = min(f.degree(), g.degree()), 0
    while k < cap and _count(nv, k, forms) <= nullity:
        k += 1
    if p:
        if nullity != _count(nv, k - 1, forms):
            raise GroebnerError("multiplier nullity is not |S(k - 1)| at the gcd degree")
        if not k:
            return ring.one()
        us = [row[ncols:] for row in rows[rank:]]
        if len(us) > 1:
            eliminate(us, len(us[0]), p)
        return _divide_out(f, g, us[-1], multipliers, variables[-1], k - 1 if forms else 0)
    while k:
        rows, _, multipliers = _multiplier_rows(fi, gi, k, variables, nvars, forms)
        kernel = kernel_basis(transpose(rows), ring.domain)
        if kernel:
            break
        k -= 1
    else:
        return ring.one()
    if len(kernel) > 1:
        raise GroebnerError("multiplier kernel is not one line at the gcd degree")
    return _divide_out(f, g, kernel[0], multipliers)


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
