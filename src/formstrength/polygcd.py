"""Multivariate gcd by exact linear algebra on multiplier matrices.

Let f and g have degrees a and b, and let S(d) hold the monomials, in the
variables of f and g, of degree exactly d when both are forms and of degree
at most d otherwise.  The matrix M_j has a column f*m for each m in
S(b - j) and a column -g*m for each m in S(a - j), so its kernel is the set
of pairs (u, v) with f*u = g*v.  With h = gcd(f, g) of degree k those pairs
are u = (g/h)*w, v = (f/h)*w for w in S(k - j): the nullity of M_1 is
|S(k - 1)|, so one rank gives k, and at j = k the kernel is one line whose
u-part is g/h up to a scalar (the Sylvester rank deficiency of Corless,
Gianni, Trager & Watt, ISSAC 1995).  Over Q the rank is taken modulo a
fixed word-size prime instead: it can only drop there, so it bounds k from
above, and the exact kernel over Q is solved at that bound and then at each
lower j until it is nonzero.  The gcd is g divided by the u-part, and it
must divide f; either division failing raises ``GroebnerError``, so a wrong
gcd can never stand as a verdict.  Rank and kernel are the ``linalg``
elimination kernel.  The gcd is the gcd route of the two-form regularity
check; ``groebner`` never calls back here, so the quotient-based direct
test stays independent of it.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import lcm

from .domains import GF
from .groebner import GroebnerError, exact_divide, is_regular_sequence_codim
from .linalg import kernel_basis, mat_rank, transpose
from .poly import Poly, mono_mul

# the modulus of the degree bound over Q; any prime gives a valid bound, a
# large one makes a bound above the true degree (a wasted kernel) rare
_BOUND_PRIME = 2**31 - 1


def _monomials(variables, nvars, d, forms):
    """S(d) over the given variable indices, as exponent tuples."""
    out = []
    for e in [d] if forms else range(d + 1):
        for combo in combinations_with_replacement(variables, e):
            mono = [0] * nvars
            for v in combo:
                mono[v] += 1
            out.append(tuple(mono))
    return out


def _multiplier_rows(f, g, j, variables, nvars, forms):
    """M_j transposed: the coefficient vectors of f*m for m in S(b - j),
    then of -g*m for m in S(a - j), over the product monomials that occur.
    ``f`` and ``g`` are term dicts with integer coefficients."""
    a, b = (max(map(sum, h)) for h in (f, g))
    index = {}
    sparse = []
    for h, sign, d in ((f, 1, b - j), (g, -1, a - j)):
        for m in _monomials(variables, nvars, d, forms):
            sparse.append({index.setdefault(mono_mul(t, m), len(index)): sign * c for t, c in h.items()})
    rows = []
    for entries in sparse:
        row = [0] * len(index)
        for i, c in entries.items():
            row[i] = c
        rows.append(row)
    return rows


def _integer_terms(f):
    """f scaled to integer coefficients (a term dict); F_p residues are
    integers already."""
    if f.ring.domain.characteristic:
        return f.terms
    den = lcm(*(c.denominator for c in f.terms.values()))
    return {m: int(c * den) for m, c in f.terms.items()}


def multivariate_gcd(f: Poly, g: Poly) -> Poly:
    """A gcd of f and g, monic under degrevlex; gcd(f, 0) is f normalized."""
    if f.ring != g.ring:
        raise ValueError("gcd of polynomials from different rings")
    ring = f.ring
    if not f.terms or not g.terms:
        return (f if f.terms else g).monic()
    if f.is_constant() or g.is_constant():
        return ring.one()
    dom = ring.domain
    forms = f.is_homogeneous() and g.is_homogeneous()
    variables = sorted(set(f.variables()) | set(g.variables()))
    fi, gi = _integer_terms(f), _integer_terms(g)
    rows = _multiplier_rows(fi, gi, 1, variables, ring.nvars, forms)
    nullity = len(rows) - mat_rank(rows, GF(dom.characteristic or _BOUND_PRIME))
    # j := the largest k <= min(a, b) with |S(k - 1)| <= nullity
    cap, j = min(f.degree(), g.degree()), 0
    while j < cap and len(_monomials(variables, ring.nvars, j, forms)) <= nullity:
        j += 1
    while j:
        rows = _multiplier_rows(fi, gi, j, variables, ring.nvars, forms)
        kernel = kernel_basis(transpose(rows), dom)
        if kernel:
            break
        j -= 1
    else:
        return ring.one()
    if len(kernel) > 1:
        raise GroebnerError("multiplier kernel is not one line at the gcd degree")
    multipliers = _monomials(variables, ring.nvars, g.degree() - j, forms)
    h = exact_divide(g, Poly(ring, dict(zip(multipliers, kernel[0])))).monic()
    exact_divide(f, h)
    return h


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
