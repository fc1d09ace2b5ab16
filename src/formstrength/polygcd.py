"""Multivariate gcd by primitive pseudo-remainder sequences.

The recursion picks the lowest-index variable present in both inputs as the
main variable, splits off contents (gcds of the univariate coefficients,
computed recursively in fewer variables), and runs a primitive PRS on the
primitive parts.  Results are normalized monic with respect to degrevlex.
Performance is not a goal here; exactness at desk scale is.  The gcd is
the gcd route of the two-form regularity check; ``groebner`` never calls
back here, so the quotient-based direct test stays independent of it.
"""

from __future__ import annotations

from .groebner import GroebnerError, exact_divide, is_regular_sequence_codim
from .poly import Poly


def _deg_in(f: Poly, v: int) -> int:
    if not f.terms:
        return -1
    return max(m[v] for m in f.terms)


def _coeff_in(f: Poly, v: int, k: int) -> Poly:
    """Coefficient of v^k, as a polynomial not involving v."""
    terms = {}
    for m, c in f.terms.items():
        if m[v] == k:
            mm = list(m)
            mm[v] = 0
            terms[tuple(mm)] = c
    return Poly(f.ring, terms, _clean=False)

def _var_power(ring, v, k):
    mono = tuple(k if i == v else 0 for i in range(ring.nvars))
    return Poly(ring, {mono: ring.domain.one}, _clean=False)


def _pseudo_rem(F: Poly, G: Poly, v: int) -> Poly:
    """Pseudo-remainder of F by G viewed as univariate in v."""
    dg = _deg_in(G, v)
    lg = _coeff_in(G, v, dg)
    R = F
    while R.terms and _deg_in(R, v) >= dg:
        dr = _deg_in(R, v)
        lr = _coeff_in(R, v, dr)
        R = lg * R - lr * _var_power(F.ring, v, dr - dg) * G
    return R


def _content(f: Poly, v: int) -> Poly:
    """Monic gcd of the univariate coefficients of f with respect to v."""
    coeffs = [_coeff_in(f, v, k) for k in range(_deg_in(f, v) + 1)]
    coeffs = [c for c in coeffs if c.terms]
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_constant():
            break
        g = _gcd_inner(g, c)
    return g.monic()


def _primitive_part(f: Poly, v: int) -> Poly:
    if not f.terms:
        return f
    cont = _content(f, v)
    if cont.is_constant():
        return f
    return exact_divide(f, cont)


def _gcd_inner(f: Poly, g: Poly) -> Poly:
    if not f.terms:
        return g
    if not g.terms:
        return f
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    common = set(f.variables()) & set(g.variables())
    if not common:
        return f.ring.one()
    v = min(common)
    cf = _content(f, v)
    cg = _content(g, v)
    c = _gcd_inner(cf, cg)
    F = _primitive_part(f, v)
    G = _primitive_part(g, v)
    if _deg_in(F, v) < _deg_in(G, v):
        F, G = G, F
    while G.terms:
        R = _pseudo_rem(F, G, v)
        F, G = G, _primitive_part(R, v)
    return c * F


def multivariate_gcd(f: Poly, g: Poly) -> Poly:
    """A gcd of f and g, monic under degrevlex; gcd(f, 0) is f normalized."""
    if f.ring != g.ring:
        raise ValueError("gcd of polynomials from different rings")
    d = _gcd_inner(f, g)
    return d.monic() if d.terms else d


def divides(f: Poly, g: Poly) -> bool:
    """True when f divides g exactly (f nonzero)."""
    if not f.terms:
        raise ZeroDivisionError("divisibility by zero polynomial")
    try:
        exact_divide(g, f)
        return True
    except GroebnerError:
        return False


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
