import importlib.util
import random
import re
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from formstrength.domains import GF, QQ
from formstrength.groebner import Ideal, codimension, exact_divide, ideal_intersection, ideal_quotient, normal_form
from formstrength.minors import GenericMatrix, maximal_minors
from formstrength.orders import DEGREVLEX, MAX_EXPONENT
from formstrength.parse import PolyParseError
from formstrength.poly import Poly, Ring, mono_lcm
from formstrength.quadratic import (
    QuadraticForm,
    combine,
    diagonal_pair_mod,
    jacobian_minor_ideal,
    minrank_bruteforce,
    minrank_formula,
)

# the golden certificates of the current schema version
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "v0.1.0"


def random_poly(rng, ring, max_degree=3, max_terms=4, homogeneous=False, degree=None):
    """Random nonzero polynomial with small coefficients."""
    dom = ring.domain
    n = ring.nvars
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            d = degree if degree is not None else rng.randint(0 if not homogeneous else 1, max_degree)
            mono = [0] * n
            for _ in range(d):
                mono[rng.randrange(n)] += 1
            if dom.characteristic:
                c = dom.from_int(rng.randrange(1, dom.characteristic))
            else:
                c = dom.from_int(rng.randint(-3, 3))
            if c:
                terms[tuple(mono)] = c
        f = Poly(ring, terms)
        if f.terms:
            return f


def random_homogeneous(rng, ring, degree, max_terms=4):
    return random_poly(rng, ring, homogeneous=True, degree=degree, max_terms=max_terms)


def dense_form(rng, ring, degree, tails=False):
    """Every monomial of the degree (and of every lower degree, with
    ``tails``) with a coefficient drawn from 1..6."""
    monos = product(range(degree + 1), repeat=ring.nvars)
    return Poly(ring, {m: ring.domain.from_int(rng.randint(1, 6)) for m in monos
                       if sum(m) == degree or tails and sum(m) < degree})


def mono_div(a, b):
    """Quotient a / b of two monomials, b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def spolynomial(f, g, order=DEGREVLEX):
    """S-polynomial of two nonzero polynomials, from their monic forms; the
    tests check a basis by reducing every one of its S-polynomials to 0."""
    fm = f.monic(order)
    gm = g.monic(order)
    lmf = max(fm.terms, key=order.key)
    lmg = max(gm.terms, key=order.key)
    l = mono_lcm(lmf, lmg)
    one = f.ring.domain.one
    qf = Poly(f.ring, {mono_div(l, lmf): one}, _clean=False)
    qg = Poly(f.ring, {mono_div(l, lmg): one}, _clean=False)
    return qf * fm - qg * gm


def contains(ideal, f):
    """Membership: f reduces to zero on the ideal's Groebner basis."""
    return not normal_form(f, ideal.groebner()).terms


def contains_ideal(ideal, other):
    return all(contains(ideal, g) for g in other.gens)


def same_ideal(a, b):
    """Ideal equality by mutual generator membership."""
    return contains_ideal(a, b) and contains_ideal(b, a)


def diagonal_pair(a, b, domain=QQ):
    """The pair of diagonal forms with diagonals a and b, in len(a)
    variables x1..xn."""
    ring = Ring.flat(len(a), domain)
    return QuadraticForm.diagonal(ring, a), QuadraticForm.diagonal(ring, b)


def pencil_ratios(f1, f2):
    """The ratios b_i/a_i of a diagonal pair, in variable order."""
    dom = f1.domain
    return [dom.div(f2.gram[i][i], f1.gram[i][i]) for i in range(f1.n)]


def block_sizes(f1, f2):
    """How often each distinct ratio of a diagonal pair occurs, in order of
    first appearance."""
    ratios = pencil_ratios(f1, f2)
    return [ratios.count(alpha) for alpha in dict.fromkeys(ratios)]


def ratio_jacobian_ideal(f1, f2):
    """Reference Jacobian-minor ideal of a diagonal pair, from its ratios:
    (b_j/a_j - b_i/a_i) x_i x_j over all i < j, vanishing ones omitted."""
    ring = f1.ring
    dom = ring.domain
    ratios = pencil_ratios(f1, f2)
    gens = []
    for i in range(f1.n):
        for j in range(i + 1, f1.n):
            diff = dom.sub(ratios[j], ratios[i])
            if diff:
                mono = tuple(1 if k in (i, j) else 0 for k in range(f1.n))
                gens.append(Poly(ring, {mono: diff}))
    return Ideal(ring, gens)


def coordinate_ideals(f1, f2):
    """One ideal per distinct ratio b_i/a_i of a diagonal pair, in order of
    first appearance: the ideal of the variables whose ratio differs."""
    ring = f1.ring
    ratios = pencil_ratios(f1, f2)
    return [
        Ideal(ring, [ring.var(i) for i, r in enumerate(ratios) if r != alpha])
        for alpha in dict.fromkeys(ratios)
    ]


def minrank_identity(f1, f2, prime=101):
    """The minrank identity of a diagonal pair, four ways: the Jacobian-minor
    ideal J equals the intersection of the coordinate ideals (mutual
    containment), codim J and the brute-force scan over F_prime (over the
    pair's own field when it is finite) equal the formula n - lambda_max,
    and the formula's witness combination has that rank."""
    jac = jacobian_minor_ideal(f1, f2)
    comps = coordinate_ideals(f1, f2)
    inter = comps[0]
    for c in comps[1:]:
        inter = ideal_intersection(inter, c)
    formula = minrank_formula(f1, f2).value
    q1, q2 = (f1, f2) if f1.domain.characteristic else diagonal_pair_mod(f1, f2, prime)
    report = SimpleNamespace(
        intersection_matches=same_ideal(jac, inter),
        jacobian_codim=codimension(jac),
        formula_value=formula,
        bruteforce_value=minrank_bruteforce(q1, q2).value,
        witness_rank_ok=combine((q1, q2), minrank_formula(q1, q2).witness).rank() == formula,
    )
    report.passed = (
        report.intersection_matches
        and report.jacobian_codim == formula
        and report.bruteforce_value == formula
        and report.witness_rank_ok
    )
    return report


def reference_regular_by_quotients(fs):
    """Each form a nonzerodivisor modulo its predecessors, decided by ideal
    quotients: f_{i+1} is one exactly when (f1, ..., fi) : f_{i+1} lies in
    (f1, ..., fi).  This is how ``is_regular_sequence_direct`` decided before
    it compared Hilbert numerators, kept as an independent reference."""
    ring = fs[0].ring
    for i in range(1, len(fs)):
        prefix = Ideal(ring, fs[:i])
        if not contains_ideal(prefix, ideal_quotient(prefix, fs[i])):
            return False
    return True


# ---------------------------------------------------------------------------
# the token-by-token recursive-descent parser that parse_poly replaced, kept
# as an independent oracle for the differential fuzz

_TOKEN = re.compile(r"\s*(x[0-9]+(?:_[0-9]+)?|[0-9]+|[-+*/^])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise PolyParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ring, tokens):
        self.ring = ring
        self.tokens = tokens
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][0]
        return None

    def pos(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return self.tokens[-1][1] if self.tokens else 0

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        dom = self.ring.domain
        add, zero = dom.add, dom.zero
        terms = {}

        def accumulate(mono, c):
            if not c:
                return
            s = add(terms.get(mono, zero), c)
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)

        sign = 1
        tok = self.peek()
        if tok in ("+", "-"):
            self.next()
            sign = -1 if tok == "-" else 1
        accumulate(*self.term(sign))
        while self.peek() is not None:
            tok, pos = self.next()
            if tok == "+":
                accumulate(*self.term(1))
            elif tok == "-":
                accumulate(*self.term(-1))
            else:
                raise PolyParseError(f"expected '+' or '-', got {tok!r}", pos)
        return Poly(self.ring, terms, _clean=False)

    def term(self, sign):
        """One product of factors, as (exponent tuple, coefficient)."""
        dom = self.ring.domain
        exps = [0] * self.ring.nvars
        coeff = dom.mul(dom.from_int(sign), self.factor(exps))
        while self.peek() == "*":
            self.next()
            coeff = dom.mul(coeff, self.factor(exps))
        return tuple(exps), coeff

    def factor(self, exps):
        """Read one factor: a variable power is added into ``exps``, and the
        factor's coefficient (one for a variable power) is returned."""
        if self.peek() is None:
            raise PolyParseError("unexpected end of input", self.pos())
        tok, pos = self.next()
        dom = self.ring.domain
        if tok[0] == "x":
            self.varpow(tok, pos, exps)
            return dom.one
        if tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.next()
                dtok, dpos = self.next() if self.i < len(self.tokens) else (None, self.pos())
                if dtok is None or not dtok.isdigit():
                    raise PolyParseError("expected denominator after '/'", dpos)
                den = int(dtok)
                if den == 0:
                    raise PolyParseError("invalid rational: zero denominator", dpos)
                try:
                    return dom(num, den)
                except ZeroDivisionError as exc:  # den divisible by p over F_p
                    raise PolyParseError(f"invalid rational: {exc}", dpos) from None
            return dom.from_int(num)
        raise PolyParseError(f"expected coefficient or variable, got {tok!r}", pos)

    def varpow(self, name, pos, exps):
        try:
            idx = self.ring.index_of(name)
        except KeyError:
            raise PolyParseError(f"unknown variable name {name!r}", pos) from None
        exp = 1
        if self.peek() == "^":
            self.next()
            if self.peek() is None or not self.peek().isdigit():
                raise PolyParseError("expected integer exponent after '^'", self.pos())
            exp = int(self.next()[0])
        exps[idx] += exp
        if exps[idx] > MAX_EXPONENT:
            # summed over the term's factors, so x1^20000*x1^20000 is refused
            raise PolyParseError(f"exponent above {MAX_EXPONENT}, the packed key limit", pos)


def reference_parse_poly(text, ring):
    """Parse polynomial text token by token, as parse_poly did before it
    read a line at a time."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text", 0)
    return _Parser(ring, tokens).parse()


# ---------------------------------------------------------------------------
# the recursive primitive PRS that the multiplier-matrix gcd replaced, kept as
# an independent reference: pseudo-remainder sequences recursing on the
# lowest-index variable the inputs share


def _deg_in(f, v):
    if not f.terms:
        return -1
    return max(m[v] for m in f.terms)


def _coeff_in(f, v, k):
    """Coefficient of v^k, as a polynomial not involving v."""
    terms = {}
    for m, c in f.terms.items():
        if m[v] == k:
            mm = list(m)
            mm[v] = 0
            terms[tuple(mm)] = c
    return Poly(f.ring, terms)


def _var_power(ring, v, k):
    mono = tuple(k if i == v else 0 for i in range(ring.nvars))
    return Poly(ring, {mono: ring.domain.one})


def _pseudo_rem(F, G, v):
    dg = _deg_in(G, v)
    lg = _coeff_in(G, v, dg)
    R = F
    while R.terms and _deg_in(R, v) >= dg:
        dr = _deg_in(R, v)
        lr = _coeff_in(R, v, dr)
        R = lg * R - lr * _var_power(F.ring, v, dr - dg) * G
    return R


def _content(f, v):
    """Monic gcd of the univariate coefficients of f with respect to v."""
    coeffs = [_coeff_in(f, v, k) for k in range(_deg_in(f, v) + 1)]
    coeffs = [c for c in coeffs if c.terms]
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_constant():
            break
        g = _ref_gcd(g, c)
    return g.monic()


def _primitive_part(f, v):
    if not f.terms:
        return f
    cont = _content(f, v)
    if cont.is_constant():
        return f
    return exact_divide(f, cont)


def _ref_gcd(f, g):
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
    c = _ref_gcd(_content(f, v), _content(g, v))
    F = _primitive_part(f, v)
    G = _primitive_part(g, v)
    if _deg_in(F, v) < _deg_in(G, v):
        F, G = G, F
    while G.terms:
        R = _pseudo_rem(F, G, v)
        F, G = G, _primitive_part(R, v)
    return c * F


def reference_gcd(f, g):
    """The monic gcd of f and g by primitive PRS."""
    return _ref_gcd(f, g).monic()


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """The benchmark's tracer module, ``perfbench/tracing.py``, loaded from
    its file (``perfbench`` is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def minors_3x2_q():
    return maximal_minors(GenericMatrix(3, 2, QQ))


@pytest.fixture(scope="session")
def minors_4x3_q():
    return maximal_minors(GenericMatrix(4, 3, QQ))


@pytest.fixture(scope="session")
def minors_4x3_f7():
    return maximal_minors(GenericMatrix(4, 3, GF(7)))
