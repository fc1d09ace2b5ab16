"""Quadratic forms as Gram matrices: rank, strength, pencils and minrank.

A form q lives as a symmetric matrix G with q(x) = x^t G x (cross terms
halved), over a domain of characteristic other than 2.  The minrank of a
diagonal pair comes both from the block-multiplicity formula and from an
exhaustive projective-line scan over a prime field; the two routes are
mutual oracles.  The codimension of the pair's Jacobian-minor ideal gives
the one-sided primality certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd, prod

from .domains import GF, QQ, PrimeField
from .groebner import Ideal, codimension
from .linalg import (
    congruence_diagonalize,
    eliminate,
    is_symmetric,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_rank,
    transpose,
)
from .minors import determinant_laplace
from .poly import Poly, Ring


class DegenerateFormError(ValueError):
    """Raised where a construction needs a nondegenerate base form.

    When both forms share a kernel vector, eliminate that variable first and
    retry in fewer variables.
    """


def _check_char(domain):
    if domain.characteristic == 2:
        raise ValueError("quadratic-form operations need characteristic != 2")


class QuadraticForm:
    """Symmetric Gram-matrix representation of a degree-2 form."""

    __slots__ = ("ring", "gram")

    def __init__(self, ring, gram):
        _check_char(ring.domain)
        n = ring.nvars
        if len(gram) != n or any(len(row) != n for row in gram):
            raise ValueError("Gram matrix shape does not match the ring")
        if not is_symmetric(gram):
            raise ValueError("Gram matrix must be symmetric")
        self.ring = ring
        self.gram = [list(row) for row in gram]

    @property
    def n(self):
        return self.ring.nvars

    @property
    def domain(self):
        return self.ring.domain

    @classmethod
    def from_poly(cls, f: Poly) -> "QuadraticForm":
        """Gram matrix of a homogeneous degree-2 polynomial (or zero).

        A term dict holds each monomial once, so each entry is assigned from
        the positions of the monomial's exponents, never accumulated; the
        matrix is n x n and symmetric by construction, so the constructor's
        checks are not run again."""
        ring = f.ring
        dom = ring.domain
        _check_char(dom)
        n = ring.nvars
        half = dom.inv(dom.from_int(2))
        gram = [[dom.zero] * n for _ in range(n)]
        for m, c in f.terms.items():
            if sum(m) != 2:
                raise ValueError("not a homogeneous quadratic form")
            if 2 in m:
                i = m.index(2)
                gram[i][i] = c
            else:
                i = m.index(1)
                j = m.index(1, i + 1)
                gram[i][j] = gram[j][i] = dom.mul(c, half)
        form = cls.__new__(cls)
        form.ring = ring
        form.gram = gram
        return form

    @classmethod
    def diagonal(cls, ring, diag):
        dom = ring.domain
        entries = [dom.from_int(d) if isinstance(d, int) else d for d in diag]
        n = ring.nvars
        gram = [[entries[i] if i == j else dom.zero for j in range(n)] for i in range(n)]
        return cls(ring, gram)

    def to_poly(self) -> Poly:
        dom = self.domain
        n = self.n
        terms = {}
        two = dom.from_int(2)
        for i in range(n):
            if self.gram[i][i]:
                mono = tuple(2 if k == i else 0 for k in range(n))
                terms[mono] = self.gram[i][i]
            for j in range(i + 1, n):
                if self.gram[i][j]:
                    mono = tuple(1 if k in (i, j) else 0 for k in range(n))
                    terms[mono] = dom.mul(two, self.gram[i][j])
        return Poly(self.ring, terms, _clean=False)

    def rank(self) -> int:
        return mat_rank(self.gram, self.domain)

    def reduce_mod(self, p: int) -> "QuadraticForm":
        """Image over F_p, on the same variables; raises ZeroDivisionError
        when p divides a denominator."""
        field = GF(p)
        _check_char(field)
        ring = Ring(self.n, field, self.ring.names, self.ring.matrix_shape)
        return QuadraticForm(ring, [[field(v.numerator, v.denominator) for v in row] for row in self.gram])

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and self.ring == other.ring
            and self.gram == other.gram
        )

    def __repr__(self):
        return f"QuadraticForm({self.to_poly()})"


def combine(forms, coeffs) -> QuadraticForm:
    """Linear combination of quadratic forms with the given coefficients."""
    ring = forms[0].ring
    dom = ring.domain
    n = ring.nvars
    gram = [[dom.zero] * n for _ in range(n)]
    for q, c in zip(forms, coeffs):
        if not c:
            continue
        for i in range(n):
            row = q.gram[i]
            gi = gram[i]
            for j in range(n):
                if row[j]:
                    gi[j] = dom.add(gi[j], dom.mul(c, row[j]))
    return QuadraticForm(ring, gram)


def strength_from_rank(k: int) -> int:
    """Closed-field strength of a rank-k quadric: ceil(k/2) - 1, with the
    zero form at -1."""
    if k < 0:
        raise ValueError("rank cannot be negative")
    if k == 0:
        return -1
    return (k + 1) // 2 - 1


class DiagonalPair:
    """Simultaneously diagonal pair of forms.

    a and b are the diagonals of the two forms; the derived data normalizes
    the first form to all ones arithmetically: the distinct ratios b_i/a_i
    (alphas), in order of first appearance, and how often each occurs
    (lambdas).
    """

    __slots__ = ("n", "a", "b", "domain", "transform", "ratios", "alphas", "lambdas")

    def __init__(self, a, b, domain=QQ, transform=None):
        _check_char(domain)
        if len(a) != len(b):
            raise ValueError("diagonal length mismatch")
        conv = lambda v: domain.from_int(v) if isinstance(v, int) else v
        self.a = [conv(v) for v in a]
        self.b = [conv(v) for v in b]
        self.n = len(self.a)
        if self.n == 0:
            raise ValueError("empty diagonal pair")
        self.domain = domain
        self.transform = transform
        if any(not v for v in self.a):
            raise DegenerateFormError(
                "first form is degenerate; drop its kernel variables and retry"
            )
        self.ratios = [domain.div(bi, ai) for ai, bi in zip(self.a, self.b)]
        self.alphas = list(dict.fromkeys(self.ratios))
        self.lambdas = [self.ratios.count(r) for r in self.alphas]

    def ring(self) -> Ring:
        return Ring.flat(self.n, self.domain)

    def forms(self):
        ring = self.ring()
        return (
            QuadraticForm.diagonal(ring, self.a),
            QuadraticForm.diagonal(ring, self.b),
        )

    def reduce_mod(self, p: int) -> "DiagonalPair":
        """Image over F_p; refuses reductions that collapse the block
        structure or kill a diagonal entry."""
        field = GF(p)
        _check_char(field)
        a = [field(v.numerator, v.denominator) for v in self.a]
        b = [field(v.numerator, v.denominator) for v in self.b]
        if any(v == 0 for v in a):
            raise ValueError(f"diagonal entry vanishes mod {p}")
        image = DiagonalPair(a, b, field)
        if image.lambdas != self.lambdas:
            raise ValueError(f"block structure collapses mod {p}")
        return image

    def __repr__(self):
        return f"DiagonalPair(a={self.a}, b={self.b})"


class MinrankResult:
    """Minrank value with a reproducing coefficient witness."""

    __slots__ = ("value", "witness", "method")

    def __init__(self, value, witness, method):
        self.value = value
        self.witness = tuple(witness)
        self.method = method

    def to_dict(self):
        return {
            "value": self.value,
            "witness": [str(c) for c in self.witness],
            "method": self.method,
        }

    def __repr__(self):
        return f"MinrankResult({self.value}, witness={self.witness}, {self.method})"


def minrank_formula(dp: DiagonalPair) -> MinrankResult:
    """Minrank of a diagonal pair: n minus the largest block multiplicity.

    The witness combination f2 - alpha*f1 kills exactly the largest block.
    """
    lam_max = max(dp.lambdas)
    t_star = dp.lambdas.index(lam_max)
    alpha = dp.alphas[t_star]
    return MinrankResult(dp.n - lam_max, (dp.domain.neg(alpha), dp.domain.one), "formula")


SCAN_WORK_LIMIT = 4 * 10**6
"""Most work one F_p scan may do, as points x (n+1)^2 for forms in n
variables.  A larger scan is refused with ValueError before any rank is
computed.  The points of a scan lie on lines A + u*B (see ``_gram_ranks``):
on a line whose determinant det(A + u*B) is not identically 0, only the
first n + 1 points and the roots of that determinant are eliminated, and
every other point costs n additions mod p.  Only on a singular line, such
as every line of the 3x2 minor family, is every point eliminated, at about
1-1.7 us per unit; so a scan takes at most about 4-7 s.  The all-nonzero
rank scan is counted at all p^r - 1 tuples, though it ranks one point per
projective class, (p^r - 1)/(p - 1) in all: the largest scan in the
certificates and the benchmark, the 3x2 minor family over F_31, counts as
29790 x 49 units and ranks 993 points."""


def _scan_prime(forms, what, count):
    """The prime of a scan over the forms, after refusing a field that is not
    F_p and a scan whose ``count(p)`` points exceed SCAN_WORK_LIMIT once
    weighted by (n+1)^2."""
    if not forms:
        raise ValueError("no forms to scan")
    dom = forms[0].domain
    if not isinstance(dom, PrimeField):
        raise ValueError(f"{what} needs a prime field")
    _check_char(dom)
    points = count(dom.p)
    n = forms[0].n
    if points * (n + 1) ** 2 > SCAN_WORK_LIMIT:
        raise ValueError(
            f"{what} over F_{dom.p} would visit {points} points in {n} variables, "
            f"above the limit of {SCAN_WORK_LIMIT} points x (n+1)^2"
        )
    return dom.p


def _gram_ranks(forms, points, p):
    """Yield (point, Gram rank of sum_i point[i] * forms[i]) for every
    nonzero coefficient tuple in ``points``, in their order.

    Each Gram matrix is flattened once; a combination is one int vector,
    reduced mod p once and ranked by ``linalg.eliminate``.  A combination of
    symmetric forms is symmetric, so no form is built per point.

    Consecutive points that share ``point[:-1]`` and whose last coordinate u
    steps by 1 lie on one line A + u*B of Gram matrices.  There, unless
    D(u) = det(A + u*B), a polynomial of degree at most n, is identically 0,
    the rank falls below n only at the roots of D.  The first n + 1 points
    of a line are ranked by elimination, each recording its determinant (the
    product of the pivots when the rank is n, else 0), and the backward
    differences of those values are kept.  The (n+1)-th difference of D is 0, so D at each later
    point comes from n additions mod p, exactly; where it is nonzero the
    rank is n and nothing is eliminated.  When the n + 1 values are all 0
    the pencil is singular (D is 0 at n + 1 distinct u, so everywhere) and
    every point of the line is eliminated.  A point that breaks the pattern
    starts a new line, so the ranks never depend on the order of the points.
    """
    ring = forms[0].ring
    if any(q.ring != ring for q in forms):
        raise ValueError("forms live in different rings")
    n = ring.nvars
    flats = [[v for row in q.gram for v in row] for q in forms]
    prefix = last = None
    for point in points:
        u = point[-1]
        if point[:-1] != prefix or u != last + 1:
            # backward differences of D at the line's last point; None on a
            # singular pencil
            prefix, diffs = point[:-1], []
        last = u
        if diffs is not None and len(diffs) > n:
            for k in range(n - 1, -1, -1):
                diffs[k] = (diffs[k] + diffs[k + 1]) % p
            if diffs[0]:
                yield point, n
                continue
        acc = None
        for c, g in zip(point, flats):
            if c:
                acc = [c * v for v in g] if acc is None else [s + c * v for s, v in zip(acc, g)]
        acc = [v % p for v in acc]
        m = [acc[i:i + n] for i in range(0, n * n, n)]
        rank = len(eliminate(m, n, p))
        if diffs is not None and len(diffs) <= n:
            recorded = [prod(m[i][i] for i in range(n)) % p if rank == n else 0]
            for d in diffs:
                recorded.append((recorded[-1] - d) % p)
            diffs = recorded if len(recorded) <= n or any(recorded) else None
        yield point, rank


def minrank_bruteforce(f1: QuadraticForm, f2: QuadraticForm) -> MinrankResult:
    """Exhaustive minrank over F_p: scan all p+1 points of the projective
    line of combinations."""
    p = _scan_prime([f1, f2], "brute-force minrank", lambda p: p + 1)
    points = chain(((1, t) for t in range(p)), [(0, 1)])
    best, witness = None, None
    for point, value in _gram_ranks([f1, f2], points, p):
        if best is None or value < best:
            best, witness = value, point
    return MinrankResult(best, witness, "finite-field-scan")


def projective_points(p, r):
    """Representatives of P^(r-1) over F_p, first nonzero coordinate 1,
    streamed in lexicographic order: the position of that 1 runs from r-1
    down to 0, and the tail after it runs lexicographically.  The rank scan
    and the collective-strength scan share this order."""
    for lead in range(r - 1, -1, -1):
        head = (0,) * lead + (1,)
        for tail in product(range(p), repeat=r - lead - 1):
            yield head + tail


def rank_scan_all_nonzero(forms, expect=None):
    """Gram rank of every combination over all nonzero coefficient tuples of
    F_p^r.  Returns (histogram, first offender) where the offender is the
    lexicographically first tuple whose rank differs from ``expect`` (None
    when unused).

    c*G has the rank of G for every c != 0, so one point per projective
    class is ranked, (p^r - 1)/(p - 1) in all, and each rank counts p - 1
    times; the histogram still sums to p^r - 1.  The least tuple of a class
    is its representative with first nonzero coordinate 1, and
    ``projective_points`` streams those in lexicographic order, so the first
    bad point is the first bad tuple.  The work limit still counts all
    p^r - 1 tuples, so a scan is refused exactly where a per-tuple scan
    would be."""
    r = len(forms)
    p = _scan_prime(forms, "rank scan", lambda p: p**r - 1)
    histogram = {}
    offender = None
    for t, value in _gram_ranks(forms, projective_points(p, r), p):
        histogram[value] = histogram.get(value, 0) + p - 1
        if expect is not None and value != expect and offender is None:
            offender = {"point": list(t), "rank": value}
    return histogram, offender


def collective_strength_quadrics(forms) -> int:
    """Minimum closed-field strength over all nontrivial combinations of the
    forms (quadratic forms in one ring), by exhaustive projective scan over
    F_p."""
    r = len(forms)
    p = _scan_prime(forms, "collective-strength scan", lambda p: (p**r - 1) // (p - 1))
    # strength is nondecreasing in the rank
    return strength_from_rank(min(k for _, k in _gram_ranks(forms, projective_points(p, r), p)))


# ---------------------------------------------------------------------------
# simultaneous diagonalization


def _char_poly(m, dom):
    """det(t*I - M) as a univariate Poly over the domain."""
    n = len(m)
    ring = Ring(1, dom, names=("t",))
    t = ring.var(0)
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            e = ring.const(dom.neg(m[i][j]))
            if i == j:
                e = t + e
            row.append(e)
        grid.append(row)
    return determinant_laplace(grid, ring)


def _poly_coeffs(f, dom):
    deg = f.degree()
    coeffs = [dom.zero] * (deg + 1)
    for mono, c in f.terms.items():
        coeffs[mono[0]] = c
    return coeffs


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _eval_coeffs(coeffs, x, dom):
    acc = dom.zero
    for c in reversed(coeffs):
        acc = dom.add(dom.mul(acc, x), c)
    return acc


def _deflate(coeffs, root, dom):
    # synthetic division by (t - root); assumes root is exact
    out = [dom.zero] * (len(coeffs) - 1)
    acc = dom.zero
    for k in range(len(coeffs) - 1, 0, -1):
        acc = dom.add(dom.mul(acc, root), coeffs[k])
        out[k - 1] = acc
    return out


ROOT_SEARCH_LIMIT = 10**8
"""Largest |c_0 * c_n| (coefficients made integers, zero roots removed)
whose divisors the rational root search tries, at most about 1 s up to
degree 16.  Past it the search raises ValueError, never "does not split"."""


def _roots_with_multiplicity(coeffs, dom):
    """All roots in the domain, with multiplicities, plus the degree left
    unsplit."""
    roots = {}
    work = list(coeffs)
    while len(work) > 1 and not work[0]:
        roots[dom.zero] = roots.get(dom.zero, 0) + 1
        work = work[1:]
    if isinstance(dom, PrimeField):
        candidates = [dom.from_int(v) for v in range(dom.p)]
    else:
        lcm_den = 1
        for c in work:
            lcm_den = lcm_den * c.denominator // gcd(lcm_den, c.denominator)
        ints = [int(c * lcm_den) for c in work]
        lead, const = ints[-1], ints[0]
        size = abs(lead * const)
        if size > ROOT_SEARCH_LIMIT:
            raise ValueError(
                f"rational root search refused: |c0*cn| = {size} is above "
                f"the limit of {ROOT_SEARCH_LIMIT}; supply --p for a scan"
            )
        candidates = []
        for pnum in _divisors(const):
            for qden in _divisors(lead):
                candidates.append(Fraction(pnum, qden))
                candidates.append(Fraction(-pnum, qden))
    for cand in candidates:
        while len(work) > 1 and not _eval_coeffs(work, cand, dom):
            roots[cand] = roots.get(cand, 0) + 1
            work = _deflate(work, cand, dom)
    return roots, len(work) - 1


def simultaneous_diagonalize(f1: QuadraticForm, f2: QuadraticForm):
    """Rational simultaneous diagonalization of a pencil.

    Returns a DiagonalPair carrying the congruence transform, or None when
    the pencil's characteristic polynomial does not split with full
    eigenspaces over the coefficient field (never a wrong answer).  The
    first form must be nondegenerate.  Over Q, a characteristic polynomial
    past ROOT_SEARCH_LIMIT raises ValueError.
    """
    if f1.ring != f2.ring:
        raise ValueError("forms live in different rings")
    dom = f1.domain
    _check_char(dom)
    n = f1.n
    if mat_rank(f1.gram, dom) < n:
        raise DegenerateFormError(
            "first form is degenerate; drop its kernel variables and retry"
        )
    m = mat_mul(mat_inverse(f1.gram, dom), f2.gram, dom)
    chi = _char_poly(m, dom)
    roots, left = _roots_with_multiplicity(_poly_coeffs(chi, dom), dom)
    if left:
        return None  # characteristic polynomial does not split here
    ordered = sorted(roots.items(), key=lambda kv: _root_sort_key(kv[0]))
    columns = []
    a_diag = []
    b_diag = []
    for alpha, mult in ordered:
        shifted = [
            [dom.sub(m[i][j], alpha if i == j else dom.zero) for j in range(n)]
            for i in range(n)
        ]
        eig = kernel_basis(shifted, dom)
        if len(eig) != mult:
            return None  # defective eigenvalue: not simultaneously diagonalizable
        basis_cols = transpose(eig)  # n x mult
        restricted = mat_mul(mat_mul(transpose(basis_cols), f1.gram, dom), basis_cols, dom)
        s, diag = congruence_diagonalize(restricted, dom)
        if any(not d for d in diag):
            return None
        block = mat_mul(basis_cols, s, dom)
        for k in range(mult):
            columns.append([block[i][k] for i in range(n)])
            a_diag.append(diag[k])
            b_diag.append(dom.mul(alpha, diag[k]))
    t = transpose(columns)
    if mat_rank(t, dom) < n:
        return None
    for gram, expect in ((f1.gram, a_diag), (f2.gram, b_diag)):
        check = mat_mul(mat_mul(transpose(t), gram, dom), t, dom)
        for i in range(n):
            for j in range(n):
                want = expect[i] if i == j else dom.zero
                if check[i][j] != want:
                    return None
    return DiagonalPair(a_diag, b_diag, dom, transform=t)


def _root_sort_key(value):
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    return (int(value), 1)


# ---------------------------------------------------------------------------
# the Jacobian-minor ideal of a diagonal pair


def jacobian_minor_ideal(dp: DiagonalPair) -> Ideal:
    """Ideal of 2x2 Jacobian minors of the pair: (b_j/a_j - b_i/a_i) x_i x_j
    over all i < j, vanishing minors omitted.  Cuts out the singular locus of
    the pencil's base."""
    ring = dp.ring()
    dom = dp.domain
    gens = []
    for i in range(dp.n):
        for j in range(i + 1, dp.n):
            diff = dom.sub(dp.ratios[j], dp.ratios[i])
            if diff:
                mono = tuple(1 if k in (i, j) else 0 for k in range(dp.n))
                gens.append(Poly(ring, {mono: diff}, _clean=False))
    return Ideal(ring, gens)


CERTIFIED_PRIME = "certified-prime"
INCONCLUSIVE = "inconclusive"


class PrimeCertificate:
    """One-sided primality certificate via singular-locus codimension."""

    __slots__ = ("status", "jacobian_codim")

    def __init__(self, status, jacobian_codim):
        self.status = status
        self.jacobian_codim = jacobian_codim

    @property
    def certified(self):
        return self.status == CERTIFIED_PRIME

    def to_dict(self):
        return {"status": self.status, "jacobian_codim": self.jacobian_codim}


def prime_certificate(dp: DiagonalPair) -> PrimeCertificate:
    """Certify that the pair generates a prime ideal when the singular locus
    has codimension above 4; otherwise report inconclusive (never 'not
    prime')."""
    codim = codimension(jacobian_minor_ideal(dp))
    status = CERTIFIED_PRIME if codim > 4 else INCONCLUSIVE
    return PrimeCertificate(status, codim)
