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

from .domains import GF, PrimeField
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


def _ratios(f1: QuadraticForm, f2: QuadraticForm):
    """The ratios b_i/a_i of a diagonal pair with diagonals a and b, in
    variable order."""
    if f1.ring != f2.ring:
        raise ValueError("forms live in different rings")
    n = f1.n
    if not n:
        raise ValueError("empty diagonal pair")
    if any(q.gram[i][j] for q in (f1, f2) for i in range(n) for j in range(n) if i != j):
        raise ValueError("the forms are not a diagonal pair")
    if any(not f1.gram[i][i] for i in range(n)):
        raise DegenerateFormError(
            "first form is degenerate; drop its kernel variables and retry"
        )
    return [f1.domain.div(f2.gram[i][i], f1.gram[i][i]) for i in range(n)]


def _blocks(ratios):
    """Each distinct ratio, in order of first appearance, with how often it
    occurs."""
    return {alpha: ratios.count(alpha) for alpha in dict.fromkeys(ratios)}


def minrank_formula(f1: QuadraticForm, f2: QuadraticForm) -> MinrankResult:
    """Minrank of a diagonal pair: n minus the largest block multiplicity.

    The witness combination f2 - alpha*f1 kills exactly the largest block,
    the first one of that size.
    """
    blocks = _blocks(_ratios(f1, f2))
    alpha = max(blocks, key=blocks.get)
    return MinrankResult(f1.n - blocks[alpha], (f1.domain.neg(alpha), f1.domain.one), "formula")


def diagonal_pair_mod(f1: QuadraticForm, f2: QuadraticForm, p: int):
    """Image over F_p of a diagonal pair; refuses reductions that kill a
    diagonal entry of the first form or collapse the block structure."""
    g1, g2 = f1.reduce_mod(p), f2.reduce_mod(p)
    if any(not g1.gram[i][i] for i in range(g1.n)):
        raise ValueError(f"diagonal entry vanishes mod {p}")
    if list(_blocks(_ratios(g1, g2)).values()) != list(_blocks(_ratios(f1, f2)).values()):
        raise ValueError(f"block structure collapses mod {p}")
    return g1, g2


SCAN_WORK_LIMIT = 4 * 10**6
"""Most work one F_p scan may do, as points x (n+1)^2 for forms in n
variables.  A larger scan is refused with ValueError before any rank is
computed.  The points of a scan lie on lines A + u*B (see ``_gram_ranks``):
a line of more than n + 1 points eliminates at most (n + 1) + (k + 1) + k
of them, k its largest rank, and every other point costs k additions mod
p.  An eliminated point costs about 1-1.7 us per unit, so a scan takes at
most about 4-7 s, a time reached only where lines have about 3n + 2 points
or fewer.  The all-nonzero rank scan is counted at all p^r - 1 tuples, though
it ranks one point per projective class, (p^r - 1)/(p - 1) in all: the
largest scan in the certificates and the benchmark, the 3x2 minor family
over F_31, counts as 29790 x 49 units, ranks 993 points and eliminates 385
of them (about 410 after a random change of variables)."""


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
    steps by 1 lie on one line A + u*B of Gram matrices.  The first n + 1
    points of a line are ranked by elimination; let r be the largest of
    their ranks.  Every (r+1)-minor of A + u*B is a polynomial in u of
    degree at most r + 1 that vanishes at those n + 1 >= r + 2 points, so
    the rank is at most r on the whole line.  The pivot columns S of a
    rank-r point index a nonsingular principal submatrix (the matrix is
    symmetric, so rows S span its row space as columns S span its column
    space), so D_S(u) = det((A + u*B)[S, S]), of degree at most r, is not
    identically 0, and wherever it is nonzero the rank is r.  Once a line
    goes on past n + 1 points, D_S is taken at the last r + 1 of them and
    the backward differences of those values are kept (see
    ``_minor_differences``); the (r+1)-th difference of D_S is 0, so D_S at
    each later point comes from r additions mod p, exactly, and only where
    it is 0 is the point eliminated.  So such a line makes at most
    (n + 1) + (r + 1) + r eliminations.  A point that breaks the pattern
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
            # the line's first n + 1 points as (flat matrix, pivots,
            # determinant), then the rank bound r and the backward
            # differences of D_S at the line's last point
            prefix, head, diffs = point[:-1], [], None
        last = u
        if len(head) > n:
            if diffs is None:
                r, diffs = _minor_differences(head, n, p)
            for k in range(r - 1, -1, -1):
                diffs[k] = (diffs[k] + diffs[k + 1]) % p
            if diffs[0]:
                yield point, r
                continue
        acc = None
        for c, g in zip(point, flats):
            if c:
                acc = [c * v for v in g] if acc is None else [s + c * v for s, v in zip(acc, g)]
        acc = [v % p for v in acc]
        m = [acc[i:i + n] for i in range(0, n * n, n)]
        pivots = eliminate(m, n, p)
        if len(head) <= n:
            head.append((acc, pivots, prod(m[i][i] for i in range(n)) % p if len(pivots) == n else 0))
        yield point, len(pivots)


def _minor_differences(head, n, p):
    """(r, backward differences of D_S at the last point) for a line whose
    first n + 1 points are ``head``, each as (flat matrix, pivot columns,
    determinant): r is the largest rank among them and S the pivot columns
    of the first point of that rank.  When r = n, S is every column and the
    recorded determinants are the values of D_S; otherwise the S x S
    submatrix of each of the last r + 1 points is eliminated, its
    determinant the product of its diagonal."""
    r = max(len(pivots) for _, pivots, _ in head)
    s = next(pivots for _, pivots, _ in head if len(pivots) == r)
    values = []
    for flat, _, det in head[n - r:]:
        if r < n:
            sub = [[flat[i * n + j] for j in s] for i in s]
            det = prod(sub[i][i] for i in range(r)) % p if len(eliminate(sub, r, p)) == r else 0
        values.append(det)
    diffs = []
    for v in values:
        recorded = [v]
        for d in diffs:
            recorded.append((recorded[-1] - d) % p)
        diffs = recorded
    return r, diffs


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

    Returns (g1, g2, t): the diagonal forms t^T G1 t and t^T G2 t, on the
    variables of f1, and the checked congruence transform t.  Returns None
    when the pencil's characteristic polynomial does not split with full
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
    return QuadraticForm.diagonal(f1.ring, a_diag), QuadraticForm.diagonal(f1.ring, b_diag), t


def _root_sort_key(value):
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    return (int(value), 1)


# ---------------------------------------------------------------------------
# the Jacobian-minor ideal of a pair


def jacobian_minor_ideal(f1: QuadraticForm, f2: QuadraticForm) -> Ideal:
    """Ideal of the 2x2 minors (G1 x)_i (G2 x)_j - (G1 x)_j (G2 x)_i, i < j,
    of the pair's Jacobian (each partial derivative halved), vanishing minors
    omitted.  Cuts out the singular locus of the pencil's base."""
    if f1.ring != f2.ring:
        raise ValueError("forms live in different rings")
    ring = f1.ring
    n = ring.nvars
    units = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    grads = [
        [Poly(ring, {units[k]: c for k, c in enumerate(row) if c}, _clean=False) for row in q.gram]
        for q in (f1, f2)
    ]
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            minor = grads[0][i] * grads[1][j] - grads[0][j] * grads[1][i]
            if minor.terms:
                gens.append(minor)
    return Ideal(ring, gens)


CERTIFIED_PRIME = "certified-prime"
INCONCLUSIVE = "inconclusive"


def prime_certificate(f1: QuadraticForm, f2: QuadraticForm) -> dict:
    """One-sided certificate that the pair generates a prime ideal: status
    certified-prime when the singular locus has codimension above 4,
    otherwise inconclusive (never 'not prime'), with that codimension."""
    codim = codimension(jacobian_minor_ideal(f1, f2))
    return {"status": CERTIFIED_PRIME if codim > 4 else INCONCLUSIVE, "jacobian_codim": codim}
