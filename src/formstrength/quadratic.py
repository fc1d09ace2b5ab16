"""Quadratic forms as Gram matrices: rank, strength, pencils and minrank.

A form q lives as a symmetric matrix G with q(x) = x^t G x (cross terms
halved), over a domain of characteristic other than 2.  The minrank of a
diagonal pair comes both from the block-multiplicity formula and from an
exhaustive projective-line scan over a prime field; the two routes are
mutual oracles.  The codimension of the pair's Jacobian-minor ideal gives
the one-sided primality certificate.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product, repeat
from math import gcd, prod

from .domains import GF, PrimeField
from .groebner import Ideal, codimension
from .linalg import (
    eliminate,
    gram_diagonal,
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


_GRAM_SLOTS = {}
"""Exponent tuple -> Gram slot (i, j), i <= j, of each quadratic monomial in
at most 16 variables that ``_gram_slot`` has seen.  Those are at most 816
tuples (n(n + 1)/2 for each n <= 16), so the cache does not grow with the
forms a process reads; a larger form's slots are found afresh on each call
(``from_poly`` of a dense form in 300 variables over F_7 takes 0.18-0.19 s,
best of five, against 0.31-0.34 s with three scans of each tuple).  Over the 59048 nonzero quadrics in 4 variables over F_3,
``QuadraticForm.from_poly`` took a median 5.0 us per form with it and
7.9 us without (nine interleaved runs, Python 3.11 on a 2-core machine)."""


# zeros, then one 2 or two 1s apart: the bytes of a quadratic monomial
_QUADRATIC = re.compile(rb"\x00*(?:(\x02)|(\x01)\x00*(\x01))\x00*")


def _gram_slot(m):
    """The Gram slot (i, j), i <= j, of the monomial with exponents m, kept
    in _GRAM_SLOTS for a ring of at most 16 variables; raises ValueError
    unless m has degree 2.  ``bytes`` reads m once (refusing an exponent
    past 255, which no quadratic monomial has) and the match runs over its
    bytes, at C speed."""
    try:
        match = _QUADRATIC.fullmatch(bytes(m))
    except ValueError:
        match = None
    if match is None:
        raise ValueError("not a homogeneous quadratic form")
    i, j = (match.start(1),) * 2 if match[1] else (match.start(2), match.start(3))
    if len(m) <= 16:
        _GRAM_SLOTS[m] = i, j
    return i, j


def _check_char(domain):
    if domain.characteristic == 2:
        raise ValueError("quadratic-form operations need characteristic != 2")


FORM_VARIABLES_LIMIT = 300
"""Most variables n of a form the CLI takes.  Its Gram matrix holds n^2
entries, so at n = 30000 a two-term form would ask for 9·10^8 of them; a
form in more variables is refused with ValueError (``check_form_variables``)
before any Gram matrix is built.  On a 2-core machine with Python 3.11,
``quadric rank`` on a dense form over F_7 took 1.4 s at n = 300; timed one
by one in a fresh process, parsing took 0.5-0.7 s, ``from_poly`` 0.6 s and
the rank 0.8 s there, and 1.5 s, 0.9 s and 1.3 s at n = 400.  A diagonal
form over Q ranked in 0.15 s at n = 500 and 2.6 s at n = 2000.  Over Q the
entries of a dense form grow as it is diagonalized, so n alone does not
bound its time: with coefficients 1..6 ``quadric rank`` on a dense form
took 1.6 s at n = 100 and 9.8 s at n = 150."""


def check_form_variables(n):
    """Refuse, with ValueError, a form in more than FORM_VARIABLES_LIMIT
    variables.  It needs no Gram matrix, so the CLI checks a form's size
    before it builds one."""
    if n > FORM_VARIABLES_LIMIT:
        raise ValueError(
            f"a form in {n} variables is refused: at most {FORM_VARIABLES_LIMIT} "
            f"variables, a Gram matrix of {FORM_VARIABLES_LIMIT}^2 entries"
        )


class QuadraticForm:
    """Symmetric Gram-matrix representation of a degree-2 form."""

    __slots__ = ("ring", "gram")

    def __init__(self, ring, gram):
        """Over F_p the entries are reduced into [0, p) before the checks,
        so every form over F_p holds reduced entries (``from_poly`` builds
        them so)."""
        _check_char(ring.domain)
        n = ring.nvars
        if len(gram) != n or any(len(row) != n for row in gram):
            raise ValueError("Gram matrix shape does not match the ring")
        p = ring.domain.characteristic
        gram = [[v % p for v in row] for row in gram] if p else [list(row) for row in gram]
        if not is_symmetric(gram):
            raise ValueError("Gram matrix must be symmetric")
        self.ring = ring
        self.gram = gram

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
        the monomial's Gram slot (see ``_gram_slot``), never accumulated.
        The entries are filled with plain operators, as ``linalg`` works:
        over F_p ints in [0, p), a cross term c as c * (p + 1)/2 mod p, and
        over Q ``Fraction``s, c * 1/2.  The matrix is n x n and symmetric by
        construction, so the constructor's checks are not run again."""
        ring = f.ring
        _check_char(ring.domain)
        n = ring.nvars
        p = ring.domain.characteristic
        half, zero = ((p + 1) // 2, 0) if p else (Fraction(1, 2), Fraction(0))
        gram = list(map(list, repeat([zero] * n, n)))
        slots = _GRAM_SLOTS
        for m, c in f.terms.items():
            i, j = slots.get(m) or _gram_slot(m)
            if i == j:
                gram[i][i] = c
            elif p:
                gram[i][j] = gram[j][i] = c * half % p
            else:
                gram[i][j] = gram[j][i] = c * half
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
        """Rank of the Gram matrix: the number of entries of a congruence
        diagonalization of a copy (see ``linalg.gram_diagonal``)."""
        return len(gram_diagonal(list(map(list, self.gram)), self.ring.domain.characteristic))

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
"""Most work one F_p scan may do, as points x (n+1)^2 for r forms in n
variables, where the points are the (p^r - 1)/(p - 1) projective points the
scan ranks.  A larger scan is refused with ValueError before any rank is
computed.  The scan ranks planes of p lines of p points (see
``_projective_ranks``).  A plane of largest rank R eliminates at most its
(n + 1)^2 corner points, the R x R submatrix at (R + 1)^2 <= (n + 1)^2 of
them, the at most R*p roots of D_S past the corner, and at most R lines
where D_S is 0, at most (n + 1) + (R + 1) + R eliminations each; every
other point costs R additions mod p (see ``_plane_ranks``).  So nearly
every point is eliminated only where p is about n + 1 or less.  An
eliminated point cost 0.4-0.55 us per unit in these measurements (Python
3.11 on a 2-core machine, best of three): ten forms in 10 variables over
F_3, 29524 points and 0.89 of the limit, each eliminated, took 1.35-1.5 s;
five forms in 8 variables over F_11 with a common kernel vector, 16105
points and 0.33 of the limit, eliminated 11300 points and 8520 7 x 7
submatrices in 0.49 s.  So a scan takes at most about 1.5-2.2 s.  The largest scan in the
certificates and the benchmark, the 3x2 minor family over F_31, ranks 993
points (993 x 49 units) on the plane (1, v, u), the line (0, 1, u) and the
point (0, 0, 1), and eliminates 87 matrices: the plane's 49 corner points
and 25 submatrices, the line's 7 points and 5 submatrices, and (0, 0, 1);
after a random change of variables, 30-62 roots of D_S more."""


def _projective_ranks(forms, what):
    """Yield (point, Gram rank of sum_i point[i] * forms[i]) over
    ``projective_points(p, r)`` for r forms over F_p, after refusing a field
    that is not F_p, forms in different rings and a scan above
    SCAN_WORK_LIMIT.  In that order P^(r-1) is the planes c + v*e_(r-1) +
    u*e_r, v, u < p, for c in ``projective_points(p, r - 2)``, then the line
    e_(r-1) + u*e_r, then e_r.  A plane's A = sum_i c_i * G_i is formed once
    and ranked with G = G_(r-1) and B = G_r by ``_plane_ranks``, the line
    as a plane of one line (A = G_(r-1), G = 0), and e_r by one
    elimination."""
    if not forms:
        raise ValueError("no forms to scan")
    ring = forms[0].ring
    dom = ring.domain
    if not isinstance(dom, PrimeField):
        raise ValueError(f"{what} needs a prime field")
    _check_char(dom)
    if any(q.ring != ring for q in forms):
        raise ValueError("forms live in different rings")
    p, r, n = dom.p, len(forms), ring.nvars
    points = (p**r - 1) // (p - 1)
    if points * (n + 1) ** 2 > SCAN_WORK_LIMIT:
        raise ValueError(
            f"{what} over F_{p} would visit {points} points in {n} variables, "
            f"above the limit of {SCAN_WORK_LIMIT} points x (n+1)^2"
        )
    *rest, b = ([v for row in q.gram for v in row] for q in forms)
    for c in projective_points(p, r - 2):
        a = [sum(ci * v for ci, v in zip(c, entry)) % p for entry in zip(*rest[:-1])]
        yield from zip((c + vu for vu in product(range(p), repeat=2)), _plane_ranks(a, rest[-1], b, p, n, p))
    if rest:
        line = _plane_ranks(rest[-1], [0] * (n * n), b, 1, n, p)
        yield from zip(((0,) * (r - 2) + (1, u) for u in range(p)), line)
    yield (0,) * (r - 1) + (1,), len(eliminate([b[i:i + n] for i in range(0, n * n, n)], n, p))


def _plane_ranks(a, g, b, lines, n, p):
    """Yield the rank of A + v*G + u*B for v < ``lines`` and u < p, line by
    line, for symmetric n x n matrices A, G and B over F_p, flat int vectors
    reduced mod p; ``lines`` is p, or 1 for a line (G = 0).

    The corner, the first min(lines, n + 1) lines by their first
    min(p, n + 1) points, is ranked by ``linalg.eliminate``; where p <= n + 1
    it is the whole plane.  Let R be the largest rank in the corner.  Every
    (R+1)-minor has degree at most R + 1 <= n in v and in u and vanishes on
    the corner, so the rank is at most R on the whole plane.  The pivot
    columns S of the first rank-R point of the corner index a nonsingular
    principal submatrix (the matrix is symmetric; Gantmacher, The Theory of
    Matrices, vol. 2, ch. XII), so D_S(v, u) = det((A + v*G + u*B)[S, S]),
    of total degree at most R, is not identically 0, and wherever it is
    nonzero the rank is R.  D_S is taken at the corner points v, u <= R: the
    product of the pivots when R = n, else the det of the S x S submatrix.
    A backward difference table for each u <= R (see ``_differences``)
    carries it to each later line, and one for each line to each later
    point, at R additions mod p a value, so only the zeros of D_S past the
    corner are eliminated.  A line where D_S is 0 at u <= R has D_S = 0
    throughout, and v - v0 divides D_S, so at most R lines are like that;
    each is ranked as a plane of one line, with the corner's points of it
    not eliminated again."""
    side = min(p, n + 1)

    def point(v, u):
        flat = [(x + v * y + u * z) % p for x, y, z in zip(a, g, b)]
        m = [flat[i:i + n] for i in range(0, n * n, n)]
        pivots = eliminate(m, n, p)
        return flat, pivots, prod(m[i][i] for i in range(n)) % p if len(pivots) == n else 0

    # the rule, on a plane of ``lines`` lines with its ranked corner; ``at``
    # ranks a point past it
    def ranks(corner, lines, at):
        rank = max(len(pivots) for row in corner for _, pivots, _ in row)
        s = next(pivots for row in corner for _, pivots, _ in row if len(pivots) == rank)

        def minor(flat, pivots, det):
            if rank == n:
                return det
            sub = [[flat[i * n + j] for j in s] for i in s]
            return prod(sub[i][i] for i in range(rank)) % p if len(eliminate(sub, rank, p)) == rank else 0

        heads = [[minor(*corner[v][u]) for u in range(rank + 1)] for v in range(min(lines, rank + 1))]
        columns = [_differences(column, p) for column in zip(*heads)]
        for v in range(lines):
            values = heads[v] if v <= rank else [_advance(t, p) for t in columns]
            row = corner[v] if v < len(corner) else []
            if not any(values):
                yield from ranks([row or [at(v, u) for u in range(side)]], 1, lambda _, u: at(v, u))
                continue
            diffs = _differences(values, p)
            for u in range(p):
                d_s = values[u] if u <= rank else _advance(diffs, p)
                if u < len(row):
                    yield len(row[u][1])
                else:
                    yield rank if d_s else len(at(v, u)[1])

    corner = [[point(v, u) for u in range(side)] for v in range(min(lines, side))]
    if side == p:
        yield from (len(pivots) for row in corner for _, pivots, _ in row)
    else:
        yield from ranks(corner, lines, point)


def _differences(values, p):
    """The backward differences, at the last point, of a polynomial over
    F_p given by its values at k consecutive points; its degree is below k.
    Entry j is the j-th difference."""
    diffs = []
    for v in values:
        recorded = [v]
        for d in diffs:
            recorded.append((recorded[-1] - d) % p)
        diffs = recorded
    return diffs


def _advance(diffs, p):
    """Move the backward differences ``diffs`` of a polynomial of degree
    below len(diffs) to the next point, in place, and return its value
    there: the last difference is constant."""
    for k in range(len(diffs) - 2, -1, -1):
        diffs[k] = (diffs[k] + diffs[k + 1]) % p
    return diffs[0]


def minrank_bruteforce(f1: QuadraticForm, f2: QuadraticForm) -> MinrankResult:
    """Exhaustive minrank over F_p: scan all p+1 points of the projective
    line of combinations; the witness is the first point of least rank."""
    best, witness = None, None
    for point, value in _projective_ranks([f1, f2], "brute-force minrank"):
        if best is None or value < best:
            best, witness = value, point
    return MinrankResult(best, witness, "finite-field-scan")


def projective_points(p, r):
    """Representatives of P^(r-1) over F_p, first nonzero coordinate 1: the
    position of that 1 runs from 0 up to r-1, and the tail after it runs
    lexicographically, so a pencil streams (1, 0), ..., (1, p-1), (0, 1).
    The order is that of the lines c + u*e_r, u = 0, ..., p-1, for c in
    ``projective_points(p, r-1)``, then the point e_r; every F_p scan walks
    those lines and yields its ranks in this order."""
    for lead in range(r):
        head = (0,) * lead + (1,)
        for tail in product(range(p), repeat=r - lead - 1):
            yield head + tail


def rank_scan_all_nonzero(forms, expect):
    """Gram rank of every combination over all nonzero coefficient tuples of
    F_p^r.  Returns (histogram, offender) where the offender is the
    lexicographically least tuple whose rank differs from ``expect``, or
    None.

    c*G has the rank of G for every c != 0, so one point per projective
    class is ranked, (p^r - 1)/(p - 1) in all, and each rank counts p - 1
    times; the histogram still sums to p^r - 1.  The least tuple of a class
    is its representative with first nonzero coordinate 1, so the offender
    is the least offending point of the scan."""
    histogram, bad = {}, None
    for t, value in _projective_ranks(forms, "rank scan"):
        histogram[value] = histogram.get(value, 0) + forms[0].domain.p - 1
        if value != expect and (bad is None or t < bad[0]):
            bad = t, value
    return histogram, None if bad is None else {"point": list(bad[0]), "rank": bad[1]}


def collective_strength_quadrics(forms) -> int:
    """Minimum closed-field strength over all nontrivial combinations of the
    forms (quadratic forms in one ring), by exhaustive projective scan over
    F_p."""
    # strength is nondecreasing in the rank
    return strength_from_rank(min(k for _, k in _projective_ranks(forms, "collective-strength scan")))


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
    if f1.rank() < n:
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
    for alpha, mult in ordered:
        shifted = [
            [dom.sub(m[i][j], alpha if i == j else dom.zero) for j in range(n)]
            for i in range(n)
        ]
        eig = kernel_basis(shifted, dom)
        if len(eig) != mult:
            return None  # defective eigenvalue: not simultaneously diagonalizable
        # E^t G1 E, E the basis as columns, with the identity appended: it
        # ends as S^t, S^t E^t G1 E S diagonal
        restricted = mat_mul(mat_mul(eig, f1.gram, dom), transpose(eig), dom)
        a = [row + [dom.one if i == j else dom.zero for j in range(mult)] for i, row in enumerate(restricted)]
        if len(gram_diagonal(a, dom.characteristic)) < mult:
            return None
        columns += mat_mul([row[mult:] for row in a], eig, dom)  # the columns of E S
    t = transpose(columns)
    if mat_rank(t, dom) < n:
        return None
    images = []
    for gram in (f1.gram, f2.gram):
        check = mat_mul(mat_mul(columns, gram, dom), t, dom)  # columns is t^t
        if any(check[i][j] for i in range(n) for j in range(n) if i != j):
            return None
        images.append(QuadraticForm.diagonal(f1.ring, [check[i][i] for i in range(n)]))
    return images[0], images[1], t


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
