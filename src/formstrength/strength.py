"""Strength certification machinery over column-graded matrix rings.

Three ingredients rule out strength-1 combinations of a cubic minor family:
column-homogeneous decomposition bookkeeping (every off-(1,1,1) component of
a*b + c*d must vanish), classification of column-homogeneous linear pairs
into three normal forms, and per-class exclusion matrices whose exact kernel
over Q must be trivial.

A definitional brute-force strength search over F_3 and F_5 serves as the
independent oracle for quadrics; it uses no Gram matrix, rank or linear
algebra.  A quadric in n variables is an integer code: with the quadratic
monomials in a fixed order m_0, m_1, ..., sum c_k m_k has code sum c_k p^k.
The products scalar * l1 * l2 of linear forms are enumerated once per
(p, n) as codes, and two codes add digit by digit mod p through tables over
chunks of w digits with p^w <= 243, one lookup per chunk.  Over F_3 with at
most four variables, "strength <= 1" is a byte map over all 3^10 codes,
filled from every sum of two products; a form has strength 2 when adding
some product lands on that map.  Over F_5 one product is subtracted and the
rest looked up among the products.
"""

from __future__ import annotations

from itertools import islice
from operator import add

from .domains import PrimeField
from .groebner import Ideal, normal_form
from .linalg import kernel_basis, mat_inverse, mat_rank
from .orders import DEGREVLEX
from .poly import Grading, Poly, Ring

SAME_COLUMN = "same-column"
PARALLEL_ROWS = "parallel-rows"
SKEW = "skew"

_CLASS_REPRESENTATIVES = {
    SAME_COLUMN: ((1, 1), (2, 1)),
    PARALLEL_ROWS: ((1, 1), (1, 2)),
    SKEW: ((1, 1), (2, 2)),
}


class GradedLinearForm:
    """Linear form homogeneous in the column grading: it lives in a single
    column of the matrix ring."""

    __slots__ = ("poly", "column", "row_vector")

    def __init__(self, poly: Poly):
        ring = poly.ring
        if ring.matrix_shape is None:
            raise ValueError("graded linear forms need a matrix ring")
        if not poly.terms or poly.degree() != 1 or not poly.is_homogeneous():
            raise ValueError("expected a nonzero linear form")
        grading = Grading.by_columns(ring)
        deg = poly.multidegree(grading)
        if deg is None or sum(deg) != 1:
            raise ValueError("linear form is not column-homogeneous")
        self.poly = poly
        self.column = deg.index(1) + 1  # 1-based
        rows, cols = ring.matrix_shape
        dom = ring.domain
        vec = [dom.zero] * rows
        for m, c in poly.terms.items():
            var = m.index(1)
            vec[var // cols] = c
        self.row_vector = vec

    def __repr__(self):
        return f"GradedLinearForm({self.poly}, column {self.column})"


class LinearPairClass:
    """Class tag plus a GL witness normalizing the pair to its
    representative."""

    __slots__ = ("tag", "substitution", "representative")

    def __init__(self, tag, substitution, representative):
        self.tag = tag
        self.substitution = substitution
        self.representative = representative

    def apply(self, poly: Poly) -> Poly:
        return poly.substitute(self.substitution)

    def __repr__(self):
        return f"LinearPairClass({self.tag})"


def _complete_rows(vectors, n, dom):
    rows = [list(v) for v in vectors]
    for i in range(n):
        unit = [dom.one if j == i else dom.zero for j in range(n)]
        trial = rows + [unit]
        if mat_rank(trial, dom) == len(trial):
            rows = trial
        if len(rows) == n:
            break
    return rows


def classify_linear_pair(l1: GradedLinearForm, l2: GradedLinearForm) -> LinearPairClass:
    """Sort an independent column-homogeneous pair into one of the three
    normal forms (same column / parallel rows / skew) and build the witness
    substitution carrying it onto the representative pair."""
    ring = l1.poly.ring
    if ring != l2.poly.ring:
        raise ValueError("forms live in different rings")
    dom = ring.domain
    rows, cols = ring.matrix_shape
    if mat_rank([l1.row_vector, l2.row_vector], dom) < 2 and l1.column == l2.column:
        raise ValueError("forms are linearly dependent")

    parallel = mat_rank([l1.row_vector, l2.row_vector], dom) < 2
    if l1.column == l2.column:
        tag = SAME_COLUMN
    elif parallel:
        tag = PARALLEL_ROWS
    else:
        tag = SKEW

    # row transform: v1 -> e1 (and v2 -> e2 unless parallel)
    if tag == PARALLEL_ROWS:
        seed = [l1.row_vector]
    else:
        seed = [l1.row_vector, l2.row_vector]
    p = _complete_rows(seed, rows, dom)
    a = mat_inverse(p, dom)

    # column permutation c1 -> 1, c2 -> 2 (plus a scaling for parallel rows)
    c1, c2 = l1.column, l2.column
    col_map = {}
    if tag == SAME_COLUMN:
        col_map[c1] = 1
        nxt = 2
        for c in range(1, cols + 1):
            if c != c1:
                col_map[c] = nxt
                nxt += 1
    else:
        col_map[c1] = 1
        col_map[c2] = 2
        nxt = 3
        for c in range(1, cols + 1):
            if c not in (c1, c2):
                col_map[c] = nxt
                nxt += 1
    col_scale = {c: dom.one for c in range(1, cols + 1)}
    if tag == PARALLEL_ROWS:
        # l2 = s * (v1 in column c2); rescale that column so it lands on x1_2
        ratio = None
        for x, y in zip(l1.row_vector, l2.row_vector):
            if x:
                ratio = dom.div(y, x)
                break
        col_scale[c2] = dom.inv(ratio)

    substitution = {}
    for i in range(rows):
        for j0 in range(cols):
            src = i * cols + j0
            target_col = col_map[j0 + 1] - 1
            img_terms = {}
            for k in range(rows):
                coeff = dom.mul(a[i][k], col_scale[j0 + 1])
                if coeff:
                    mono = [0] * ring.nvars
                    mono[k * cols + target_col] = 1
                    img_terms[tuple(mono)] = coeff
            substitution[src] = Poly(ring, img_terms, _clean=False)

    rep = _CLASS_REPRESENTATIVES[tag]
    representative = tuple(
        ring.var(ring.entry_index(r, c)) for r, c in rep
    )
    return LinearPairClass(tag, substitution, representative)


# ---------------------------------------------------------------------------
# column-homogeneous decompositions of a (1,1,1)-cubic


_LINEAR_DEGREES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_QUADRIC_DEGREES = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


class GradedDecomposition:
    """Column-homogeneous pieces of a candidate strength-1 decomposition
    a*b + c*d of a (1,1,1)-form: the linear factors split into three
    single-column pieces, the quadrics into six."""

    __slots__ = ("ring", "grading", "a", "b", "c", "d")

    def __init__(self, ring, a=None, b=None, c=None, d=None):
        if ring.matrix_shape is None or ring.matrix_shape[1] != 3:
            raise ValueError("decompositions live in a three-column matrix ring")
        self.ring = ring
        self.grading = Grading.by_columns(ring)
        self.a = self._typed(a or {}, _LINEAR_DEGREES, 1)
        self.c = self._typed(c or {}, _LINEAR_DEGREES, 1)
        self.b = self._typed(b or {}, _QUADRIC_DEGREES, 2)
        self.d = self._typed(d or {}, _QUADRIC_DEGREES, 2)

    def _typed(self, pieces, allowed, total_degree):
        out = {}
        for deg in allowed:
            out[deg] = self.ring.zero()
        for deg, f in pieces.items():
            deg = tuple(deg)
            if deg not in out:
                raise ValueError(f"multidegree {deg} is not allowed here")
            if not f.terms:
                continue
            if f.degree() != total_degree or f.multidegree(self.grading) != deg:
                raise ValueError(f"piece at {deg} is not homogeneous of that multidegree")
            out[deg] = f
        return out

    def linear_a(self):
        return _sum(self.ring, self.a.values())

    def linear_c(self):
        return _sum(self.ring, self.c.values())

    def quadric_b(self):
        return _sum(self.ring, self.b.values())

    def quadric_d(self):
        return _sum(self.ring, self.d.values())

    def product(self) -> Poly:
        return self.linear_a() * self.quadric_b() + self.linear_c() * self.quadric_d()

    def target_component(self) -> Poly:
        """The (1,1,1) part assembled from the six contributing pairs."""
        pairs = (
            (self.a[(1, 0, 0)], self.b[(0, 1, 1)]),
            (self.a[(0, 1, 0)], self.b[(1, 0, 1)]),
            (self.a[(0, 0, 1)], self.b[(1, 1, 0)]),
            (self.c[(1, 0, 0)], self.d[(0, 1, 1)]),
            (self.c[(0, 1, 0)], self.d[(1, 0, 1)]),
            (self.c[(0, 0, 1)], self.d[(1, 1, 0)]),
        )
        return _sum(self.ring, [g * h for g, h in pairs])


def _sum(ring, polys):
    total = ring.zero()
    for f in polys:
        total = total + f
    return total


class GradingCheck:
    __slots__ = ("ok", "violations", "product")

    def __init__(self, ok, violations, product):
        self.ok = ok
        self.violations = violations
        self.product = product


def grading_constraint_check(dec: GradedDecomposition) -> GradingCheck:
    """A decomposition is admissible when a*b + c*d is supported purely in
    multidegree (1,1,1); the violation list names every off-degree component
    that survives."""
    product = dec.product()
    violations = [
        d for d in product.multidegree_support(dec.grading) if d != (1, 1, 1)
    ]
    return GradingCheck(not violations, violations, product)


# ---------------------------------------------------------------------------
# exclusion matrices


class ExclusionReport:
    """Family reduced modulo one class ideal: surviving monomials, the exact
    coefficient matrix (rows = monomials, columns = family members) and its
    kernel."""

    __slots__ = ("ideal_gens", "monomials", "matrix", "kernel_dim", "kernel")

    def __init__(self, ideal_gens, monomials, matrix, kernel):
        self.ideal_gens = ideal_gens
        self.monomials = monomials
        self.matrix = matrix
        self.kernel = kernel
        self.kernel_dim = len(kernel)

    @property
    def trivial_kernel(self):
        return self.kernel_dim == 0

    def row_count(self):
        return len(self.monomials)

    def to_dict(self):
        return {
            "ideal": [str(g) for g in self.ideal_gens],
            "monomial_rows": len(self.monomials),
            "kernel_dim": self.kernel_dim,
        }


def exclusion_matrix(family, class_ideal: Ideal) -> ExclusionReport:
    """Reduce every family member modulo the class ideal and compute the
    exact kernel of the surviving-monomial coefficient matrix; a trivial
    kernel means no nontrivial combination of the family lies in the
    ideal."""
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
    if not matrix:
        # everything reduced to zero: full kernel
        kern = [
            [dom.one if i == j else dom.zero for j in range(len(family))]
            for i in range(len(family))
        ]
        return ExclusionReport(class_ideal.gens, [], [], kern)
    kern = kernel_basis(matrix, dom)
    return ExclusionReport(class_ideal.gens, monomials, matrix, kern)


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


def all_variable_pair_ideals(ring: Ring):
    """Exhaustive mode: every ideal generated by two distinct variables,
    with its class tag (belt-and-braces coverage of the symmetry argument)."""
    rows, cols = ring.matrix_shape
    out = []
    n = ring.nvars
    for u in range(n):
        for v in range(u + 1, n):
            ru, cu = divmod(u, cols)
            rv, cv = divmod(v, cols)
            if cu == cv:
                tag = SAME_COLUMN
            elif ru == rv:
                tag = PARALLEL_ROWS
            else:
                tag = SKEW
            out.append((tag, Ideal(ring, [ring.var(u), ring.var(v)])))
    return out


def strength_one_excluded(family, ideals) -> bool:
    """True when every class ideal's exclusion kernel is trivial: no
    nontrivial combination of the family falls into any class ideal, so no
    combination has an admissible strength-1 decomposition."""
    return all(exclusion_matrix(family, ideal).trivial_kernel for ideal in ideals)


# ---------------------------------------------------------------------------
# definitional brute-force strength for small quadrics


_CHUNK_LIMIT = 243  # p^w <= 243, so a chunk table has at most 243^2 entries
_CODE_CACHE: dict = {}


def _digit_sum_rows(p, w):
    """rows[a][b] = a + b digit by digit mod p, for a, b < p^w."""
    rows = [[0]]
    for _ in range(w):
        # prepend a low digit to every code of the previous width
        rows = [
            [(lo + b) % p + p * h for h in rows[hi] for b in range(p)]
            for hi in range(len(rows))
            for lo in range(p)
        ]
    return rows


class _QuadricCodes:
    """The codes of the quadrics in n variables over F_p (see the module
    docstring), the codes of the products among them, and the chunk tables
    that add two codes digit by digit mod p."""

    __slots__ = ("size", "weights", "products", "product_set", "_base", "_tables", "_columns", "_le_one")

    def __init__(self, p, n):
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
        self._base = base
        # chunk c's table holds its sums already shifted into place
        self._tables = [rows] + [
            [[x * base**c for x in row] for row in rows] for c in range(1, chunks)
        ]
        self._columns = [[q // base**c % base for q in products] for c in range(chunks)]
        self._le_one = None

    def code(self, terms):
        """Code of a term dict; KeyError on a monomial that is not quadratic."""
        weights = self.weights
        return sum(c * weights[mono] for mono, c in terms.items())

    def sums(self, code, start=0):
        """code + q digit by digit mod p, for the products q from index start on."""
        base = self._base
        total = None
        for table, column in zip(self._tables, self._columns):
            row = table[code % base]
            code //= base
            part = map(row.__getitem__, islice(column, start, None))
            total = part if total is None else map(add, total, part)
        return total

    def le_one(self):
        """Byte map over all codes: 1 exactly on the quadrics that are zero,
        a product or a sum of two products (strength at most 1)."""
        if self._le_one is None:
            table = bytearray(self.size)
            table[0] = 1
            for i, q in enumerate(self.products):
                table[q] = 1
                for c in self.sums(q, i):
                    table[c] = 1
            self._le_one = table
        return self._le_one


def _quadric_codes(p, n):
    codes = _CODE_CACHE.get((p, n))
    if codes is None:
        codes = _CODE_CACHE[(p, n)] = _QuadricCodes(p, n)
    return codes


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
