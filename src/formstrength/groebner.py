"""Buchberger engine and ideal-theoretic queries.

The basis computation is Buchberger with the Gebauer-Moeller pair
eliminations and normal (smallest-lcm-first) selection.  Its bases are
minimal and stay packed (see ``GroebnerBasis``): leads, dimension,
membership and normal forms need no more, since a remainder on division by
any Groebner basis is unique.  The elements are interreduced and decoded on
first read, into the unique reduced basis for (ideal, order).

For r ≤ n homogeneous generators of degrees d_i under degrevlex, pairs
leave the heap by ascending degree, and a Hilbert-driven criterion
(Traverso, J. Symbolic Comput. 22, 1996) drops pairs that would reduce to
zero.  Let L be the ideal of the leads found so far and CI(k) the t^k
coefficient of ∏(1 - t^d_i)/(1 - t)^n, the Hilbert function of a complete
intersection.  Once HF(R/L)(k) = CI(k), every remaining pair of degree k is
dropped unreduced.  The equality is tested when a pair of degree k leaves
the heap while other pairs still wait, since on the last pair a test could
save only one reduction.  This is sound over any field:

* over the algebraic closure, which changes no Hilbert function, regular
  sequences of r ≤ n forms of these degrees (x_i^d_i among them) form a
  dense open set, and so do the forms where the multiplication map
  ⊕ R_(k-d_i) → R_k has its largest rank; the two sets meet, so that rank
  is the one of a regular sequence, dim R_k - CI(k), and HF(R/I)(k) ≥ CI(k);
* L ⊆ in(I), so HF(R/L)(k) ≥ HF(R/in(I))(k) = HF(R/I)(k);
* so HF(R/L)(k) = CI(k) forces L_k = in(I)_k, and an S-polynomial of
  degree k, a member of I_k, has no lead outside L: it reduces to zero.

HF(R/L) comes from the Hilbert numerator N(L) of the series N(t)/(1 - t)^n,
kept up to date as leads arrive by N(L + (m)) = N(L) - t^|m|·N(L : m), with
the numerators of the monomial ideals L : m by the pivot recursion of
Bayer & Stillman (J. Symbolic Comput. 14, 1992).  The reduced basis is
unique, so the criterion changes no result; non-homogeneous input, other
orders and r > n (where CI(k) is no bound) run without it.

Dimension comes from maximal independent variable sets of the leading-term
ideal.  An intersection is the degrevlex basis of I·J under the Hilbert
prune hook, its target the numerator of R/(I ∩ J), known in advance, plus
linear algebra where it falls short (``ideal_intersection``); a quotient
divides an intersection through.  The direct regular-sequence test compares
Hilbert numerators (``is_regular_sequence_direct``).  Nothing here computes
a gcd, so that test never shares code with the gcd route of the two-form
check.

All division runs in one kernel, ``_reduce_terms``, after Monagan & Pearce
(CASC 2007).  Inside it a monomial is its packed order key (see
``orders.Packing``): an int that is smaller for larger monomials and adds
under multiplication.  A term dict maps keys to coefficients; shifting a
reducer by the quotient monomial adds one int to each of its keys, a
divisibility test is one subtraction and one mask, and a min-heap of the
keys in the work dict yields each leading term.  Exponent tuples appear
only where polynomials enter the engine, in the leads and the pair
criteria, and where a basis's elements are first read.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import islice
from math import comb

from .orders import DEGREVLEX, MAX_EXPONENT, KeyWidthError, packing
from .poly import (
    Poly,
    Ring,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials,
)


class GroebnerError(RuntimeError):
    pass


class GroebnerBasis:
    """Groebner basis: lead monomials in descending order, and elements.

    It holds one reducer per lead in the kernel's packed form (see
    ``_reduce_terms``), which is all that leads, membership and normal forms
    read: the remainder on division by any Groebner basis is unique.  An
    engine basis (``_reduced``) is minimal, and ``elements``, its reduced
    basis, is interreduced and decoded on first read; a basis built from
    polynomials holds them as its elements."""

    __slots__ = ("ring", "order", "lead_monomials", "_reducers", "_elements")

    def __init__(self, ring, order, elements):
        pk = packing(order, ring.nvars)
        self.ring = ring
        self.order = order
        self._elements = list(elements)
        self._reducers = [_reducer(_encode(pk, g), pk, ring.domain) for g in self._elements]
        self.lead_monomials = [pk.monomial(r[0]) for r in self._reducers]

    @classmethod
    def _packed(cls, ring, order, reducers, lead_monomials):
        """A basis of packed reducers, with their leads in descending order,
        whose elements are built on first read."""
        basis = cls(ring, order, [])
        basis._reducers, basis.lead_monomials, basis._elements = reducers, lead_monomials, None
        return basis

    @property
    def elements(self):
        if self._elements is None:
            self._elements = _interreduced(self._reducers, self.lead_monomials, self.order, self.ring)
        return self._elements

    def is_unit(self):
        return len(self.lead_monomials) == 1 and not any(self.lead_monomials[0])

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.lead_monomials)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.order == other.order
            and self.elements == other.elements
        )

    def __repr__(self):
        return f"GroebnerBasis({len(self)} elements, {self.order!r})"


def _encode(pk, f):
    """The terms of f as a kernel term dict ``{key: coefficient}``."""
    key = pk.key
    return {key(m): c for m, c in f.terms.items()}


def _decode(pk, work, ring):
    monomial = pk.monomial
    return Poly(ring, {monomial(k): c for k, c in work.items()}, _clean=False)


def _reducer(work, pk, dom):
    """A nonzero term dict as ``(lead key, lead vector, monic tail)``, the
    tail a list of (key, coefficient) pairs; ``work`` is used up."""
    lk = min(work)
    lc = work.pop(lk)
    if lc == dom.one:
        tail = list(work.items())
    else:
        inv, mul = dom.inv(lc), dom.mul
        tail = [(k, mul(c, inv)) for k, c in work.items()]
    return lk, lk & pk.mask, tail


def _reduce_terms(work, reducers, pk, dom, quotient=None):
    """Divide a term dict ``{key: coefficient}`` by monic reducers.

    Returns the remainder as a term dict in descending order; ``work`` is
    used up.  The heap holds the keys of the work dict; a popped key that
    is no longer in ``work`` was cancelled since it was pushed and is
    skipped.  That is sound because every term a reduction creates is
    smaller than the lead it removes, so a key leaves the heap for good
    once its term is processed.  Each lead goes to the first reducer whose
    lead divides it, else to the remainder.  With a ``quotient`` dict (one
    reducer) the quotient terms are recorded in it and the first lead that
    is not divisible raises GroebnerError.

    The keys pop in increasing order, and a monomial's divisors have keys
    at least its own (a proper multiple has a smaller key), so the reducers
    at the front of the list whose lead keys are below the popped key are
    passed over, for it and every later key.  With the leads in increasing
    key order, as an engine basis holds them (``_reduced``), a lead is
    tried only against the reducers that might divide it.
    """
    heap = list(work)
    heapify(heap)
    mask, guard = pk.mask, pk.guard
    p = dom.characteristic
    size, skip = len(reducers), 0
    remainder = {}
    while heap:
        k = heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        v = k & mask
        if v & guard:
            raise KeyWidthError(f"exponent above {MAX_EXPONENT}, the packed key limit")
        while skip < size and reducers[skip][0] < k:
            skip += 1
        for lk, lv, tail in islice(reducers, skip, None) if skip else reducers:
            if (v - lv) & guard:
                continue
            q = k - lk
            if quotient is not None:
                quotient[q] = c
            if p:
                for gk, gc in tail:
                    mk = gk + q
                    old = work.get(mk)
                    if old is None:
                        work[mk] = -c * gc % p
                        heappush(heap, mk)
                    else:
                        s = (old - c * gc) % p
                        if s:
                            work[mk] = s
                        else:
                            del work[mk]
            else:
                for gk, gc in tail:
                    mk = gk + q
                    old = work.get(mk)
                    if old is None:
                        work[mk] = -c * gc
                        heappush(heap, mk)
                    else:
                        s = old - c * gc
                        if s:
                            work[mk] = s
                        else:
                            del work[mk]
            break
        else:
            if quotient is not None:
                raise GroebnerError("exact division failed (internal invariant)")
            remainder[k] = c
    return remainder


def normal_form(f: Poly, basis: GroebnerBasis) -> Poly:
    """Remainder of f on division by the basis; zero iff f is a member."""
    if f.ring != basis.ring:
        raise ValueError("polynomial and basis live in different rings")
    if not f.terms or not basis.lead_monomials:
        return f
    pk = packing(basis.order, f.ring.nvars)
    rem = _reduce_terms(_encode(pk, f), basis._reducers, pk, f.ring.domain)
    return _decode(pk, rem, f.ring)


def _spair(ri, rj, lcm_key, dom):
    """S-polynomial of two reducers with the given lcm key, as a work dict;
    the monic leads cancel, so only the tails are shifted."""
    qi = lcm_key - ri[0]
    qj = lcm_key - rj[0]
    work = {gk + qi: c for gk, c in ri[2]}
    sub, zero = dom.sub, dom.zero
    for gk, c in rj[2]:
        mk = gk + qj
        s = sub(work.get(mk, zero), c)
        if s:
            work[mk] = s
        else:
            work.pop(mk, None)
    return work


# ---------------------------------------------------------------------------
# Hilbert numerators


def _add_shifted(num, other, shift, sign):
    """num(t) + sign·t^shift·other(t), coefficient lists from t^0 up."""
    out = num + [0] * (shift + len(other) - len(num))
    for j, c in enumerate(other):
        out[j + shift] += sign * c
    return out


def _hilbert_numerator(monos):
    """The numerator N of the Hilbert series N(t)/(1 - t)^n of R/L, L the
    ideal of the given monomials, as coefficients of t^0, t^1, ...

    Pivot recursion after Bayer & Stillman (J. Symbolic Comput. 14, 1992):
    the exact sequence 0 → R/(L : p)(-|p|) → R/L → R/(L + p) → 0 gives
    N(L) = N(L + p) + t^|p|·N(L : p).  The pivot p is x_i^e, x_i the
    variable in most minimal generators and e the median of its exponents
    in those of two or more variables, so L + p drops such a generator and
    L : p lowers exponents.  Pairwise coprime generators are a regular
    sequence, with N = ∏(1 - t^|m|).
    """
    gens = monos
    if len(monos) > 1:
        gens = []
        for m in sorted(monos, key=sum):
            if not any(mono_divides(g, m) for g in gens):
                gens.append(m)
        counts = [sum(1 for m in gens if m[v]) for v in range(len(gens[0]))]
        i = max(range(len(counts)), key=counts.__getitem__)
        if counts[i] > 1:
            exps = sorted(m[i] for m in gens if m[i] and sum(1 for x in m if x) > 1)
            e = exps[len(exps) // 2]
            pivot = tuple(e if v == i else 0 for v in range(len(counts)))
            colon = [_mono_colon(m, pivot) for m in gens]
            return _add_shifted(_hilbert_numerator(gens + [pivot]), _hilbert_numerator(colon), e, 1)
    num = [1]
    for m in gens:
        num = _add_shifted(num, num, sum(m), -1)
    return num


def _mono_colon(m, p):
    """The generator m / gcd(m, p) of (m) : p."""
    return tuple(a - b if a > b else 0 for a, b in zip(m, p))


def _hilbert_value(num, n, k):
    """The t^k coefficient of num(t)/(1 - t)^n."""
    return sum(c * comb(k - j + n - 1, n - 1) for j, c in enumerate(num[: k + 1]))


def _ci_numerator(degrees):
    """∏(1 - t^d) over the degrees, a complete intersection's numerator."""
    num = [1]
    for d in degrees:
        num = _add_shifted(num, num, d, -1)
    return num


class _HilbertBound:
    """N(L) - T, the numerator of HF(R/L) minus the Hilbert function with
    numerator T, for the leads L it has taken in: T = ∏(1 - t^d_i) for
    Traverso's bound, the prune hook of a degrevlex basis (module docstring),
    and N(R/(I ∩ J)) for an intersection (``ideal_intersection``)."""

    __slots__ = ("n", "leads", "excess", "filled")

    def __init__(self, n, target):
        self.n = n
        self.leads = []
        self.excess = _add_shifted([1], target, 0, -1)
        self.filled = None  # the last degree k found with HF(R/L)(k) = CI(k)

    @classmethod
    def of(cls, gens, n):
        """The bound as a prune hook, set up at its first test (most small
        bases have none); it never prunes where the bound does not hold."""
        bound = None

        def prune(lms, lcm, waiting):
            nonlocal bound
            if bound is None and waiting:
                degrees = [{sum(m) for m in g.terms} for g in gens]
                holds = len(gens) <= n and all(len(d) == 1 for d in degrees)
                bound = holds and cls(n, _ci_numerator(d.pop() for d in degrees))
            return bound and bound(lms, lcm, waiting)

        return prune

    def take(self, leads):
        """Take in more leads, by N(L + (m)) = N(L) - t^|m|·N(L : m)."""
        for m in leads:
            colon = _hilbert_numerator([_mono_colon(g, m) for g in self.leads])
            self.excess = _add_shifted(self.excess, colon, sum(m), -1)
            self.leads.append(m)

    def __call__(self, lms, lcm, waiting):
        """True when HF(R/L)(k) = CI(k), L the leads, k the lcm's degree."""
        k = sum(lcm)
        if k != self.filled and waiting:
            self.take(lms[len(self.leads):])
            if not _hilbert_value(self.excess, self.n, k):
                self.filled = k
        return k == self.filled


def groebner_basis(gens, order=DEGREVLEX, ring=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``, kept
    minimal and packed until its elements are read."""
    gens = [g for g in gens if g.terms]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring of an empty generator list")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    if not gens:
        return GroebnerBasis(ring, order, [])
    prune = _HilbertBound.of(gens, ring.nvars) if order is DEGREVLEX else None
    return _reduced(*_buchberger(gens, order, ring, prune), order, ring)


def _buchberger(gens, order, ring, prune=None):
    """The reducers and leading monomials of a Groebner basis of the nonzero
    ``gens``, not minimal and not reduced.  A pair is dropped unreduced when
    ``prune(lms, lcm, waiting)`` (the leads, its lcm, the number of other
    pairs waiting) returns True: the Hilbert bound drops pairs that reduce to
    zero."""
    dom = ring.domain
    pk = packing(order, ring.nvars)
    enc = pk.key

    lms = []          # leading monomials of current elements
    reducers = []     # (lead key, lead vector, monic tail) per element
    pairs = {}        # (i, j) -> lcm, i < j
    heap = []

    def push_pairs(t):
        lmt = lms[t]
        # candidate new pairs, Gebauer-Moeller pruned
        cand = [(i, mono_lcm(lms[i], lmt)) for i in range(t)]
        kept = []
        while cand:
            i, l = cand.pop()
            coprime = l == mono_mul(lms[i], lmt)
            if coprime:
                kept.append((i, l, True))
                continue
            dominated = any(
                mono_divides(l2, l) and l2 != l for _, l2 in cand
            ) or any(
                mono_divides(l2, l) for _, l2, _ in kept
            )
            if not dominated:
                kept.append((i, l, False))
        # drop old pairs whose lcm is a proper multiple of lm(t)
        for (i, j), l in list(pairs.items()):
            if (
                mono_divides(lmt, l)
                and mono_lcm(lms[i], lmt) != l
                and mono_lcm(lms[j], lmt) != l
            ):
                del pairs[(i, j)]
        for i, l, coprime in kept:
            if coprime:
                continue  # product criterion
            pairs[(i, t)] = l
            heappush(heap, (-enc(l), i, t))

    def add_element(rem):
        reducer = _reducer(rem, pk, dom)
        lms.append(pk.monomial(reducer[0]))
        reducers.append(reducer)
        push_pairs(len(reducers) - 1)

    # generators in ascending order of their leading monomials
    works = [_encode(pk, g) for g in gens]
    for work in sorted(works, key=lambda w: -min(w)):
        rem = _reduce_terms(work, reducers, pk, dom)
        if rem:
            add_element(rem)

    while heap:
        _, i, j = heappop(heap)
        l = pairs.pop((i, j), None)
        if l is None or (prune is not None and prune(lms, l, len(pairs))):
            continue
        work = _spair(reducers[i], reducers[j], enc(l), dom)
        if not work:
            continue
        rem = _reduce_terms(work, reducers, pk, dom)
        if rem:
            add_element(rem)
    return reducers, lms


def _reduced(reducers, lms, order, ring):
    """The minimal basis of a Groebner basis given as ``_buchberger`` leaves
    it: the elements whose lead no other lead divides, packed, by descending
    leads.  Its reduced elements are built on first read (``_interreduced``)."""
    guard = packing(order, ring.nvars).guard
    minimal = []
    # a lead's divisors are no larger than it, so they come first
    for t in sorted(range(len(reducers)), key=lambda t: -reducers[t][0]):
        v = reducers[t][1]
        if all((v - reducers[u][1]) & guard for u in minimal):
            minimal.append(t)
    minimal.reverse()
    return GroebnerBasis._packed(ring, order, [reducers[t] for t in minimal], [lms[t] for t in minimal])


def _interreduced(reducers, leads, order, ring):
    """The reduced elements of a minimal basis given as packed reducers and
    their descending leads.  A tail term can only be divisible by a smaller
    lead, so each tail is divided by the elements after it, last first."""
    pk = packing(order, ring.nvars)
    dom = ring.domain
    kept = list(reducers)
    for pos in reversed(range(len(kept))):
        lk, lv, tail = kept[pos]
        rem = _reduce_terms(dict(tail), kept[pos + 1 :], pk, dom)
        kept[pos] = (lk, lv, list(rem.items()))
    # one tuple per distinct monomial, shared by the elements it occurs in
    monos = {r[0]: m for r, m in zip(kept, leads)}
    monomial = pk.monomial

    def decode(k):
        m = monos.get(k)
        if m is None:
            m = monos[k] = monomial(k)
        return m

    result = []
    for (lk, _, tail), lead in zip(kept, leads):
        terms = {decode(k): c for k, c in tail}
        terms[lead] = dom.one
        result.append(Poly(ring, terms, _clean=False))
    return result


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Finitely generated ideal of a polynomial ring.  No query of it
    depends on the monomial order, so it keeps one basis, under degrevlex."""

    __slots__ = ("ring", "gens", "_basis")

    def __init__(self, ring, gens):
        gens = [g for g in gens if g.terms]
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator outside the ambient ring")
        self.ring = ring
        self.gens = list(gens)
        self._basis = None

    def groebner(self) -> GroebnerBasis:
        if self._basis is None:
            self._basis = groebner_basis(self.gens, DEGREVLEX, ring=self.ring)
        return self._basis

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def __repr__(self):
        return f"Ideal({len(self.gens)} generators in {self.ring!r})"


def _transversal_number(supports):
    """The least number of variables meeting every set in ``supports``.

    Some variable of the smallest set not yet met belongs to every least
    transversal, so the search branches over that set's variables and drops
    a branch that cannot beat the best count found so far."""
    best = len(supports)  # one variable from each set
    stack = [(supports, 0)]
    while stack:
        sets, chosen = stack.pop()
        if not sets:
            best = min(best, chosen)
        elif chosen + 1 < best:
            for v in min(sets, key=len):
                stack.append(([s for s in sets if v not in s], chosen + 1))
    return best


def dimension(ideal: Ideal) -> int:
    """Krull dimension of R/I; -1 for the unit ideal.

    A set of variables is independent modulo the leading-term ideal when it
    contains the support of no lead monomial, so the largest one is the
    complement of a least set of variables meeting every lead support."""
    n = ideal.ring.nvars
    if not ideal.gens:
        return n
    basis = ideal.groebner()
    if basis.is_unit():
        return -1
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in basis.lead_monomials]
    return n - _transversal_number(supports)


def codimension(ideal: Ideal) -> int:
    """n - dim for homogeneous ideals (n + 1 for the unit ideal)."""
    if ideal.gens and not ideal.is_homogeneous():
        raise ValueError("codimension requires homogeneous generators")
    return ideal.ring.nvars - dimension(ideal)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J, generated by its reduced degrevlex basis.

    For forms, 0 → R/(I ∩ J) → R/I ⊕ R/J → R/(I + J) → 0 gives the Hilbert
    numerator T = N(R/I) + N(R/J) - N(R/(I + J)) of R/(I ∩ J).  The basis B
    of C = I·J is built under the prune hook ``_HilbertBound(n, T)``.  While
    its leads L have a numerator other than T, with k the lowest degree of
    the excess N(L) - T, C gains the kernel of g ↦ NF_J(g) on
    V = span{m - NF_I(m) : m ∈ in(I)_k, m ∉ L} (``_meet_in_degree``; I and J
    swap when J_k is the smaller), and B is rebuilt.

    * B ⊆ I ∩ J, so L ⊆ in(I ∩ J) and HF(R/L) ≥ HF(R/(I ∩ J)).  In a degree
      where they agree L holds in(I ∩ J)_k, so the S-pairs the hook drops,
      members of (I ∩ J)_k, reduce to zero (as for Traverso's bound).  At
      N(L) = T the monomial ideals L ⊆ in(I ∩ J) have one Hilbert series and
      are equal: B is a Groebner basis of I ∩ J.
    * The m - NF_I(m), m ∈ in(I)_k, are a basis of I_k in which g has its
      coefficients on in(I)_k as coordinates.  An element of C_k has its
      lead in L_k, so its coordinates on L_k fix it, and (I ∩ J)_k =
      C_k ⊕ (V ∩ J).  The kernel V ∩ J thus has dimension dim (I ∩ J)_k -
      |L_k| = HF(R/L)(k) - HF(R/(I ∩ J))(k) = excess(k), the lowest nonzero
      coefficient.  Added, it makes C_k = (I ∩ J)_k, so k rises and the
      rounds end; a kernel of another dimension raises GroebnerError.

    Other input is homogenized in one more variable h.  I^h, spanned by the
    h^deg f·f(x/h), f ∈ I, holds a form F exactly when F(x, 1) ∈ I, so
    (I ∩ J)^h = I^h ∩ J^h.  The homogenized degrevlex basis of I generates
    I^h (Cox, Little & O'Shea, "Ideals, Varieties, and Algorithms", ch. 8
    §4, Theorem 4), and h = 1 maps (I ∩ J)^h onto I ∩ J.

    All of it runs in the ring S of the variables the generators use (and
    h).  R is free over S, so I = ⊕ u·(I ∩ S) over the monomials u in the
    other variables, and I ∩ J = ((I ∩ S) ∩ (J ∩ S))·R; Buchberger on
    generators in S stays in S, under the degrevlex of R restricted."""
    ring = I.ring
    if ring != J.ring:
        raise ValueError("ideals live in different rings")
    if not I.gens or not J.gens:
        return Ideal(ring, [])
    used = sorted({i for g in I.gens + J.gens for i in g.variables()})
    forms = I.is_homogeneous() and J.is_homogeneous()
    extra = 0 if forms else 1  # h
    sub = Ring(len(used) + extra, ring.domain, tuple(ring.names[i] for i in used) + ("h",) * extra)

    def lifted(ideal):
        gens = []
        for g in ideal.gens if forms else ideal.groebner():
            d = g.degree()
            gens.append(Poly(sub, {tuple(m[i] for i in used) + (d - sum(m),) * extra: c for m, c in g.terms.items()}))
        return Ideal(sub, gens)

    I, J = lifted(I), lifted(J)
    numerators = [_numerator(I), _numerator(J)]
    target = _add_shifted(*numerators, 0, 1)
    target = _add_shifted(target, _numerator(Ideal(sub, I.gens + J.gens)), 0, -1)
    gens = [f * g for f in I.gens for g in J.gens]
    while True:
        bound = _HilbertBound(sub.nvars, target)
        reducers, lms = _buchberger(gens, DEGREVLEX, sub, bound)
        basis = _reduced(reducers, lms, DEGREVLEX, sub)
        bound.take(lms[len(bound.leads):])
        k = next((k for k, c in enumerate(bound.excess) if c), None)
        if k is None:
            break
        hf = [_hilbert_value(num, sub.nvars, k) for num in numerators]
        meet = _meet_in_degree(*((I, J) if hf[0] >= hf[1] else (J, I)), k, basis.lead_monomials)
        if len(meet) != bound.excess[k]:
            raise GroebnerError("intersection kernel of the wrong dimension (internal invariant)")
        gens = basis.elements + meet
    slot = {i: j for j, i in enumerate(used)}
    full = [Poly(ring, {tuple(m[slot[i]] if i in slot else 0 for i in range(ring.nvars)): c for m, c in g.terms.items()})
            for g in basis]
    return Ideal(ring, full if forms else groebner_basis(full, ring=ring).elements)


def _meet_in_degree(I, J, k, leads):
    """A basis of V ∩ J, V the span of the v = m - NF_I(m) for the degree-k
    multiples m of the leads of I's basis outside the ideal of ``leads``.
    Each pair (NF_J(v), v) is one term dict in one more variable y, with
    NF_J(v) times y: those terms, of degree k + 1, lead, and such a lead
    divides no other monomial.  So the division kernel row-reduces the
    pairs, sparsest first, on their first part, the rows kept so far as
    reducers; a row left without y is a kernel vector.  The reducers are
    kept by lead, and a row is divided only by those whose leads it holds,
    in increasing key order, again while it holds any: no other reducer
    acts on it, and the remainder is the row less the one combination of
    the reducers that clears their leads, whatever the order."""
    ring = I.ring
    n, dom = ring.nvars, ring.domain
    bases = [I.groebner(), J.groebner()]
    multiples = dict.fromkeys(mono_mul(lead, u) for lead in bases[0].lead_monomials if sum(lead) <= k
                              for u in monomials(range(n), n, k - sum(lead), True))
    pk = packing(DEGREVLEX, n + 1)
    y = pk.key((0,) * n + (1,))
    rows = []
    for m in multiples:
        if not any(mono_divides(lead, m) for lead in leads):
            mono = Poly(ring, {m: dom.one})
            v = mono - normal_form(mono, bases[0])
            row = {pk.key(t + (0,)) + y: c for t, c in normal_form(v, bases[1]).terms.items()}
            rows.append(row | {pk.key(t + (0,)): c for t, c in v.terms.items()})
    reducers, kernel = {}, []
    for row in sorted(rows, key=len):
        while hits := sorted(reducers[t] for t in row if t in reducers):
            row = _reduce_terms(row, hits, pk, dom)
        lead = min(row)
        if pk.monomial(lead)[n]:
            reducers[lead] = _reducer(row, pk, dom)
        else:
            kernel.append(Poly(ring, {pk.monomial(t)[:n]: c for t, c in row.items()}, _clean=False))
    return kernel


def _numerator(ideal):
    """The Hilbert numerator of R/I for a homogeneous ideal."""
    if len(ideal.gens) == 1:
        return _add_shifted([1], [1], ideal.gens[0].degree(), -1)
    return _hilbert_numerator(ideal.groebner().lead_monomials)


def exact_divide(f: Poly, g: Poly) -> Poly:
    """Quotient f/g (unique, so divided under degrevlex) when g divides f
    exactly; raises otherwise."""
    if not g.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    dom = ring.domain
    pk = packing(DEGREVLEX, ring.nvars)
    reducer = _reducer(_encode(pk, g), pk, dom)
    quot = {}
    _reduce_terms(_encode(pk, f), [reducer], pk, dom, quot)
    inv, mul = dom.inv(g.terms[pk.monomial(reducer[0])]), dom.mul
    return _decode(pk, {q: mul(c, inv) for q, c in quot.items()}, ring)


def ideal_quotient(I: Ideal, f: Poly) -> Ideal:
    """(I : f) computed as (I ∩ <f>) / f."""
    if not f.terms:
        raise ValueError("ideal quotient by the zero polynomial")
    ring = I.ring
    if not I.gens:
        return Ideal(ring, [])
    inter = ideal_intersection(I, Ideal(ring, [f]))
    return Ideal(ring, [exact_divide(g, f).monic() for g in inter.gens])


# ---------------------------------------------------------------------------
# regular-sequence tests


def _check_regseq_input(fs):
    if not fs:
        raise ValueError("empty sequence")
    for f in fs:
        if not f.terms:
            raise ValueError("zero polynomial in the sequence (strength -1)")
        if not f.is_homogeneous() or f.degree() < 1:
            raise ValueError("regular-sequence tests need homogeneous forms of positive degree")


def is_regular_sequence_codim(fs) -> bool:
    """Codimension criterion: the forms are regular iff codim equals their
    number."""
    _check_regseq_input(fs)
    ideal = Ideal(fs[0].ring, fs)
    return codimension(ideal) == len(fs)


def is_regular_sequence_direct(fs, ideal: Ideal | None = None) -> bool:
    """Definition-based test by Hilbert series, from one degrevlex basis: r
    forms of degrees d_i are a regular sequence exactly when r ≤ n and
    N(R/(f_1, ..., f_r)) = CI_r = ∏_(i ≤ r) (1 - t^d_i) (Stanley, Adv. Math.
    28, 1978).  For I = (f_1, ..., f_i) and f = f_(i+1) of degree d, the
    exact sequence 0 → (R/(I : f))(-d) → R/I → R/(I + f) → 0 gives
    HS(R/(I + f)) = HS(R/I) - t^d·HS(R/(I : f)), and I ⊆ I : f gives
    HS(R/(I : f)) ≤ HS(R/I) coefficientwise, with equality iff I : f = I,
    that is iff f is a nonzerodivisor mod I.  No elimination, quotient or
    gcd is needed.  The basis is that of ``ideal``, if given: the Ideal of
    exactly the forms fs, in order, whose basis a caller reads again.

    * Regular ⇒ equal numerators: each step multiplies N by (1 - t^d).
    * Equal numerators ⇒ regular, for r ≤ n: let D_i be the coefficients of
      HS(R/(f_1, ..., f_i)) - CI_i/(1 - t)^n, D_i ≥ 0 for i ≤ n by the lower
      bound proved for Traverso's rule (module docstring).  The sequence
      gives D_(i+1) ≥ D_i - t^d·D_i, with equality iff f_(i+1) is a
      nonzerodivisor.  So D_(i+1) = 0 forces D_i(k) ≤ D_i(k - d) for all k,
      hence D_i = 0 by induction on k, equality, and f_(i+1) a
      nonzerodivisor; repeat downward from i + 1 = r.
    * r > n is never regular: were f_1, ..., f_(n+1) regular, HS(R/(f_1,
      ..., f_(n+1))) = (1 - t^d)·∏_(i ≤ n) (1 + t + ... + t^(d_i - 1)) would
      have the coefficient -1 at its top degree."""
    _check_regseq_input(fs)
    if ideal is not None and ideal.gens != list(fs):
        raise ValueError("the ideal is not generated by the forms")
    if len(fs) > fs[0].ring.nvars:
        return False
    num = _numerator(ideal or Ideal(fs[0].ring, fs))
    return not any(_add_shifted(num, _ci_numerator(f.degree() for f in fs), 0, -1))
