"""Buchberger engine and ideal-theoretic queries.

The basis computation is plain Buchberger with the Gebauer-Moeller pair
eliminations and normal (smallest-lcm-first) selection; bases are always
interreduced, so the result is the unique reduced basis for (ideal, order).
Dimension comes from maximal independent variable sets of the leading-term
ideal; every intersection, principal ones too, eliminates one auxiliary
variable, and quotients divide an intersection through by the quotienting
element.  Nothing here computes a gcd, so the direct regular-sequence test
never shares code with the gcd route of the two-form check.

All division runs in one kernel, ``_reduce_terms``, after Monagan & Pearce
(CASC 2007).  Inside it a monomial is its packed order key (see
``orders.Packing``): an int that is smaller for larger monomials and adds
under multiplication.  A term dict maps keys to coefficients; shifting a
reducer by the quotient monomial adds one int to each of its keys, a
divisibility test is one subtraction and one mask, and a min-heap of the
keys in the work dict yields each leading term.  Exponent tuples appear
only where polynomials enter and leave the engine and in the pair
criteria.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from itertools import combinations

from .orders import DEGREVLEX, MAX_EXPONENT, KeyWidthError, elimination, packing
from .poly import (
    Poly,
    Ring,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class GroebnerError(RuntimeError):
    pass


class GroebnerBasis:
    """Reduced Groebner basis: monic elements, descending leading terms."""

    __slots__ = ("ring", "order", "elements", "lead_monomials", "_reducers")

    def __init__(self, ring, order, elements, _lead_monomials=None):
        self.ring = ring
        self.order = order
        self.elements = list(elements)
        if _lead_monomials is None:
            _lead_monomials = [g.leading_monomial(order) for g in self.elements]
        self.lead_monomials = _lead_monomials
        self._reducers = None

    def _kernel_reducers(self):
        """The elements in the kernel's form (see ``_reduce_terms``), built
        on first use."""
        if self._reducers is None:
            pk = packing(self.order, self.ring.nvars)
            dom = self.ring.domain
            self._reducers = [_reducer(_encode(pk, g), pk, dom) for g in self.elements]
        return self._reducers

    def is_unit(self):
        return len(self.elements) == 1 and not any(self.lead_monomials[0])

    def is_zero(self):
        return not self.elements

    def contains(self, f):
        return not normal_form(f, self).terms

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.order == other.order
            and self.elements == other.elements
        )

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements, {self.order!r})"


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
    return lk, pk.vector(lk), tail


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
    """
    heap = list(work)
    heapify(heap)
    vector, guard = pk.vector, pk.guard
    p = dom.characteristic
    remainder = {}
    while heap:
        k = heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        v = vector(k)
        if v & guard:
            raise KeyWidthError(f"exponent above {MAX_EXPONENT}, the packed key limit")
        for lk, lv, tail in reducers:
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
    if not f.terms or not basis.elements:
        return f
    pk = packing(basis.order, f.ring.nvars)
    rem = _reduce_terms(_encode(pk, f), basis._kernel_reducers(), pk, f.ring.domain)
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


def groebner_basis(gens, order=DEGREVLEX, ring=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``."""
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
        if l is None:
            continue
        work = _spair(reducers[i], reducers[j], enc(l), dom)
        if not work:
            continue
        rem = _reduce_terms(work, reducers, pk, dom)
        if rem:
            add_element(rem)

    # minimalize: drop elements whose lead is divisible by another lead
    order_idx = sorted(range(len(reducers)), key=lambda t: -reducers[t][0])
    minimal = []
    for t in order_idx:
        if not any(mono_divides(lms[u], lms[t]) for u in minimal if u != t):
            minimal.append(t)
    # interreduce tails, each against the others as reduced so far
    kept = [reducers[t] for t in minimal]
    for pos, (lk, lv, tail) in enumerate(kept):
        rem = _reduce_terms(dict(tail), kept[:pos] + kept[pos + 1 :], pk, dom)
        kept[pos] = (lk, lv, list(rem.items()))
    kept.sort(key=lambda r: r[0])
    # one tuple per distinct monomial, shared by the elements it occurs in
    monos = {}
    monomial = pk.monomial

    def decode(k):
        m = monos.get(k)
        if m is None:
            m = monos[k] = monomial(k)
        return m

    result = []
    for lk, _, tail in kept:
        terms = {decode(k): c for k, c in tail}
        terms[decode(lk)] = dom.one
        result.append(Poly(ring, terms, _clean=False))
    return GroebnerBasis(ring, order, result, [decode(lk) for lk, _, _ in kept])


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Finitely generated ideal of a polynomial ring."""

    __slots__ = ("ring", "gens", "_bases")

    def __init__(self, ring, gens):
        gens = [g for g in gens if g.terms]
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator outside the ambient ring")
        self.ring = ring
        self.gens = list(gens)
        self._bases = {}

    def groebner(self, order=DEGREVLEX) -> GroebnerBasis:
        basis = self._bases.get(order)
        if basis is None:
            basis = groebner_basis(self.gens, order, ring=self.ring)
            self._bases[order] = basis
        return basis

    def contains(self, f, order=DEGREVLEX):
        if not self.gens:
            return not f.terms
        return self.groebner(order).contains(f)

    def contains_ideal(self, other, order=DEGREVLEX):
        return all(self.contains(g, order) for g in other.gens)

    def equals(self, other, order=DEGREVLEX):
        """Ideal equality by mutual generator membership."""
        return self.contains_ideal(other, order) and other.contains_ideal(self, order)

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def __repr__(self):
        return f"Ideal({len(self.gens)} generators in {self.ring!r})"


def dimension(ideal: Ideal, order=DEGREVLEX) -> int:
    """Krull dimension of R/I via independent variable sets of the
    leading-term ideal; -1 for the unit ideal."""
    n = ideal.ring.nvars
    if not ideal.gens:
        return n
    basis = ideal.groebner(order)
    if basis.is_unit():
        return -1
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in basis.lead_monomials]
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if not any(s <= chosen for s in supports):
                return size
    return 0


def codimension(ideal: Ideal, order=DEGREVLEX) -> int:
    """n - dim for homogeneous ideals (n + 1 for the unit ideal)."""
    if ideal.gens and not ideal.is_homogeneous():
        raise ValueError("codimension requires homogeneous generators")
    return ideal.ring.nvars - dimension(ideal, order)


def _shift_poly(f, ext_ring):
    terms = {(0,) + m: c for m, c in f.terms.items()}
    return Poly(ext_ring, terms, _clean=False)


def _unshift_poly(f, ring):
    terms = {m[1:]: c for m, c in f.terms.items()}
    return Poly(ring, terms, _clean=False)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via the auxiliary-variable construction: eliminate t from
    t*I + (1-t)*J; for <f> and <g> this yields <monic lcm(f, g)>."""
    ring = I.ring
    if ring != J.ring:
        raise ValueError("ideals live in different rings")
    if not I.gens or not J.gens:
        return Ideal(ring, [])
    ext = Ring(ring.nvars + 1, ring.domain, ("t0",) + ring.names)
    t = ext.var(0)
    one = ext.one()
    gens = [t * _shift_poly(g, ext) for g in I.gens]
    gens += [(one - t) * _shift_poly(g, ext) for g in J.gens]
    basis = groebner_basis(gens, elimination(1), ring=ext)
    kept = [g for g in basis if not any(m[0] for m in g.terms)]
    return Ideal(ring, [_unshift_poly(g, ring) for g in kept])


def exact_divide(f: Poly, g: Poly, order=DEGREVLEX) -> Poly:
    """Quotient f/g when g divides f exactly; raises otherwise."""
    if not g.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    dom = ring.domain
    pk = packing(order, ring.nvars)
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


def is_regular_sequence_codim(fs, order=DEGREVLEX) -> bool:
    """Codimension criterion: the forms are regular iff codim equals their
    number."""
    _check_regseq_input(fs)
    ideal = Ideal(fs[0].ring, fs)
    return codimension(ideal, order) == len(fs)


def is_regular_sequence_direct(fs, order=DEGREVLEX) -> bool:
    """Definition-based test: each form a nonzerodivisor modulo its
    predecessors, via ideal quotients."""
    _check_regseq_input(fs)
    ring = fs[0].ring
    for i in range(1, len(fs)):
        prefix = Ideal(ring, fs[:i])
        quotient = ideal_quotient(prefix, fs[i])
        if not prefix.contains_ideal(quotient, order):
            return False
    return True


def spolynomial(f: Poly, g: Poly, order=DEGREVLEX) -> Poly:
    """S-polynomial of two nonzero polynomials (test oracle helper)."""
    fm = f.monic(order)
    gm = g.monic(order)
    lmf = fm.leading_monomial(order)
    lmg = gm.leading_monomial(order)
    l = mono_lcm(lmf, lmg)
    one = f.ring.domain.one
    qf = Poly(f.ring, {mono_div(l, lmf): one}, _clean=False)
    qg = Poly(f.ring, {mono_div(l, lmg): one}, _clean=False)
    return qf * fm - qg * gm
