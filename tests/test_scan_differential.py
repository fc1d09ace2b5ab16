"""The F_p Gram-rank scans agree with a per-point reference that builds each
combination with ``combine`` and ranks it as a form: same histogram, same
first offender, same minrank witness, same collective strength."""

import random

import pytest

import formstrength.quadratic as quadratic
from formstrength.domains import GF
from formstrength.poly import Ring
from formstrength.quadratic import (
    SCAN_WORK_LIMIT,
    QuadraticForm,
    collective_strength_quadrics,
    combine,
    minrank_bruteforce,
    rank_scan_all_nonzero,
    strength_from_rank,
)


def ref_rank_scan(forms, expect):
    p = forms[0].domain.p
    r = len(forms)
    histogram, offender = {}, None
    tuples = [[]]
    for _ in range(r):
        tuples = [t + [v] for t in tuples for v in range(p)]
    for t in tuples[1:]:
        value = combine(forms, t).rank()
        histogram[value] = histogram.get(value, 0) + 1
        if value != expect and offender is None:
            offender = {"point": t, "rank": value}
    return histogram, offender


def ref_minrank(f1, f2):
    p = f1.domain.p
    best, witness = None, None
    for pt in [(1, t) for t in range(p)] + [(0, 1)]:
        value = combine([f1, f2], pt).rank()
        if best is None or value < best:
            best, witness = value, pt
    return best, witness


def ref_collective(forms):
    p = forms[0].domain.p
    r = len(forms)
    best = None
    for lead in range(r):
        tails = [[]]
        for _ in range(r - lead - 1):
            tails = [t + [v] for t in tails for v in range(p)]
        for t in tails:
            s = strength_from_rank(combine(forms, [0] * lead + [1] + t).rank())
            best = s if best is None else min(best, s)
    return best


def _random_form(rng, ring, rank=None):
    """A random form; with ``rank``, a sum of that many random products
    l*l' (so of Gram rank at most 2*rank)."""
    dom = ring.domain
    n = ring.nvars
    p = dom.p
    if rank is None:
        raw = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        return QuadraticForm(ring, [[(raw[i][j] + raw[j][i]) % p for j in range(n)] for i in range(n)])
    half = pow(2, -1, p)
    gram = [[0] * n for _ in range(n)]
    for _ in range(rank):
        l1 = [rng.randrange(p) for _ in range(n)]
        l2 = [rng.randrange(p) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                gram[i][j] = (gram[i][j] + half * (l1[i] * l2[j] + l1[j] * l2[i])) % p
    return QuadraticForm(ring, gram)


NETS = [(p, n, r, seed) for p in (5, 7) for n, r in ((2, 2), (3, 3), (4, 2), (4, 3)) for seed in (1, 2)]


@pytest.mark.parametrize("p,n,r,seed", NETS)
def test_scans_equal_the_per_point_reference(p, n, r, seed):
    rng = random.Random(f"{p}:{n}:{r}:{seed}")
    ring = Ring.flat(n, GF(p))
    forms = [_random_form(rng, ring) for _ in range(r)]
    for expect in (n, n - 1):
        assert rank_scan_all_nonzero(forms, expect=expect) == ref_rank_scan(forms, expect)
    assert collective_strength_quadrics(forms) == ref_collective(forms)
    got = minrank_bruteforce(forms[0], forms[1])
    assert (got.value, got.witness) == ref_minrank(forms[0], forms[1])


@pytest.mark.parametrize("p", [5, 7])
def test_planted_offender_is_found_first_as_by_the_reference(p):
    # q3 = l1*l2 - a*q1 - b*q2, so the combination (a, b, 1) has Gram rank
    # at most 2 among forms of rank 5
    rng = random.Random(p)
    ring = Ring.flat(5, GF(p))
    q1, q2 = _random_form(rng, ring), _random_form(rng, ring)
    low = _random_form(rng, ring, rank=1)
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    q3 = combine([low, q1, q2], [1, p - a, p - b])
    forms = [q1, q2, q3]
    histogram, offender = rank_scan_all_nonzero(forms, expect=5)
    assert (histogram, offender) == ref_rank_scan(forms, 5)
    assert offender is not None
    assert combine(forms, [a, b, 1]).rank() <= 2
    assert collective_strength_quadrics(forms) == ref_collective(forms) <= 0
    got = minrank_bruteforce(q1, q3)
    assert (got.value, got.witness) == ref_minrank(q1, q3)


def test_scans_above_the_point_limit_are_refused_before_any_rank(monkeypatch):
    def no_scan(*args):
        raise AssertionError("a refused scan computed a rank")

    monkeypatch.setattr(quadratic, "_gram_ranks", no_scan)
    # in 2 variables, 9 units per point: 101^3 - 1 tuples, 1009^2 + 1009 + 1
    # projective points, 10^6 + 4 points; in 10 variables, 121 units per
    # point: 99992 points, under 10^6 but above the limit in work
    for p, n, r, scan in ((101, 2, 3, rank_scan_all_nonzero), (1009, 2, 3, collective_strength_quadrics),
                          (1000003, 2, 2, lambda forms: minrank_bruteforce(*forms)),
                          (99991, 10, 2, lambda forms: minrank_bruteforce(*forms))):
        ring = Ring.flat(n, GF(p))
        forms = [QuadraticForm.diagonal(ring, [k + 1] * n) for k in range(r)]
        with pytest.raises(ValueError, match=str(SCAN_WORK_LIMIT)):
            scan(forms)
