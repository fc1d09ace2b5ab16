"""The F_p Gram-rank scans agree with a per-point reference that builds each
combination with ``combine`` and ranks it as a form: same histogram, same
first offender, same minrank witness, same collective strength.  The cases
with p > n + 1 are where a scan reads a principal minor of A + u*B
(det(A + u*B) itself on a nonsingular line) off its difference table
instead of eliminating; there the references are also compared point by
point."""

import random
from itertools import groupby

import pytest

import formstrength.quadratic as quadratic
from formstrength.domains import GF
from formstrength.linalg import mat_rank
from formstrength.minors import GenericMatrix, maximal_minors
from formstrength.poly import Ring
from formstrength.quadratic import (
    SCAN_WORK_LIMIT,
    QuadraticForm,
    collective_strength_quadrics,
    combine,
    minrank_bruteforce,
    projective_points,
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



@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("c", [None, 0, 3])
def test_offender_with_leading_zeros_is_the_first_bad_tuple(p, c):
    # with c None q3 itself has Gram rank at most 2, so the offender is
    # (0, 0, 1); otherwise q2 + c*q3 has, so it is (0, 1, t) for some t <= c;
    # either way (1, a, b) is bad too, and is found first if the scan runs
    # the leading coordinate's position in ascending order
    rng = random.Random(f"{p}:{c}")
    ring = Ring.flat(5, GF(p))
    low, low2 = _random_form(rng, ring, rank=1), _random_form(rng, ring, rank=1)
    if c is None:
        q3, q2 = low, _random_form(rng, ring)
    else:
        q3 = _random_form(rng, ring)
        q2 = combine([low, q3], [1, (p - c) % p])
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    q1 = combine([low2, q2, q3], [1, p - a, p - b])
    forms = [q1, q2, q3]
    histogram, offender = rank_scan_all_nonzero(forms, expect=5)
    assert (histogram, offender) == ref_rank_scan(forms, 5)
    assert combine(forms, [1, a, b]).rank() <= 2
    if c is None:
        assert offender["point"] == [0, 0, 1]
    else:
        assert offender["point"][:2] == [0, 1] and offender["point"][2] <= c


@pytest.mark.parametrize("p,family", [(5, True), (7, False)])
def test_rank_scan_ranks_one_point_per_projective_class(monkeypatch, p, family):
    # the 3x2 minor family has Gram rank 4 at every nonzero combination; the
    # random net is in 4 variables
    if family:
        forms = [QuadraticForm.from_poly(f) for f in maximal_minors(GenericMatrix(3, 2, GF(p))).minors]
    else:
        rng = random.Random(p)
        forms = [_random_form(rng, Ring.flat(4, GF(p))) for _ in range(3)]
    ranked = []
    gram_ranks = quadratic._gram_ranks

    def counting(forms, points, p):
        for point, value in gram_ranks(forms, points, p):
            ranked.append(point)
            yield point, value

    monkeypatch.setattr(quadratic, "_gram_ranks", counting)
    histogram, offender = rank_scan_all_nonzero(forms, expect=4)
    assert len(ranked) == len(set(ranked)) == (p**3 - 1) // (p - 1)
    assert all(next(v for v in t if v) == 1 for t in ranked)
    assert sum(histogram.values()) == p**3 - 1
    assert all(v % (p - 1) == 0 for v in histogram.values())
    assert (histogram, offender) == ref_rank_scan(forms, 4)
    if family:
        assert (len(ranked), histogram, offender) == (31, {4: 124}, None)


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


# ---------------------------------------------------------------------------
# lines A + u*B: the difference table of the principal minor D_S(u)


def ref_point_ranks(forms, points):
    return [(t, combine(forms, t).rank()) for t in points]


def _counting_eliminate(monkeypatch):
    """Count the eliminations the scans make from here on."""
    calls = []
    eliminate = quadratic.eliminate

    def counting(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(quadratic, "eliminate", counting)
    return calls


def _check_every_scan(forms, expect):
    """Each scan against the per-point reference on every projective point;
    returns that reference.  rank_scan_all_nonzero counts each point's rank
    p - 1 times, as the projective-class test above checks against the
    per-tuple reference, and is refused above the work limit."""
    p, r = forms[0].domain.p, len(forms)
    points = list(projective_points(p, r))
    ref = ref_point_ranks(forms, points)
    assert list(quadratic._gram_ranks(forms, points, p)) == ref
    histogram, offender = {}, None
    for t, value in ref:
        histogram[value] = histogram.get(value, 0) + p - 1
        if value != expect and offender is None:
            offender = {"point": list(t), "rank": value}
    if (p**r - 1) * (forms[0].n + 1) ** 2 <= SCAN_WORK_LIMIT:
        assert rank_scan_all_nonzero(forms, expect=expect) == (histogram, offender)
    else:
        with pytest.raises(ValueError, match=str(SCAN_WORK_LIMIT)):
            rank_scan_all_nonzero(forms, expect=expect)
    assert collective_strength_quadrics(forms) == strength_from_rank(min(v for _, v in ref))
    got = minrank_bruteforce(forms[0], forms[1])
    assert (got.value, got.witness) == ref_minrank(forms[0], forms[1])
    return ref


def _congruent(forms, rng):
    """T^t G T for one random invertible T, applied to every form."""
    ring = forms[0].ring
    n, p = ring.nvars, ring.domain.p
    while True:
        t = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if mat_rank(t, ring.domain) == n:
            break
    return [QuadraticForm(ring, [[sum(t[k][i] * q.gram[k][l] * t[l][j] for k in range(n) for l in range(n)) % p
                                  for j in range(n)] for i in range(n)]) for q in forms]


TABLE_NETS = [(p, n, r) for p in (31, 101) for n in (2, 4, 6) for r in (2, 3)]


@pytest.mark.parametrize("p,n,r", TABLE_NETS)
def test_scans_where_the_difference_table_runs(monkeypatch, p, n, r):
    rng = random.Random(f"table:{p}:{n}:{r}")
    forms = [_random_form(rng, Ring.flat(n, GF(p))) for _ in range(r)]
    calls = _counting_eliminate(monkeypatch)
    ref = _check_every_scan(forms, n)
    calls.clear()
    list(quadratic._gram_ranks(forms, projective_points(p, r), p))
    # each line of p points eliminates its first n + 1 and its roots only
    lines = 1 if r == 2 else p + 1
    roots = sum(1 for t, value in ref if value < n and t[-1] > n)
    assert len(calls) == len(ref) - lines * (p - n - 1) + roots


# F_101 only with r = 2: a net over F_101 has 10303 points, each ranked by
# the reference
PENCILS_AND_NETS = [(31, 4, 3), (31, 6, 3), (101, 4, 2), (101, 6, 2)]


@pytest.mark.parametrize("p,n,r", PENCILS_AND_NETS)
def test_planted_low_rank_point_beyond_the_first_n_plus_one(p, n, r):
    # the last form is (low - q1 - a*q2)/u, so the combination (1, [a,] u)
    # is low, of Gram rank at most 2, with u past the points that are
    # eliminated to fill the table
    rng = random.Random(f"planted:{p}:{n}:{r}")
    ring = Ring.flat(n, GF(p))
    others = [_random_form(rng, ring) for _ in range(r - 1)]
    low = _random_form(rng, ring, rank=1)
    head = [1] + [rng.randrange(1, p) for _ in range(r - 2)]
    u = rng.randrange(n + 1, p)
    inv = pow(u, -1, p)
    last = combine([low] + others, [inv] + [(p - c) * inv % p for c in head])
    forms = others + [last]
    planted = tuple(head) + (u,)
    ref = dict(_check_every_scan(forms, n))
    assert ref[planted] <= 2
    if r == 2:
        assert minrank_bruteforce(*forms).value <= 2


def _without_last_variable(q):
    """q with the last row and column of its Gram matrix set to 0."""
    n = q.n
    return QuadraticForm(q.ring, [[v if i < n - 1 and j < n - 1 else 0 for j, v in enumerate(row)]
                                  for i, row in enumerate(q.gram)])


def _lines(ref):
    """The (point, rank) pairs of a projective scan, cut into its lines: the
    runs of points that share all coordinates but the last."""
    return [list(line) for _, line in groupby(ref, key=lambda tv: tv[0][:-1])]


def _eliminations_per_line(monkeypatch, forms, ref):
    """How many eliminations each line of the scan makes on its own."""
    calls = _counting_eliminate(monkeypatch)
    counts = []
    for line in _lines(ref):
        calls.clear()
        assert list(quadratic._gram_ranks(forms, [t for t, _ in line], forms[0].domain.p)) == line
        counts.append(len(calls))
    return counts


@pytest.mark.parametrize("p,n,r", PENCILS_AND_NETS)
def test_singular_pencil_eliminates_few_points_per_line(monkeypatch, p, n, r):
    # forms that do not involve the last variable, in random coordinates,
    # share a kernel vector, so det(A + u*B) is 0 on every line.  A line of
    # more than n + 1 points eliminates its first n + 1, the S x S submatrix
    # at k + 1 of them, k its largest rank, and the at most k roots of D_S
    # after them; here p > 3n + 2, so that is fewer than its points
    rng = random.Random(f"singular:{p}:{n}:{r}")
    ring = Ring.flat(n, GF(p))
    forms = _congruent([_without_last_variable(_random_form(rng, ring)) for _ in range(r)], rng)
    ref = _check_every_scan(forms, n - 1)
    assert all(value < n for _, value in ref)
    counts = _eliminations_per_line(monkeypatch, forms, ref)
    assert p > 3 * n + 2
    for line, count in zip(_lines(ref), counts):
        if len(line) > n + 1:
            k = max(value for _, value in line)
            assert count <= (n + 1) + (k + 1) + k < len(line)


def test_minor_family_in_random_coordinates_eliminates_a_pinned_count(monkeypatch):
    # every nonzero combination of the 3x2 minor family has Gram rank 4 < 6,
    # so every line is singular.  Its 32 lines of 31 points eliminate 7
    # points and five 4 x 4 submatrices each, 385 with the point (0, 0, 1),
    # plus the roots of D_S; while a singular line was ranked point by point
    # all 993 points were eliminated
    p = 31
    family = [QuadraticForm.from_poly(f) for f in maximal_minors(GenericMatrix(3, 2, GF(p))).minors]
    forms = _congruent(family, random.Random("minors:3x2"))
    ref = _check_every_scan(forms, 4)
    assert {value for _, value in ref} == {4}
    calls = _counting_eliminate(monkeypatch)
    list(quadratic._gram_ranks(forms, projective_points(p, 3), p))
    assert len(calls) == 440


@pytest.mark.parametrize("p,n,r", PENCILS_AND_NETS)
def test_singular_pencil_with_a_planted_low_rank_point(p, n, r):
    # as in the planted test above, in forms that share a kernel vector: the
    # combination (1, [a,] u), u past the first n + 1 points, has Gram rank
    # at most 2 on a line of rank n - 1 elsewhere, so D_S vanishes there.
    # With the low form first, the line (1, 0, ..., u) starts at its
    # low-rank point
    rng = random.Random(f"planted-singular:{p}:{n}:{r}")
    ring = Ring.flat(n, GF(p))
    others = [_without_last_variable(_random_form(rng, ring)) for _ in range(r - 1)]
    low = _without_last_variable(_random_form(rng, ring, rank=1))
    head = [1] + [rng.randrange(1, p) for _ in range(r - 2)]
    u = rng.randrange(n + 1, p)
    inv = pow(u, -1, p)
    last = combine([low] + others, [inv] + [(p - c) * inv % p for c in head])
    forms = _congruent(others + [last, low], rng)
    planted = tuple(head) + (u,)
    ref = dict(_check_every_scan(forms[:-1], n - 1))
    assert ref[planted] <= 2 < n - 1 == max(ref.values())
    ref = _check_every_scan([forms[-1]] + forms[:-2], n - 1)
    first = next(line for line in _lines(ref) if line[0][0][:-1] == (1,) + (0,) * (r - 2))
    assert first[0][1] <= 2 < n - 1 == max(value for _, value in first)


@pytest.mark.parametrize("p,n", [(31, 4), (101, 2)])
def test_all_zero_and_constant_lines(monkeypatch, p, n):
    # the net q, 0, 0: the line (0, 1, u) is all zero, so its rank bound is
    # 0, S is empty and D_S = 1; each line (1, a, u) is q itself (B = 0), of
    # rank n - 1.  Past the first n + 1 points only the S x S submatrices are
    # eliminated, 1 for the zero line and n for each constant one
    rng = random.Random(f"constant:{p}:{n}")
    ring = Ring.flat(n, GF(p))
    q = _congruent([_without_last_variable(_random_form(rng, ring))], rng)[0]
    zero = QuadraticForm(ring, [[0] * n for _ in range(n)])
    forms = [q, zero, zero]
    ref = _check_every_scan(forms, n - 1)
    assert q.rank() == n - 1
    counts = _eliminations_per_line(monkeypatch, forms, ref)
    lines = _lines(ref)
    assert [len(line) for line in lines] == [1] + [p] * (p + 1)
    assert {value for _, value in lines[1]} == {0} and counts[1] == (n + 1) + 1
    assert all({value for _, value in line} == {n - 1} for line in lines[2:])
    assert counts[2:] == [(n + 1) + n] * p


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_lines_no_longer_than_n_plus_one_are_eliminated_whole(p, r):
    # at n = 6 a line of p <= n points never fills the table
    rng = random.Random(f"short:{p}:{r}")
    ring = Ring.flat(6, GF(p))
    forms = [_random_form(rng, ring) for _ in range(r - 1)] + [_random_form(rng, ring, rank=2)]
    for expect in (6, 5):
        assert rank_scan_all_nonzero(forms, expect=expect) == ref_rank_scan(forms, expect)
    assert collective_strength_quadrics(forms) == ref_collective(forms)
    got = minrank_bruteforce(forms[0], forms[1])
    assert (got.value, got.witness) == ref_minrank(forms[0], forms[1])


@pytest.mark.parametrize("p,n", [(31, 6), (101, 2)])
def test_point_order_changes_no_rank(p, n):
    # shuffled; each line in its own shuffled order, so u runs through no
    # arithmetic progression; and each line started at a random u and
    # wrapped round, so lines start mid-way and break where u wraps.  The
    # same net without its last variable, in random coordinates, is
    # singular on every line
    rng = random.Random(f"order:{p}:{n}")
    ring = Ring.flat(n, GF(p))
    low = _random_form(rng, ring, rank=1)
    q1, q2 = _random_form(rng, ring), _random_form(rng, ring)
    net = [q1, q2, combine([low, q1], [1, p - 1])]
    points = list(projective_points(p, 3))
    shuffled = list(points)
    rng.shuffle(shuffled)
    mixed, rotated = points[:1], points[:1]
    for k in range(1, len(points), p):
        line = points[k:k + p]
        s = rng.randrange(p)
        rotated += line[s:] + line[:s]
        rng.shuffle(line)
        mixed += line
    assert sorted(rotated) == sorted(mixed) == sorted(points)
    singular = _congruent([_without_last_variable(q) for q in net], rng)
    for forms in (net, singular):
        want = sorted(ref_point_ranks(forms, points))
        for order in (points, shuffled, mixed, rotated):
            assert sorted(quadratic._gram_ranks(forms, order, p)) == want


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_diagonal_pencil_eliminates_the_first_n_plus_one_points_and_its_roots(monkeypatch, k):
    # f1 = I and f2 = diag(b) over F_101 with k distinct ratios: on the line
    # (1, t) the determinant prod(1 + t*b_i) has k roots; (0, 1) is a line
    # of its own.  Every point was eliminated before: 102 calls
    p, n = 101, 6
    rng = random.Random(k)
    ratios = rng.sample(range(2, p), k)
    b = ratios + [rng.choice(ratios) for _ in range(n - k)]
    ring = Ring.flat(n, GF(p))
    f1, f2 = QuadraticForm.diagonal(ring, [1] * n), QuadraticForm.diagonal(ring, b)
    calls = _counting_eliminate(monkeypatch)
    got = minrank_bruteforce(f1, f2)
    assert len(calls) <= (n + 1) + k + 1
    assert (got.value, got.witness) == ref_minrank(f1, f2)
    assert got.value == n - max(b.count(v) for v in ratios)
