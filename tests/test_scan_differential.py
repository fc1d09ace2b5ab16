"""The F_p Gram-rank scans agree with a per-point reference that builds each
combination with ``combine`` and ranks it as a form: same histogram, same
least offender, same minrank witness, same collective strength.  A scan
ranks the planes A + v*G + u*B of P^(r-1), and a line as a plane of one
line; the cases with p > n + 1 are where a plane ranks the corner v, u <= n
and reads a principal minor D_S(v, u) (det(A + v*G + u*B) itself where the
corner has a nonsingular point) off its difference tables everywhere else,
eliminating only its zeros, and ranks a line where D_S vanishes throughout
as a plane of one line; there the references are also compared point by
point, and the eliminations are counted."""

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
    # either way (1, a, b) is bad too, and the scan reaches it first, since
    # the position of the leading 1 runs from first to last
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
    projective_ranks = quadratic._projective_ranks

    def counting(forms, what):
        for point, value in projective_ranks(forms, what):
            ranked.append(point)
            yield point, value

    monkeypatch.setattr(quadratic, "_projective_ranks", counting)
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

    monkeypatch.setattr(quadratic, "_plane_ranks", no_scan)
    # in 2 variables, 9 units per point: 673^2 + 673 + 1 = 453603 and
    # 1009^2 + 1009 + 1 projective points, 10^6 + 4 points; in 10 variables,
    # 121 units per point: 99992 points, under 10^6 but above the limit in
    # work
    for p, n, r, scan in ((673, 2, 3, lambda forms: rank_scan_all_nonzero(forms, expect=2)),
                          (1009, 2, 3, collective_strength_quadrics),
                          (1000003, 2, 2, lambda forms: minrank_bruteforce(*forms)),
                          (99991, 10, 2, lambda forms: minrank_bruteforce(*forms))):
        ring = Ring.flat(n, GF(p))
        forms = [QuadraticForm.diagonal(ring, [k + 1] * n) for k in range(r)]
        with pytest.raises(ValueError, match=str(SCAN_WORK_LIMIT)):
            scan(forms)


def _is_prime(m):
    return m > 1 and all(m % d for d in range(2, int(m**0.5) + 1))


SCANS = {
    "rank": lambda forms: rank_scan_all_nonzero(forms, expect=forms[0].n),
    "collective": collective_strength_quadrics,
    "minrank": lambda forms: minrank_bruteforce(*forms),
}


@pytest.mark.parametrize("scan,n,r", [("rank", 2, 3), ("rank", 6, 2), ("collective", 2, 3),
                                      ("collective", 10, 2), ("minrank", 2, 2), ("minrank", 10, 2)])
def test_each_scan_is_refused_exactly_where_its_projective_points_exceed_the_limit(monkeypatch, scan, n, r):
    # the largest prime whose (p^r - 1)/(p - 1) points x (n+1)^2 are within
    # the limit is scanned, one _plane_ranks call of p lines for each of its
    # (p^(r-2) - 1)/(p - 1) planes and one of 1 line for the line
    # e_(r-1) + u*e_r, and the next prime is refused before any rank
    handed = []

    def first_point(a, g, b, lines, n, p):
        handed.append((lines, p))
        yield n

    monkeypatch.setattr(quadratic, "_plane_ranks", first_point)

    def work(p):
        return (p**r - 1) // (p - 1) * (n + 1) ** 2

    lo, hi = 2, SCAN_WORK_LIMIT  # work(lo) <= limit < work(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if work(mid) <= SCAN_WORK_LIMIT else (lo, mid)
    below = next(p for p in range(lo, 2, -1) if _is_prime(p))
    above = next(p for p in range(hi, 2 * hi) if _is_prime(p))
    for p in (below, above):
        ring = Ring.flat(n, GF(p))
        forms = [QuadraticForm.diagonal(ring, [k + 1] * n) for k in range(r)]
        handed.clear()
        if work(p) <= SCAN_WORK_LIMIT:
            SCANS[scan](forms)
            assert handed == [(p, p)] * ((p ** (r - 2) - 1) // (p - 1)) + [(1, p)]
        else:
            with pytest.raises(ValueError, match=f"would visit {work(p) // (n + 1) ** 2} points"):
                SCANS[scan](forms)
            assert handed == []


@pytest.mark.parametrize("p", [3, 7])
def test_every_scan_ranks_the_same_point_stream(monkeypatch, p):
    # projective_points(p, r) in its order: the leading 1 moves from the
    # first coordinate to the last, and the tail after it runs
    # lexicographically
    streams = []
    projective_ranks = quadratic._projective_ranks

    def recording(forms, what):
        streams.append([])
        for point, value in projective_ranks(forms, what):
            streams[-1].append(point)
            yield point, value

    monkeypatch.setattr(quadratic, "_projective_ranks", recording)
    rng = random.Random(f"stream:{p}")
    forms = [_random_form(rng, Ring.flat(3, GF(p))) for _ in range(3)]
    pencil = [(1, t) for t in range(p)] + [(0, 1)]
    net = [(1, a, b) for a in range(p) for b in range(p)] + [(0, 1, b) for b in range(p)] + [(0, 0, 1)]
    minrank_bruteforce(*forms[:2])
    for family in (forms[:2], forms):
        rank_scan_all_nonzero(family, expect=3)
        collective_strength_quadrics(family)
    assert streams == [pencil] * 3 + [net] * 2
    assert (pencil, net) == (list(projective_points(p, 2)), list(projective_points(p, 3)))


# ---------------------------------------------------------------------------
# planes A + v*G + u*B: the difference tables of the principal minor D_S


def ref_point_ranks(forms, points):
    return [(t, combine(forms, t).rank()) for t in points]


def _flat(q):
    return [v for row in q.gram for v in row]


def _line(forms, c):
    """The flat (A, B) of the line c + u*e_r: A = sum_i c_i * G_i, B = G_r."""
    return _flat(combine(forms[:-1], c)), _flat(forms[-1])


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
    per-tuple reference, reports the least offending point, and is refused
    above the work limit."""
    p, r = forms[0].domain.p, len(forms)
    points = list(projective_points(p, r))
    ref = ref_point_ranks(forms, points)
    assert list(quadratic._projective_ranks(forms, "scan")) == ref
    histogram = {}
    for t, value in ref:
        histogram[value] = histogram.get(value, 0) + p - 1
    bad = min(((list(t), value) for t, value in ref if value != expect), default=None)
    offender = bad and {"point": bad[0], "rank": bad[1]}
    if len(points) * (forms[0].n + 1) ** 2 <= SCAN_WORK_LIMIT:
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


# r = 4 over F_7: planes of p lines for each c = (1, a) and (0, 1), then the
# line (0, 0, 1, u); at n = 6, p = n + 1 and each plane is its corner
TABLE_NETS = [(p, n, r) for p in (31, 101) for n in (2, 4, 6) for r in (2, 3)] + [(7, n, 4) for n in (2, 4, 6)]


def _is_head(t, n):
    """Whether the point t of a scan is in the corner of its plane: u <= n
    and, on a plane c + v*e_(r-1) + u*e_r, v <= n too; the line
    e_(r-1) + u*e_r is a plane of one line."""
    c = t[:-1]
    return t[-1] <= n and (c[-1] <= n or not any(c[:-1]))


def _eliminations_by_point(monkeypatch, forms):
    """The (point, rank) stream of the projective scan of ``forms``, and for
    each elimination it makes, (the point the scan yields next, the rows it
    is handed, as they were before the call).  A plane eliminates its corner
    before it yields its first point."""
    stream, calls = [], []
    eliminate = quadratic.eliminate

    def recording(a, *args, **kwargs):
        calls.append((len(stream), tuple(map(tuple, a))))
        return eliminate(a, *args, **kwargs)

    monkeypatch.setattr(quadratic, "eliminate", recording)
    for item in quadratic._projective_ranks(forms, "scan"):
        stream.append(item)
    return stream, [(stream[k][0], rows) for k, rows in calls]


def _rows(forms, t):
    """The Gram matrix of sum_i t[i] * forms[i], as the rows a scan hands to
    an elimination."""
    return tuple(map(tuple, combine(forms, t).gram))


@pytest.mark.parametrize("p,n,r", TABLE_NETS)
def test_scans_where_the_difference_table_runs(monkeypatch, p, n, r):
    rng = random.Random(f"table:{p}:{n}:{r}")
    forms = [_random_form(rng, Ring.flat(n, GF(p))) for _ in range(r)]
    calls = _counting_eliminate(monkeypatch)
    ref = _check_every_scan(forms, n)
    # no line is singular, so each has a point of rank n
    assert all(max(value for _, value in line) == n for line in _lines(ref)[:-1])
    calls.clear()
    list(quadratic._projective_ranks(forms, "scan"))
    # the corner of each plane and of the line e_(r-1) + u*e_r, 1 for e_r,
    # and every other point of rank < n
    heads = sum(1 for t, _ in ref[:-1] if _is_head(t, n))
    low = sum(1 for t, value in ref[:-1] if value < n and not _is_head(t, n))
    assert len(calls) == heads + 1 + low
    # the corner's lines: min(p, n + 1) of each plane of p lines, and the
    # line
    first = min(p, n + 1)
    assert heads == (n + 1) * {2: 1, 3: first + 1, 4: (p + 1) * first + 1}[r]


def test_net_shaped_like_the_benchmark_eliminates_a_pinned_count(monkeypatch):
    # three quadrics in 8 variables over F_61, one combination planted at
    # Gram rank at most 4: the 9 x 9 corner of the plane (1, v, u), the
    # first 9 points of the line (0, 1, u), 1 for (0, 0, 1), and the other
    # points of rank < 8.  While every line eliminated its own first 9
    # points, the 62 lines made 558 such eliminations, 609 in all
    p, n = 61, 8
    rng = random.Random("benchmark-net")
    ring = Ring.flat(n, GF(p))
    q1, q2, low = _random_form(rng, ring), _random_form(rng, ring), _random_form(rng, ring, rank=2)
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    forms = [q1, q2, combine([low, q1, q2], [1, p - a, p - b])]
    ref = _check_every_scan(forms, n)
    assert combine(forms, [a, b, 1]).rank() <= 4
    calls = _counting_eliminate(monkeypatch)
    list(quadratic._projective_ranks(forms, "scan"))
    low = sum(1 for t, value in ref[:-1] if value < n and not _is_head(t, n))
    assert len(calls) == 10 * (n + 1) + 1 + low == 146


@pytest.mark.parametrize("p,n,r,at", [(31, 4, 3, 0), (31, 6, 3, "n"), (101, 4, 3, 1), (7, 4, 4, "n")])
def test_planted_low_rank_point_at_a_known_determinant(monkeypatch, p, n, r, at):
    # the combination (1, [a,] v, u) is low, of Gram rank at most 2, with v
    # past the corner of its plane and u <= n, so its line takes det = 0 at
    # u from the plane's column tables and eliminates that point, once
    rng = random.Random(f"planted-head:{p}:{n}:{r}:{at}")
    ring = Ring.flat(n, GF(p))
    forms = [_random_form(rng, ring) for _ in range(r)]
    low = _random_form(rng, ring, rank=1)
    u = n if at == "n" else at
    planted = (1,) + tuple(rng.randrange(p) for _ in range(r - 3)) + (rng.randrange(n + 1, p), u)
    # solve sum_i planted[i] * forms[i] = low for the last form with a
    # nonzero coefficient
    k = max(i for i, c in enumerate(planted) if c)
    inv = pow(planted[k], -1, p)
    others = [q for i, q in enumerate(forms) if i != k]
    forms[k] = combine([low] + others, [inv] + [(p - c) * inv % p for i, c in enumerate(planted) if i != k])
    ref = dict(_check_every_scan(forms, n))
    assert ref[planted] <= 2 < n
    stream, calls = _eliminations_by_point(monkeypatch, forms)
    assert stream == list(ref.items())
    line = planted[:-1]
    # det(A + v*G + u*B) is not 0 at every u <= n of the line
    assert any(ref[line + (w,)] == n for w in range(n + 1))
    assert [t for t, _ in calls if t[:-1] == line] == [t for t, value in ref.items() if t[:-1] == line and value < n]
    assert [rows for _, rows in calls].count(_rows(forms, planted)) == 1


@pytest.mark.parametrize("p,n,r,where", [(31, 4, 3, "past"), (31, 6, 3, "past"), (7, 4, 4, "past"),
                                         (31, 4, 3, "corner"), (31, 6, 3, "corner"), (7, 4, 4, "corner")])
def test_singular_line_past_the_first_n_plus_one_of_its_run(monkeypatch, p, n, r, where):
    # the first form is k1 - v0*q, q the last form but one, and k1 shares a
    # kernel vector with the last form, so of all lines only (1, [0,] v0),
    # v0 > 0, is singular, past the plane's corner (v0 > n) or in it.  The
    # plane's D_S is det(A + v*G + u*B), 0 throughout that line, so the line
    # is ranked as a plane of one line: its first n + 1 points, eliminated
    # once (in the corner when v0 <= n), the S x S submatrix at k + 1 of
    # them, k its largest rank, and the at most k roots of its own D_S, at
    # most (n + 1) + (k + 1) + k eliminations
    rng = random.Random(f"singular-line:{p}:{n}:{r}:{where}")
    ring = Ring.flat(n, GF(p))
    k1, k3 = _congruent([_without_last_variable(_random_form(rng, ring)) for _ in range(2)], rng)
    q2 = _random_form(rng, ring)
    v0 = rng.randrange(1, n + 1) if where == "corner" else rng.randrange(n + 1, p)
    forms = [combine([k1, q2], [1, p - v0])] + [_random_form(rng, ring) for _ in range(r - 3)] + [q2, k3]
    line = (1,) + (0,) * (r - 3) + (v0,)
    ref = _check_every_scan(forms, n)
    by_line = {group[0][0][:-1]: [value for _, value in group] for group in _lines(ref)[:-1]}
    k = max(by_line[line])
    assert k < n
    assert sum(1 for values in by_line.values() if max(values) < n) == 1
    stream, calls = _eliminations_by_point(monkeypatch, forms)
    assert stream == ref
    points = {_rows(forms, t): t for t, _ in ref}
    assert len(points) == len(ref)
    # the points each n x n elimination ranks: none twice, and the line's
    # first n + 1 among them
    own = [points[rows] for _, rows in calls if len(rows) == n]
    assert len(own) == len(set(own))
    assert {line + (u,) for u in range(n + 1)} <= set(own)
    minors = [t for t, rows in calls if len(rows) < n]
    assert sum(1 for t in own + minors if t[:-1] == line) <= (n + 1) + (k + 1) + k


# F_101 only with r = 2: a net over F_101 has 10303 points, each ranked by
# the reference; r = 4 over F_17 has 5220
PENCILS_AND_NETS = [(31, 4, 3), (31, 6, 3), (101, 4, 2), (101, 6, 2), (17, 4, 4)]


@pytest.mark.parametrize("p,n,r", PENCILS_AND_NETS)
def test_planted_low_rank_point_beyond_the_first_n_plus_one(p, n, r):
    # the last form is (low - q1 - a*q2 - ...)/u, so the combination
    # (1, [a, ...,] u) is low, of Gram rank at most 2, with u past the
    # corner of its plane
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
    """The (point, rank) pairs of a projective scan, cut into its lines c +
    u*e_r and, last, the point e_r: the runs of points that share all
    coordinates but the last."""
    return [list(line) for _, line in groupby(ref, key=lambda tv: tv[0][:-1])]


def _eliminations_per_line(monkeypatch, forms, ref):
    """How many eliminations ``_plane_ranks`` makes on each line c + u*e_r
    of the scan, ranked as a plane of one line; the lines' ranks are checked
    against ``ref`` in order, u = 0, ..., p - 1."""
    n, p = forms[0].n, forms[0].domain.p
    calls = _counting_eliminate(monkeypatch)
    counts = []
    for line in _lines(ref)[:-1]:
        calls.clear()
        a, b = _line(forms, line[0][0][:-1])
        assert list(quadratic._plane_ranks(a, [0] * (n * n), b, 1, n, p)) == [v for _, v in line]
        assert [t[-1] for t, _ in line] == list(range(p))
        counts.append(len(calls))
    return counts


def _work_bound(ref, n, p):
    """The most eliminations a scan with the ranks ``ref`` makes, p > n + 1:
    on a line, ranked as a plane of one line with largest rank R, its
    n + 1 first points, the S x S submatrix at R + 1 of them and the at
    most R roots of D_S; on a plane of p lines, its (n + 1)^2 corner
    points, the S x S submatrix at (R + 1)^2 of them, at most R*p roots of
    D_S, and at most R lines where D_S is 0 throughout, each ranked as a
    line; and 1 for e_r."""
    total = 1
    for _, group in groupby(ref[:-1], key=lambda tv: tv[0][:-2] if any(tv[0][:-2]) else tv[0][:-1]):
        values = [value for _, value in group]
        rank = max(values)
        line = (n + 1) + (rank + 1) + rank
        total += line if len(values) == p else (n + 1) ** 2 + (rank + 1) ** 2 + rank * p + rank * line
    return total


@pytest.mark.parametrize("p,n,r", PENCILS_AND_NETS)
def test_singular_pencil_eliminates_few_points_per_line(monkeypatch, p, n, r):
    # forms that do not involve the last variable, in random coordinates,
    # share a kernel vector, so det(A + u*B) is 0 on every line.  A line of
    # more than n + 1 points, ranked as a plane of one line, eliminates its
    # first n + 1, the S x S submatrix at k + 1 of them, k its largest rank,
    # and the at most k roots of D_S after them; here p > 3n + 2, so that is
    # fewer than its points.  The scan keeps within the work of its planes
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
    calls = _counting_eliminate(monkeypatch)
    list(quadratic._projective_ranks(forms, "scan"))
    assert len(calls) <= _work_bound(ref, n, p)


def test_minor_family_in_random_coordinates_eliminates_a_pinned_count(monkeypatch):
    # every nonzero combination of the 3x2 minor family has Gram rank 4 < 6,
    # so every line is singular.  The plane (1, v, u) eliminates its 7 x 7
    # corner and twenty-five 4 x 4 submatrices, the line (0, 1, u) 7 points
    # and five submatrices, (0, 0, 1) 1, 87 in all, and 62 roots of D_S.
    # While each line was ranked on its own, 7 points and five submatrices
    # each, 440 were eliminated; while a singular line was ranked point by
    # point, all 993 points
    p = 31
    family = [QuadraticForm.from_poly(f) for f in maximal_minors(GenericMatrix(3, 2, GF(p))).minors]
    forms = _congruent(family, random.Random("minors:3x2"))
    ref = _check_every_scan(forms, 4)
    assert {value for _, value in ref} == {4}
    calls = _counting_eliminate(monkeypatch)
    list(quadratic._projective_ranks(forms, "scan"))
    assert len(calls) == 87 + 62 == 149


@pytest.mark.parametrize("p,n,r", PENCILS_AND_NETS)
def test_singular_pencil_with_a_planted_low_rank_point(p, n, r):
    # as in the planted test above, in forms that share a kernel vector: the
    # combination (1, [a, ...,] u), u past the corner, has Gram rank at
    # most 2 on a line of rank n - 1 elsewhere, so D_S vanishes there.
    # With the low form first, the line (1, 0, ..., u) and its plane start
    # at a low-rank point, so S must come from another point
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
    # the net q, 0, 0: each line (1, a, u) is q itself (B = 0), of rank
    # n - 1; the line (0, 1, u) is all zero, so its rank bound is 0, S is
    # empty and D_S = 1; the point (0, 0, 1) comes last.  Ranked as a plane
    # of one line, each constant line eliminates its first n + 1 points and
    # the S x S submatrix at n of them, and the zero line its first n + 1
    # and 1; the plane (1, v, u) eliminates its (n + 1)^2 corner and the
    # S x S submatrix at n^2 of it, and has no other point where D_S is 0
    rng = random.Random(f"constant:{p}:{n}")
    ring = Ring.flat(n, GF(p))
    q = _congruent([_without_last_variable(_random_form(rng, ring))], rng)[0]
    zero = QuadraticForm(ring, [[0] * n for _ in range(n)])
    forms = [q, zero, zero]
    ref = _check_every_scan(forms, n - 1)
    assert q.rank() == n - 1
    counts = _eliminations_per_line(monkeypatch, forms, ref)
    lines = _lines(ref)
    assert [len(line) for line in lines] == [p] * (p + 1) + [1]
    assert all({value for _, value in line} == {n - 1} for line in lines[:p])
    assert counts[:p] == [(n + 1) + n] * p
    assert {value for _, value in lines[p]} == {0} and counts[p] == (n + 1) + 1
    assert lines[-1] == [((0, 0, 1), 0)]
    calls = _counting_eliminate(monkeypatch)
    list(quadratic._projective_ranks(forms, "scan"))
    assert len(calls) == (n + 1) ** 2 + n**2 + counts[p] + 1


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_lines_no_longer_than_n_plus_one_are_eliminated_whole(p, r):
    # at n = 6 a plane of p <= n lines of p points is all corner
    rng = random.Random(f"short:{p}:{r}")
    ring = Ring.flat(6, GF(p))
    forms = [_random_form(rng, ring) for _ in range(r - 1)] + [_random_form(rng, ring, rank=2)]
    for expect in (6, 5):
        assert rank_scan_all_nonzero(forms, expect=expect) == ref_rank_scan(forms, expect)
    assert collective_strength_quadrics(forms) == ref_collective(forms)
    got = minrank_bruteforce(forms[0], forms[1])
    assert (got.value, got.witness) == ref_minrank(forms[0], forms[1])


@pytest.mark.parametrize("p,n", [(31, 6), (101, 2)])
def test_walking_a_line_from_either_end_or_from_any_point_changes_no_rank(p, n):
    # A' = A + (p - 1)*B with B' = -B walks the line A + u*B from its other
    # end, and A' = A + s*B with B' = B starts it at u = s and wraps round,
    # so other points form the corner; walking the plane A + v*G + u*B
    # along v likewise puts other lines in its corner.  The same net
    # without its last variable, in random coordinates, is singular on
    # every line
    rng = random.Random(f"order:{p}:{n}")
    ring = Ring.flat(n, GF(p))
    low = _random_form(rng, ring, rank=1)
    q1, q2 = _random_form(rng, ring), _random_form(rng, ring)
    net = [q1, q2, combine([low, q1], [1, p - 1])]
    singular = _congruent([_without_last_variable(q) for q in net], rng)
    zero = [0] * (n * n)

    def walks(a, b, want):
        # (A', B', ranks) for the walks from either end and from u = s
        s = rng.randrange(1, p)
        return [(a, b, want), ([(x + (p - 1) * y) % p for x, y in zip(a, b)], [-y % p for y in b], want[::-1]),
                ([(x + s * y) % p for x, y in zip(a, b)], b, want[s:] + want[:s])]

    for forms in (net, singular):
        lines = _lines(ref_point_ranks(forms, list(projective_points(p, 3))))[:-1]
        for line in lines:
            for a, b, want in walks(*_line(forms, line[0][0][:-1]), [v for _, v in line]):
                assert list(quadratic._plane_ranks(a, zero, b, 1, n, p)) == want
        a, g, b = (_flat(q) for q in forms)
        for a, g, want in walks(a, g, [[v for _, v in line] for line in lines[:p]]):
            assert list(quadratic._plane_ranks(a, g, b, p, n, p)) == [v for row in want for v in row]


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
