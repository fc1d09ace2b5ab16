"""The multiplier-matrix gcd against the recursive primitive PRS it replaced
(``reference_gcd`` in conftest), over small and large prime fields and Q,
and the calls it makes to get there."""

import random

import pytest

import formstrength.polygcd as polygcd
from formstrength.cli import run
from formstrength.domains import GF, QQ
from formstrength.parse import parse_poly
from formstrength.poly import Poly, Ring
from formstrength.polygcd import multivariate_gcd

from conftest import random_poly, reference_gcd

FIELDS = [GF(2), GF(3), GF(7), GF(32003), QQ]


def _monomial(ring, exps):
    return Poly(ring, {tuple(exps): ring.domain.one})


def _assert_matches_reference(f, g):
    expected = reference_gcd(f, g)
    assert multivariate_gcd(f, g) == expected, (str(f), str(g))
    assert multivariate_gcd(g, f) == expected, (str(g), str(f))


def _cases(rng, ring):
    """Input pairs of every shape the gcd has to handle."""
    n = ring.nvars
    x1, x2 = ring.var(0), ring.var(min(1, n - 1))
    yield ring.zero(), ring.zero()
    yield random_poly(rng, ring), ring.zero()
    yield ring.zero(), random_poly(rng, ring)
    yield ring.const(ring.domain.from_int(2)), random_poly(rng, ring)
    yield random_poly(rng, ring), ring.one()
    for d in range(1, 5):
        yield x1 ** d, x2 ** d
        yield x1 ** d, x1 ** rng.randint(1, 4) * x2
    for forms in (True, False):

        def draw():
            if forms:
                return random_poly(rng, ring, max_terms=3, homogeneous=True, degree=rng.randint(1, 2))
            return random_poly(rng, ring, max_degree=2, max_terms=3)

        for _ in range(6):
            u, f, g = draw(), draw(), draw()
            yield u * f, u * g  # planted common factor
            yield f, f * g  # one input divides the other
            yield u * g, g
            mono = _monomial(ring, [rng.randint(0, 2) for _ in range(n)])
            yield mono * f, mono * g  # monomial factor
            yield f, g


@pytest.mark.parametrize("dom", FIELDS, ids=lambda d: d.name)
def test_gcd_matches_the_prs_reference(dom):
    rng = random.Random(2024 + (dom.characteristic or 1))
    for n in (1, 2, 3, 4):
        ring = Ring.flat(n, dom)
        for f, g in _cases(rng, ring):
            _assert_matches_reference(f, g)


@pytest.mark.parametrize("dom", FIELDS, ids=lambda d: d.name)
def test_one_variable_forms_take_the_degree_cap(dom):
    # |S(k - 1)| = 1 for every k, so the nullity of M_1 is 1 whenever the
    # gcd is nonconstant and only min(a, b) fixes its degree
    rng = random.Random(31 + (dom.characteristic or 1))
    for n in (1, 3):
        ring = Ring.flat(n, dom)
        for _ in range(12):
            v = rng.randrange(n)
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            c, e = (ring.const(dom.from_int(rng.randrange(1, dom.characteristic or 7))) for _ in range(2))
            f, g = c * ring.var(v) ** a, e * ring.var(v) ** b
            assert multivariate_gcd(f, g) == ring.var(v) ** min(a, b)
            _assert_matches_reference(f, g)


@pytest.mark.parametrize("dom", FIELDS, ids=lambda d: d.name)
def test_pairs_that_miss_the_last_variable_of_the_ring(dom):
    # the echelon row is (g/h) * x_v^(k - 1) for the pair's last variable
    # x_v, not the ring's: here x4 and x3 occur in neither input
    rng = random.Random(37 + (dom.characteristic or 1))
    ring = Ring.flat(4, dom)
    small = Ring.flat(2, dom)
    lift = lambda h: Poly(ring, {m + (0, 0): c for m, c in h.terms.items()})
    for _ in range(10):
        u, f, g = (lift(random_poly(rng, small, max_terms=3, homogeneous=True, degree=rng.randint(1, 2)))
                   for _ in range(3))
        for pair in ((u * f, u * g), (u * u * f, u * g), (f, g)):
            _assert_matches_reference(*pair)


@pytest.mark.parametrize("dom", FIELDS, ids=lambda d: d.name)
def test_gcds_of_degree_two_and_more(dom):
    rng = random.Random(41 + (dom.characteristic or 1))
    for n, forms in ((2, True), (3, True), (3, False)):
        ring = Ring.flat(n, dom)
        for _ in range(4):
            if forms:
                u = random_poly(rng, ring, max_terms=3, homogeneous=True, degree=rng.randint(2, 3))
                f, g = (random_poly(rng, ring, max_terms=3, homogeneous=True, degree=1) for _ in range(2))
            else:
                u = random_poly(rng, ring, max_degree=3, max_terms=3)
                f, g = (random_poly(rng, ring, max_degree=1, max_terms=3) for _ in range(2))
            expected = reference_gcd(u * f, u * g)
            assert expected.degree() >= u.degree()
            _assert_matches_reference(u * f, u * g)


class _Calls:
    """Counts of the multiplier-matrix builds, the direct eliminations (with
    the shape of each) and the kernel solves one gcd makes."""

    def __init__(self, monkeypatch):
        self.builds, self.eliminations, self.kernels = 0, [], 0
        rows, elim, kernel = polygcd._multiplier_rows, polygcd.eliminate, polygcd.kernel_basis

        def counted_rows(*args):
            self.builds += 1
            return rows(*args)

        def counted_elim(a, ncols, p, reduced=False):
            self.eliminations.append((len(a), ncols))
            return elim(a, ncols, p, reduced)

        def counted_kernel(m, dom):
            self.kernels += 1
            return kernel(m, dom)

        monkeypatch.setattr(polygcd, "_multiplier_rows", counted_rows)
        monkeypatch.setattr(polygcd, "eliminate", counted_elim)
        monkeypatch.setattr(polygcd, "kernel_basis", counted_kernel)

    def reset(self):
        self.builds, self.eliminations, self.kernels = 0, [], 0


def test_fp_gcd_is_one_multiplier_matrix_and_one_elimination(monkeypatch):
    calls = _Calls(monkeypatch)
    rng = random.Random(53)
    degrees = set()
    for p in (2, 7, 32003):
        ring = Ring.flat(3, GF(p))
        for homogeneous in (True, False):
            for _ in range(15):
                u, f, g = (random_poly(rng, ring, max_degree=2, max_terms=3, homogeneous=homogeneous,
                                       degree=rng.randint(1, 2) if homogeneous else None) for _ in range(3))
                for a, b in ((f, g), (u * f, u * g), (u * u * f, u * g)):
                    if a.is_constant() or b.is_constant():
                        continue
                    calls.reset()
                    h = multivariate_gcd(a, b)
                    assert calls.builds == 1 and calls.kernels == 0
                    nv, k = len(set(a.variables()) | set(b.variables())), h.degree()
                    degrees.add(min(k, 2))
                    forms = a.is_homogeneous() and b.is_homogeneous()
                    size = lambda d: polygcd._count(nv, d, forms)
                    first, *rest = calls.eliminations
                    assert first[0] == size(b.degree() - 1) + size(a.degree() - 1)  # the rows of M_1
                    if size(k - 1) < 2:
                        assert rest == []  # the kernel is one line, or empty
                    else:
                        # the kernel's u-parts only: |S(k - 1)| rows, |S(b - 1)| columns
                        assert rest == [(size(k - 1), size(b.degree() - 1))]
    assert degrees == {0, 1, 2}


def test_q_gcd_solves_its_exact_kernel_at_the_bound(monkeypatch):
    calls = _Calls(monkeypatch)
    ring = Ring.flat(3, QQ)
    f = parse_poly("x1^2 - x2*x3", ring)
    g = parse_poly("x1*x3 + 2*x2^2", ring)
    h = parse_poly("x1 - 3*x2 + x3", ring)
    assert multivariate_gcd(h * f, h * g) == h
    # M_1 for the bound, M_k for its exact kernel; no direct elimination
    assert (calls.builds, calls.kernels, calls.eliminations) == (2, 1, [])
    calls.reset()
    assert multivariate_gcd(f, g) == ring.one()
    assert (calls.builds, calls.kernels, calls.eliminations) == (1, 0, [])


def test_q_degree_bound_steps_down_when_the_bound_prime_overestimates(monkeypatch):
    monkeypatch.setattr(polygcd, "_BOUND_PRIME", 5)
    calls = _Calls(monkeypatch)
    ring = Ring.flat(2, QQ)
    f = parse_poly("x1^2 + 5*x2^2", ring)
    g = parse_poly("x1*x2 + 5*x2^2", ring)  # mod 5 both are multiples of x1
    assert multivariate_gcd(f, g) == ring.one()
    assert calls.kernels == 1  # j = 1 gave a zero kernel over Q
    h = parse_poly("x1 - 3*x2", ring)
    calls.reset()
    assert multivariate_gcd(h * f, h * g) == h
    assert calls.kernels == 2  # bound 2 mod 5, true degree 1
    assert multivariate_gcd(h * f, h * g) == reference_gcd(h * f, h * g)


@pytest.mark.parametrize("seed", range(1, 8))
def test_small_r_certificate_is_byte_identical_under_the_reference_gcd(monkeypatch, capsys, seed):
    # two exact gcds cannot change a verdict or a byte of the certificate
    args = ["certify", "small-r", "--seed", str(seed), "--json"]
    assert run(args) == 0
    ours = capsys.readouterr().out
    monkeypatch.setattr(polygcd, "multivariate_gcd", reference_gcd)
    assert run(args) == 0
    assert capsys.readouterr().out == ours
