import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from formstrength.certificates import (
    BUILDERS,
    _principal_minor_ideal,
    build_certificate,
    certify_n32_lower,
    certify_n32_upper_sample,
    certify_n33,
    certify_small_r,
    recheck_certificate,
)
import formstrength.minors as minors
from formstrength.domains import GF, QQ
from formstrength.groebner import Ideal, codimension
from formstrength.minors import GenericMatrix, determinant_laplace, maximal_minors
from formstrength.parse import parse_poly
from formstrength.poly import Poly, Ring
from formstrength.quadratic import QuadraticForm, rank_scan_all_nonzero

from conftest import FIXTURES


def test_all_certificates_pass():
    for name in BUILDERS:
        cert = build_certificate(name)
        assert cert.passed, f"{name}: {cert.first_failure().name}"


def test_certificates_are_byte_stable():
    for name in BUILDERS:
        assert build_certificate(name).to_json() == build_certificate(name).to_json()


def test_certificate_schema_fields():
    cert = certify_n33()
    doc = cert.to_dict()
    assert set(doc) == {"claim", "passed", "subverdicts", "environment"}
    assert set(doc["environment"]) == {"field", "primes", "seed", "version"}
    for sub in doc["subverdicts"]:
        assert {"name", "kind", "passed", "paper_ref"} <= set(sub)
        assert sub["kind"] in ("machine", "cited")


def test_n32_lower_field_robustness():
    # the scan verdict survives moving from F_5 to F_7
    cert = certify_n32_lower(scan_prime=7)
    assert cert.passed
    assert cert.environment["primes"] == [7]


def test_n33_exclusion_row_counts():
    cert = certify_n33()
    rows = {
        v.name: v.witness["monomial_rows"]
        for v in cert.subverdicts
        if v.name.startswith("exclusion_") and "monomial_rows" in (v.witness or {})
    }
    assert rows == {
        "exclusion_parallel_rows": 10,
        "exclusion_same_column": 10,
        "exclusion_skew": 11,
    }


@pytest.mark.parametrize(
    "build, name",
    [
        (certify_n32_lower, "cofactor_expansion_gives_strength_at_most_1"),
        (certify_n33, "cofactor_expansion_gives_strength_at_most_2"),
    ],
)
def test_cofactor_subverdict_fails_on_a_consistently_wrong_laplace_table(monkeypatch, build, name):
    # a matrix table whose last column is doubled gives wrong minors and
    # wrong cofactors that still add up to each other; only the fresh
    # expansion of each minor's square grid sees it
    table = minors._laplace_table

    def doubled_last_column(grid, ring):
        if len(grid) == len(grid[0]):
            return table(grid, ring)
        return table([row[:-1] + [row[-1] + row[-1]] for row in grid], ring)

    assert {v.name: v.passed for v in build().subverdicts}[name]
    monkeypatch.setattr(minors, "_laplace_table", doubled_last_column)
    assert not {v.name: v.passed for v in build().subverdicts}[name]


def test_tampered_family_fails_the_rank_scan():
    # swapping the third minor for x1_1^2 plants a rank-1 member: the scan
    # reports it with a witness point
    dom = GF(5)
    matrix = GenericMatrix(3, 2, dom)
    forms = [QuadraticForm.from_poly(f) for f in maximal_minors(matrix)[:2]]
    forms.append(QuadraticForm.from_poly(parse_poly("x1_1^2", matrix.ring)))
    histogram, offender = rank_scan_all_nonzero(forms, expect=4)
    assert offender is not None
    assert offender["rank"] != 4
    assert histogram.get(1, 0) > 0  # the planted square shows up


def test_recheck_round_trip_and_tampering():
    cert = certify_small_r()
    data = json.loads(cert.to_json())
    assert recheck_certificate(data).passed

    tampered = json.loads(cert.to_json())
    tampered["passed"] = False
    assert not recheck_certificate(tampered).passed

    flipped = json.loads(cert.to_json())
    flipped["subverdicts"][0]["witness"]["samples"] += 1
    result = recheck_certificate(flipped)
    assert not result.passed
    assert "single_nonzero_form_is_regular" in result.detail


def test_recheck_rejects_unknown_claim_and_version():
    cert = certify_n32_lower()
    data = json.loads(cert.to_json())
    data["claim"] = "something else"
    assert not recheck_certificate(data).passed
    data = json.loads(cert.to_json())
    data["environment"]["version"] = "9.9.9"
    assert not recheck_certificate(data).passed


def test_recheck_respects_recorded_prime():
    cert = certify_n32_lower(scan_prime=7)
    data = json.loads(cert.to_json())
    assert recheck_certificate(data).passed


def test_small_r_seed_sensitivity():
    # different seeds give different witnesses but the same verdict
    a = certify_small_r(seed=0)
    b = certify_small_r(seed=1)
    assert a.passed and b.passed
    assert a.to_json() != b.to_json() or a.environment == b.environment


def test_unknown_certificate_name():
    with pytest.raises(ValueError):
        build_certificate("does-not-exist")


def test_golden_fixtures_match(tmp_path):
    expected = {
        "n32-lower": certify_n32_lower,
        "n32-upper-sample": certify_n32_upper_sample,
        "n33": certify_n33,
        "small-r": certify_small_r,
    }
    for stem, builder in expected.items():
        path = FIXTURES / f"{stem}.json"
        assert path.exists(), f"missing golden certificate {path}"
        assert path.read_text() == builder().to_json()
        assert recheck_certificate(json.loads(path.read_text())).passed


def _all_minor_ideal(grams, k):
    """Reference: every k x k minor of the generic combination sum_i c_i *
    G_i, rows and columns chosen apart (a symmetric matrix has
    minor(I, J) = minor(J, I))."""
    r, n = len(grams), len(grams[0])
    ring = Ring.flat(r, QQ)
    units = [tuple(1 if t == c else 0 for t in range(r)) for c in range(r)]
    sym = [[Poly(ring, {units[c]: g[i][j] for c, g in enumerate(grams) if g[i][j]}) for j in range(n)]
           for i in range(n)]
    minors = []
    for rows in combinations(range(n), k):
        for cols in combinations(range(n), k):
            if rows <= cols:
                m = determinant_laplace([[sym[i][j] for j in cols] for i in rows], ring)
                if m.terms:
                    minors.append(m)
    return Ideal(ring, minors)


def _random_symmetric(rng, n):
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = Fraction(rng.randint(-3, 3))
    return g


def _random_bilinear(rng, a, b):
    """Gram matrix of x^t B y, x the first a and y the last b variables: of
    rank 2 * rank(B), at most 2 * min(a, b)."""
    g = [[Fraction(0)] * (a + b) for _ in range(a + b)]
    for i in range(a):
        for j in range(a, a + b):
            g[i][j] = g[j][i] = Fraction(rng.randint(-3, 3), 2)
    return g


def test_principal_minors_decide_the_rank_locus_as_all_minors_do():
    # the n32-lower combination has rank at most 4 everywhere, so its
    # principal 4 x 4 minors vanish exactly where all its 4 x 4 minors do
    forms = [QuadraticForm.from_poly(f) for f in maximal_minors(GenericMatrix(3, 2, QQ))]
    grams = [q.gram for q in forms]
    assert codimension(_principal_minor_ideal(grams, 4)) == codimension(_all_minor_ideal(grams, 4)) == 3
    rng = random.Random("principal")
    # random nets: generic ones for every k, and bilinear ones at
    # k = 2 * min(a, b), of rank at most k, with codimension 1, 2 and 3
    cases = [([_random_symmetric(rng, n) for _ in range(3)], k) for n in (3, 4, 5) for k in range(1, n + 1)]
    cases += [([_random_bilinear(rng, a, b) for _ in range(3)], 2 * min(a, b))
              for a, b in ((1, 3), (2, 2), (2, 3), (2, 4))]
    for grams, k in cases:
        assert codimension(_principal_minor_ideal(grams, k)) == codimension(_all_minor_ideal(grams, k))
    # the converse needs enough principal minors: at n = 2 the two diagonal
    # entries of a net cannot cut out the origin of Q^3, though all entries
    # do, so the principal ideal's codimension is only a lower bound
    grams = [_random_symmetric(rng, 2) for _ in range(3)]
    assert codimension(_principal_minor_ideal(grams, 1)) == 2 < codimension(_all_minor_ideal(grams, 1)) == 3
