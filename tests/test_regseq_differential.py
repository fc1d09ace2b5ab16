"""Cross-check the Hilbert-series direct regular-sequence test against the
ideal-quotient route it replaced."""

import random

import pytest

from formstrength.domains import GF, QQ
from formstrength.groebner import is_regular_sequence_direct
from formstrength.poly import Ring

from conftest import dense_form, random_homogeneous, reference_regular_by_quotients


def _system(rng, ring):
    """r ≤ n + 1 forms of degrees 1..3, all dense or all sparse, and
    whether two of them were given a common linear factor (one degree
    more each), which makes the system not regular."""
    n = ring.nvars
    r = rng.randint(1, n + 1)
    degrees = [rng.randint(1, 3) for _ in range(r)]
    dense = rng.random() < 0.5
    forms = [_form(rng, ring, d, dense) for d in degrees]
    planted = r >= 2 and rng.random() < 0.3
    if planted:
        i, j = rng.sample(range(r), 2)
        g = random_homogeneous(rng, ring, 1)
        forms[i] = g * _form(rng, ring, degrees[i], dense)
        forms[j] = g * _form(rng, ring, degrees[j], dense)
    return forms, planted


def _form(rng, ring, degree, dense):
    """A nonzero form: a dense one can vanish over a small field."""
    while True:
        f = dense_form(rng, ring, degree) if dense else random_homogeneous(rng, ring, degree)
        if f.terms:
            return f


@pytest.mark.parametrize("domain", [QQ, GF(2), GF(3), GF(7)], ids=lambda d: d.name)
def test_direct_test_matches_the_quotient_route(domain):
    rng = random.Random(f"regseq-{domain.name}")
    verdicts = []
    for _ in range(60):
        ring = Ring.flat(rng.randint(2, 5), domain)
        forms, planted = _system(rng, ring)
        direct = is_regular_sequence_direct(forms)
        assert direct == reference_regular_by_quotients(forms), [str(f) for f in forms]
        if planted:
            assert not direct
        verdicts.append(direct)
    # both verdicts occur, so neither answer is the only one tested
    assert 5 <= sum(verdicts) <= len(verdicts) - 5
