"""Machine-checked certificates and their JSON serialization.

A certificate records one headline claim with a list of sub-verdicts; each
sub-verdict is either machine-checked here or cited from classical theory,
and the certificate passes only when every sub-verdict does.  Serialized
certificates are byte-stable for fixed seeds and re-checkable from the file
alone: rechecking reruns the named claim with the recorded environment and
compares the full structure.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from .domains import GF, QQ
from .groebner import (
    Ideal,
    codimension,
    is_regular_sequence_codim,
    normal_form,
)
from .minors import (
    GenericMatrix,
    column_multidegree,
    determinant_laplace,
    laplace_strength_bound,
    maximal_minors,
)
from .poly import Poly, Ring
from .polygcd import regular_pair_gcd_check
from .quadratic import (
    CERTIFIED_PRIME,
    QuadraticForm,
    collective_strength_quadrics,
    diagonal_pair_mod,
    minrank_bruteforce,
    minrank_formula,
    prime_certificate,
    rank_scan_all_nonzero,
    simultaneous_diagonalize,
)
from .strength import PARALLEL_ROWS, SAME_COLUMN, SKEW, class_ideals, exclusion_matrix
from .version import __version__

MACHINE = "machine"
CITED = "cited"

# expected surviving-monomial counts per class reduction of the 4x3 family,
# read off the displayed cofactor expansions
EXCLUSION_ROWS = {PARALLEL_ROWS: 10, SAME_COLUMN: 10, SKEW: 11}
CLASS_ORDER = (PARALLEL_ROWS, SAME_COLUMN, SKEW)

# each certificate's headline claim; recheck finds the builder by it
CLAIMS = {
    "n32-lower": "N(3,2) >= 2",
    "n32-upper": "N(3,2) <= 2: certification chain on a sample triple",
    "n33": "N(3,3) > 2",
    "small-r": "N(1,d) = 0 and N(2,d) = 1",
}


class SubVerdict:
    __slots__ = ("name", "kind", "passed", "witness", "paper_ref")

    def __init__(self, name, kind, passed, witness=None, paper_ref=None):
        self.name = name
        self.kind = kind
        self.passed = bool(passed)
        self.witness = witness
        self.paper_ref = paper_ref

    def to_dict(self):
        out = {"name": self.name, "kind": self.kind, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        out["paper_ref"] = self.paper_ref
        return out


class Certificate:
    __slots__ = ("claim", "subverdicts", "environment")

    def __init__(self, claim, subverdicts, environment):
        self.claim = claim
        self.subverdicts = list(subverdicts)
        self.environment = dict(environment)
        self.environment.setdefault("version", __version__)

    @property
    def passed(self):
        return all(v.passed for v in self.subverdicts)

    def to_dict(self):
        return {
            "claim": self.claim,
            "passed": self.passed,
            "subverdicts": [v.to_dict() for v in self.subverdicts],
            "environment": self.environment,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def first_failure(self):
        for v in self.subverdicts:
            if not v.passed:
                return v
        return None


# ---------------------------------------------------------------------------
# N(3,2) >= 2: the 3x2 minor family


def _principal_minor_ideal(grams, k) -> Ideal:
    """Ideal of the nonzero principal k x k minors of sum_i c_i * G_i, the
    generic combination of the rational Gram matrices G_1..G_r, in
    Q[c_1..c_r].  It holds only some of the k x k minors, so where it
    vanishes only at the origin so does every k x k minor.  The converse
    holds where the combination has rank at most k: a symmetric matrix of
    rank s has a nonsingular principal s x s submatrix."""
    r, n = len(grams), len(grams[0])
    ring = Ring.flat(r, QQ)
    units = [tuple(1 if t == c else 0 for t in range(r)) for c in range(r)]
    sym = [[Poly(ring, {units[c]: g[i][j] for c, g in enumerate(grams) if g[i][j]}) for j in range(n)]
           for i in range(n)]
    minors = (determinant_laplace([[sym[i][j] for j in s] for i in s], ring) for s in combinations(range(n), k))
    return Ideal(ring, [m for m in minors if m.terms])


def certify_n32_lower(seed: int = 0, scan_prime: int = 5) -> Certificate:
    """Three quadrics of collective strength 1 that are not a regular
    sequence: the maximal minors of the generic 3x2 matrix."""
    matrix = GenericMatrix(3, 2, QQ)
    ring = matrix.ring
    minors = maximal_minors(matrix)
    subs = []

    codim = codimension(Ideal(ring, minors))
    subs.append(
        SubVerdict(
            "minor_ideal_codim_two",
            MACHINE,
            codim == 2,
            witness={"codim": codim, "field": "q"},
            paper_ref="Hilbert-Burch: the maximal minors of a generic (n+1) x n matrix cut out codimension 2",
        )
    )
    subs.append(
        SubVerdict(
            "not_a_regular_sequence",
            MACHINE,
            codim != len(minors),
            witness={"forms": 3, "codim": codim},
            paper_ref="three forms are regular exactly when their ideal has codimension 3",
        )
    )

    # every nonzero F_p combination has Gram rank exactly 4
    forms = [QuadraticForm.from_poly(f) for f in minors]
    histogram, bad_point = rank_scan_all_nonzero([q.reduce_mod(scan_prime) for q in forms], expect=4)
    subs.append(
        SubVerdict(
            f"all_nonzero_f{scan_prime}_combinations_have_rank_4",
            MACHINE,
            bad_point is None,
            witness=bad_point
            or {
                "points_checked": sum(histogram.values()),
                "rank_histogram": {str(k): v for k, v in sorted(histogram.items())},
            },
            paper_ref="echelon computation: the Gram matrix of a nonzero combination has rank at least 4",
        )
    )

    # symbolic closure of the scan: the generic combination has rank at most
    # 4, and its principal 4x4 minors vanish together only at the zero
    # combination
    minor_codim = codimension(_principal_minor_ideal([q.gram for q in forms], 4))
    subs.append(
        SubVerdict(
            "rank_below_4_locus_is_trivial_symbolically",
            MACHINE,
            minor_codim == 3,
            witness={"minor_ideal_codim": minor_codim, "field": "q"},
            paper_ref="a codimension-3 homogeneous ideal in 3 coefficient variables vanishes only at the origin, over any extension field",
        )
    )

    subs.append(
        SubVerdict(
            "products_of_linear_forms_have_rank_at_most_2",
            CITED,
            True,
            paper_ref="a quadric g*h has Gram rank at most 2, so rank 4 forces strength at least 1",
        )
    )

    # Laplace expansion gives strength <= 1 for each minor
    all_ok = True
    for i in range(1, 4):
        bound = laplace_strength_bound(matrix, i)
        ok = bound.bound == 1 and bound.reconstruct(ring) == minors[i - 1]
        all_ok = all_ok and ok
    subs.append(
        SubVerdict(
            "cofactor_expansion_gives_strength_at_most_1",
            MACHINE,
            all_ok,
            witness={"bound": 1, "witness_products_per_minor": 2},
            paper_ref="an n x n minor has strength at most n-1 by Laplace expansion",
        )
    )

    env = {"field": "q", "primes": [scan_prime], "seed": seed}
    return Certificate(CLAIMS["n32-lower"], subs, env)


# ---------------------------------------------------------------------------
# N(3,2) <= 2: the certification chain on a sample triple


_SAMPLE_B = (1, 2, 3, 4, 5, 6)
_SAMPLE_F3 = "x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x6 + x1*x6 + x1*x3"


def certify_n32_upper_sample(
    seed: int = 0, scan_prime: int = 11, minrank_prime: int = 101
) -> Certificate:
    """The full strength-2 implication chain, run on a fixed sample triple:
    minrank, singular-locus codimension, primality certificate, and the
    independent codimension verdict."""
    from .parse import parse_poly

    ring = Ring.flat(6, QQ)
    f1 = QuadraticForm.diagonal(ring, [1] * 6)
    f2 = QuadraticForm.diagonal(ring, list(_SAMPLE_B))
    f3 = QuadraticForm.from_poly(parse_poly(_SAMPLE_F3, ring))
    env = {"field": "q", "primes": [scan_prime, minrank_prime], "seed": seed}
    subs = []

    coll = collective_strength_quadrics([q.reduce_mod(scan_prime) for q in (f1, f2, f3)])
    subs.append(
        SubVerdict(
            f"collective_strength_at_least_2_over_f{scan_prime}",
            MACHINE,
            coll >= 2,
            witness={"collective_strength": coll, "field": f"fp:{scan_prime}"},
            paper_ref="exhaustive projective scan; exact over the scan field",
        )
    )

    pencil = simultaneous_diagonalize(f1, f2)
    subs.append(
        SubVerdict(
            "pencil_diagonalized_over_q",
            MACHINE,
            pencil is not None,
            witness=None
            if pencil is None
            else {key: [str(row[i]) for i, row in enumerate(g.gram)] for key, g in zip(("a", "b"), pencil)},
            paper_ref="classical pencil theory: a pair with a nondegenerate member diagonalizes simultaneously when its characteristic polynomial splits",
        )
    )
    if pencil is None:
        return Certificate(CLAIMS["n32-upper"], subs, env)

    g1, g2, _ = pencil
    formula = minrank_formula(g1, g2)
    scan = minrank_bruteforce(*diagonal_pair_mod(g1, g2, minrank_prime))
    subs.append(
        SubVerdict(
            "minrank_at_least_5",
            MACHINE,
            formula.value >= 5 and scan.value == formula.value,
            witness={
                "formula": formula.value,
                "scan": scan.value,
                "scan_prime": minrank_prime,
                "witness_combination": [str(c) for c in formula.witness],
                "weaker_threshold_4_also_met": formula.value >= 4,
            },
            paper_ref="minrank equals n minus the largest coefficient multiplicity; a strength-2 combination forces rank at least 5",
        )
    )

    cert = prime_certificate(f1, f2)
    subs.append(
        SubVerdict(
            "singular_locus_codim_above_4",
            MACHINE,
            cert["status"] == CERTIFIED_PRIME,
            witness=cert,
            paper_ref="codim of the Jacobian-minor ideal equals minrank",
        )
    )
    subs.append(
        SubVerdict(
            "pair_ideal_is_prime",
            CITED,
            True,
            paper_ref="a codimension-2 complete intersection whose singular locus has codimension above 4 is prime",
        )
    )

    pair = Ideal(ring, [f1.to_poly(), f2.to_poly()])
    nf = normal_form(f3.to_poly(), pair.groebner())
    subs.append(
        SubVerdict(
            "third_form_outside_pair_ideal",
            MACHINE,
            bool(nf.terms),
            witness={"normal_form_terms": len(nf.terms)},
            paper_ref="nonmembership modulo a prime ideal makes the third form a nonzerodivisor",
        )
    )

    regular = is_regular_sequence_codim([f1.to_poly(), f2.to_poly(), f3.to_poly()])
    subs.append(
        SubVerdict(
            "independent_codimension_verdict_regular",
            MACHINE,
            regular,
            witness={"codim": 3},
            paper_ref="three forms are regular exactly when their ideal has codimension 3",
        )
    )

    return Certificate(CLAIMS["n32-upper"], subs, env)


# ---------------------------------------------------------------------------
# N(3,3) > 2: the 4x3 minor family


def certify_n33(seed: int = 0, gb_prime: int = 32003) -> Certificate:
    """Three cubics of collective strength 2 that are not a regular
    sequence: three maximal minors of the generic 4x3 matrix, with the
    strength-1 exclusion run exactly over Q."""
    matrix_q = GenericMatrix(4, 3, QQ)
    ring_q = matrix_q.ring
    minors_q = maximal_minors(matrix_q)
    subs = []

    # codimension over a large prime field, degrevlex
    matrix_p = GenericMatrix(4, 3, GF(gb_prime))
    minors_p = maximal_minors(matrix_p)
    codim3 = codimension(Ideal(matrix_p.ring, minors_p[:3]))
    subs.append(
        SubVerdict(
            f"triple_codim_two_over_f{gb_prime}",
            MACHINE,
            codim3 == 2,
            witness={"codim": codim3, "field": f"fp:{gb_prime}", "order": "degrevlex"},
            paper_ref="the three minors generate a codimension-2 ideal, so they are not a regular sequence",
        )
    )
    codim4 = codimension(Ideal(matrix_p.ring, minors_p))
    subs.append(
        SubVerdict(
            f"full_family_codim_two_over_f{gb_prime}",
            MACHINE,
            codim4 == 2,
            witness={"codim": codim4},
            paper_ref="Hilbert-Burch: the maximal minors of a generic (n+1) x n matrix cut out codimension 2",
        )
    )

    # strength <= 2 via first-column cofactor expansion, witness re-expanded
    all_ok = True
    for i in range(1, 5):
        bound = laplace_strength_bound(matrix_q, i)
        ok = bound.bound == 2 and bound.reconstruct(ring_q) == minors_q[i - 1]
        all_ok = all_ok and ok
    subs.append(
        SubVerdict(
            "cofactor_expansion_gives_strength_at_most_2",
            MACHINE,
            all_ok,
            witness={"bound": 2, "witness_products_per_minor": 3},
            paper_ref="an n x n minor has strength at most n-1 by Laplace expansion",
        )
    )

    # column multidegrees (1,1,1)
    degs_ok = all(column_multidegree(f) == (1, 1, 1) for f in minors_q)
    subs.append(
        SubVerdict(
            "minors_have_column_multidegree_111",
            MACHINE,
            degs_ok,
            witness={"multidegree": [1, 1, 1]},
            paper_ref="every maximal minor is column-homogeneous of multidegree (1,...,1)",
        )
    )

    subs.append(
        SubVerdict(
            "strength_one_decomposition_can_be_taken_column_homogeneous",
            CITED,
            True,
            paper_ref="a strength-1 decomposition of a column-graded (1,1,1)-cubic can be rewritten with column-homogeneous factors",
        )
    )
    subs.append(
        SubVerdict(
            "linear_pairs_reduce_to_three_normal_forms",
            CITED,
            True,
            paper_ref="up to the row/column group action, an independent column-homogeneous linear pair is one of (x1_1,x2_1), (x1_1,x1_2), (x1_1,x2_2)",
        )
    )

    ideals = class_ideals(ring_q)
    for tag in CLASS_ORDER:
        report = exclusion_matrix(minors_q[:3], ideals[tag])
        expected_rows = EXCLUSION_ROWS[tag]
        ok = report.trivial_kernel and report.row_count() == expected_rows
        subs.append(
            SubVerdict(
                f"exclusion_{tag.replace('-', '_')}",
                MACHINE,
                ok,
                witness={
                    "ideal": [str(g) for g in report.ideal_gens],
                    "monomial_rows": report.row_count(),
                    "expected_rows": expected_rows,
                    "kernel_dim": report.kernel_dim,
                },
                paper_ref="the surviving monomials are linearly independent, so no nontrivial combination lies in the class ideal",
            )
        )

    four_ok = True
    four_witness = []
    for tag in CLASS_ORDER:
        report = exclusion_matrix(minors_q, ideals[tag])
        four_ok = four_ok and report.trivial_kernel
        four_witness.append(
            {"class": tag, "monomial_rows": report.row_count(), "kernel_dim": report.kernel_dim}
        )
    subs.append(
        SubVerdict(
            "exclusion_strengthened_four_minor_variant",
            MACHINE,
            four_ok,
            witness={"reports": four_witness},
            paper_ref="the normalizing group action can mix in the fourth minor, so the exclusion is also run for all four",
        )
    )

    env = {"field": f"fp:{gb_prime}", "primes": [gb_prime], "seed": seed}
    return Certificate(CLAIMS["n33"], subs, env)


# ---------------------------------------------------------------------------
# N(1,d) = 0 and N(2,d) = 1: sampled gcd criterion


def _random_form(rng, ring, degree):
    """Random nonzero homogeneous form of the exact degree."""
    dom = ring.domain
    n = ring.nvars
    while True:
        terms = {}
        for _ in range(rng.randint(2, 4)):
            mono = [0] * n
            for _ in range(degree):
                mono[rng.randrange(n)] += 1
            c = dom.from_int(rng.randrange(1, dom.p))
            terms[tuple(mono)] = c
        f = Poly(ring, terms, _clean=False)
        if f.terms:
            return f


SMALL_R_PAIRS = 100  # sampled pairs in each of the common-factor and coprime branches


def certify_small_r(seed: int = 0, prime: int = 7) -> Certificate:
    """Single nonzero forms are regular; pairs are regular exactly when
    coprime, with the gcd route and the codimension route agreeing on every
    sample."""
    rng = random.Random(seed)
    dom = GF(prime)
    ring = Ring.flat(3, dom)
    subs = []

    singles_ok = True
    single_count = 25
    for _ in range(single_count):
        f = _random_form(rng, ring, rng.randint(1, 3))
        if codimension(Ideal(ring, [f])) != 1:
            singles_ok = False
            break
    subs.append(
        SubVerdict(
            "single_nonzero_form_is_regular",
            MACHINE,
            singles_ok,
            witness={"samples": single_count, "codim": 1},
            paper_ref="one form is a regular sequence exactly when it is nonzero",
        )
    )

    agree_count = 0
    total = 0
    bad = None

    common_ok = True
    for _ in range(SMALL_R_PAIRS):
        g = _random_form(rng, ring, rng.randint(1, 2))
        h1 = _random_form(rng, ring, rng.randint(1, 2))
        h2 = _random_form(rng, ring, rng.randint(1, 2))
        report = regular_pair_gcd_check(g * h1, g * h2)
        total += 1
        if report.agree:
            agree_count += 1
        else:
            bad = bad or {"pair": [str(g * h1), str(g * h2)], "kind": "common-factor"}
        if report.gcd_route_regular or report.codim_route_regular:
            common_ok = False
            bad = bad or {"pair": [str(g * h1), str(g * h2)], "kind": "common-factor"}
    subs.append(
        SubVerdict(
            "common_factor_pairs_not_regular",
            MACHINE,
            common_ok,
            witness={"samples": SMALL_R_PAIRS},
            paper_ref="with f1 = g h1 and f2 = g h2, h1 f2 vanishes modulo f1, so f2 is a zerodivisor",
        )
    )

    coprime_ok = True
    produced = 0
    attempts = 0
    while produced < SMALL_R_PAIRS and attempts < SMALL_R_PAIRS * 50:
        attempts += 1
        f1 = _random_form(rng, ring, rng.randint(1, 3))
        f2 = _random_form(rng, ring, rng.randint(1, 3))
        report = regular_pair_gcd_check(f1, f2)
        total += 1
        if report.agree:
            agree_count += 1
        else:
            bad = bad or {"pair": [str(f1), str(f2)], "kind": "random"}
        if not report.gcd_route_regular:
            continue  # not coprime: belongs to the other branch
        produced += 1
        if not report.codim_route_regular:
            coprime_ok = False
            bad = bad or {"pair": [str(f1), str(f2)], "kind": "coprime"}
    subs.append(
        SubVerdict(
            "coprime_pairs_regular",
            MACHINE,
            coprime_ok and produced == SMALL_R_PAIRS,
            witness={"samples": produced},
            paper_ref="a pair fails to be regular exactly when its gcd is nonconstant",
        )
    )

    powers_ok = True
    for d in range(1, 6):
        x1 = ring.var(0) ** d
        x2 = ring.var(1) ** d
        report = regular_pair_gcd_check(x1, x2)
        if not (report.agree and report.gcd_route_regular):
            powers_ok = False
    subs.append(
        SubVerdict(
            "coordinate_power_pairs_regular",
            MACHINE,
            powers_ok,
            witness={"degrees": [1, 2, 3, 4, 5]},
            paper_ref="x1^d and x2^d share no factor",
        )
    )

    subs.append(
        SubVerdict(
            "gcd_and_codimension_verdicts_agree",
            MACHINE,
            agree_count == total and bad is None,
            witness=bad or {"agreements": agree_count, "pairs_checked": total},
            paper_ref="the gcd criterion and the codimension criterion decide the same pairs",
        )
    )

    env = {"field": f"fp:{prime}", "primes": [prime], "seed": seed}
    return Certificate(CLAIMS["small-r"], subs, env)


# ---------------------------------------------------------------------------
# registry, serialization, recheck

BUILDERS = {
    "n32-lower": certify_n32_lower,
    "n32-upper": certify_n32_upper_sample,
    "n33": certify_n33,
    "small-r": certify_small_r,
}

# each builder's prime keywords, in the order of its environment's "primes";
# certify --p sets the first
PRIME_PARAMS = {
    "n32-lower": ("scan_prime",),
    "n32-upper": ("scan_prime", "minrank_prime"),
    "n33": ("gb_prime",),
    "small-r": ("prime",),
}

_CLAIM_TO_BUILDER = {claim: name for name, claim in CLAIMS.items()}


def build_certificate(name: str, seed: int = 0, **overrides) -> Certificate:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown certificate {name!r}") from None
    return builder(seed=seed, **overrides)


class RecheckResult:
    __slots__ = ("passed", "detail")

    def __init__(self, passed, detail):
        self.passed = passed
        self.detail = detail

    def to_dict(self):
        return {"passed": self.passed, "detail": self.detail}


def recheck_certificate(data: dict) -> RecheckResult:
    """Re-run a serialized certificate's claim under its recorded
    environment and compare everything.  Data of the wrong shape raises
    ValueError (a refused input, not a failed recheck)."""
    env = data.get("environment", {}) if isinstance(data, dict) else None
    if not isinstance(env, dict):
        raise ValueError("a certificate is a JSON object with an object 'environment'")
    primes, seed = env.get("primes", []), env.get("seed", 0)
    if not isinstance(primes, list) or any(type(v) is not int for v in primes + [seed]):
        raise ValueError("certificate 'primes' and 'seed' must be integers")
    subverdicts = data.get("subverdicts", [])
    if not isinstance(subverdicts, list) or any(type(v) is not dict for v in subverdicts):
        raise ValueError("certificate 'subverdicts' must be a list of objects")
    claim = data.get("claim")
    name = _CLAIM_TO_BUILDER.get(claim) if isinstance(claim, str) else None
    if name is None:
        return RecheckResult(False, f"unknown claim {claim!r}")
    version = env.get("version")
    if version != __version__:
        return RecheckResult(False, f"version mismatch: file {version!r}, library {__version__!r}")
    primes = dict(zip(PRIME_PARAMS[name], primes))
    fresh = build_certificate(name, seed=seed, **primes)
    if fresh.to_dict() == data:
        return RecheckResult(True, "recomputed certificate matches the file")
    # locate the first difference for the report
    fresh_dict = fresh.to_dict()
    for key in ("claim", "passed", "environment"):
        if fresh_dict.get(key) != data.get(key):
            return RecheckResult(False, f"field {key!r} differs from the recomputation")
    mine = fresh_dict.get("subverdicts", [])
    if len(mine) != len(subverdicts):
        return RecheckResult(False, "sub-verdict lists differ in length")
    for a, b in zip(mine, subverdicts):
        if a != b:
            return RecheckResult(False, f"sub-verdict {b.get('name')!r} differs from the recomputation")
    return RecheckResult(False, "certificate differs from the recomputation")
