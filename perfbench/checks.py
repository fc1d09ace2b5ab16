"""Independent correctness checks on the program's outputs.

Every expectation here is computed by the benchmark's own code from the
generated inputs (or taken from sympy), never from a stored copy of an
earlier output.  ``check(op, result, cache)`` returns ``None`` when the
operation's output is right and a one-line reason when it is not.  The
checks run after the measured rounds, outside every timed interval.
"""

from __future__ import annotations

import json
import random
import re
from itertools import product
from math import comb

from gen import ORACLE_MONOMIALS, monomials, rank_mod_p

# the claims of the paper each certificate must state
CLAIMS = {
    "n32-lower": "N(3,2) >= 2",
    "n32-upper": "N(3,2) <= 2: certification chain on a sample triple",
    "n33": "N(3,3) > 2",
    "small-r": "N(1,d) = 0 and N(2,d) = 1",
}


# ---------------------------------------------------------------------------
# quadrics over F_p


def gram(form, n, p):
    """Gram matrix over F_p (p odd) of a quadric given as {exponents: c}."""
    half = (p + 1) // 2
    g = [[0] * n for _ in range(n)]
    for m, c in form.items():
        idx = [i for i, e in enumerate(m) for _ in range(e)]
        i, j = idx
        if i == j:
            g[i][i] = (g[i][i] + c) % p
        else:
            g[i][j] = (g[i][j] + c * half) % p
            g[j][i] = g[i][j]
    return g


def diagonal_entries(g, p):
    """Nonzero diagonal entries of a congruence diagonalization over F_p,
    p odd: their count is the rank, their product the discriminant of the
    nondegenerate part."""
    a = [row[:] for row in g]
    n = len(a)
    out = []
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            # row_i += row_j and col_i += col_j make a[i][i] = 2*a[i][j] != 0
            for c in range(n):
                a[i][c] = (a[i][c] + a[j][c]) % p
            for r in range(n):
                a[r][i] = (a[r][i] + a[r][j]) % p
            pivot = i
        a[k], a[pivot] = a[pivot], a[k]
        for r in range(n):
            a[r][k], a[r][pivot] = a[r][pivot], a[r][k]
        d = a[k][k]
        inv = pow(d, p - 2, p)
        # Schur complement of the pivot; row k is read, never written, here
        for r in range(k + 1, n):
            f = a[r][k] * inv % p
            if f:
                for c in range(k + 1, n):
                    a[r][c] = (a[r][c] - f * a[k][c]) % p
        for r in range(k + 1, n):
            a[r][k] = a[k][r] = 0
        out.append(d)
    return out


def closed_field_strength(k):
    return -1 if k == 0 else (k + 1) // 2 - 1


def witt_strength_f3(entries):
    """Strength over F_3 of a quadric with the given diagonalization: the
    closed-field value, plus one for an even rank 2m whose nondegenerate
    part is not split, i.e. (-1)^m * disc is not a square (squares of F_3:
    {1})."""
    k = len(entries)
    s = closed_field_strength(k)
    if k and k % 2 == 0:
        disc = 1
        for d in entries:
            disc = disc * d % 3
        if (-1) ** (k // 2) * disc % 3 != 1:
            s += 1
    return s


# ---------------------------------------------------------------------------
# monomial ideals


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def standard_counts(leads, n, top):
    """Number of monomials of each degree 0..top divisible by no lead."""
    return [sum(1 for m in monomials(n, d) if not any(_divides(l, m) for l in leads))
            for d in range(top + 1)]


def complete_intersection_counts(n, degrees, top):
    """Coefficients of prod(1 - t^d) / (1 - t)^n in degrees 0..top."""
    num = [1]
    for d in degrees:
        nxt = [0] * (len(num) + d)
        for i, c in enumerate(num):
            nxt[i] += c
            nxt[i + d] -= c
        num = nxt
    return [sum(c * comb(n - 1 + k - i, k - i) for i, c in enumerate(num) if i <= k)
            for k in range(top + 1)]


def codim_from_leads(leads, n):
    """n minus the largest set of variables containing no lead's support."""
    supports = [sum(1 << i for i, e in enumerate(l) if e) for l in leads]
    best = 0
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size > best and not any(s & mask == s for s in supports):
            best = size
    return n - best


def hilbert_problem(leads, n, degrees):
    top = max(sum(l) for l in leads) + 2
    got = standard_counts([tuple(l) for l in leads], n, top)
    want = complete_intersection_counts(n, degrees, top)
    if got != want:
        return f"Hilbert function of the lead ideal {got} differs from the complete intersection {want}"
    return None


def sympy_codim(path):
    """Codimension from sympy's own degrevlex basis over F_32003."""
    import sympy

    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    n = int(re.match(r"ring n=(\d+)", lines[0]).group(1))
    gens = sympy.symbols(f"x1:{n + 1}")
    names = {str(g): g for g in gens}
    exprs = [sympy.sympify(ln.replace("^", "**"), locals=names) for ln in lines[1:]]
    basis = sympy.groebner(exprs, *gens, modulus=32003, order="grevlex")
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]
    return codim_from_leads(leads, n)


def poly_degree(text):
    """Total degree of a polynomial printed in the program's grammar."""
    best = 0
    for term in re.split(r"[+-]", text.replace(" ", "")):
        if term:
            best = max(best, sum(int(e or 1) for e in re.findall(r"x\d+(?:_\d+)?(?:\^(\d+))?", term)))
    return best


def _decode(forms):
    return [{tuple(m): c for m, c in f} for f in forms]


# ---------------------------------------------------------------------------
# one check per kind of operation


def _json_result(result):
    try:
        return json.loads(result["stdout"])
    except (ValueError, KeyError):
        return None


def _check_certify(op, result, cache):
    doc = _json_result(result)
    if doc is None:
        return "certificate output is not JSON"
    name = op["argv"][1]
    if doc.get("claim") != CLAIMS[name]:
        return f"claim {doc.get('claim')!r} is not the paper's claim for {name}"
    if doc.get("passed") is not True or not doc.get("subverdicts"):
        return "certificate did not pass"
    failed = [v.get("name") for v in doc["subverdicts"] if v.get("passed") is not True]
    if failed:
        return f"sub-verdicts failed: {failed}"
    return None


def _check_recheck(op, result, cache):
    want = op["expect"]["rc"]
    if result["rc"] != want:
        return f"recheck exit code {result['rc']}, expected {want}"
    if want == 0 and not result["stdout"].startswith("recheck PASS"):
        return "recheck did not report PASS"
    return None


def _check_codim(op, result, cache):
    e = op["expect"]
    doc = _json_result(result)
    if result["rc"] != 0 or doc is None:
        return f"gb codim exit code {result['rc']}"
    got = doc["result"].get("codim")
    if got != e["codim"]:
        return f"codim {got}, expected {e['codim']}"
    if e.get("leads"):
        return _cached(cache, ("hilbert", op["id"], str(result.get("leads"))),
                       lambda: hilbert_problem(result["leads"], e["n"], e["degrees"]))
    return None


def _check_regseq(op, result, cache):
    e = op["expect"]
    doc = _json_result(result)
    if result["rc"] != e["rc"] or doc is None:
        return f"regseq exit code {result['rc']}, expected {e['rc']}"
    res = doc["result"]
    if res.get("regular") is not e["regular"] or res.get("tests_agree") is not True:
        return f"verdict regular={res.get('regular')} agree={res.get('tests_agree')}, expected regular={e['regular']}"
    if res.get("codimension") != e["codim"]:
        return f"codimension {res.get('codimension')}, expected {e['codim']}"
    if "gcd_degree" in e:
        degree = poly_degree((res.get("gcd_report") or {}).get("gcd", ""))
        if degree != e["gcd_degree"]:
            return f"gcd of degree {degree}, expected {e['gcd_degree']}"
    if e["sympy"]:
        want = _cached(cache, ("sympy", op["argv"][-1]), lambda: sympy_codim(op["argv"][-1]))
        if res["codimension"] != want:
            return f"codimension {res['codimension']}, sympy gives {want}"
    if e.get("leads"):
        return _cached(cache, ("hilbert", op["id"], str(result.get("leads"))),
                       lambda: hilbert_problem(result["leads"], e["n"], e["degrees"]))
    return None


def combination_rank(grams, coeffs, p):
    n = len(grams[0])
    combo = [[sum(c * g[i][j] for c, g in zip(coeffs, grams)) for j in range(n)] for i in range(n)]
    return rank_mod_p(combo, p)


def own_collective(forms, n, p):
    """Least closed-field strength over every point of P^2 over F_p."""
    grams = [gram(f, n, p) for f in forms]
    return min(closed_field_strength(combination_rank(grams, (0,) * lead + (1,) + tail, p))
               for lead in range(3) for tail in product(range(p), repeat=2 - lead))


def _check_collective(op, result, cache):
    e = op["expect"]
    doc = _json_result(result)
    if result["rc"] != 0 or doc is None:
        return f"quadric collective exit code {result['rc']}"
    got = doc["result"].get("collective_strength")
    want = _cached(cache, ("collective", op["id"]), lambda: own_collective(_decode(e["forms"]), e["n"], e["p"]))
    if got != want:
        return f"collective strength {got}, own scan gives {want}"
    return None


def _check_minrank(op, result, cache):
    b, p = op["expect"]["b"], op["expect"]["p"]
    doc = _json_result(result)
    if result["rc"] != 0 or doc is None:
        return f"quadric minrank exit code {result['rc']}"
    res = doc["result"]
    want = len(b) - max(b.count(v) for v in b)
    scan = res.get("scan") or {}
    if res.get("minrank") != want or scan.get("value") != want or res.get("scan_agrees") is not True:
        return f"minrank {res.get('minrank')} / scan {scan.get('value')}, expected {want}"
    t0, t1 = (int(v) % p for v in scan["witness"])
    witness_rank = sum(1 for v in b if (t0 + t1 * v) % p)
    if witness_rank != want:
        return f"scan witness combination has rank {witness_rank}, not {want}"
    return None


def _check_rank_scan(op, result, cache):
    e = op["expect"]
    p, r = e["p"], e["rank"]
    payload = result.get("payload") or {}
    if payload.get("histogram") != {str(r): p ** 3 - 1} or payload.get("offender") is not None:
        return f"rank histogram {payload.get('histogram')}, expected rank {r} at all {p ** 3 - 1} tuples"

    def sample():
        grams = [gram(f, 6, p) for f in _decode(e["forms"])]
        rng = random.Random(e["sample_seed"])
        for _ in range(64):
            t = [rng.randrange(p) for _ in range(3)]
            k = combination_rank(grams, t, p) if any(t) else r
            if k != r:
                return f"own elimination gives rank {k} at {t}"
        return None

    return _cached(cache, ("sample", op["id"]), sample)


def oracle_expected(codes):
    """Own (rank, strength) verdict per quadric code, as the worker encodes it."""
    out = []
    for code in codes:
        coeffs = [(code // 3 ** i) % 3 for i in range(10)]
        form = {m: c for m, c in zip(ORACLE_MONOMIALS, coeffs) if c}
        entries = diagonal_entries(gram(form, 4, 3), 3)
        out.append(f"{len(entries)}{witt_strength_f3(entries) + 1}")
    return "".join(out)


def _check_oracle(op, result, cache):
    def expected():
        with open(op["expect"]["path"], "r", encoding="utf-8") as fh:
            return oracle_expected(int(v) for v in fh.read().split())

    got = (result.get("payload") or {}).get("verdicts", "")
    want = _cached(cache, ("oracle", op["id"]), expected)
    if got != want:
        first = next((i for i in range(0, min(len(got), len(want)), 2) if got[i:i + 2] != want[i:i + 2]), None)
        return f"oracle verdicts differ from the Witt-corrected law (first at form {first if first is None else first // 2})"
    return None


def _cached(cache, key, fn):
    if key not in cache:
        cache[key] = fn()
    return cache[key]


CHECKS = {
    "certify": _check_certify,
    "recheck": _check_recheck,
    "codim": _check_codim,
    "regseq": _check_regseq,
    "collective": _check_collective,
    "minrank": _check_minrank,
    "rank_scan": _check_rank_scan,
    "oracle": _check_oracle,
}


def check(op, result, cache):
    """None when the output is right, else why it is wrong."""
    return CHECKS[op["expect"]["check"]](op, result, cache)
