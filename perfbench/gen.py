"""Seeded input generator for the benchmark workloads.

``make_ops(workload, seed, workdir, root)`` writes every ideal file, form
file and certificate copy that a workload's operations read into ``workdir``
and returns the list of operations; ``root`` is the checkout, whose fixtures
the certify workload rechecks.  Each operation is a plain dict:

* ``id``     -- stable name, unique within the workload;
* ``kind``   -- ``cli`` (an argv for ``formstrength.cli.run``), ``rank_scan``
  (``rank_scan_all_nonzero`` on the forms of a file) or ``oracle`` (the
  brute-force strength table plus all 3^10 quadrics over F_3);
* ``phase``  -- ``1`` or ``2``: which of the ``phase1_s``/``phase2_s``
  metrics the operation's time counts toward, or ``0`` for neither (the
  oracle operation reports its two parts itself);
* ``items``  -- units of work counted by ``items_per_s``, done in the whole
  operation or, when ``items_part`` is set, in that part of it;
* ``expect`` -- what the independent checks in ``checks.py`` need to know
  about the input (planted structure, degrees, field), never a stored copy
  of an earlier output.

Everything here is stdlib arithmetic of the benchmark's own; nothing calls
into the program, so the program receives only generated inputs.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations_with_replacement, permutations

GB_PRIME = 32003
SCAN_PRIME = 61          # quadric collective: 61^2 + 61 + 1 = 3783 points
MINRANK_PRIME = 3001     # quadric minrank --diag: 3002 points per scan
MINOR_SCAN_PRIME = 31    # 3x2 minor family: 31^3 - 1 = 29790 tuples
SMALL_R_EXTRA = 2        # small-r certificates at seeds drawn from the workload seed
CERTIFICATES = ("n32-lower", "n32-upper", "n33", "small-r")
FIXTURE_FILES = ("n32-lower.json", "n32-upper-sample.json", "n33.json", "small-r.json")

WORKLOADS = ("certify", "systems", "scan", "oracle")


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: int} over F_p (or Z for Q files)


def monomials(n, d):
    """All exponent tuples of total degree d in n variables."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return out


def dense_form(rng, n, d, p):
    """Every monomial of degree d, each with a coefficient drawn from
    1..p-1 (p=None: a nonzero integer in -5..5)."""
    if p is None:
        return {m: rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for m in monomials(n, d)}
    return {m: rng.randrange(1, p) for m in monomials(n, d)}


def poly_mul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def _var(i, names):
    return names[i] if names else f"x{i + 1}"


def format_poly(f, names=None):
    """Text in the program's grammar: ``3*x1^2*x2 - 5*x3``."""
    parts = []
    for m in sorted(f, reverse=True):
        c = f[m]
        factors = [str(abs(c))]
        for i, e in enumerate(m):
            if e:
                factors.append(_var(i, names) + (f"^{e}" if e > 1 else ""))
        sign = "-" if c < 0 else "+"
        parts.append((sign, "*".join(factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def ideal_text(n, field, polys, names=None, matrix=None):
    header = f"ring n={n} field={field}" + (f" matrix={matrix}" if matrix else "")
    return "\n".join([header] + [format_poly(f, names) for f in polys]) + "\n"


def write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def maximal_minors(rows, cols):
    """The maximal minors of a generic rows x (rows-1) matrix (rows > cols),
    by the permutation expansion; variable index (r, c) -> r*cols + c."""
    n = rows * cols
    minors = []
    for dropped in range(rows):
        kept = [r for r in range(rows) if r != dropped]
        det = {}
        for perm in permutations(range(cols)):
            inversions = sum(1 for i in range(cols) for j in range(i + 1, cols) if perm[i] > perm[j])
            e = [0] * n
            for r, c in zip(kept, perm):
                e[r * cols + c] += 1
            det[tuple(e)] = -1 if inversions % 2 else 1
        minors.append(det)
    return minors


def matrix_names(rows, cols):
    return [f"x{r + 1}_{c + 1}" for r in range(rows) for c in range(cols)]


# ---------------------------------------------------------------------------
# workloads


def _cli(op_id, argv, phase=0, items=1, **expect):
    return {"id": op_id, "kind": "cli", "argv": argv, "phase": phase, "items": items, "expect": expect}


def certify_ops(rng, workdir, root):
    ops = []
    for name in CERTIFICATES:
        ops.append(_cli(f"certify-{name}", ["certify", name, "--json"], phase=1,
                        check="certify", out=f"cert-{name}.json"))
    extra = rng.sample(range(1, 10_000), SMALL_R_EXTRA)
    for s in extra:
        ops.append(_cli(f"certify-small-r-seed{s}", ["certify", "small-r", "--json", "--seed", str(s)],
                        check="certify", out=f"cert-small-r-{s}.json"))
    # rechecks read the files the certify operations above wrote
    for name in CERTIFICATES:
        ops.append(_cli(f"recheck-{name}", ["recheck", os.path.join(workdir, f"cert-{name}.json")],
                        phase=2, check="recheck", rc=0))
    # the extra seeds change the amount of work, so they stay out of both phases
    for s in extra:
        ops.append(_cli(f"recheck-small-r-seed{s}",
                        ["recheck", os.path.join(workdir, f"cert-small-r-{s}.json")],
                        check="recheck", rc=0))
    for fname in FIXTURE_FILES:
        ops.append(_cli(f"recheck-fixture-{fname[:-5]}",
                        ["recheck", os.path.join(root, "fixtures", "v0.1.0", fname)],
                        phase=2, check="recheck", rc=0))
    # a copy of the n33 fixture with one witness value changed must be refused
    tamper_certificate(os.path.join(root, "fixtures", "v0.1.0", "n33.json"),
                       os.path.join(workdir, "tampered.json"), rng)
    ops.append(_cli("recheck-tampered", ["recheck", os.path.join(workdir, "tampered.json")],
                    phase=2, check="recheck", rc=1))
    return ops


def tamper_certificate(src, dst, rng):
    """Copy a certificate with one integer witness value changed by +1; the
    value is chosen by ``rng`` among every integer witness field."""
    with open(src, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    slots = [
        (v["witness"], k)
        for v in data["subverdicts"]
        if isinstance(v.get("witness"), dict)
        for k, val in sorted(v["witness"].items())
        if isinstance(val, int) and not isinstance(val, bool)
    ]
    witness, key = rng.choice(slots)
    witness[key] += 1
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def systems_ops(rng, workdir):
    fp = f"fp:{GB_PRIME}"
    ops = []

    def regular_file(name, n, degrees, field=fp, p=GB_PRIME):
        polys = [dense_form(rng, n, d, p) for d in degrees]
        return write(workdir, name, ideal_text(n, field, polys))

    # gb codim: phase 1
    for name, n, degrees in (("quad3-n10", 10, (2, 2, 2)), ("quad4-n8", 8, (2, 2, 2, 2)),
                             ("cubic3-n6", 6, (3, 3, 3))):
        path = regular_file(f"{name}.txt", n, degrees)
        ops.append(_cli(f"codim-{name}", ["gb", "codim", "--json", "--in", path], phase=1,
                        check="codim", n=n, degrees=list(degrees), codim=len(degrees), leads=path))
    path = write(workdir, "minors-7x6.txt",
                 ideal_text(42, fp, maximal_minors(7, 6), matrix_names(7, 6), "7x6"))
    ops.append(_cli("codim-minors-7x6", ["gb", "codim", "--json", "--in", path], phase=1,
                    check="codim", n=42, degrees=[6] * 7, codim=2))

    # regseq: phase 2
    for name, n in (("quad3-n6", 6), ("quad3-n8", 8)):
        path = regular_file(f"rs-{name}.txt", n, (2, 2, 2))
        ops.append(_cli(f"regseq-{name}", ["regseq", "--json", "--in", path], phase=2,
                        check="regseq", rc=0, n=n, degrees=[2, 2, 2], codim=3, regular=True,
                        leads=path, sympy=n <= 6))
    for k in range(2):
        n = 8
        g = dense_form(rng, n, 1, GB_PRIME)
        polys = [poly_mul(g, dense_form(rng, n, 1, GB_PRIME), GB_PRIME) for _ in range(3)]
        path = write(workdir, f"rs-planted{k}-n8.txt", ideal_text(n, fp, polys))
        ops.append(_cli(f"regseq-planted{k}-n8", ["regseq", "--json", "--in", path], phase=2,
                        check="regseq", rc=1, n=n, degrees=[2, 2, 2], codim=1, regular=False,
                        sympy=False))
    path = regular_file("rs-quad3-n5-q.txt", 5, (2, 2, 2), field="q", p=None)
    ops.append(_cli("regseq-quad3-n5-q", ["regseq", "--json", "--in", path], phase=2,
                    check="regseq", rc=0, n=5, degrees=[2, 2, 2], codim=3, regular=True,
                    leads=path, sympy=False))
    n = 4
    path = regular_file("rs-pair-n4.txt", n, (3, 3))
    ops.append(_cli("regseq-pair-n4", ["regseq", "--json", "--in", path], phase=2,
                    check="regseq", rc=0, n=n, degrees=[3, 3], codim=2, regular=True,
                    leads=path, sympy=True, gcd_degree=0))
    g = dense_form(rng, n, 2, GB_PRIME)
    polys = [poly_mul(g, dense_form(rng, n, 2, GB_PRIME), GB_PRIME) for _ in range(2)]
    path = write(workdir, "rs-planted-pair-n4.txt", ideal_text(n, fp, polys))
    ops.append(_cli("regseq-planted-pair-n4", ["regseq", "--json", "--in", path], phase=2,
                    check="regseq", rc=1, n=n, degrees=[4, 4], codim=1, regular=False,
                    sympy=True, gcd_degree=2))
    return ops


def scan_ops(rng, workdir):
    # one operation of each kind keeps rounds short, so a run holds several
    ops = []
    # three quadrics in 8 variables over F_61, one combination planted at
    # Gram rank 4 (q3 = l1*l2 + l3*l4 - a*q1 - b*q2), scanned over P^2
    n, p = 8, SCAN_PRIME
    q1, q2 = dense_form(rng, n, 2, p), dense_form(rng, n, 2, p)
    lin = [dense_form(rng, n, 1, p) for _ in range(4)]
    low = poly_mul(lin[0], lin[1], p)
    for m, c in poly_mul(lin[2], lin[3], p).items():
        low[m] = (low.get(m, 0) + c) % p
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    q3 = {m: (low.get(m, 0) - a * q1.get(m, 0) - b * q2.get(m, 0)) % p for m in monomials(n, 2)}
    forms = [{m: c for m, c in q.items() if c} for q in (q1, q2, q3)]
    path = write(workdir, "net-n8.txt", ideal_text(n, f"fp:{p}", forms))
    ops.append(_cli("collective-n8", ["quadric", "collective", "--json", "--in", path, "--p", str(p)],
                    phase=1, items=p * p + p + 1, check="collective", n=n, p=p, forms=_enc(forms)))
    # a diagonal pencil: minrank by formula and by the F_p line scan
    values = rng.sample(range(2, 60), 4)
    b = [rng.choice(values) for _ in range(10)]
    p = MINRANK_PRIME
    ops.append(_cli("minrank-diag", ["quadric", "minrank", "--json", "--diag", ",".join(map(str, b)),
                                     "--p", str(p)],
                    phase=1, items=p + 1, check="minrank", b=b, p=p))
    # the 3x2 minor family under a seeded invertible change of variables
    p = MINOR_SCAN_PRIME
    minors = [{m: c % p for m, c in f.items()} for f in maximal_minors(3, 2)]
    change = _invertible(rng, 6, p)
    forms = [_substitute(f, change, p) for f in minors]
    path = write(workdir, "minors-3x2.txt", ideal_text(6, f"fp:{p}", forms))
    ops.append({"id": "rank-scan-minors-3x2", "kind": "rank_scan", "args": {"path": path, "expect": 4},
                "phase": 2, "items": p ** 3 - 1,
                "expect": {"check": "rank_scan", "rank": 4, "p": p, "forms": _enc(forms),
                           "sample_seed": rng.randrange(2 ** 32)}})
    return ops


def _enc(forms):
    return [[[list(m), c] for m, c in sorted(f.items())] for f in forms]


def _invertible(rng, n, p):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank_mod_p(m, p) == n:
            return m


def rank_mod_p(m, p):
    """Rank of an integer matrix over F_p by row elimination."""
    a = [[v % p for v in row] for row in m]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


def _substitute(f, mat, p):
    """f(M x): each variable x_i becomes sum_j M[i][j] x_j."""
    n = len(mat)
    images = [{tuple(1 if k == j else 0 for k in range(n)): mat[i][j] for j in range(n) if mat[i][j]}
              for i in range(n)]
    out = {}
    for m, c in f.items():
        term = {tuple([0] * n): c}
        for i, e in enumerate(m):
            for _ in range(e):
                term = poly_mul(term, images[i], p)
        for mm, cc in term.items():
            out[mm] = (out.get(mm, 0) + cc) % p
    return {m: c for m, c in out.items() if c}


# the oracle's quadric with code c has coefficient (c // 3^i) % 3 on the i-th monomial
ORACLE_MONOMIALS = monomials(4, 2)


# x1^2 + x2^2 + x3^2 + x4^2 has strength 1, so classifying it builds the
# table of strength <= 1 quadrics; it goes first, so that every seed times the
# same table build in the first call
ORACLE_FIRST = sum(3 ** i for i, m in enumerate(ORACLE_MONOMIALS) if max(m) == 2)


def oracle_ops(rng, workdir):
    # every quadric in 4 variables over F_3, the rest in a seeded order
    codes = [c for c in range(3 ** 10) if c != ORACLE_FIRST]
    rng.shuffle(codes)
    codes.insert(0, ORACLE_FIRST)
    path = write(workdir, "oracle-order.txt", "\n".join(map(str, codes)) + "\n")
    # part 1 is the first call, which builds the table; the items are the
    # forms classified after it, in part 2
    return [{"id": "oracle-f3-n4", "kind": "oracle", "args": {"path": path},
             "phase": 0, "items": 3 ** 10 - 1, "items_part": "2",
             "expect": {"check": "oracle", "path": path}}]


def make_ops(workload, seed, workdir, root):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return certify_ops(rng, workdir, root)
    if workload == "systems":
        return systems_ops(rng, workdir)
    if workload == "scan":
        return scan_ops(rng, workdir)
    if workload == "oracle":
        return oracle_ops(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")
