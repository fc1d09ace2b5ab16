"""Fuzzing of the ``quadric``, ``gb basis|codim|dim|intersect|quotient``,
``regseq``, ``minors``, ``certify`` and ``recheck`` commands: on random
``--diag`` lists, small F_p form files, singular F_p pencils and nets,
small Q pencils, small ideal files and pairs of them, systems of two or
three forms, ``--matrix`` shapes, certificates built with any seed and a
small ``--p`` and golden certificates with one field changed, every
operation passes (0), fails a verdict (1) or refuses the invocation (2)
within CASE_SECONDS, and never reports an internal error (3).  The inputs
are written here as text, without the package's own formatter."""

import contextlib
import io
import json
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from formstrength.certificates import BUILDERS, CLAIMS
from formstrength.cli import run
from formstrength.groebner import GroebnerBasis, exact_divide, groebner_basis, normal_form
from formstrength.orders import MAX_EXPONENT, order_from_name
from formstrength.parse import load_ideal_text, parse_poly

from conftest import FIXTURES

PRIMES = (3, 5, 7, 11, 31)
OPERATIONS = ("rank", "strength", "minrank", "collective")
# the largest case, a collective scan of three singular forms in four
# variables over F_101, visits 10303 points in about 0.02 s on a 2-core
# machine (0.13 s if every point were eliminated)
CASE_SECONDS = 2.0

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    elapsed = time.monotonic() - start
    assert rc in (0, 1, 2), (argv, rc, err.getvalue())
    assert elapsed < CASE_SECONDS, (argv, elapsed)
    return rc, out.getvalue()


@st.composite
def diagonals(draw):
    """Up to eight integers, now and then with one malformed token."""
    tokens = draw(st.lists(st.integers(-40, 40).map(str), max_size=8))
    bad = draw(st.sampled_from([None] * 6 + ["", " 3", "x", "1/2", "2.5"]))
    if bad is not None:
        tokens.insert(draw(st.integers(0, len(tokens))), bad)
    return ",".join(tokens)


@SETTINGS
@given(operation=st.sampled_from(OPERATIONS), diag=diagonals(),
       p=st.sampled_from((None, 0) + PRIMES), as_json=st.booleans())
@example(operation="rank", diag="1,2", p=0, as_json=False)
def test_quadric_on_a_diagonal_exits_zero_one_or_two(operation, diag, p, as_json):
    # --p 0 names no field, so it is refused (2), never read as "no --p"
    argv = ["quadric", operation, "--diag", diag]
    if p is not None:
        argv += ["--p", str(p)]
    if as_json:
        argv.append("--json")
    rc, _ = _run(argv)
    if p == 0:
        assert rc == 2, argv


@st.composite
def form_files(draw):
    """(prime of the header, file text): up to three forms in one to four
    variables over F_p, each a sum of random terms of degree 2; in one file
    of four, terms of degree 1 or 3 and a variable past the header's n may
    occur too."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 4))
    malformed = draw(st.integers(0, 3)) == 0
    degrees = [2] * 8 + [1, 3] if malformed else [2]
    variables = list(range(1, n + 1)) * 4 + ([n + 1] if malformed else [])
    lines = [f"ring n={n} field=fp:{p}"]
    for _ in range(draw(st.sampled_from([0, 1, 2, 2, 2, 3, 3]))):
        terms = []
        for _ in range(draw(st.integers(0, 5))):
            degree = draw(st.sampled_from(degrees))
            factors = [f"x{draw(st.sampled_from(variables))}" for _ in range(degree)]
            terms.append("*".join([str(draw(st.integers(0, p - 1)))] + factors))
        lines.append(" + ".join(terms) or "0")
    return p, "\n".join(lines) + "\n"


@SETTINGS
@given(operation=st.sampled_from(OPERATIONS), case=form_files(),
       p=st.sampled_from(("none", "none", "same", "same", 0) + PRIMES), as_json=st.booleans())
@example(operation="rank", case=(7, "ring n=2 field=fp:7\nx1^2 + x2^2\n"), p=0, as_json=False)
def test_quadric_on_a_form_file_exits_zero_one_or_two(tmp_path_factory, operation, case, p, as_json):
    # --p 0 differs from the file's prime, so it is refused (2)
    prime, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz-forms.txt"
    path.write_text(text)
    argv = ["quadric", operation, "--in", str(path)]
    if p != "none":
        argv += ["--p", str(prime if p == "same" else p)]
    if as_json:
        argv.append("--json")
    got = _run(argv)
    if p == 0:
        assert got[0] == 2, argv
    if p == "same":
        # an --p equal to the file's prime changes nothing
        assert _run(argv[:4] + argv[6:]) == got


@st.composite
def q_pencils(draw):
    """Two forms in one to four variables over Q, each a sum of up to five
    random degree-2 terms with coefficients in +-1..3 and +-1/2."""
    n = draw(st.integers(1, 4))
    lines = [f"ring n={n} field=q"]
    for _ in range(2):
        text = ""
        for _ in range(draw(st.integers(0, 5))):
            i, j = sorted(draw(st.integers(1, n)) for _ in range(2))
            factors = f"x{i}^2" if i == j else f"x{i}*x{j}"
            sign = draw(st.sampled_from(("+", "-")))
            text += f" {sign} {draw(st.sampled_from(('1', '2', '3', '1/2')))}*{factors}"
        lines.append(text.removeprefix(" +").lstrip() or "0")
    return "\n".join(lines) + "\n"


@SETTINGS
@given(text=q_pencils(), p=st.sampled_from((None, 0) + PRIMES), as_json=st.booleans())
@example(text="ring n=2 field=q\nx1^2 + x2^2\nx1^2 - x2^2\n", p=0, as_json=False)
def test_quadric_minrank_on_a_q_pencil_exits_zero_one_or_two(tmp_path_factory, text, p, as_json):
    # without --p the pencil is diagonalized over Q; with it, scanned mod p,
    # and --p 0, which names no field, is refused (2)
    path = tmp_path_factory.getbasetemp() / "fuzz-q-pencil.txt"
    path.write_text(text)
    argv = ["quadric", "minrank", "--in", str(path)]
    if p is not None:
        argv += ["--p", str(p)]
    if as_json:
        argv.append("--json")
    rc, _ = _run(argv)
    if p == 0:
        assert rc == 2, argv


@st.composite
def singular_form_files(draw):
    """(prime, header, form lines): two or three forms in two to four
    variables over F_31 or F_101 that share a kernel vector.  Each is a
    random symmetric Gram matrix with its last row and column 0, carried to
    T^t G T by one change of variables T = L*U (L and U unitriangular, so
    invertible); every line of a scan, p > n + 1 points, is then singular."""
    p = draw(st.sampled_from((31, 101)))
    n = draw(st.integers(2, 4))
    entry = st.integers(0, p - 1)
    low = [[draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    up = [[draw(entry) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    t = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    lines = []
    for _ in range(draw(st.integers(2, 3))):
        g = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            for j in range(i, n - 1):
                g[i][j] = g[j][i] = draw(entry)
        h = [[sum(t[k][i] * g[k][l] * t[l][j] for k in range(n) for l in range(n)) % p for j in range(n)]
             for i in range(n)]
        terms = [f"{h[i][i]}*x{i + 1}^2" for i in range(n) if h[i][i]]
        terms += [f"{2 * h[i][j] % p}*x{i + 1}*x{j + 1}" for i in range(n) for j in range(i + 1, n) if h[i][j]]
        lines.append(" + ".join(terms) or "0")
    return p, f"ring n={n} field=fp:{p}", lines


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(operation=st.sampled_from(("collective", "minrank")), case=singular_form_files(),
       as_json=st.booleans())
def test_quadric_scans_of_singular_pencils_and_nets_exit_zero_one_or_two(tmp_path_factory, operation, case,
                                                                        as_json):
    # minrank is given the first two forms; a --p equal to the file's
    # prime changes nothing
    prime, header, lines = case
    if operation == "minrank":
        lines = lines[:2]
    path = tmp_path_factory.getbasetemp() / "fuzz-singular.txt"
    path.write_text("\n".join([header] + lines) + "\n")
    argv = ["quadric", operation, "--in", str(path)] + (["--json"] if as_json else [])
    got = _run(argv)
    assert _run(argv + ["--p", str(prime)]) == got


@st.composite
def ideal_files(draw):
    """(raised, file text): up to three forms in one to three variables
    over F_7 or F_32003, each a sum of up to four terms of one degree at
    most 4 (``gb codim`` refuses a generator that is not homogeneous).  In
    one file of four with a form, one term is raised past MAX_EXPONENT, by
    one factor or by two that are each within it."""
    p = draw(st.sampled_from((7, 32003)))
    n = draw(st.integers(1, 3))
    variable = st.integers(1, n).map(lambda i: f"x{i}")
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(0, 4))
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            factors = [draw(variable) for _ in range(degree)]
            terms.append("*".join([str(draw(st.integers(1, p - 1)))] + factors))
        gens.append(terms)
    raised = bool(gens) and draw(st.integers(0, 3)) == 0
    if raised:
        terms = draw(st.sampled_from(gens))
        k = draw(st.integers(0, len(terms) - 1))
        x = draw(variable)
        terms[k] += draw(st.sampled_from([f"*{x}^{draw(st.integers(MAX_EXPONENT + 1, 10**6))}",
                                          f"*{x}^{MAX_EXPONENT}*{x}"]))
    lines = [f"ring n={n} field=fp:{p}"] + [" + ".join(terms) for terms in gens]
    return raised, "\n".join(lines) + "\n"


@SETTINGS
@given(operation=st.sampled_from(("codim", "dim")), case=ideal_files(), as_json=st.booleans())
def test_gb_codim_and_dim_on_an_ideal_file_exit_zero_or_two(tmp_path_factory, operation, case, as_json):
    # an exponent past the packed-key limit is bad input (2); every other
    # file is decided (0)
    raised, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz-ideal.txt"
    path.write_text(text)
    argv = ["gb", operation, "--in", str(path)] + (["--json"] if as_json else [])
    rc, _ = _run(argv)
    assert rc == (2 if raised else 0), (text, rc)


@SETTINGS
@given(order=st.sampled_from(("degrevlex", "lex")), case=ideal_files(), as_json=st.booleans())
def test_gb_basis_on_an_ideal_file_exits_zero_or_two(tmp_path_factory, order, case, as_json):
    # an exponent past the packed-key limit is bad input (2); every other
    # file gets a basis (0): each input generator reduces to zero modulo the
    # printed basis, read in the same order, and each printed element
    # modulo the degrevlex basis of the inputs
    raised, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz-ideal.txt"
    path.write_text(text)
    argv = ["gb", "basis", "--order", order, "--in", str(path)] + (["--json"] if as_json else [])
    rc, out = _run(argv)
    assert rc == (2 if raised else 0), (argv, text, rc)
    if raised:
        return
    ring, gens = load_ideal_text(text)
    printed = json.loads(out)["result"]["basis"] if as_json else load_ideal_text(out, ring)[1]
    printed = [parse_poly(g, ring) if as_json else g for g in printed]
    basis = GroebnerBasis(ring, order_from_name(order), printed)
    for g in gens:
        assert not normal_form(g, basis).terms, (argv, text, str(g))
    reference = groebner_basis(gens, ring=ring)
    for g in printed:
        assert not normal_form(g, reference).terms, (argv, text, str(g))


@st.composite
def _polynomials(draw, n):
    """Text of 0 or 1 (one draw in six), or else a sum of one to three terms
    of degree at most 3 in x1..xn, homogeneous or not.  The coefficients are
    1 and 1/2, and no sum of up to three of them is 0 over Q or F_7, so only
    the text "0" is the zero polynomial.  Kept rare, 0 and 1 still reach the
    zero and unit ideals, and most pairs of ideals are proper."""
    if not draw(st.integers(0, 5)):
        return draw(st.sampled_from(("0", "1")))
    factors = st.lists(st.integers(1, n).map(lambda i: f"*x{i}"), max_size=3).map("".join)
    terms = st.lists(st.tuples(st.sampled_from(("1", "1/2")), factors).map("".join),
                     min_size=1, max_size=3)
    return " + ".join(draw(terms))


@st.composite
def _generators(draw, n):
    """One to three lines from ``_polynomials``, or none (the zero ideal)
    one draw in six."""
    if not draw(st.integers(0, 5)):
        return []
    return draw(st.lists(_polynomials(n), min_size=1, max_size=3))


@st.composite
def ideal_pairs(draw, conflict=False):
    """(n, first file, second file): ideals in one to three variables over
    F_7 or Q, each of up to three generators from ``_generators``, so the
    empty, zero and unit ideals and inhomogeneous ones occur.  Where
    ``conflict``, the second file's header names another number of
    variables or another field."""
    n = draw(st.integers(1, 3))
    field = draw(st.sampled_from(("fp:7", "q")))
    header = f"ring n={n} field={field}"
    other = header
    if conflict:
        other = draw(st.sampled_from((f"ring n={n % 3 + 1} field={field}",
                                      f"ring n={n} field={'q' if field != 'q' else 'fp:7'}")))
    first, second = ([head] + draw(_generators(n)) for head in (header, other))
    return n, "\n".join(first) + "\n", "\n".join(second) + "\n"


def _gb_pair_argv(tmp_path_factory, operation, first, second, as_json):
    """The ``gb`` command line on the two files, without --f."""
    paths = [tmp_path_factory.getbasetemp() / f"fuzz-gb-{k}.txt" for k in (1, 2)]
    for path, text in zip(paths, (first, second)):
        path.write_text(text)
    argv = ["gb", operation, "--in", str(paths[0])] + (["--json"] if as_json else [])
    return argv + (["--in2", str(paths[1])] if operation == "intersect" else [])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(operation=st.sampled_from(("intersect", "quotient")), case=ideal_pairs(), data=st.data(),
       as_json=st.booleans())
def test_gb_intersect_and_quotient_on_small_ideals_exit_zero(tmp_path_factory, operation, case, data, as_json):
    # with one ring for both files and a nonzero --f of that ring, every
    # pair is decided (0), and then each intersection generator lies in
    # both ideals and each quotient generator times f in the first
    n, first, second = case
    argv = _gb_pair_argv(tmp_path_factory, operation, first, second, as_json)
    if operation == "quotient":
        divisor = data.draw(_polynomials(n).filter(lambda text: text != "0"))
        argv += ["--f", divisor]
    rc, out = _run(argv)
    assert rc == 0, (argv, first, second, rc)
    ring, gens = load_ideal_text(first)
    printed = json.loads(out)["result"]["generators"] if as_json else load_ideal_text(out, ring)[1]
    printed = [parse_poly(g, ring) if as_json else g for g in printed]
    if operation == "intersect":
        ideals = [gens, load_ideal_text(second, ring)[1]]
    else:
        ideals, printed = [gens], [g * parse_poly(divisor, ring) for g in printed]
    for ideal in ideals:
        basis = groebner_basis(ideal, ring=ring)
        for g in printed:
            assert not normal_form(g, basis).terms, (argv, first, second, str(g))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(operation=st.sampled_from(("intersect", "quotient")), case=ideal_pairs(conflict=True), data=st.data(),
       as_json=st.booleans())
def test_gb_intersect_and_quotient_refuse_a_ring_conflict_or_a_bad_divisor(tmp_path_factory, operation, case,
                                                                          data, as_json):
    # intersect is refused (2) where the second file's ring conflicts with
    # the first; quotient where --f is missing, 0 or names a variable past
    # the ring, alone or in a sum
    n, first, second = case
    argv = _gb_pair_argv(tmp_path_factory, operation, first, second, as_json)
    if operation == "quotient":
        past = f"x{n + 1}"
        divisor = data.draw(st.sampled_from((None, "0", past)) | _polynomials(n).map(lambda text: f"{text} + {past}"))
        argv += [] if divisor is None else ["--f", divisor]
    rc, _ = _run(argv)
    assert rc == 2, (argv, first, second, rc)


@st.composite
def _form_terms(draw, n, degree):
    """The terms of a form of the degree in x1..xn: one to three, with the
    coefficients 1, 2, 3 and 1/2, so over F_7 they may cancel to 0."""
    monomial = st.lists(st.integers(1, n).map(lambda i: f"x{i}"), min_size=degree, max_size=degree)
    term = st.tuples(st.sampled_from(("1", "2", "3", "1/2")), monomial.map("*".join)).map("*".join)
    return draw(st.lists(term, min_size=1, max_size=3))


@st.composite
def form_systems(draw):
    """(system file, planted factor or None): two or three forms of degree
    1 to 3 in one to three variables over Q or F_7; half the time the first
    two are multiplied, term by term in the text, by a common form of degree
    1 or 2 (the planted factor)."""
    n = draw(st.integers(1, 3))
    forms = [draw(_form_terms(n, draw(st.integers(1, 3)))) for _ in range(draw(st.integers(2, 3)))]
    factor = draw(_form_terms(n, draw(st.integers(1, 2)))) if draw(st.booleans()) else None
    if factor:
        forms[:2] = [[f"{c}*{t}" for c in factor for t in form] for form in forms[:2]]
    lines = [f"ring n={n} field={draw(st.sampled_from(('q', 'fp:7')))}"] + [" + ".join(f) for f in forms]
    return "\n".join(lines) + "\n", factor and " + ".join(factor)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=form_systems(), as_json=st.booleans())
def test_regseq_on_two_or_three_forms_exits_zero_one_or_two(tmp_path_factory, case, as_json):
    # a system with a form that cancels to 0 over F_7 is refused (2), any
    # other is decided (0 or 1); for two forms the gcd route agrees with the
    # codimension route and the printed gcd divides both forms (and has the
    # planted factor as a divisor)
    text, factor = case
    path = tmp_path_factory.getbasetemp() / "fuzz-regseq.txt"
    path.write_text(text)
    rc, out = _run(["regseq", "--in", str(path)] + (["--json"] if as_json else []))
    ring, forms = load_ideal_text(text)
    assert (rc == 2) == any(not form.terms for form in forms), (text, rc)
    if rc == 2 or len(forms) != 2:
        return
    if as_json:
        report = json.loads(out)["result"]["gcd_report"]
        agree, gcd = report["agree"], report["gcd"]
    else:
        codim_line, gcd_line = out.splitlines()[1:]
        gcd = gcd_line.removeprefix("  gcd: ")
        agree = parse_poly(gcd, ring).is_constant() == codim_line.endswith("codim test True")
    assert agree, (text, out)
    gcd = parse_poly(gcd, ring)
    for form in forms:
        exact_divide(form, gcd)
    if factor:
        exact_divide(gcd, parse_poly(factor, ring))


@st.composite
def matrix_shapes(draw):
    """(valid, --matrix text): R x C with R, C at most 7, half the time
    R = C + 1, so at most 7 x 6 (8 x 7 takes about 5 s), or a malformed
    shape."""
    cols = draw(st.integers(0, 7))
    rows = cols + 1 if draw(st.booleans()) else draw(st.integers(0, 7))
    if rows > 7:
        rows = 7
    bad = draw(st.sampled_from([None] * 6 + ["3x", "x2", "axb", "3x2x1", "", "3*2"]))
    if bad is not None:
        return False, bad
    return rows == cols + 1 and cols >= 1, f"{rows}x{cols}"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(shape=matrix_shapes(), field=st.sampled_from(("q", "fp:7", "fp:2", "fp:4", "fp:0", "z")),
       as_json=st.booleans())
def test_minors_on_a_matrix_shape_exits_zero_or_two(shape, field, as_json):
    # an (n + 1) x n shape over q or a prime field is built (0); any other
    # shape or field is refused (2)
    valid, text = shape
    rc, _ = _run(["minors", "--matrix", text, "--field", field] + (["--json"] if as_json else []))
    assert rc == (0 if valid and field in ("q", "fp:7", "fp:2") else 2), (text, field, rc)


FIXTURE_FILES = sorted(FIXTURES.glob("*.json"))
RECHECK_PRIMES = (0, -3, 2, 3, 4, 7, 11, 101, 10**30)


@st.composite
def mutated_certificates(draw):
    """(field, certificate): a golden certificate with one field changed.
    A prime of the environment becomes one of RECHECK_PRIMES; the seed
    another integer; the claim another certificate's claim, an unknown
    string or a non-string; the version another value; one sub-verdict's
    ``passed`` flips or that sub-verdict is dropped; or the environment
    becomes a non-object."""
    doc = json.loads(draw(st.sampled_from(FIXTURE_FILES)).read_text())
    env, subverdicts = doc["environment"], doc["subverdicts"]
    field = draw(st.sampled_from(("prime", "seed", "claim", "version", "passed", "dropped", "environment")))
    k = draw(st.integers(0, len(subverdicts) - 1))
    if field == "prime":
        env["primes"][draw(st.integers(0, len(env["primes"]) - 1))] = draw(st.sampled_from(RECHECK_PRIMES))
    elif field == "seed":
        env["seed"] = draw(st.integers(-5, 10**6))
    elif field == "claim":
        others = [c for c in CLAIMS.values() if c != doc["claim"]]
        doc["claim"] = draw(st.sampled_from(others + ["N(4,2) = 3", 3, None, [doc["claim"]]]))
    elif field == "version":
        env["version"] = draw(st.sampled_from(("0.0.9", "0.2.0", "", 1, None)))
    elif field == "passed":
        subverdicts[k]["passed"] = not subverdicts[k]["passed"]
    elif field == "dropped":
        del subverdicts[k]
    else:
        doc["environment"] = draw(st.sampled_from((None, [], "fp:7", 7)))
    return field, doc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=mutated_certificates(), as_json=st.booleans())
def test_recheck_of_a_mutated_certificate_exits_zero_one_or_two(tmp_path_factory, case, as_json):
    # a changed version or sub-verdict fails the recheck (1), and an
    # environment that is not an object is refused (2); another claim fails
    # (1) or is refused where its builder refuses the recorded primes (2);
    # a changed prime or seed may rebuild the same certificate (0), another
    # one (1), or be refused (2)
    field, doc = case
    path = tmp_path_factory.getbasetemp() / "fuzz-certificate.json"
    path.write_text(json.dumps(doc))
    rc, _ = _run(["recheck", str(path)] + (["--json"] if as_json else []))
    if field in ("version", "passed", "dropped"):
        assert rc == 1, (field, rc)
    elif field == "claim":
        assert rc in (1, 2)
    elif field == "environment":
        assert rc == 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(BUILDERS)), seed=st.integers(-5, 10**6),
       p=st.sampled_from((None, 0, 1, 2, 4) + PRIMES + (13, 101)), as_json=st.booleans())
@example(name="n32-upper", seed=0, p=3, as_json=True)
def test_certify_with_any_seed_and_a_small_p_exits_zero_one_or_two(tmp_path_factory, name, seed, p, as_json):
    # 0, 1 and 4 are no field and are refused (2), as is 2 where the
    # certificate needs quadratic forms; a certificate printed with --json,
    # passed (0) or failed (1), is rebuilt byte for byte by recheck
    argv = ["certify", name, "--seed", str(seed)] + ([] if p is None else ["--p", str(p)])
    rc, out = _run(argv + (["--json"] if as_json else []))
    if p in (0, 1, 4):
        assert rc == 2, argv
    if as_json and rc != 2:
        path = tmp_path_factory.getbasetemp() / "fuzz-certify.json"
        path.write_text(out)
        assert _run(["recheck", str(path)])[0] == 0, argv
