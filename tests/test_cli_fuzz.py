"""Fuzzing of the ``quadric`` command: on random ``--diag`` lists, small
F_p form files, singular F_p pencils and nets, and small Q pencils, every
operation passes (0), fails a verdict (1) or refuses the invocation (2)
within CASE_SECONDS, and never reports an internal error (3).  The inputs
are written here as text, without the package's own formatter."""

import contextlib
import io
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from formstrength.cli import run

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
       p=st.sampled_from((None,) + PRIMES), as_json=st.booleans())
def test_quadric_on_a_diagonal_exits_zero_one_or_two(operation, diag, p, as_json):
    argv = ["quadric", operation, "--diag", diag]
    if p is not None:
        argv += ["--p", str(p)]
    if as_json:
        argv.append("--json")
    _run(argv)


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
       p=st.sampled_from(("none", "none", "same", "same") + PRIMES), as_json=st.booleans())
def test_quadric_on_a_form_file_exits_zero_one_or_two(tmp_path_factory, operation, case, p, as_json):
    prime, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz-forms.txt"
    path.write_text(text)
    argv = ["quadric", operation, "--in", str(path)]
    if p != "none":
        argv += ["--p", str(prime if p == "same" else p)]
    if as_json:
        argv.append("--json")
    got = _run(argv)
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
@given(text=q_pencils(), p=st.sampled_from((None,) + PRIMES), as_json=st.booleans())
def test_quadric_minrank_on_a_q_pencil_exits_zero_one_or_two(tmp_path_factory, text, p, as_json):
    # without --p the pencil is diagonalized over Q; with it, scanned mod p
    path = tmp_path_factory.getbasetemp() / "fuzz-q-pencil.txt"
    path.write_text(text)
    argv = ["quadric", "minrank", "--in", str(path)]
    if p is not None:
        argv += ["--p", str(p)]
    if as_json:
        argv.append("--json")
    _run(argv)


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
