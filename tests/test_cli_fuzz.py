"""Fuzzing of the ``quadric`` command: on random ``--diag`` lists and small
F_p form files, every operation passes (0), fails a verdict (1) or refuses
the invocation (2) within CASE_SECONDS, and never reports an internal error
(3).  The inputs are written here as text, without the package's own
formatter."""

import contextlib
import io
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from formstrength.cli import run

PRIMES = (3, 5, 7, 11, 31)
OPERATIONS = ("rank", "strength", "minrank", "collective")
# the largest case, a collective scan of three forms in four variables over
# F_31, visits 993 points; a case takes well under 0.1 s on a 2-core machine
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
