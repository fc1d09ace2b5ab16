import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import pytest

import formstrength.cli as cli
import formstrength.groebner as groebner
import formstrength.minors as minors
import formstrength.polygcd as polygcd
import formstrength.quadratic as quadratic
from formstrength.cli import run
from formstrength.domains import GF, QQ, domain_from_name
from formstrength.orders import DEGREVLEX, LEX, MAX_EXPONENT
from formstrength.parse import _MAX_VARIABLES, dump_ideal_text, format_poly, load_ideal_text, parse_poly
from formstrength.poly import Poly, Ring, mono_divides

from conftest import FIXTURES, dense_form

# the plain reader itself, which _plain_reads wraps around every test's run
READ_PLAIN = cli._read_plain


@pytest.fixture(autouse=True)
def _plain_reads(monkeypatch):
    """Every command line a test here runs is read plainly when argparse
    accepts it, to argparse's namespace, and left to argparse otherwise."""
    lines = []

    def recorded(argv):
        plain = READ_PLAIN(argv)
        lines.append((list(argv), plain))
        return plain

    monkeypatch.setattr(cli, "_read_plain", recorded)
    yield
    for argv, plain in lines:
        outcome = _parse(cli.build_parser(), argv)[2]
        assert (None if plain is None else vars(plain)) == (outcome if isinstance(outcome, dict) else None), argv


def _capture(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_regseq_regular_exit_zero(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("ring n=3 field=q\nx1\nx2\nx3\n")
    assert run(["regseq", "--in", str(path)]) == 0
    out, _ = _capture(capsys)
    assert "regular sequence" in out


def test_regseq_non_regular_exit_one(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("ring n=2 field=q\nx1\nx1*x2\n")
    assert run(["regseq", "--in", str(path)]) == 1
    out, _ = _capture(capsys)
    assert "NOT a regular sequence" in out


def test_regseq_ring_flag(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("x1\nx2\n")
    assert run(["regseq", "--in", str(path), "--ring", "n=2 field=q"]) == 0


def test_quadric_ring_flag_reads_a_headerless_polynomial_file(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text("x1^2 + x2^2\n")
    assert run(["quadric", "rank", "--in", str(path), "--ring", "n=2 field=q"]) == 0
    out, _ = _capture(capsys)
    assert out == "rank: 2\n"


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(["regseq", "--bogus"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["regseq"]) == 2  # missing --in
    _capture(capsys)


def test_quadric_minrank_diag(capsys):
    assert run(["quadric", "minrank", "--diag", "1,1,2,3", "--p", "101"]) == 0
    out, _ = _capture(capsys)
    assert "minrank: 2" in out
    assert "agrees: True" in out


def test_quadric_minrank_json_deterministic(capsys):
    assert run(["quadric", "minrank", "--diag", "1,1,2,3", "--p", "101", "--json"]) == 0
    first, _ = _capture(capsys)
    assert run(["quadric", "minrank", "--diag", "1,1,2,3", "--p", "101", "--json"]) == 0
    second, _ = _capture(capsys)
    assert first == second
    doc = json.loads(first)
    assert doc["result"]["minrank"] == 2
    assert doc["environment"]["seed"] == 0  # seed recorded even when unused


def test_quadric_minrank_scan_witness_is_the_first_least_rank_point(capsys):
    # over F_7, diag(1, 1, 1) and diag(1, 2, 7): the combinations (1, 3),
    # (1, 6) and (0, 1) all have rank 2.  The scan visits (1, t) for
    # t = 0..6 before (0, 1), so its witness is (1, 3)
    assert run(["quadric", "minrank", "--diag", "1,2,7", "--p", "7", "--json"]) == 0
    out, _ = _capture(capsys)
    scan = json.loads(out)["result"]["scan"]
    assert (scan["value"], scan["witness"]) == (2, ["1", "3"])
    assert run(["quadric", "rank", "--diag", "1,2,7", "--p", "7", "--json"]) == 0
    out, _ = _capture(capsys)
    assert json.loads(out)["result"]["rank"] == 2


@pytest.mark.parametrize("operation", ["rank", "strength", "minrank"])
@pytest.mark.parametrize("diag", ["1,,2", ",", ",,"])
def test_a_diag_with_an_empty_entry_is_refused(operation, diag, capsys):
    assert run(["quadric", operation, "--diag", diag]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "--diag" in err


PENCIL = "x1^2 + x2^2\nx1^2 + 2*x1*x2\n"  # t*f1 + f2 has a double root: no diagonal form


def test_quadric_minrank_of_a_q_pencil_scans_mod_p(tmp_path, capsys):
    over_q, over_fp = tmp_path / "q.txt", tmp_path / "fp.txt"
    over_q.write_text("ring n=2 field=q\n" + PENCIL)
    over_fp.write_text("ring n=2 field=fp:101\n" + PENCIL)
    for extra in ([], ["--json"]):
        assert run(["quadric", "minrank", "--in", str(over_fp)] + extra) == 0
        expected, _ = _capture(capsys)
        assert run(["quadric", "minrank", "--in", str(over_q), "--p", "101"] + extra) == 0
        out, _ = _capture(capsys)
        assert out == expected
    assert json.loads(out)["result"]["method"] == "finite-field-scan"


def test_quadric_minrank_of_a_q_pencil_without_p_is_refused(tmp_path, capsys):
    path = tmp_path / "q.txt"
    path.write_text("ring n=2 field=q\n" + PENCIL)
    assert run(["quadric", "minrank", "--in", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "does not diagonalize over q; supply --p" in err


def test_rational_root_search_above_its_bound_exits_two(tmp_path, capsys):
    path = tmp_path / "q.txt"
    path.write_text("ring n=2 field=q\n1234567891*x1^2 + 2345678911*x2^2\n"
                    "3456789101*x1^2 + 4567891013*x2^2 + 2*x1*x2\n")
    start = time.monotonic()
    assert run(["quadric", "minrank", "--in", str(path)]) == 2
    assert time.monotonic() - start < 1.0
    out, err = _capture(capsys)
    assert out == ""
    assert str(quadratic.ROOT_SEARCH_LIMIT) in err and "--p" in err


def test_quadric_rank_and_collective(tmp_path, capsys):
    path = tmp_path / "forms.txt"
    path.write_text("ring n=6 field=fp:5 matrix=3x2\n"
                    "x2_1*x3_2 - x3_1*x2_2\n"
                    "x1_1*x3_2 - x3_1*x1_2\n"
                    "x1_1*x2_2 - x2_1*x1_2\n")
    assert run(["quadric", "collective", "--in", str(path), "--json"]) == 0
    out, _ = _capture(capsys)
    assert json.loads(out)["result"]["collective_strength"] == 1

    gram = tmp_path / "gram.txt"
    gram.write_text("0 1/2 0\n1/2 0 0\n0 0 -1\n")
    assert run(["quadric", "rank", "--in", str(gram)]) == 0
    out, _ = _capture(capsys)
    assert "rank: 3" in out


def test_minors_export_feeds_gb(tmp_path, capsys):
    assert run(["minors", "--matrix", "4x3", "--field", "fp:7"]) == 0
    out, _ = _capture(capsys)
    exported = tmp_path / "minors.txt"
    exported.write_text(out)
    assert run(["gb", "codim", "--in", str(exported)]) == 0
    out, _ = _capture(capsys)
    assert out.strip() == "2"


def _leibniz_det(grid, ring):
    """The determinant as a sum over permutations, independent of the
    package's Laplace expansion."""
    total = ring.zero()
    for perm in permutations(range(len(grid))):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
        term = ring.one()
        for row, col in enumerate(perm):
            term = term * grid[row][col]
        total = total + (-term if inversions % 2 else term)
    return total


@pytest.mark.parametrize("field", ["q", "fp:7"])
@pytest.mark.parametrize("rows, cols", [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)])
def test_minors_json_fields(capsys, rows, cols, field):
    assert run(["minors", "--matrix", f"{rows}x{cols}", "--field", field, "--json"]) == 0
    result = json.loads(_capture(capsys)[0])["result"]
    assert result["matrix"] == f"{rows}x{cols}"
    assert result["column_multidegrees"] == [[1] * cols] * rows
    assert result["strength_bounds"] == [None if cols == 1 else cols - 1] * rows
    ring = Ring.matrix(rows, cols, domain_from_name(field))
    entries = [[ring.var(ring.entry_index(i, j)) for j in range(1, cols + 1)] for i in range(1, rows + 1)]
    expected = [format_poly(_leibniz_det(entries[:i] + entries[i + 1:], ring)) for i in range(rows)]
    assert result["minors"] == expected


def test_gb_operations(tmp_path, capsys):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("ring n=3 field=q\nx1*x2\n")
    other = tmp_path / "other.txt"
    other.write_text("ring n=3 field=q\nx1*x3\n")

    assert run(["gb", "basis", "--in", str(ideal)]) == 0
    out, _ = _capture(capsys)
    assert "x1*x2" in out

    assert run(["gb", "dim", "--in", str(ideal)]) == 0
    out, _ = _capture(capsys)
    assert out.strip() == "2"

    assert run(["gb", "intersect", "--in", str(ideal), "--in2", str(other)]) == 0
    out, _ = _capture(capsys)
    assert "x1*x2*x3" in out.replace(" ", "")

    assert run(["gb", "quotient", "--in", str(ideal), "--f", "x2"]) == 0
    out, _ = _capture(capsys)
    assert out.splitlines()[-1].strip() == "x1"

    assert run(["gb", "quotient", "--in", str(ideal)]) == 2  # missing --f
    _capture(capsys)


@pytest.mark.parametrize("field, first, second, divisor, meet, colon", [
    ("q", "2", "5", "3", "1", "1"),
    ("fp:7", "3", "0", "2", None, "1"),
])
def test_gb_intersect_and_quotient_in_no_variables(tmp_path, capsys, field, first, second, divisor, meet, colon):
    # the elimination ring is t alone: a key of one slot under the weight
    _check_intersect_and_quotient(tmp_path, capsys, f"ring n=0 field={field}", first, second, divisor, meet, colon)


@pytest.mark.parametrize("field, first, second, divisor, meet, colon", [
    ("q", "x1^2 - x1", "x1^3 + 2*x1^2 + x1", "x1", "x1^4 + x1^3 - x1^2 - x1", "x1 - 1"),
    ("q", "x1^3 + 2*x1^2 + x1", "x1^2 - x1", "x1 + 1", "x1^4 + x1^3 - x1^2 - x1", "x1^2 + x1"),
    ("fp:32003", "x1^6 + x1^2", "x1^4", "x1^3", "x1^8 + x1^4", "x1^4 + 1"),
])
def test_gb_intersect_and_quotient_in_one_variable(tmp_path, capsys, field, first, second, divisor, meet, colon):
    # the elimination ring is t, x1: t's weight sits above any degree of x1
    _check_intersect_and_quotient(tmp_path, capsys, f"ring n=1 field={field}", first, second, divisor, meet, colon)


def _check_intersect_and_quotient(tmp_path, capsys, header, first, second, divisor, meet, colon):
    one, two = tmp_path / "first.txt", tmp_path / "second.txt"
    one.write_text(f"{header}\n{first}\n")
    two.write_text(f"{header}\n{second}\n")
    assert run(["gb", "intersect", "--in", str(one), "--in2", str(two)]) == 0
    out, _ = _capture(capsys)
    # the zero ideal (an empty file) meets any ideal in zero
    assert out == f"{header}\n" + (f"{meet}\n" if meet else "")
    assert run(["gb", "quotient", "--in", str(one), "--f", divisor]) == 0
    out, _ = _capture(capsys)
    assert out == f"{header}\n{colon}\n"


def test_gb_codim_of_one_linear_form_in_many_variables(tmp_path, capsys):
    path = tmp_path / "line.txt"
    path.write_text("ring n=50000 field=q\nx1 + x2\n")
    start = time.perf_counter()
    assert run(["gb", "codim", "--in", str(path)]) == 0
    assert time.perf_counter() - start < 2.0
    out, _ = _capture(capsys)
    assert out.strip() == "1"


def test_gb_codim_json_of_the_7x6_maximal_minors_never_builds_the_reduced_basis(tmp_path, capsys, monkeypatch):
    # the codimension reads only the leads of the packed minimal basis
    def refused(*args):
        raise AssertionError("the reduced elements were built")

    monkeypatch.setattr(groebner, "_interreduced", refused)
    matrix = minors.GenericMatrix(7, 6, GF(32003))
    path = tmp_path / "minors.txt"
    path.write_text(dump_ideal_text(matrix.ring, minors.maximal_minors(matrix)))
    assert run(["gb", "codim", "--json", "--in", str(path)]) == 0
    out, err = _capture(capsys)
    assert json.loads(out)["result"] == {"codim": 2} and err == ""


def test_regseq_json_of_the_7x6_maximal_minors_finds_a_zero_divisor_within_a_minute(tmp_path, capsys):
    # the minors generate an ideal of codimension 2, so the third is a zero
    # divisor modulo the first two; the direct route finds it from the
    # Hilbert numerator of one degrevlex basis of all seven (the command
    # takes about 0.3 s on a 2-core machine with Python 3.11), where its
    # ideal quotients ran past 120 s and its bases of prefixes about 5 s
    matrix = minors.GenericMatrix(7, 6, GF(32003))
    path = tmp_path / "minors.txt"
    path.write_text(dump_ideal_text(matrix.ring, minors.maximal_minors(matrix)))
    start = time.monotonic()
    assert run(["regseq", "--json", "--in", str(path)]) == 1
    assert time.monotonic() - start < 10.0
    out, err = _capture(capsys)
    result = json.loads(out)["result"]
    assert result["direct_test_regular"] is False and result["codimension"] == 2
    assert result["tests_agree"] is True and err == ""


@pytest.mark.parametrize("ring_flag", [False, True])
def test_too_many_variables_exit_two_before_any_ring(tmp_path, capsys, monkeypatch, ring_flag):
    def no_ring(*args, **kwargs):
        raise AssertionError("a refused header built a ring")

    monkeypatch.setattr(Ring, "__init__", no_ring)
    path = tmp_path / "sys.txt"
    header = "n=1000000000 field=q"
    path.write_text("x1 + x2\n" if ring_flag else f"ring {header}\nx1 + x2\n")
    start = time.perf_counter()
    assert run(["gb", "codim", "--in", str(path)] + (["--ring", header] if ring_flag else [])) == 2
    assert time.perf_counter() - start < 1.0
    out, err = _capture(capsys)
    assert out == "" and f"more than {_MAX_VARIABLES} variables" in err


def test_gb_basis_lex_order(tmp_path, capsys):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("ring n=3 field=q\nx1^2 - x2\nx1^3 - x3\n")
    assert run(["gb", "basis", "--in", str(ideal), "--order", "lex"]) == 0
    out, _ = _capture(capsys)
    assert "x2^3 - x3^2" in out  # the eliminant appears under lex


def _colength(leads, n):
    """The number of monomials outside the ideal of the leads, for a
    zero-dimensional one."""
    standard, frontier = set(), [(0,) * n]
    while frontier:
        m = frontier.pop()
        if m not in standard and not any(mono_divides(lead, m) for lead in leads):
            standard.add(m)
            frontier.extend(tuple(e + (i == v) for v, e in enumerate(m)) for i in range(n))
    return len(standard)


@pytest.mark.parametrize("n, r, tails", [(6, 5, False), (6, 7, False), (4, 4, True)],
                         ids=["five-forms", "seven-forms", "inhomogeneous"])
def test_gb_basis_lex_on_dense_quadrics_finishes(tmp_path, n, r, tails):
    # dense quadrics over F_32003 under lex: with pairs taken by smallest
    # lcm alone the forms ran past 60 s, the inhomogeneous system 3.9 s.
    # The printed basis B is checked against the degrevlex basis only: B
    # lies in I, and its lex leads L ⊆ in(I) leave as much outside as in(I)
    # does, the same Hilbert numerator for forms or the same colength for a
    # zero-dimensional ideal, so L = in(I)
    ring = Ring.flat(n, GF(32003))
    rng = random.Random(f"lex:{n}:{r}")
    gens = [dense_form(rng, ring, 2, tails) for _ in range(r)]
    path = tmp_path / "sys.txt"
    path.write_text(dump_ideal_text(ring, gens))
    code = "import sys\nfrom formstrength.cli import run\nsys.exit(run(sys.argv[1:]))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", code, "gb", "basis", "--order", "lex", "--json", "--in", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    basis = [parse_poly(g, ring) for g in json.loads(proc.stdout)["result"]["basis"]]
    ideal = groebner.Ideal(ring, gens)
    reference = ideal.groebner()
    assert not any(groebner.normal_form(g, reference).terms for g in basis)
    leads = [max(g.terms, key=LEX.key) for g in basis]
    if tails:
        assert groebner.dimension(ideal) == 0
        assert _colength(leads, n) == _colength(reference.lead_monomials, n)
    else:
        numerators = [groebner._hilbert_numerator(ls) for ls in (leads, reference.lead_monomials)]
        assert not any(groebner._add_shifted(*numerators, 0, -1))


def test_regseq_respects_order_flag(tmp_path):
    # regularity does not depend on the order, so regseq takes no --order
    path = tmp_path / "sys.txt"
    path.write_text("ring n=3 field=q\nx1\nx2\nx3\n")
    assert run(["regseq", "--in", str(path), "--order", "lex"]) == 2


def test_certify_json_and_determinism(capsys):
    assert run(["certify", "n32-lower", "--json"]) == 0
    first, _ = _capture(capsys)
    doc = json.loads(first)
    assert doc["passed"] is True
    assert doc["claim"] == "N(3,2) >= 2"
    assert run(["certify", "n32-lower", "--json"]) == 0
    second, _ = _capture(capsys)
    assert first == second


def test_certify_n33_passes(capsys):
    assert run(["certify", "n33", "--json"]) == 0
    out, _ = _capture(capsys)
    doc = json.loads(out)
    assert doc["passed"] is True
    names = [v["name"] for v in doc["subverdicts"]]
    assert "exclusion_skew" in names


def test_certify_all(capsys):
    assert run(["certify", "all", "--json"]) == 0
    out, _ = _capture(capsys)
    docs = json.loads(out)
    assert len(docs) == 4
    assert all(d["passed"] for d in docs)


def test_certify_with_prime_override(capsys):
    assert run(["certify", "n32-lower", "--p", "7", "--json"]) == 0
    out, _ = _capture(capsys)
    assert json.loads(out)["environment"]["primes"] == [7]
    # --p 0 is a prime override like any other, refused as no prime
    assert run(["certify", "n32-lower", "--p", "0", "--json"]) == 2
    out, err = _capture(capsys)
    assert out == "" and "modulus 0 is not prime" in err


def test_recheck_cli_round_trip(tmp_path, capsys):
    assert run(["certify", "small-r", "--json"]) == 0
    out, _ = _capture(capsys)
    path = tmp_path / "cert.json"
    path.write_text(out)
    assert run(["recheck", str(path)]) == 0
    out, _ = _capture(capsys)
    assert "PASS" in out

    # single-character tamper flips the verdict
    text = path.read_text()
    tampered = text.replace('"passed": true', '"passed": false', 1)
    assert tampered != text
    path.write_text(tampered)
    assert run(["recheck", str(path)]) == 1
    out, _ = _capture(capsys)
    assert "FAIL" in out


def test_recheck_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["recheck", str(path)]) == 2
    _capture(capsys)


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"claim": "N(3,3) > 2", "environment": []},
    {"claim": "N(3,3) > 2", "environment": {"primes": ["x"], "seed": 0, "version": "0.1.0"}},
    {"claim": "N(3,3) > 2", "environment": {"primes": [32003], "seed": "0", "version": "0.1.0"}},
    {"claim": "N(3,3) > 2", "environment": {"primes": [32003], "seed": 0, "version": "0.1.0"},
     "subverdicts": [1]},
], ids=["not-an-object", "environment-list", "prime-string", "seed-string", "subverdict-int"])
def test_recheck_refuses_malformed_certificates(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["recheck", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err.startswith("error: certificate") or err.startswith("error: a certificate")


def test_recheck_of_a_non_string_claim_fails_as_an_unknown_claim(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"claim": ["N(3,3) > 2"]}))
    assert run(["recheck", str(path)]) == 1
    out, _ = _capture(capsys)
    assert out.startswith("recheck FAIL: unknown claim")


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    out, _ = _capture(capsys)
    assert out.strip() == "0.1.0"


def test_large_prime_modulus_decided_quickly(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("ring n=2 field=fp:1000000000000000003\nx1^2 + 3*x2^2\nx1*x2\n")
    start = time.perf_counter()
    assert run(["gb", "codim", "--in", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    out, _ = _capture(capsys)
    assert out.strip() == "2"


def test_internal_errors_exit_three(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sys.txt"
    path.write_text("ring n=2 field=q\nx1\nx2\n")
    for exc in (groebner.GroebnerError("invariant broken"), RecursionError("too deep")):
        def broken(*args, _exc=exc, **kwargs):
            raise _exc

        monkeypatch.setattr(groebner, "groebner_basis", broken)
        assert run(["gb", "codim", "--in", str(path)]) == 3
        out, err = _capture(capsys)
        assert out == ""
        assert err.startswith("internal error: ") and str(exc) in err


def test_any_unexpected_exception_exits_three(tmp_path, capsys, monkeypatch):
    def broken(ideal):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "codimension", broken)
    path = tmp_path / "sys.txt"
    path.write_text("ring n=2 field=q\nx1\n")
    assert run(["gb", "codim", "--in", str(path)]) == 3
    out, err = _capture(capsys)
    assert out == ""
    assert err == "internal error: TypeError: unsupported operand\n"


def test_zero_denominators_in_the_input_exit_two(tmp_path, capsys):
    # a Gram-file entry over 0, and a --p that divides a denominator of a Q
    # form file, are the input paths that once raised ZeroDivisionError
    gram = tmp_path / "gram.txt"
    gram.write_text("1 1/0\n1/0 2\n")
    forms = tmp_path / "forms.txt"
    forms.write_text("ring n=2 field=q\nx1^2 + 1/7*x2^2\nx1*x2\n")
    assert run(["quadric", "rank", "--in", str(gram)]) == 2
    for operation in ("rank", "collective", "minrank"):
        assert run(["quadric", operation, "--in", str(forms), "--p", "7"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err == ("error: Gram matrix row 1, entry 2: invalid rational: zero denominator\n"
                   + "error: invalid denominator 7 mod 7\n" * 3)


@pytest.mark.parametrize("fault", [KeyError("x9"), ZeroDivisionError("singular matrix")])
def test_key_and_zero_division_errors_in_the_engine_exit_three(tmp_path, capsys, monkeypatch, fault):
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli, "codimension", broken)
    path = tmp_path / "sys.txt"
    path.write_text("ring n=2 field=q\nx1\n")
    assert run(["gb", "codim", "--in", str(path)]) == 3
    out, err = _capture(capsys)
    assert out == ""
    assert err == f"internal error: {type(fault).__name__}: {fault}\n"


def test_flags_a_command_does_not_read_exit_two(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("ring n=2 field=q\nx1\nx2\n")
    assert run(["regseq", "--in", str(path), "--field", "fp:7"]) == 2
    assert run(["recheck", str(path), "--seed", "5"]) == 2
    assert run(["minors", "--matrix", "3x2", "--order", "lex"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err.count("unrecognized arguments") == 3
    # each gb and quadric operation declares only the flags it reads
    refused = [(["regseq"], ["--order", "lex"]), (["gb", "codim"], ["--in2", str(path)]),
               (["gb", "basis"], ["--f", "x1"]), (["quadric", "collective"], ["--diag", "1,2"])]
    refused += [(["gb", op], ["--order", "lex"]) for op in ("dim", "codim", "intersect", "quotient")]
    for command, flag in refused:
        assert run(command + ["--in", str(path)] + flag) == 2
        out, err = _capture(capsys)
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize("operation", ["rank", "strength", "minrank", "collective"])
def test_quadric_operations_refuse_field(tmp_path, capsys, operation):
    # the rank of --diag 1,7 is 2 over Q and 1 over F_7, so an unread
    # --field would print a wrong rank
    gram = tmp_path / "gram.txt"
    gram.write_text("1 0\n0 7\n")
    source = ["--in", str(gram)] if operation == "collective" else ["--diag", "1,7"]
    assert run(["quadric", operation] + source + ["--field", "fp:7"]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "unrecognized arguments: --field fp:7" in err


GRAM_RANK_F7_OUT = (
    '{\n'
    '  "command": "quadric rank",\n'
    '  "environment": {\n'
    '    "field": "fp:7",\n'
    '    "primes": [\n'
    '      7\n'
    '    ],\n'
    '    "seed": 0,\n'
    '    "version": "0.1.0"\n'
    '  },\n'
    '  "result": {\n'
    '    "rank": 1\n'
    '  }\n'
    '}\n'
)


def test_gram_file_is_read_over_q_and_reduced_by_p(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text("1 0\n0 7\n")
    assert run(["quadric", "rank", "--in", str(gram)]) == 0
    assert _capture(capsys)[0] == "rank: 2\n"
    assert run(["quadric", "rank", "--json", "--in", str(gram), "--p", "7"]) == 0
    assert _capture(capsys)[0] == GRAM_RANK_F7_OUT


@pytest.mark.parametrize("shape", ["1x0", "10x9"])
def test_minors_outside_the_column_limit_exit_two_before_any_determinant(capsys, monkeypatch, shape):
    def no_determinant(*args):
        raise AssertionError("a refused family computed a determinant")

    monkeypatch.setattr(minors, "determinant_laplace", no_determinant)
    start = time.monotonic()
    assert run(["minors", "--matrix", shape]) == 2
    assert time.monotonic() - start < 1.0
    out, err = _capture(capsys)
    assert out == ""
    assert f"between 1 and {minors.MINOR_COLS_LIMIT}" in err


@pytest.mark.parametrize("shape, message", [
    ("100000x100000", "need a (n+1) x n matrix, got 100000x100000"),
    ("100001x100000", "the columns must be between 1 and"),
])
def test_huge_minor_shapes_exit_two_before_any_ring(capsys, monkeypatch, shape, message):
    # a ring of 10^10 entry names would exhaust memory before the family
    # checked its shape
    def no_ring(*args, **kwargs):
        raise AssertionError("a refused shape built a ring")

    monkeypatch.setattr(Ring, "matrix", no_ring)
    start = time.monotonic()
    assert run(["minors", "--matrix", shape]) == 2
    assert time.monotonic() - start < 1.0
    out, err = _capture(capsys)
    assert out == "" and message in err


def _quadric_commands(tmp_path, n, gram_row):
    """Every quadric command on a form in n variables: a two-term form over
    F_7, a Gram matrix of n rows and n diagonal entries."""
    poly = tmp_path / "form.txt"
    poly.write_text(f"ring n={n} field=fp:7\nx1^2 + x2*x3\n")
    gram = tmp_path / "gram.txt"
    gram.write_text(f"{gram_row}\n" * n)
    diag = ",".join(["1"] * n)
    return [
        *(["quadric", op, "--in", str(poly)] for op in ("rank", "strength", "minrank", "collective")),
        ["quadric", "rank", "--in", str(gram)],
        ["quadric", "rank", "--diag", diag],
        ["quadric", "minrank", "--diag", diag],
        ["quadric", "minrank", "--diag", diag, "--p", "7"],
    ]


@pytest.mark.parametrize("n", [30000, quadratic.FORM_VARIABLES_LIMIT + 1])
def test_huge_forms_exit_two_before_any_gram_matrix(tmp_path, capsys, monkeypatch, n):
    # a Gram matrix of 9·10^8 entries would exhaust memory before the scan
    # limit or any rank is reached; the Gram rows are read after the check
    def no_gram(*args, **kwargs):
        raise AssertionError("a refused form built a Gram matrix")

    for name in ("__init__", "from_poly", "diagonal"):
        monkeypatch.setattr(quadratic.QuadraticForm, name, no_gram)
    for argv in _quadric_commands(tmp_path, n, "0"):
        start = time.monotonic()
        assert run(argv) == 2, argv[:4]
        assert time.monotonic() - start < 1.0
        out, err = _capture(capsys)
        assert out == "" and f"a form in {n} variables is refused" in err


def test_forms_at_the_variable_limit_are_taken(tmp_path, capsys):
    n = quadratic.FORM_VARIABLES_LIMIT
    # minrank and collective need two forms; the --p 7 scan takes 8 ranks
    commands = _quadric_commands(tmp_path, n, "0 " * n)
    for argv in commands[:2] + commands[4:]:
        assert run(argv) == 0, argv[:4]
        out, _ = _capture(capsys)
        assert out


@pytest.mark.parametrize("shape", ["3x2x1", "axb", "3x", "x2", "3*2"])
def test_malformed_matrix_shape_names_the_option(capsys, shape):
    assert run(["minors", "--matrix", shape]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert "--matrix" in err and "RxC" in err and repr(shape) in err


@pytest.mark.parametrize("field", ["fp: 7", "fp:+7", "fp:1_009", "fp:abc", "fp:", "fp:7 ", "fp:٧"])
def test_field_other_than_q_or_fp_digits_is_refused(capsys, field):
    # int() would read " 7", "+7", "1_009" and "٧" as numbers
    assert run(["minors", "--matrix", "3x2", "--field", field]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err == f"error: unknown field {field!r} (expected 'q' or 'fp:<p>')\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() converts numbers of any length")
def test_field_modulus_longer_than_int_converts_is_refused(capsys):
    field = "fp:" + "7" * 5000
    assert run(["minors", "--matrix", "3x2", "--field", field]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err == f"error: bad field: a number of more than {sys.get_int_max_str_digits()} digits\n"


# int() reads each of these as an integer: an underscore, a sign, blanks,
# and the digits of other scripts (Arabic-Indic three, fullwidth two)
@pytest.mark.parametrize("argv, option", [
    (["quadric", "minrank", "--diag", "1,1,2,3", "--p", "1_01"], "argument --p"),
    (["quadric", "minrank", "--diag", "1,1,2,3", "--p", "+101"], "argument --p"),
    (["quadric", "minrank", "--diag", "1,1,2,3", "--p", " 101"], "argument --p"),
    (["quadric", "minrank", "--diag", "1,1,2,3", "--p", "١٠١"], "argument --p"),
    (["certify", "n33", "--p", "-7"], "argument --p"),
    (["minors", "--matrix", "3x2", "--seed", "1_0"], "argument --seed"),
    (["minors", "--matrix", "3x2", "--seed", "+1"], "argument --seed"),
    (["minors", "--matrix", "3x2", "--seed", "1 "], "argument --seed"),
    (["minors", "--matrix", "3x2", "--seed", "٣"], "argument --seed"),
    (["minors", "--matrix", "+3x 2"], "--matrix"),
    (["minors", "--matrix", "3_0x2"], "--matrix"),
    (["minors", "--matrix", "٣x2"], "--matrix"),
    (["minors", "--matrix", "3x２"], "--matrix"),
    (["quadric", "rank", "--diag", "1,٣,2"], "--diag"),
    (["quadric", "rank", "--diag", "1,+3"], "--diag"),
    (["quadric", "rank", "--diag", "1, 3"], "--diag"),
    (["quadric", "rank", "--diag", "1,3_0"], "--diag"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_integer_options_take_only_ascii_decimal_digits(capsys, argv, option):
    assert run(argv) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert option in err and "internal error" not in err


@pytest.mark.parametrize("text, message", [
    ("ring n=٣ field=q\nx1\n", "bad ring header"),
    ("ring n=3 field=q matrix=٣x1\nx1\n", "bad ring header"),
    ("ring n=3 field=fp:٧\nx1\n", "bad ring header"),
    ("ring n=3 field=q\nx1 + ٣*x2\n", "unexpected character '٣' (at position 4)"),
    ("ring n=3 field=q\nx1^٢\n", "unexpected character '٢' (at position 3)"),
    ("ring n=3 field=q\nx1 + 1/٢\n", "unexpected character '٢' (at position 7)"),
    ("ring n=3 field=q\nx٣\n", "(at position 0)"),
])
def test_polynomial_files_take_only_ascii_decimal_digits(tmp_path, capsys, text, message):
    # '\d' would match these digits, and int() read them
    path = tmp_path / "sys.txt"
    path.write_text(text, encoding="utf-8")
    assert run(["gb", "codim", "--in", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert message in err


def test_field_modulus_with_leading_zeros_is_read(capsys):
    assert run(["minors", "--matrix", "3x2", "--field", "fp:007"]) == 0
    assert _capture(capsys)[0].startswith("ring n=6 field=fp:7 matrix=3x2\n")


def test_exponent_beyond_packed_keys_exits_three(tmp_path, capsys):
    # every input exponent is within the key limit, but reduction by
    # x1*x2 - x3^2 carries x3 past it: an engine overflow, not bad input
    path = tmp_path / "sys.txt"
    path.write_text("ring n=3 field=fp:32003\nx1*x2 - x3^2\nx1^20000*x2^20000\n")
    assert run(["gb", "basis", "--in", str(path)]) == 3
    _, err = _capture(capsys)
    assert "KeyWidthError" in err


@pytest.mark.parametrize("line", ["x1^40000 - x2", "x1^70000", "x2 + x1^20000*x1^20000", "x1^99999999999999999999"])
@pytest.mark.parametrize("command", [["gb", "basis"], ["gb", "codim"], ["regseq"]])
def test_input_exponent_beyond_packed_keys_exits_two(tmp_path, capsys, line, command):
    # an exponent past the limit, written out or assembled from the factors
    # of one term, is refused as bad input when the file is read
    path = tmp_path / "sys.txt"
    path.write_text(f"ring n=2 field=fp:32003\n{line}\n")
    assert run(command + ["--in", str(path)]) == 2
    _, err = _capture(capsys)
    assert f"exponent above {MAX_EXPONENT}" in err and "internal error" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() converts numbers of any length")
@pytest.mark.parametrize("where", ["header", "coefficient", "exponent", "denominator"])
def test_numbers_longer_than_int_converts_exit_two(tmp_path, capsys, where):
    long = "1" * (sys.get_int_max_str_digits() + 1)
    text = {
        "header": f"ring n={long} field=q\nx1\n",
        "coefficient": f"ring n=2 field=q\n{long}*x1\n",
        "exponent": f"ring n=2 field=q\nx1^{long}\n",
        "denominator": f"ring n=2 field=q\nx2 + 1/{long}\n",
    }[where]
    path = tmp_path / "sys.txt"
    path.write_text(text)
    assert run(["gb", "codim", "--in", str(path)]) == 2
    _, err = _capture(capsys)
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert ("bad ring header" in err) == (where == "header")
    assert ("(at position" in err) == (where != "header")
    assert "set_int_max_str_digits" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() converts numbers of any length")
@pytest.mark.parametrize("entry", ["{long}", "-{long}", "{long}/3", "3/{long}", "{half}_{half}"])
def test_gram_numbers_longer_than_int_converts_exit_two(tmp_path, capsys, entry):
    # int() counts the digits on both sides of an underscore together, but an
    # underscore is no decimal digit: two halves under the limit are refused
    # as no integer
    limit = sys.get_int_max_str_digits()
    message = "not an integer or a fraction a/b" if "_" in entry else f"a number of more than {limit} digits"
    entry = entry.format(long="1" * (limit + 1), half="1" * (limit // 2 + 1))
    path = tmp_path / "gram.txt"
    path.write_text(f"# a Gram matrix\n1 0 0\n\n0 1, {entry}\n0 0 1\n")
    assert run(["quadric", "rank", "--in", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert f"Gram matrix row 2, entry 3: {message}" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("entry, message", [
    ("a", "not an integer or a fraction a/b"),
    ("2/3/4", "not an integer or a fraction a/b"),
    ("0.5", "not an integer or a fraction a/b"),
    ("1/", "not an integer or a fraction a/b"),
    ("/2", "not an integer or a fraction a/b"),
    ("+3", "not an integer or a fraction a/b"),
    ("1_0", "not an integer or a fraction a/b"),
    ("٣", "not an integer or a fraction a/b"),
    ("3/-2", "not an integer or a fraction a/b"),
    ("3/٢", "not an integer or a fraction a/b"),
    ("1/0", "invalid rational: zero denominator"),
])
def test_refused_gram_entries_name_their_row_and_entry(tmp_path, capsys, entry, message):
    path = tmp_path / "gram.txt"
    path.write_text(f"# a Gram matrix\n1 0 0\n\n0 1, {entry}\n0 0 1\n")
    assert run(["quadric", "rank", "--in", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == ""
    assert err == f"error: Gram matrix row 2, entry 3: {message}\n"


def test_gram_numbers_as_long_as_int_converts_are_read(tmp_path, capsys):
    longest = "1" * getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    path = tmp_path / "gram.txt"
    path.write_text(f"{longest} 0\n0 1/{longest}\n")
    assert run(["quadric", "rank", "--in", str(path)]) == 0
    assert _capture(capsys)[0] == "rank: 2\n"


@pytest.mark.parametrize("operation", ["rank", "strength", "collective", "minrank"])
def test_form_file_without_forms_is_refused(tmp_path, capsys, operation):
    path = tmp_path / "empty.txt"
    path.write_text("ring n=3 field=fp:5\n")
    assert run(["quadric", operation, "--in", str(path)]) == 2
    _, err = _capture(capsys)
    assert "no quadratic forms" in err
    gram = tmp_path / "gram.txt"
    gram.write_text("# no rows\n")
    assert run(["quadric", operation, "--in", str(gram)]) == 2
    _capture(capsys)


def test_scan_above_the_point_limit_exits_two_before_scanning(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a refused scan computed a rank")

    monkeypatch.setattr(quadratic, "_plane_ranks", no_scan)
    # 10^9 + 8 points; then 999984 points in 10 variables, under 10^6
    # points but not under the work limit
    for diag, p in (("1,2", "1000000007"), ("27,51,27,37,27,51,20,37,51,37", "999983")):
        start = time.monotonic()
        assert run(["quadric", "minrank", "--diag", diag, "--p", p]) == 2
        assert time.monotonic() - start < 1.0
        _, err = _capture(capsys)
        assert "limit" in err


NET_F7 = "ring n=3 field=fp:7\nx1^2 + 3*x1*x2 - x3^2\nx1*x3 + 2*x2^2\nx2*x3 + x1^2 - 2*x2^2\n"
NET_Q = "ring n=3 field=q\nx1^2 + 3*x1*x2 - x3^2\nx1*x3 + 1/2*x2^2\nx2*x3 + x1^2 - 2*x2^2\n"
# f1 + t*f2 has rank 3 at t = 2, 4, 7 and 9: the witness is the first of them
PENCIL_F11 = "ring n=4 field=fp:11\nx1^2 + x2^2 + 2*x3^2 + 2*x4^2\nx1*x2 + x3*x4\n"

COLLECTIVE_OUT = (
    '{\n'
    '  "command": "quadric collective",\n'
    '  "environment": {\n'
    '    "field": "fp:7",\n'
    '    "primes": [\n'
    '      7\n'
    '    ],\n'
    '    "seed": 0,\n'
    '    "version": "0.1.0"\n'
    '  },\n'
    '  "result": {\n'
    '    "collective_strength": 0,\n'
    '    "forms": 3\n'
    '  }\n'
    '}\n'
)

MINRANK_DIAG_OUT = (
    '{\n'
    '  "command": "quadric minrank",\n'
    '  "environment": {\n'
    '    "field": "q",\n'
    '    "primes": [\n'
    '      11\n'
    '    ],\n'
    '    "seed": 0,\n'
    '    "version": "0.1.0"\n'
    '  },\n'
    '  "result": {\n'
    '    "method": "formula",\n'
    '    "minrank": 3,\n'
    '    "scan": {\n'
    '      "method": "finite-field-scan",\n'
    '      "value": 3,\n'
    '      "witness": [\n'
    '        "1",\n'
    '        "5"\n'
    '      ]\n'
    '    },\n'
    '    "scan_agrees": true,\n'
    '    "witness": [\n'
    '      "-1",\n'
    '      "1"\n'
    '    ]\n'
    '  }\n'
    '}\n'
)

MINRANK_PENCIL_OUT = (
    '{\n'
    '  "command": "quadric minrank",\n'
    '  "environment": {\n'
    '    "field": "fp:11",\n'
    '    "primes": [\n'
    '      11\n'
    '    ],\n'
    '    "seed": 0,\n'
    '    "version": "0.1.0"\n'
    '  },\n'
    '  "result": {\n'
    '    "method": "finite-field-scan",\n'
    '    "minrank": 3,\n'
    '    "witness": [\n'
    '      "1",\n'
    '      "2"\n'
    '    ]\n'
    '  }\n'
    '}\n'
)


# f1 + f2 = (x1 + x2)^2: the pencil diagonalizes over Q with ratios -1 and 1
PENCIL_Q = "ring n=2 field=q\nx1^2 + x2^2\n2*x1*x2\n"

MINRANK_QPENCIL_OUT = (
    '{\n'
    '  "command": "quadric minrank",\n'
    '  "environment": {\n'
    '    "field": "q",\n'
    '    "primes": [],\n'
    '    "seed": 0,\n'
    '    "version": "0.1.0"\n'
    '  },\n'
    '  "result": {\n'
    '    "method": "formula",\n'
    '    "minrank": 1,\n'
    '    "witness": [\n'
    '      "1",\n'
    '      "1"\n'
    '    ]\n'
    '  }\n'
    '}\n'
)


def test_scan_outputs_are_pinned_byte_for_byte(tmp_path, capsys):
    net, netq, pencil = tmp_path / "net.txt", tmp_path / "netq.txt", tmp_path / "pencil.txt"
    qpencil = tmp_path / "qpencil.txt"
    net.write_text(NET_F7)
    netq.write_text(NET_Q)
    pencil.write_text(PENCIL_F11)
    qpencil.write_text(PENCIL_Q)
    for argv, want in (
        (["quadric", "collective", "--json", "--in", str(net)], COLLECTIVE_OUT),
        (["quadric", "collective", "--json", "--in", str(netq), "--p", "7"], COLLECTIVE_OUT),
        # t = 5 and t = 10 both kill a block of two: the scan witness is (1, 5)
        (["quadric", "minrank", "--json", "--diag", "1,1,2,2,3", "--p", "11"], MINRANK_DIAG_OUT),
        (["quadric", "minrank", "--json", "--in", str(pencil)], MINRANK_PENCIL_OUT),
        # the one path through simultaneous diagonalization
        (["quadric", "minrank", "--json", "--in", str(qpencil)], MINRANK_QPENCIL_OUT),
    ):
        assert run(argv) == 0
        out, _ = _capture(capsys)
        assert out == want


def test_a_prime_that_collapses_the_blocks_of_a_diagonal_pencil_is_refused(tmp_path, capsys):
    # ratios 1 and 8 meet mod 7
    assert run(["quadric", "minrank", "--diag", "1,8", "--p", "7"]) == 2
    out, err = _capture(capsys)
    assert out == "" and "block structure collapses mod 7" in err
    # the ratios 1..6 of the n32-upper sample meet mod 3: a refused recheck,
    # not a failed one
    fixture = FIXTURES / "n32-upper-sample.json"
    doc = json.loads(fixture.read_text())
    assert doc["environment"]["primes"] == [11, 101]
    doc["environment"]["primes"] = [11, 3]
    path = tmp_path / "n32-upper-mod-3.json"
    path.write_text(json.dumps(doc))
    assert run(["recheck", str(path)]) == 2
    out, err = _capture(capsys)
    assert out == "" and "block structure collapses mod 3" in err



# over Q the first form has rank 2 and strength 0; mod 7 it is x1^2, of rank 1
RANK_Q = "ring n=2 field=q\nx1^2 + 7*x2^2\nx1^2 + 2*x1*x2\n"
PENCIL_F101 = "ring n=2 field=fp:101\nx1^2 + x2^2\nx1^2 + 2*x1*x2\n"


def test_rank_and_strength_read_p_on_a_q_file(tmp_path, capsys):
    path = tmp_path / "forms.txt"
    path.write_text("ring n=2 field=q\nx1^2 + x2^2\nx1^2 + 2*x1*x2\n")
    assert run(["quadric", "rank", "--json", "--in", str(path), "--p", "7"]) == 0
    doc = json.loads(_capture(capsys)[0])
    assert doc["result"] == {"rank": 2}
    assert doc["environment"]["field"] == "fp:7" and doc["environment"]["primes"] == [7]
    path.write_text(RANK_Q)
    assert run(["quadric", "strength", "--in", str(path)]) == 0
    assert _capture(capsys)[0] == "rank: 2\nstrength: 0\n"
    assert run(["quadric", "strength", "--in", str(path), "--p", "7"]) == 0
    assert _capture(capsys)[0] == "rank: 1\nstrength: 0\n"


@pytest.mark.parametrize("operation", ["rank", "strength", "minrank", "collective"])
def test_p_other_than_the_prime_of_an_fp_file_is_refused(tmp_path, capsys, operation):
    path = tmp_path / "pencil.txt"
    path.write_text(PENCIL_F101)
    assert run(["quadric", operation, "--in", str(path), "--p", "7"]) == 2
    _, err = _capture(capsys)
    assert "--p 7" in err and "fp:101" in err


def test_p_equal_to_the_prime_of_an_fp_file_changes_nothing(tmp_path, capsys):
    net, pencil = tmp_path / "net.txt", tmp_path / "pencil.txt"
    net.write_text(NET_F7)
    pencil.write_text(PENCIL_F11)
    for argv, want in (
        (["quadric", "collective", "--json", "--in", str(net), "--p", "7"], COLLECTIVE_OUT),
        (["quadric", "minrank", "--json", "--in", str(pencil), "--p", "11"], MINRANK_PENCIL_OUT),
    ):
        assert run(argv) == 0
        assert _capture(capsys)[0] == want
    for operation in ("rank", "strength"):
        outs = []
        for extra in ([], ["--p", "11"]):
            assert run(["quadric", operation, "--json", "--in", str(pencil)] + extra) == 0
            outs.append(_capture(capsys)[0])
        assert outs[0] == outs[1]


REGSEQ_NET_F7 = "ring n=3 field=fp:7\nx1^2 + 3*x2*x3\nx2^2 - x1*x3\nx3^2 + 2*x1*x2\n"
# f1 = x3*(x1 + x2), f2 = x2*(x1 + x2): the gcd report names the common factor
REGSEQ_PAIR_F7 = "ring n=3 field=fp:7\nx1*x3 + x2*x3\nx1*x2 + x2^2\n"
REGSEQ_PAIR_Q = "ring n=3 field=q\nx1^2 - 1/2*x2^2\nx2*x3 + x1^2\n"

REGSEQ_NET_OUT = (
    '{\n'
    '  "command": "regseq",\n'
    '  "environment": {\n'
    '    "field": "fp:7",\n'
    '    "primes": [\n'
    '      7\n'
    '    ],\n'
    '    "seed": 0,\n'
    '    "version": "0.1.0"\n'
    '  },\n'
    '  "result": {\n'
    '    "codim_test_regular": true,\n'
    '    "codimension": 3,\n'
    '    "direct_test_regular": true,\n'
    '    "forms": 3,\n'
    '    "regular": true,\n'
    '    "tests_agree": true,\n'
    '    "variables": 3\n'
    '  }\n'
    '}\n'
)

REGSEQ_PAIR_OUT = (
    '{\n'
    '  "command": "regseq",\n'
    '  "environment": {\n'
    '    "field": "fp:7",\n'
    '    "primes": [\n'
    '      7\n'
    '    ],\n'
    '    "seed": 0,\n'
    '    "version": "0.1.0"\n'
    '  },\n'
    '  "result": {\n'
    '    "codim_test_regular": false,\n'
    '    "codimension": 1,\n'
    '    "direct_test_regular": false,\n'
    '    "forms": 2,\n'
    '    "gcd_report": {\n'
    '      "agree": true,\n'
    '      "codim_route_regular": false,\n'
    '      "gcd": "x1 + x2",\n'
    '      "gcd_route_regular": false\n'
    '    },\n'
    '    "regular": false,\n'
    '    "tests_agree": true,\n'
    '    "variables": 3\n'
    '  }\n'
    '}\n'
)

REGSEQ_Q_OUT = (
    '{\n'
    '  "command": "regseq",\n'
    '  "environment": {\n'
    '    "field": "q",\n'
    '    "primes": [],\n'
    '    "seed": 0,\n'
    '    "version": "0.1.0"\n'
    '  },\n'
    '  "result": {\n'
    '    "codim_test_regular": true,\n'
    '    "codimension": 2,\n'
    '    "direct_test_regular": true,\n'
    '    "forms": 2,\n'
    '    "gcd_report": {\n'
    '      "agree": true,\n'
    '      "codim_route_regular": true,\n'
    '      "gcd": "1",\n'
    '      "gcd_route_regular": true\n'
    '    },\n'
    '    "regular": true,\n'
    '    "tests_agree": true,\n'
    '    "variables": 3\n'
    '  }\n'
    '}\n'
)


def test_regseq_outputs_are_pinned_byte_for_byte(tmp_path, capsys):
    for text, want, code in (
        (REGSEQ_NET_F7, REGSEQ_NET_OUT, 0),
        (REGSEQ_PAIR_F7, REGSEQ_PAIR_OUT, 1),
        (REGSEQ_PAIR_Q, REGSEQ_Q_OUT, 0),
    ):
        path = tmp_path / "sys.txt"
        path.write_text(text)
        assert run(["regseq", "--json", "--in", str(path)]) == code
        out, _ = _capture(capsys)
        assert out == want


def _dense_cubics(rng, ring, count, draw, degree=3):
    """``count`` forms with every monomial of the degree (cubic unless said
    otherwise), coefficients from ``draw``."""
    n = ring.nvars
    forms = []
    for _ in range(count):
        terms = {}
        for combo in combinations_with_replacement(range(n), degree):
            e = [0] * n
            for v in combo:
                e[v] += 1
            terms[tuple(e)] = ring.domain.from_int(draw(rng))
        forms.append(Poly(ring, terms))
    return forms


def test_regseq_on_a_dense_cubic_triple_finishes(tmp_path, capsys):
    ring = Ring.flat(6, GF(32003))
    forms = _dense_cubics(random.Random(0), ring, 3, lambda rng: rng.randrange(1, 32003))
    path = tmp_path / "cubic3-n6.txt"
    path.write_text(dump_ideal_text(ring, forms))
    start = time.monotonic()
    assert run(["regseq", "--json", "--in", str(path)]) == 0
    assert time.monotonic() - start < 30.0
    out, _ = _capture(capsys)
    result = json.loads(out)["result"]
    assert result["codimension"] == 3 and result["tests_agree"]


def test_gb_intersect_of_dense_cubic_multiples_over_q(tmp_path, capsys):
    ring = Ring.flat(4, QQ)
    coefficients = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
    g, h1, h2 = _dense_cubics(random.Random(0), ring, 3, lambda rng: rng.choice(coefficients))
    first, second = tmp_path / "f1.txt", tmp_path / "f2.txt"
    first.write_text(dump_ideal_text(ring, [g * h1]))
    second.write_text(dump_ideal_text(ring, [g * h2]))
    start = time.monotonic()
    assert run(["gb", "intersect", "--json", "--in", str(first), "--in2", str(second)]) == 0
    assert time.monotonic() - start < 30.0
    out, _ = _capture(capsys)
    assert json.loads(out)["result"]["generators"] == [str((g * h1 * h2).monic())]


def _intersect_files(tmp_path, capsys, first, second, ring):
    """The generators ``gb intersect --json`` prints for two ideal files'
    texts, checked to lie in both ideals; the run must take under 10 s."""
    paths = [tmp_path / "first.txt", tmp_path / "second.txt"]
    for path, text in zip(paths, (first, second)):
        path.write_text(text)
    start = time.monotonic()
    assert run(["gb", "intersect", "--json", "--in", str(paths[0]), "--in2", str(paths[1])]) == 0
    assert time.monotonic() - start < 10.0
    out, _ = _capture(capsys)
    gens = [parse_poly(g, ring) for g in json.loads(out)["result"]["generators"]]
    for text in (first, second):
        basis = groebner.groebner_basis(load_ideal_text(text, ring)[1])
        assert all(not groebner.normal_form(g, basis).terms for g in gens)
    return gens


def test_gb_intersect_of_two_quadric_ideals_over_q_finishes(tmp_path, capsys):
    # I·J falls short of I ∩ J here from degree 4 on; the elimination route
    # ran past 30 s and 2 GB on this pair
    first = """ring n=5 field=q
x1*x3 + x1*x4 - 4*x2*x4 + 3*x1*x5 - 5*x2^2
3*x3*x4 + 3*x1*x5 - 5/2*x2*x5 - 4*x3*x5
"""
    second = """ring n=5 field=q
-3*x4*x5 + 2*x3*x5 - 4*x4^2
-5*x4*x5 + x2*x5 - 1/3*x5^2 + 1/2*x3^2 - x3*x5
4*x1*x3 + 3*x5^2
3*x3*x4 + 3*x1*x5 - 2*x1*x4 + 5*x2^2 - x2*x5
"""
    assert len(_intersect_files(tmp_path, capsys, first, second, Ring.flat(5, QQ))) == 19


def test_gb_intersect_of_dense_cubics_and_quadrics_is_their_product(tmp_path, capsys):
    # three dense cubics and three dense quadrics in 6 variables: the six
    # are a regular sequence, so I ∩ J = I·J (Tor_1(R/I, R/J) = 0); the
    # elimination route ran past 30 s on such a pair
    ring = Ring.flat(6, GF(32003))
    rng = random.Random(1201)
    draw = lambda rng: rng.randrange(1, 32003)
    cubics, quadrics = _dense_cubics(rng, ring, 3, draw), _dense_cubics(rng, ring, 3, draw, degree=2)
    gens = _intersect_files(tmp_path, capsys, dump_ideal_text(ring, cubics), dump_ideal_text(ring, quadrics), ring)
    assert groebner.is_regular_sequence_direct(cubics + quadrics)
    # the products lie in the ideal of the result, which lies in I ∩ J = I·J
    basis = groebner.GroebnerBasis(ring, DEGREVLEX, gens)
    assert all(not groebner.normal_form(f * g, basis).terms for f in cubics for g in quadrics)
    # and the result is a reduced basis: its leads have the Hilbert numerator
    # of R/(I·J), so they generate in(I·J), no lead divides another, and each
    # element is monic with a tail in normal form
    ci = groebner._ci_numerator
    numerator = groebner._add_shifted(ci([3] * 3), ci([2] * 3), 0, 1)
    numerator = groebner._add_shifted(numerator, ci([3] * 3 + [2] * 3), 0, -1)
    leads = basis.lead_monomials
    assert groebner._hilbert_numerator(leads) == numerator
    assert not any(a != b and mono_divides(a, b) for a in leads for b in leads)
    for g, lead in zip(gens, leads):
        tail = g - Poly(ring, {lead: ring.domain.one})
        assert g.terms[lead] == ring.domain.one and groebner.normal_form(tail, basis) == tail


def test_gb_intersect_and_quotient_of_sparse_ideals_in_many_variables(tmp_path, capsys):
    # each needs a kernel step: x1*x2 ∩ x1*x3 in degree 3 (I·J starts in
    # degree 4), and (x1*x2, x3^3) : (x1 + x3) in degree 4, as x1 + x3 is a
    # zero divisor; the step's matrix must grow with the variables the input
    # uses, not with the degree-k monomials of the ring (C(1002, 3) here)
    ring = Ring.flat(1000, QQ)
    header = "ring n=1000 field=q\n"
    assert _intersect_files(tmp_path, capsys, header + "x1*x2\n", header + "x1*x3\n", ring) == [
        parse_poly("x1*x2*x3", ring)]
    path = tmp_path / "sparse.txt"
    path.write_text(header + "x1*x2\nx3^3\n")
    start = time.monotonic()
    assert run(["gb", "quotient", "--json", "--in", str(path), "--f", "x1 + x3"]) == 0
    assert time.monotonic() - start < 10.0
    out, _ = _capture(capsys)
    assert json.loads(out)["result"]["generators"] == ["x2*x3^2", "x3^3", "x1*x2"]


def test_gb_intersect_of_sparse_ideals_using_every_variable(tmp_path, capsys):
    # x1*x2 ∩ x1*(x3 + ... + x300): the kernel step in degree 3 meets the
    # 300 multiples x1*x2*xi and one row with 297 terms
    ring = Ring.flat(300, QQ)
    header = "ring n=300 field=q\n"
    total = " + ".join(f"x1*x{i}" for i in range(3, 301))
    gens = _intersect_files(tmp_path, capsys, header + "x1*x2\n", header + total + "\n", ring)
    assert gens == [parse_poly(total, ring) * parse_poly("x2", ring)]


def test_regseq_on_a_coprime_dense_cubic_pair_finishes(tmp_path, capsys):
    ring = Ring.flat(6, GF(32003))
    forms = _dense_cubics(random.Random(0), ring, 2, lambda rng: rng.randrange(1, 32003))
    path = tmp_path / "cubic2-n6.txt"
    path.write_text(dump_ideal_text(ring, forms))
    start = time.monotonic()
    assert run(["regseq", "--json", "--in", str(path)]) == 0
    assert time.monotonic() - start < 10.0
    out, _ = _capture(capsys)
    assert json.loads(out)["result"]["gcd_report"]["gcd"] == "1"


def test_regseq_on_dense_cubic_multiples_over_q_finds_the_common_cubic(tmp_path, capsys):
    ring = Ring.flat(4, QQ)
    coefficients = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
    g, h1, h2 = _dense_cubics(random.Random(0), ring, 3, lambda rng: rng.choice(coefficients))
    path = tmp_path / "pair-q-n4.txt"
    path.write_text(dump_ideal_text(ring, [g * h1, g * h2]))
    start = time.monotonic()
    assert run(["regseq", "--json", "--in", str(path)]) == 1
    assert time.monotonic() - start < 30.0
    out, _ = _capture(capsys)
    report = json.loads(out)["result"]["gcd_report"]
    assert report["gcd"] == str(g.monic()) and report["agree"]


@pytest.mark.parametrize(
    "text, code, counts",
    [
        # one basis of (f1, f2), read by the direct route and the codim
        (REGSEQ_PAIR_F7, 1, {"gcd": 1, "degrevlex": 1, "elimination": 0}),
        # one basis of (f1, f2, f3), read by both routes
        (REGSEQ_NET_F7, 0, {"gcd": 0, "degrevlex": 1, "elimination": 0}),
    ],
    ids=["pair", "net"],
)
def test_regseq_computes_one_gcd_per_pair_and_a_pinned_count_of_bases(tmp_path, capsys, monkeypatch, text, code, counts):
    calls = {"gcd": 0, "degrevlex": 0, "elimination": 0}
    gcd_fn, buchberger = polygcd.multivariate_gcd, groebner._buchberger

    def gcd(*args):
        calls["gcd"] += 1
        return gcd_fn(*args)

    def basis(gens, order, ring, prune):
        calls["degrevlex" if order == DEGREVLEX else "elimination"] += 1
        return buchberger(gens, order, ring, prune)

    monkeypatch.setattr(polygcd, "multivariate_gcd", gcd)
    monkeypatch.setattr(cli, "multivariate_gcd", gcd)
    monkeypatch.setattr(groebner, "_buchberger", basis)
    path = tmp_path / "sys.txt"
    path.write_text(text)
    assert run(["regseq", "--json", "--in", str(path)]) == code
    _capture(capsys)
    assert calls == counts


PARSER_CASES = [
    [], ["--help"], ["-h"], ["--version"], ["nope"], ["--json"], ["--", "regseq"],
    *([command, "--help"] for command in cli._SUBCOMMANDS),
    *(["quadric", op, "--help"] for op in ("rank", "strength", "minrank", "collective")),
    *(["gb", op, "--help"] for op in ("basis", "dim", "codim", "intersect", "quotient")),
    ["quadric"], ["quadric", "bogus"], ["gb"], ["gb", "basis", "--order", "bad"],
    ["gb", "intersect", "--in", "a", "--f", "x"], ["gb", "codim", "--in", "f", "--ring", "n=2 field=q"],
    ["certify"], ["certify", "bogus"], ["certify", "all", "--p", "x"], ["certify", "n33", "--se", "3"],
    ["recheck"], ["recheck", "c.json", "--seed", "1"], ["recheck", "c.json"],
    ["regseq", "--seed", "x"], ["regseq", "--bogus"], ["regseq", "--version"], ["regseq", "--in"],
    ["regseq", "--js", "--in", "f"], ["regseq", "extra"], ["regseq", "--in", "f", "gb"],
    ["minors", "--order", "lex"], ["minors", "--matrix", "3x2", "--field", "fp:7"],
    ["quadric", "rank", "--diag", "1,2", "--p", "7"], ["quadric", "collective", "--diag", "1"],
]

# lines that the plain reader leaves to argparse, accepted or refused there
ARGPARSE_ONLY = [
    ["regseq", "--seed", "-3"], ["regseq", "--in=f"], ["quadric", "collective", "--p", "7", "--p", "11"],
    ["certify", "--json", "--", "n33"], ["regseq", "--in", "f", "--", "--json"], ["recheck", ""],
    ["gb", "dim", "--in", ""], ["gb", "basis", "--in", "f", "-h"], ["certify", "n33", "--seed", "2", "--help"],
]
PARSER_CASES += ARGPARSE_ONLY


def _parse(parser, argv):
    """What parsing argv prints and gives: the exit code of a refusal or of
    --help, else the parsed flags."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = vars(parser.parse_args(argv))
        except SystemExit as exc:
            outcome = exc.code
    return out.getvalue(), err.getvalue(), outcome


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parser_of_one_subcommand_parses_and_refuses_as_the_full_parser(argv):
    # run builds only the subcommand argv names; every help text, usage line,
    # error message, exit code and parse must be the full parser's
    assert _parse(cli.parser_for(argv), argv) == _parse(cli.build_parser(), argv)


def test_a_named_subcommand_builds_only_its_own_parser():
    def built(argv):
        return list(cli.parser_for(argv)._subparsers._group_actions[0].choices)

    for command in cli._SUBCOMMANDS:
        assert built([command, "--help"]) == [command]
    for argv in ([], ["--help"], ["--version"], ["nope"]):
        assert built(argv) == list(cli._SUBCOMMANDS)


def _agrees_with_argparse(parser, argv):
    """Check that the plain reader gives argparse's namespace for argv or
    leaves the line to argparse; return whether it read the line."""
    plain = READ_PLAIN(argv)
    outcome = _parse(parser, argv)[2]
    if plain is not None:
        assert isinstance(outcome, dict) and vars(plain) == outcome, argv
    return plain is not None


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_plain_reader_reads_as_argparse_or_leaves_the_line_to_it(argv):
    read = _agrees_with_argparse(cli.build_parser(), argv)
    assert not (read and argv in ARGPARSE_ONLY)


# values each flag and positional takes in a well-formed line
_VALUES = {
    "--seed": ["0", "7", "0123"], "--in": ["f.txt", "a b.txt", "gb"], "--ring": ["n=2 field=q"],
    "--order": ["degrevlex", "lex"], "--field": ["q", "fp:7"], "--matrix": ["4x3"], "--diag": ["1,2,3"],
    "--p": ["7", "101"], "--in2": ["b.txt"], "--f": ["x1*x2"],
    "target": sorted(cli.BUILDERS) + ["all"], "certificate": ["c.json", "all"],
}
# tokens a fuzzed line may gain: help, version, '--', abbreviations, joined
# values, negative numbers, empty strings, bad values, repeats
_STRAY = ["-h", "--help", "--version", "--", "--se", "--in=f", "--seed", "-3", "", "x", "--json",
          "--p", "--order", "bad", "n33", "regseq", "basis", "--bogus", "-", "--matrix"]


def _plain_line(rng):
    """A command, its operation and its positional, and each of its declared
    flags or not, with a valid value, in random order."""
    command = rng.choice(list(cli._SUBCOMMANDS))
    _, positional, operations = cli._SUBCOMMANDS[command]
    operation = rng.choice(list(operations))
    items = [[option] if option == "--json" else [option, rng.choice(_VALUES[option])]
             for option in cli._declared(operations[operation][1]) if rng.random() < 0.5]
    if positional is not None:
        items.append([rng.choice(_VALUES[positional[0]])])
    rng.shuffle(items)
    return [command] + ([] if operation is None else [operation]) + [t for item in items for t in item]


def _fuzzed_line(rng):
    """A well-formed line with a stray token inserted, or a token deleted
    or repeated, once or twice."""
    argv = _plain_line(rng)
    for _ in range(rng.randint(1, 2)):
        edit = rng.randrange(3)
        if edit == 0 or not argv:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(_STRAY))
        elif edit == 1:
            del argv[rng.randrange(len(argv))]
        else:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(argv))
    return argv


def test_plain_reader_agrees_with_argparse_on_fuzzed_lines():
    rng, parser = random.Random(3801), cli.build_parser()
    read = sum(_agrees_with_argparse(parser, _plain_line(rng) if rng.random() < 0.7 else _fuzzed_line(rng))
               for _ in range(10000))
    # most lines are well formed, so the plain path is what is checked
    assert read > 6000


def test_every_readme_example_is_read_plainly():
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    lines = [shlex.split(line, comments=True) for line in readme.splitlines() if line.startswith("formstrength ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for words in lines:
        argv = words[1:words.index(">")] if ">" in words else words[1:]
        assert _agrees_with_argparse(parser, argv), argv


def test_a_plain_line_never_imports_argparse_and_a_refusal_still_gets_its_message(monkeypatch):
    code = (
        "import sys\n"
        "import formstrength.cli as cli\n"
        "rc = cli.run(['certify', 'n33', '--json'])\n"
        "print(rc, 'argparse' in sys.modules, file=sys.stderr)\n"
        "sys.exit(cli.run(['regseq', '--bogus']))\n"
    )
    # argparse wraps its usage line to COLUMNS, so both sides get the same width
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    first, _, refusal = proc.stderr.partition("\n")
    assert first == "0 False"
    assert json.loads(proc.stdout)["claim"] == "N(3,3) > 2"
    assert proc.returncode == 2
    assert refusal == _parse(cli.build_parser(), ["regseq", "--bogus"])[1]
    assert refusal.endswith("error: unrecognized arguments: --bogus\n")
