import json
import pathlib
import random
import time
from itertools import combinations_with_replacement

import pytest

import formstrength.cli as cli
import formstrength.groebner as groebner
import formstrength.minors as minors
import formstrength.polygcd as polygcd
import formstrength.quadratic as quadratic
from formstrength.cli import run
from formstrength.domains import GF, QQ
from formstrength.parse import dump_ideal_text
from formstrength.poly import Poly, Ring


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


def test_gb_basis_lex_order(tmp_path, capsys):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("ring n=3 field=q\nx1^2 - x2\nx1^3 - x3\n")
    assert run(["gb", "basis", "--in", str(ideal), "--order", "lex"]) == 0
    out, _ = _capture(capsys)
    assert "x2^3 - x3^2" in out  # the eliminant appears under lex


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
    def broken(args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "cmd_gb", broken)
    path = tmp_path / "sys.txt"
    path.write_text("ring n=2 field=q\nx1\n")
    assert run(["gb", "codim", "--in", str(path)]) == 3
    out, err = _capture(capsys)
    assert out == ""
    assert err == "internal error: TypeError: unsupported operand\n"


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


def test_exponent_beyond_packed_keys_exits_three(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("ring n=2 field=fp:32003\nx1^40000 - x2\n")
    assert run(["gb", "basis", "--in", str(path)]) == 3
    _, err = _capture(capsys)
    assert "KeyWidthError" in err


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

    monkeypatch.setattr(quadratic, "_gram_ranks", no_scan)
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
    fixture = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "v0.1.0" / "n32-upper-sample.json"
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


def _dense_cubics(rng, ring, count, draw):
    """``count`` forms with every cubic monomial, coefficients from ``draw``."""
    n = ring.nvars
    forms = []
    for _ in range(count):
        terms = {}
        for combo in combinations_with_replacement(range(n), 3):
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


def test_two_form_regseq_computes_one_gcd_and_three_bases(tmp_path, capsys, monkeypatch):
    calls = {"gcd": 0, "basis": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    gcd = counted("gcd", polygcd.multivariate_gcd)
    monkeypatch.setattr(polygcd, "multivariate_gcd", gcd)
    monkeypatch.setattr(cli, "multivariate_gcd", gcd)
    monkeypatch.setattr(groebner, "groebner_basis", counted("basis", groebner.groebner_basis))
    path = tmp_path / "sys.txt"
    path.write_text(REGSEQ_PAIR_F7)
    assert run(["regseq", "--json", "--in", str(path)]) == 1
    _capture(capsys)
    assert calls == {"gcd": 1, "basis": 3}
