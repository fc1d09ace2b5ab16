"""Batch command-line interface.

Every command is a pure function of (inputs, flags, seed): two runs with the
same arguments produce byte-identical output.  Exit code 0 means the verdict
passed or the query succeeded, 1 means a computational verdict failed (the
witness is printed), 2 means the invocation or its input was refused (a
``ValueError``, an unreadable file or malformed JSON, and nothing else), and
3 means an internal error (a broken engine invariant, recursion too deep, an
exponent beyond the packed monomial keys, or any other exception, a
``KeyError`` or ``ZeroDivisionError`` included), reported on stderr.  Each
subcommand, and each operation of ``quadric`` and ``gb``, declares only the
flags it reads, so a flag that would be ignored is refused; only ``gb
basis`` has an answer that depends on ``--order``.  Every command but
``recheck`` accepts ``--seed`` and records it in its JSON environment, but
only ``certify small-r`` reads it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .domains import GF, QQ, domain_from_name
from .groebner import (
    Ideal,
    codimension,
    dimension,
    groebner_basis,
    ideal_intersection,
    ideal_quotient,
    is_regular_sequence_direct,
)
from .minors import (
    GenericMatrix,
    check_family_shape,
    column_multidegree,
    laplace_strength_bound,
    maximal_minors,
)
from .orders import order_from_name
from .parse import (
    _digit_limit,
    _too_long,
    dump_ideal_text,
    format_poly,
    load_ideal_file,
    load_ideal_text,
    parse_poly,
    parse_ring_header,
)
from .poly import Ring
from .polygcd import PairReport, multivariate_gcd
from .quadratic import (
    QuadraticForm,
    check_form_variables,
    collective_strength_quadrics,
    diagonal_pair_mod,
    minrank_bruteforce,
    minrank_formula,
    simultaneous_diagonalize,
    strength_from_rank,
)
from .certificates import BUILDERS, PRIME_PARAMS, build_certificate, recheck_certificate
from .version import __version__


def _environment(field, primes, seed):
    return {
        "field": field,
        "primes": sorted(set(primes)),
        "seed": seed,
        "version": __version__,
    }


def _emit(args, command, result, field, primes):
    if args.json:
        doc = {
            "command": command,
            "result": result,
            "environment": _environment(field, primes, args.seed),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return True
    return False


def _load_system(args):
    ring = parse_ring_header("ring " + args.ring) if args.ring else None
    if args.infile is None:
        raise ValueError("--in <file> is required here")
    return load_ideal_file(args.infile, ring)


def _integer(text, signed=False):
    """The int that ``text`` spells in ASCII decimal digits, after one '-'
    where ``signed``; ValueError for any other text.  ``int()`` alone would
    also take blanks, '+', '_' and the digits of other scripts."""
    digits = text[1:] if signed and text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _int_option(signed):
    """The argparse type of an integer option: argparse names the option and
    the value in its refusal."""

    def integer(text):
        return _integer(text, signed)

    return integer


def _gram_entry(tok):
    """One Gram-matrix entry, an integer or a fraction a/b, over Q."""
    if _too_long(tok):
        raise ValueError(f"a number of more than {_digit_limit()} digits")
    num, slash, den = tok.partition("/")
    try:
        num, den = _integer(num, signed=True), _integer(den) if slash else 1
    except ValueError:
        raise ValueError("not an integer or a fraction a/b") from None
    if not den:
        raise ValueError("invalid rational: zero denominator")
    return QQ(num, den)


def _gram_form(lines):
    """A bare symmetric matrix of numbers, one row per line, read over Q."""
    rows = []
    for row, line in enumerate(lines, 1):
        entries = []
        for entry, tok in enumerate(line.replace(",", " ").split(), 1):
            try:
                entries.append(_gram_entry(tok))
            except ValueError as exc:
                raise ValueError(f"Gram matrix row {row}, entry {entry}: {exc}") from None
        rows.append(entries)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("Gram matrix file must be square")
    return QuadraticForm(Ring.flat(n, QQ), rows)


def _load_forms(args):
    """Quadratic forms from --in: a polynomial file, whose ring a header or
    --ring declares, or else a bare symmetric matrix of numbers over Q; a
    file with no form is refused."""
    if args.infile is None:
        raise ValueError("--in <file> is required here")
    with open(args.infile, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = [ln.split("#", 1)[0].strip() for ln in text.split("\n")]
    stripped = [ln for ln in stripped if ln]
    if not stripped:
        raise ValueError(f"{args.infile} holds no quadratic forms")
    if not args.ring and not stripped[0].startswith("ring "):
        check_form_variables(len(stripped))  # one row per variable
        return [_gram_form(stripped)]
    ring, polys = load_ideal_text(text, parse_ring_header("ring " + args.ring) if args.ring else None)
    if not polys:
        raise ValueError(f"{args.infile} holds no quadratic forms")
    check_form_variables(ring.nvars)
    return [QuadraticForm.from_poly(f) for f in polys]


# ---------------------------------------------------------------------------
# commands


def cmd_regseq(args):
    ring, polys = _load_system(args)
    if not polys:
        raise ValueError("the input system is empty")
    direct = is_regular_sequence_direct(polys)
    codim = codimension(Ideal(ring, polys))
    by_codim = codim == len(polys)
    result = {
        "forms": len(polys),
        "variables": ring.nvars,
        "codimension": codim,
        "direct_test_regular": direct,
        "codim_test_regular": by_codim,
        "tests_agree": direct == by_codim,
        "regular": by_codim and direct,
    }
    if len(polys) == 2:
        gcd = multivariate_gcd(*polys)
        result["gcd_report"] = PairReport(gcd, gcd.is_constant(), by_codim).to_dict()
    if not _emit(args, "regseq", result, ring.domain.name, _prime_list(ring.domain)):
        verdict = "regular sequence" if result["regular"] else "NOT a regular sequence"
        print(f"{len(polys)} forms in {ring.nvars} variables over {ring.domain.name}: {verdict}")
        print(f"  codimension {codim}; direct test {direct}, codim test {by_codim}")
        if "gcd_report" in result:
            print(f"  gcd: {result['gcd_report']['gcd']}")
    return 0 if result["regular"] else 1


def _prime_list(domain):
    return [domain.p] if domain.characteristic else []


def _parse_diag(text):
    """The --diag integers; an empty entry, and so an empty list, is refused,
    as is a list too long for a Gram matrix."""
    tokens = text.split(",")
    if any(not tok.strip() for tok in tokens):
        raise ValueError(f"--diag {text!r} has an empty entry; give integers a1,...,an")
    check_form_variables(len(tokens))
    try:
        return [_integer(tok, signed=True) for tok in tokens]
    except ValueError:
        raise ValueError(f"--diag {text!r} is not a list of integers a1,...,an") from None


def _scan_forms(args):
    """The --in forms, reduced mod --p when they are over Q; forms over
    another F_p than --p are refused."""
    forms = _load_forms(args)
    dom = forms[0].domain
    if args.p is not None and not dom.characteristic:
        try:
            forms = [q.reduce_mod(args.p) for q in forms]
        except ZeroDivisionError as exc:  # --p divides a denominator
            raise ValueError(str(exc)) from None
    elif args.p is not None and dom.p != args.p:
        raise ValueError(f"--p {args.p} differs from the field {dom.name} of {args.infile}")
    return forms


def cmd_rank(args):
    if args.diag is not None:
        dom = QQ if args.p is None else GF(args.p)
        diag = _parse_diag(args.diag)
        q = QuadraticForm.diagonal(Ring.flat(len(diag), dom), diag)
    else:
        q = _scan_forms(args)[0]
    r = q.rank()
    result = {"rank": r}
    if args.operation == "strength":
        result["strength"] = strength_from_rank(r)
    if not _emit(args, f"quadric {args.operation}", result, q.domain.name, _prime_list(q.domain)):
        for k, v in result.items():
            print(f"{k}: {v}")
    return 0


def cmd_minrank(args):
    if args.diag is not None:
        b = _parse_diag(args.diag)
        ring = Ring.flat(len(b), QQ)
        f1, f2 = QuadraticForm.diagonal(ring, [1] * len(b)), QuadraticForm.diagonal(ring, b)
        formula = minrank_formula(f1, f2)
        result = {"minrank": formula.value, "method": "formula", "witness": [str(c) for c in formula.witness]}
        primes = []
        if args.p is not None:
            scan = minrank_bruteforce(*diagonal_pair_mod(f1, f2, args.p))
            result["scan"] = scan.to_dict()
            result["scan_agrees"] = scan.value == formula.value
            primes = [args.p]
        field = "q"
    else:
        forms = _scan_forms(args)
        if len(forms) != 2:
            raise ValueError("minrank needs exactly two forms")
        f1, f2 = forms
        field = f1.domain.name
        primes = _prime_list(f1.domain)
        if f1.domain.characteristic:
            scan = minrank_bruteforce(f1, f2)
            result = {"minrank": scan.value, "method": scan.method, "witness": [str(c) for c in scan.witness]}
        else:
            pencil = simultaneous_diagonalize(f1, f2)
            if pencil is None:
                raise ValueError("pencil does not diagonalize over q; supply --p for a scan")
            formula = minrank_formula(*pencil[:2])
            result = {"minrank": formula.value, "method": formula.method, "witness": [str(c) for c in formula.witness]}
    if not _emit(args, "quadric minrank", result, field, primes):
        print(f"minrank: {result['minrank']} (witness combination {result['witness']})")
        if "scan" in result:
            print(f"  scan over fp:{args.p}: {result['scan']['value']} (agrees: {result['scan_agrees']})")
    return 0


def cmd_collective(args):
    forms = _scan_forms(args)
    dom = forms[0].domain
    if not dom.characteristic:
        raise ValueError("collective strength scans need a prime field (--p or an fp ring)")
    value = collective_strength_quadrics(forms)
    result = {"collective_strength": value, "forms": len(forms)}
    if not _emit(args, "quadric collective", result, dom.name, _prime_list(dom)):
        print(f"collective strength over {dom.name}: {value}")
    return 0


def cmd_minors(args):
    if not args.matrix:
        raise ValueError("--matrix RxC is required")
    try:
        rows, cols = (_integer(v) for v in args.matrix.lower().split("x"))
    except ValueError:
        raise ValueError(f"--matrix takes RxC, two integers such as 4x3; got {args.matrix!r}") from None
    domain = domain_from_name(args.field)
    check_family_shape(rows, cols)  # before the ring: a large shape would exhaust memory on its names
    matrix = GenericMatrix(rows, cols, domain)
    minors = maximal_minors(matrix)
    bounds = [laplace_strength_bound(matrix, i) for i in range(1, rows + 1)]
    result = {
        "matrix": f"{rows}x{cols}",
        "minors": [format_poly(f) for f in minors],
        "column_multidegrees": [list(column_multidegree(f)) for f in minors],
        "strength_bounds": [b.bound for b in bounds],
    }
    if not _emit(args, "minors", result, domain.name, _prime_list(domain)):
        print(dump_ideal_text(matrix.ring, minors), end="")
    return 0


def cmd_gb(args):
    ring, polys = _load_system(args)
    if args.operation == "basis":
        basis = groebner_basis(polys, order_from_name(args.order), ring=ring)
        result = {"basis": [format_poly(g) for g in basis], "order": args.order}
        if not _emit(args, "gb basis", result, ring.domain.name, _prime_list(ring.domain)):
            print(dump_ideal_text(ring, list(basis)), end="")
        return 0
    ideal = Ideal(ring, polys)
    if args.operation in ("dim", "codim"):
        value = dimension(ideal) if args.operation == "dim" else codimension(ideal)
        result = {args.operation: value}
        if not _emit(args, f"gb {args.operation}", result, ring.domain.name, _prime_list(ring.domain)):
            print(value)
        return 0
    if args.operation == "intersect":
        if not args.infile2:
            raise ValueError("--in2 <file> is required for intersect")
        ring2, polys2 = load_ideal_file(args.infile2, ring)
        inter = ideal_intersection(ideal, Ideal(ring, polys2))
        result = {"generators": [format_poly(g) for g in inter.gens]}
        if not _emit(args, "gb intersect", result, ring.domain.name, _prime_list(ring.domain)):
            print(dump_ideal_text(ring, inter.gens), end="")
        return 0
    if not args.divisor:
        raise ValueError("--f <poly> is required for quotient")
    f = parse_poly(args.divisor, ring)
    quot = ideal_quotient(ideal, f)
    result = {"generators": [format_poly(g) for g in quot.gens]}
    if not _emit(args, "gb quotient", result, ring.domain.name, _prime_list(ring.domain)):
        print(dump_ideal_text(ring, quot.gens), end="")
    return 0


def cmd_certify(args):
    names = list(BUILDERS) if args.target == "all" else [args.target]
    certs = []
    for name in names:
        overrides = {} if args.p is None else {PRIME_PARAMS[name][0]: args.p}
        certs.append(build_certificate(name, seed=args.seed, **overrides))
    if args.json:
        docs = [c.to_dict() for c in certs]
        payload = docs[0] if len(docs) == 1 else docs
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for cert in certs:
            print(f"{cert.claim}: {'PASS' if cert.passed else 'FAIL'}")
            for v in cert.subverdicts:
                print(f"  [{v.kind}] {v.name}: {'pass' if v.passed else 'FAIL'}")
            failure = cert.first_failure()
            if failure is not None:
                print(f"  witness: {json.dumps(failure.witness, sort_keys=True)}")
    return 0 if all(c.passed for c in certs) else 1


def cmd_recheck(args):
    with open(args.certificate, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    result = recheck_certificate(data)
    if args.json:
        print(json.dumps({"command": "recheck", "result": result.to_dict(),
                          "environment": data.get("environment", {})}, indent=2, sort_keys=True))
    else:
        print(f"recheck {'PASS' if result.passed else 'FAIL'}: {result.detail}")
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------

# option -> add_argument keywords; each subcommand names the ones it reads
_FLAGS = {
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--seed": {"type": _int_option(signed=True), "default": 0},
    "--in": {"dest": "infile", "help": "input file"},
    "--ring": {"help": 'ring override, e.g. "n=3 field=q"'},
    "--order": {"default": "degrevlex", "choices": ["degrevlex", "lex"]},
    "--field": {"default": "q", "help": "coefficient field: q or fp:<p>"},
    "--matrix": {"help": "generic matrix shape RxC"},
    "--diag": {"help": "diagonal coefficients a1,...,an"},
    "--p": {"type": _int_option(signed=False), "help": "prime for finite-field scans"},
    "--in2": {"dest": "infile2", "help": "second ideal file (intersect)"},
    "--f": {"dest": "divisor", "help": "quotient divisor polynomial"},
}


def _flags(p, *options):
    for option in ("--json",) + options:
        p.add_argument(option, **_FLAGS[option])


def _operations(sub, name, help, table):
    ops = sub.add_parser(name, help=help).add_subparsers(dest="operation", required=True)
    for operation, func, *options in table:
        op = ops.add_parser(operation)
        _flags(op, "--seed", *options)
        op.set_defaults(func=func)


def _add_regseq(sub):
    p = sub.add_parser("regseq", help="test a system of forms for regularity")
    _flags(p, "--seed", "--in", "--ring")
    p.set_defaults(func=cmd_regseq)


def _add_quadric(sub):
    forms = ("--in", "--ring", "--p")
    _operations(sub, "quadric", "rank / strength / minrank / collective strength", [
        ("rank", cmd_rank, *forms, "--diag"), ("strength", cmd_rank, *forms, "--diag"),
        ("minrank", cmd_minrank, *forms, "--diag"), ("collective", cmd_collective, *forms),
    ])


def _add_minors(sub):
    p = sub.add_parser("minors", help="build and export maximal-minor families")
    _flags(p, "--seed", "--field", "--matrix")
    p.set_defaults(func=cmd_minors)


def _add_gb(sub):
    _operations(sub, "gb", "Groebner basis and ideal queries", [
        ("basis", cmd_gb, "--in", "--ring", "--order"), ("dim", cmd_gb, "--in", "--ring"),
        ("codim", cmd_gb, "--in", "--ring"), ("intersect", cmd_gb, "--in", "--ring", "--in2"),
        ("quotient", cmd_gb, "--in", "--ring", "--f"),
    ])


def _add_certify(sub):
    p = sub.add_parser("certify", help="build a machine-checked certificate")
    p.add_argument("target", choices=sorted(BUILDERS) + ["all"])
    _flags(p, "--seed", "--p")
    p.set_defaults(func=cmd_certify)


def _add_recheck(sub):
    p = sub.add_parser("recheck", help="re-verify a serialized certificate")
    p.add_argument("certificate", help="certificate JSON file")
    _flags(p)
    p.set_defaults(func=cmd_recheck)


# subcommand -> the function that adds its parser, in the order --help lists them
_SUBCOMMANDS = {
    "regseq": _add_regseq,
    "quadric": _add_quadric,
    "minors": _add_minors,
    "gb": _add_gb,
    "certify": _add_certify,
    "recheck": _add_recheck,
}


def build_parser(command=None):
    """The argument parser, with every subcommand, or with ``command`` only
    that one's.  Its usage line names every subcommand either way, so a
    usage or error message does not depend on which were built."""
    parser = argparse.ArgumentParser(
        prog="formstrength",
        description="Exact certificates for rank, strength and regular-sequence properties of forms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # argparse spells the usage of a full parser's subcommands this way
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, add in _SUBCOMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


def parser_for(argv):
    """The parser ``run`` reads ``argv`` with: one subcommand's when argv
    starts with its name, since only that one is read, else every one, for
    ``--help``, ``--version`` and the messages of a missing or unknown
    command."""
    return build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)


def run(argv) -> int:
    parser = parser_for(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
