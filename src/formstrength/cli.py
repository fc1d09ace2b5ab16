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

The commands, their operations, flags, positionals and handlers are one
table, ``_SUBCOMMANDS``.  ``run`` reads a plain line from it directly
(``_read_plain``): a command, its operation, then each declared flag at
most once and the positional, in any order, with valid values.  Every
other line goes to argparse, imported and built from the table only then:
``-h``, ``--help`` and ``--version``, a missing or unknown command or
operation, an unknown or abbreviated flag, ``--flag=value``, a value that
is empty or starts with '-' (a negative number included), a repeated flag,
``--``, a missing positional and every refusal.  ``run`` keeps its name:
``perfbench/tracing.py`` wraps it as the benchmark's ``cli`` layer.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

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
    """The type of an integer option, called by the plain reader and by
    argparse alike: a ValueError sends the line to argparse, which names
    the option and the value in its refusal."""

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
    ideal = Ideal(ring, polys)
    direct = is_regular_sequence_direct(polys, ideal)
    codim = codimension(ideal)
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

# option -> add_argument keywords; each command or operation names the ones
# it reads
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

# command -> (help, positional, operations), in the order --help lists them.
# A positional is (dest, add_argument keywords); operations map each
# operation of quadric and gb, or None for a command without any, to its
# handler and the flags it reads besides --json.
_SUBCOMMANDS = {
    "regseq": ("test a system of forms for regularity", None, {
        None: (cmd_regseq, "--seed --in --ring"),
    }),
    "quadric": ("rank / strength / minrank / collective strength", None, {
        "rank": (cmd_rank, "--seed --in --ring --p --diag"),
        "strength": (cmd_rank, "--seed --in --ring --p --diag"),
        "minrank": (cmd_minrank, "--seed --in --ring --p --diag"),
        "collective": (cmd_collective, "--seed --in --ring --p"),
    }),
    "minors": ("build and export maximal-minor families", None, {
        None: (cmd_minors, "--seed --field --matrix"),
    }),
    "gb": ("Groebner basis and ideal queries", None, {
        "basis": (cmd_gb, "--seed --in --ring --order"),
        "dim": (cmd_gb, "--seed --in --ring"),
        "codim": (cmd_gb, "--seed --in --ring"),
        "intersect": (cmd_gb, "--seed --in --ring --in2"),
        "quotient": (cmd_gb, "--seed --in --ring --f"),
    }),
    "certify": ("build a machine-checked certificate",
                ("target", {"choices": sorted(BUILDERS) + ["all"]}), {
        None: (cmd_certify, "--seed --p"),
    }),
    "recheck": ("re-verify a serialized certificate",
                ("certificate", {"help": "certificate JSON file"}), {
        None: (cmd_recheck, ""),
    }),
}


def _declared(flags):
    """The options of a table entry's ``flags``, --json first."""
    return ["--json", *flags.split()]


def _dest(option):
    return _FLAGS[option].get("dest", option[2:])


def build_parser(command=None):
    """The argument parser, with every subcommand, or with ``command`` only
    that one's.  Its usage line names every subcommand either way, so a
    usage or error message does not depend on which were built."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="formstrength",
        description="Exact certificates for rank, strength and regular-sequence properties of forms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # argparse spells the usage of a full parser's subcommands this way
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (summary, positional, operations) in _SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=summary)
        if None not in operations:
            ops = p.add_subparsers(dest="operation", required=True)
        for operation, (func, flags) in operations.items():
            op = p if operation is None else ops.add_parser(operation)
            if positional is not None:
                op.add_argument(positional[0], **positional[1])
            for option in _declared(flags):
                op.add_argument(option, **_FLAGS[option])
            op.set_defaults(func=func)
    return parser


def parser_for(argv):
    """The parser ``run`` falls back to for ``argv``: one subcommand's when
    argv starts with its name, since only that one is read, else every one,
    for ``--help``, ``--version`` and the messages of a missing or unknown
    command."""
    return build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)


def _read_plain(argv):
    """The namespace argparse would give for a plain command line, read
    from the table, or None for any other line.  A plain line is a command,
    its operation for quadric and gb, then each declared flag at most once
    and the command's positional once, in any order; a store_true flag takes
    no value, every other flag the next token.  No value is empty or starts
    with '-', and each passes the flag's type and choices."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, positional, operations = _SUBCOMMANDS[argv[0]]
    args = {"command": argv[0]}
    rest = iter(argv[1:])
    operation = None
    if None not in operations:
        operation = args["operation"] = next(rest, None)
        if operation not in operations:
            return None
    func, flags = operations[operation]
    declared = _declared(flags)
    for option in declared:
        keywords = _FLAGS[option]
        args[_dest(option)] = keywords.get("default", False if "action" in keywords else None)
    seen = set()
    for token in rest:
        if token in declared and token not in seen:
            seen.add(token)
            keywords, dest = _FLAGS[token], _dest(token)
            if "action" in keywords:  # store_true
                args[dest] = True
                continue
            value = next(rest, "")
        elif positional is not None and positional[0] not in seen:
            dest = positional[0]
            seen.add(dest)
            keywords, value = positional[1], token
        else:
            return None
        if not value or value[0] == "-":
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        args[dest] = value
    if positional is not None and positional[0] not in seen:
        return None
    args["func"] = func
    return SimpleNamespace(**args)


def run(argv) -> int:
    args = _read_plain(argv)
    if args is None:
        try:
            args = parser_for(argv).parse_args(argv)
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
