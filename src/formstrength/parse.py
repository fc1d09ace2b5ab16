r"""Polynomial text grammar and ideal-file input/output.

Grammar (whitespace insignificant)::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := coeff | varpow
    varpow := var ('^' uint)?
    var    := 'x' uint ('_' uint)?
    coeff  := int ('/' uint)?

A line is read in three steps.
1. Validate.  '+' and '-' occur in the grammar only between terms, so the
   line is cut at each '+' and before each '-', and each piece (an optional
   '-', then one term between blanks) must ``fullmatch`` one pattern built
   from the grammar's factor and term patterns; a blank first piece stands
   for the blanks before a leading sign.  Matching a term at a time keeps
   the matcher's backtracking records as short as a term: one pattern over
   a whole line keeps one per factor, about 3 MB on the 720-term lines of
   the 7x6 maximal minors.
2. Split.  The blanks of valid text are removed: a factor is always
   followed by ``*``, ``+``, ``-`` or the end, so no two tokens that a blank
   separates can merge (``x1 2`` is refused, never read as ``x12``).  The
   text then splits into signed terms and each term into factors on ``*``.
3. Resolve.  A factor is resolved by partitioning it on ``^`` or ``/``,
   once per distinct factor string of the line.

Only refused text is read again, token by token, to report the first fault
with its position: a character no token starts with, anywhere in the text,
comes first, then syntax and factor faults in reading order.

Every pattern runs in time linear in its input because no two blank runs
meet around an optional character: a piece's '-' is its first character,
so its pattern starts ``-?\s*``, where ``\s*-?\s*`` would let ``fullmatch``
try every split of a long run of blanks, quadratic in its length.

Canonical output: terms in descending degrevlex order, coefficient 1
suppressed, subtraction rendered as ``a - b`` rather than ``a + -b``.
Ideal files carry one polynomial per line, ``#`` comments, and a header
``ring n=<vars> field=q|fp:<p>`` (optionally ``matrix=RxC`` for rings whose
variables name the entries of a generic matrix).
"""

from __future__ import annotations

import re

from .domains import _digit_limit, domain_from_name
from .orders import DEGREVLEX, MAX_EXPONENT
from .poly import Poly, Ring


class PolyParseError(ValueError):
    """Syntax or semantic error in polynomial text, with position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_VAR = r"x[0-9]+(?:_[0-9]+)?"
_FACTOR = rf"(?:{_VAR}(?:\s*\^\s*[0-9]+)?|[0-9]+(?:\s*/\s*[0-9]+)?)"
_TERM = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
# one term of a line cut at each '+' and before each '-' (see the module docstring)
_PIECE = rf"-?\s*{_TERM}\s*"
_TOKEN = rf"\s*({_VAR}|[0-9]+|[-+*/^])"


def _too_long(text):
    """True when text holds a run of more digits than ``int()`` converts."""
    limit = _digit_limit()
    return bool(limit) and any(len(d) > limit for d in re.findall(r"[0-9]+", text))


def _factor(ring, factor):
    """Resolve one factor without blanks: (variable index, exponent) for a
    variable power, (None, value) for a coefficient.  Raises KeyError for an
    unknown variable, ZeroDivisionError for a denominator that is zero or,
    over F_p, divisible by p, and ValueError for a number of more digits
    than ``_digit_limit()``."""
    if factor[0] == "x":
        name, _, exp = factor.partition("^")
        return ring.index_of(name), int(exp) if exp else 1
    num, _, den = factor.partition("/")
    if not den:
        return None, ring.domain.from_int(int(num))
    if int(den) == 0:
        raise ZeroDivisionError("zero denominator")
    return None, ring.domain(int(num), int(den))


def _terms(text, ring):
    """The term dict of valid text, or None when a term's exponents exceed
    MAX_EXPONENT."""
    dom = ring.domain
    mul, add, neg, one = dom.mul, dom.add, dom.neg, dom.one
    n = ring.nvars
    factors = {}
    terms = {}
    for term in "".join(text.split()).replace("-", "+-").split("+"):
        if not term:
            continue
        negative = term[0] == "-"
        fs = (term[1:] if negative else term).split("*")
        exps = [0] * n
        c = one
        for f in fs:
            r = factors.get(f)
            if r is None:
                r = factors[f] = _factor(ring, f)
            i, v = r
            if i is None:
                c = mul(c, v)
            else:
                exps[i] += v
        # without a '^', no exponent exceeds the number of factors
        if ("^" in term or len(fs) > MAX_EXPONENT) and max(exps, default=0) > MAX_EXPONENT:
            return None
        if not c:
            continue
        if negative:
            c = neg(c)
        mono = tuple(exps)
        s = terms.get(mono)
        if s is None:
            terms[mono] = c
        else:
            s = add(s, c)
            if s:
                terms[mono] = s
            else:
                del terms[mono]
    return terms


def _next_token(text, pos):
    """The token at or after pos, and where it starts; (None, pos) at the end."""
    m = re.compile(_TOKEN).match(text, pos)
    return (m.group(1), m.start(1)) if m else (None, pos)


def _fault(text, ring):
    """The PolyParseError of the first fault in text that parse_poly refused,
    in the order a left-to-right reading meets it: a character no token
    starts with anywhere in the text, then the first syntax or factor fault.
    Runs only on refused text."""
    token = re.compile(_TOKEN).match
    end, m = 0, token(text)
    while m:
        end = m.end()
        m = token(text, end)
    rest = text[end:].strip()
    if rest:
        return PolyParseError(f"unexpected character {rest[0]!r}", end)
    if not text.strip():
        return PolyParseError("empty polynomial text", 0)
    tok, pos = _next_token(text, 0)
    if tok in ("+", "-"):
        tok, pos = _next_token(text, pos + 1)
    exps = [0] * ring.nvars
    while True:
        if tok is None:  # the last token is the operator before the missing factor
            return PolyParseError("unexpected end of input", len(text.rstrip()) - 1)
        m = re.compile(_FACTOR).match(text, pos)
        if m is None:
            return PolyParseError(f"expected coefficient or variable, got {tok!r}", pos)
        factor = "".join(m.group().split())
        try:
            i, v = _factor(ring, factor)
        except KeyError:
            return PolyParseError(f"unknown variable name {tok!r}", pos)
        except ZeroDivisionError as exc:
            den_pos = m.end() - len(factor.partition("/")[2])
            return PolyParseError(f"invalid rational: {exc}", den_pos)
        except ValueError:
            # int() refused the factor's first number of too many digits
            limit = _digit_limit()
            digits = next(d for d in re.finditer(r"[0-9]+", m.group()) if len(d.group()) > limit)
            return PolyParseError(f"number of more than {limit} digits", m.start() + digits.start())
        if i is not None:
            exps[i] += v
            if exps[i] > MAX_EXPONENT:
                # summed over the term's factors, so x1^20000*x1^20000 is refused
                return PolyParseError(f"exponent above {MAX_EXPONENT}, the packed key limit", pos)
        tok, pos = _next_token(text, m.end())
        if tok is None:
            raise AssertionError(f"no fault found in refused text {text!r}")
        if tok in ("+", "-"):
            exps = [0] * ring.nvars
        elif tok == "^" and factor[0] == "x" and "^" not in factor:
            after, after_pos = _next_token(text, pos + 1)
            return PolyParseError("expected integer exponent after '^'", after_pos if after else pos)
        elif tok == "/" and factor[0] != "x" and "/" not in factor:
            after, after_pos = _next_token(text, pos + 1)
            return PolyParseError("expected denominator after '/'", after_pos if after else pos)
        elif tok != "*":
            return PolyParseError(f"expected '+' or '-', got {tok!r}", pos)
        tok, pos = _next_token(text, pos + 1)


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse polynomial text in the given ring."""
    pieces = text.replace("-", "+-").split("+")
    if not pieces[0].strip():  # the blanks before a leading sign, or all of the text
        del pieces[0]
    # re compiles the pattern on first use, so importing the package does
    # not pay for it
    if pieces and all(map(re.compile(_PIECE).fullmatch, pieces)):
        try:
            terms = _terms(text, ring)
        except (KeyError, ValueError, ZeroDivisionError):
            terms = None  # _fault finds it again, with its position
        if terms is not None:
            return Poly(ring, terms, _clean=False)
    raise _fault(text, ring)


def format_poly(f: Poly) -> str:
    """Canonical text: descending degrevlex, ``a - b`` sign handling."""
    if not f.terms:
        return "0"
    dom = f.ring.domain
    names = f.ring.names
    monos = sorted(f.terms, key=DEGREVLEX.key, reverse=True)
    pieces = []
    for k, m in enumerate(monos):
        c = f.terms[m]
        if dom.characteristic == 0 and c < 0:
            sep = "-" if k == 0 else " - "
            c = -c
        else:
            sep = "" if k == 0 else " + "
        factors = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e]
        body = "*".join(factors)
        if not body:
            body = str(c)
        elif c != dom.one:
            body = f"{c}*{body}"
        pieces.append(sep + body)
    return "".join(pieces)


# ---------------------------------------------------------------------------
# ideal files

_RING_RE = re.compile(
    r"^ring\s+n=([0-9]+)\s+field=(q|fp:[0-9]+)(?:\s+matrix=([0-9]+)x([0-9]+))?\s*$"
)

# The most variables a ring header may declare.  A ring holds one name per
# variable and every monomial one exponent per variable, so a header such
# as n=10^9 would exhaust memory before any line is read.
_MAX_VARIABLES = 100_000


def parse_ring_header(text: str) -> Ring:
    """Parse ``ring n=<vars> field=q|fp:<p> [matrix=RxC]``."""
    m = _RING_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad ring header: {text.strip()!r}")
    if _too_long(m.group()):
        raise ValueError(f"bad ring header: a number of more than {_digit_limit()} digits")
    nvars = int(m.group(1))
    if nvars > _MAX_VARIABLES:
        raise ValueError(f"bad ring header: more than {_MAX_VARIABLES} variables")
    domain = domain_from_name(m.group(2))
    if m.group(3):
        rows, cols = int(m.group(3)), int(m.group(4))
        if rows * cols != nvars:
            raise ValueError(f"matrix {rows}x{cols} does not match n={nvars}")
        return Ring.matrix(rows, cols, domain)
    return Ring.flat(nvars, domain)


def format_ring_header(ring: Ring) -> str:
    extra = ""
    if ring.matrix_shape is not None:
        rows, cols = ring.matrix_shape
        extra = f" matrix={rows}x{cols}"
    return f"ring n={ring.nvars} field={ring.domain.name}{extra}"


def load_ideal_text(text: str, ring: Ring | None = None):
    """Read an ideal file body: returns (ring, [poly, ...])."""
    polys = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ring "):
            header_ring = parse_ring_header(line)
            if ring is not None and ring != header_ring:
                raise ValueError("ring header conflicts with the declared ring")
            ring = header_ring
            continue
        if ring is None:
            raise ValueError("polynomial line before any ring declaration")
        polys.append(parse_poly(line, ring))
    if ring is None:
        raise ValueError("no ring declared")
    return ring, polys


def load_ideal_file(path, ring: Ring | None = None):
    with open(path, "r", encoding="utf-8") as fh:
        return load_ideal_text(fh.read(), ring)


def dump_ideal_text(ring: Ring, polys) -> str:
    lines = [format_ring_header(ring)]
    lines.extend(format_poly(f) for f in polys)
    return "\n".join(lines) + "\n"
