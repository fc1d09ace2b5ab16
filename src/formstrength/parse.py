"""Polynomial text grammar and ideal-file input/output.

Grammar (whitespace insignificant)::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := coeff | varpow
    varpow := var ('^' uint)?
    var    := 'x' uint ('_' uint)?
    coeff  := int ('/' uint)?

Canonical output: terms in descending degrevlex order, coefficient 1
suppressed, subtraction rendered as ``a - b`` rather than ``a + -b``.
Ideal files carry one polynomial per line, ``#`` comments, and a header
``ring n=<vars> field=q|fp:<p>`` (optionally ``matrix=RxC`` for rings whose
variables name the entries of a generic matrix).
"""

from __future__ import annotations

import re

from .domains import domain_from_name
from .orders import DEGREVLEX
from .poly import Poly, Ring


class PolyParseError(ValueError):
    """Syntax or semantic error in polynomial text, with position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(x\d+(?:_\d+)?|\d+|[-+*/^])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise PolyParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ring, tokens):
        self.ring = ring
        self.tokens = tokens
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][0]
        return None

    def pos(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return self.tokens[-1][1] if self.tokens else 0

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        dom = self.ring.domain
        add, zero = dom.add, dom.zero
        terms = {}

        def accumulate(mono, c):
            if not c:
                return
            s = add(terms.get(mono, zero), c)
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)

        sign = 1
        tok = self.peek()
        if tok in ("+", "-"):
            self.next()
            sign = -1 if tok == "-" else 1
        accumulate(*self.term(sign))
        while self.peek() is not None:
            tok, pos = self.next()
            if tok == "+":
                accumulate(*self.term(1))
            elif tok == "-":
                accumulate(*self.term(-1))
            else:
                raise PolyParseError(f"expected '+' or '-', got {tok!r}", pos)
        return Poly(self.ring, terms, _clean=False)

    def term(self, sign):
        """One product of factors, as (exponent tuple, coefficient)."""
        dom = self.ring.domain
        exps = [0] * self.ring.nvars
        coeff = dom.mul(dom.from_int(sign), self.factor(exps))
        while self.peek() == "*":
            self.next()
            coeff = dom.mul(coeff, self.factor(exps))
        return tuple(exps), coeff

    def factor(self, exps):
        """Read one factor: a variable power is added into ``exps``, and the
        factor's coefficient (one for a variable power) is returned."""
        if self.peek() is None:
            raise PolyParseError("unexpected end of input", self.pos())
        tok, pos = self.next()
        dom = self.ring.domain
        if tok[0] == "x":
            self.varpow(tok, pos, exps)
            return dom.one
        if tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.next()
                dtok, dpos = self.next() if self.i < len(self.tokens) else (None, self.pos())
                if dtok is None or not dtok.isdigit():
                    raise PolyParseError("expected denominator after '/'", dpos)
                den = int(dtok)
                if den == 0:
                    raise PolyParseError("invalid rational: zero denominator", dpos)
                try:
                    return dom(num, den)
                except ZeroDivisionError as exc:  # den divisible by p over F_p
                    raise PolyParseError(f"invalid rational: {exc}", dpos) from None
            return dom.from_int(num)
        raise PolyParseError(f"expected coefficient or variable, got {tok!r}", pos)

    def varpow(self, name, pos, exps):
        try:
            idx = self.ring.index_of(name)
        except KeyError:
            raise PolyParseError(f"unknown variable name {name!r}", pos) from None
        exp = 1
        if self.peek() == "^":
            self.next()
            if self.peek() is None or not self.peek().isdigit():
                raise PolyParseError("expected integer exponent after '^'", self.pos())
            exp = int(self.next()[0])
        exps[idx] += exp


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse polynomial text in the given ring."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text", 0)
    return _Parser(ring, tokens).parse()


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
    r"^ring\s+n=(\d+)\s+field=(q|fp:\d+)(?:\s+matrix=(\d+)x(\d+))?\s*$"
)


def parse_ring_header(text: str) -> Ring:
    """Parse ``ring n=<vars> field=q|fp:<p> [matrix=RxC]``."""
    m = _RING_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad ring header: {text.strip()!r}")
    nvars = int(m.group(1))
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
