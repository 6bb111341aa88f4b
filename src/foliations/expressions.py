"""Field-expression files: grammar, parser, and canonical rendering.

File format::

    # comments start with '#'
    vars: x, y, z
    kind: field          # or: form
    2*x*y, x^3 + 2*y^2, -2*y*z

Component expressions are sums of terms with Gaussian-rational
coefficients.  Precedence, tightest first: ``^`` (nonnegative integer
exponents), unary minus, ``*``, binary ``+``/``-``.  Numeric literals are
integers, fractions ``p/q``, and imaginary variants written with a trailing
``i`` (``i``, ``2i``, ``3/4i``); mixed constants like ``1+2i`` arise from
ordinary addition, usually parenthesized as in ``(1+2i)*x^2*y``.  The name
``i`` is reserved and cannot be declared as a variable.  Exponents, and the
total degree of every product and power, are at most 32.

Parsing a canonical rendering returns the identical object, making the
canonical text a faithful interchange format.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import GaussianRational, Poly, _make
from .errors import ParseError, StructuralError
from .fields import Chart, OneForm, VectorField

KIND_FIELD = "field"
KIND_FORM = "form"

# bound on every exponent and on the total degree of every product or power
# formed while parsing, checked before the polynomial is expanded; it also
# bounds the term count
_MAX_DEGREE = 32


class Token(NamedTuple):
    kind: str        # number, name, op, end
    text: str
    line: int
    column: int
    value: GaussianRational | None = None


def _int_literal(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int conversion limit
        raise ParseError(f"numeric literal of {len(digits)} digits is too long",
                         line, col) from None


# literal digits are ASCII only: str.isdigit also accepts superscripts and
# other scripts' digits
_DIGITS = "0123456789"


def _tokenize(text: str, line: int) -> list[Token]:
    out: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            num = _int_literal(text[i:j], line, col)
            den = 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                k = j
                while k < n and text[k] in _DIGITS:
                    k += 1
                den = _int_literal(text[j:k], line, col)
                if den == 0:
                    raise ParseError("zero denominator in literal", line, col)
                j = k
            if j < n and text[j] == "i":
                j += 1
                value = _make(0, num, den)
            else:
                value = _make(num, 0, den)
            out.append(Token("number", text[i:j], line, col, value))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name == "i":
                out.append(Token("number", name, line, col,
                                 GaussianRational.i()))
            else:
                out.append(Token("name", name, line, col))
            i = j
            continue
        if ch in "+-*^()":
            out.append(Token("op", ch, line, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("end", "", line, n + 1))
    return out


def _check_degree(degree: int, tok: Token) -> None:
    if degree > _MAX_DEGREE:
        raise ParseError(f"total degree {degree} exceeds the limit {_MAX_DEGREE}",
                         tok.line, tok.column)


class _Parser:
    """Recursive descent over one component expression."""

    def __init__(self, tokens: list[Token], vars: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.vars = vars

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)

    def parse_sum(self) -> Poly:
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.next()
            left = self.parse_product()
            if tok.text == "-":
                left = -left
        else:
            left = self.parse_product()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.next()
                right = self.parse_product()
                left = left + right if tok.text == "+" else left - right
            else:
                return left

    def parse_product(self) -> Poly:
        left = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.next()
                right = self.parse_factor()
                _check_degree(left.degree() + right.degree(), tok)
                left = left * right
            else:
                return left

    def parse_factor(self) -> Poly:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return -self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Poly:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok.kind != "number" or exp_tok.value._abd[1:] != (0, 1):
                raise ParseError("exponent must be a nonnegative integer",
                                 exp_tok.line, exp_tok.column)
            k = exp_tok.value._abd[0]       # a literal is never negative
            if k > _MAX_DEGREE:
                raise ParseError(f"exponent {k} exceeds the limit {_MAX_DEGREE}",
                                 exp_tok.line, exp_tok.column)
            _check_degree(base.degree() * k, exp_tok)
            return base ** k
        return base

    def parse_atom(self) -> Poly:
        tok = self.next()
        if tok.kind == "number":
            return Poly.constant(self.vars, tok.value)
        if tok.kind == "name":
            if tok.text not in self.vars:
                raise ParseError(f"undeclared variable {tok.text!r}",
                                 tok.line, tok.column)
            return Poly.variable(self.vars, tok.text)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_sum()
            close = self.next()
            if close.kind != "op" or close.text != ")":
                raise ParseError("expected ')'", close.line, close.column)
            return inner
        raise ParseError(
            "expected a number, variable, or '('" if tok.kind == "end"
            else f"unexpected {tok.text!r}", tok.line, tok.column)


def parse_expression(text: str, vars: tuple[str, ...], line: int = 1) -> Poly:
    """Parse one polynomial expression over the declared variables."""
    parser = _Parser(_tokenize(text, line), vars)
    poly = parser.parse_sum()
    parser.expect_end()
    return poly


def _split_components(body: list[tuple[str, int, str]]) -> list[str]:
    """The top-level comma-separated pieces of the body lines joined by
    spaces; an unbalanced ``)`` raises at its own line and column."""
    parts = []
    depth = 0
    current = []
    for offset, ch in enumerate(" ".join(part for part, _, _ in body)):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", *_source_position(body, offset))
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _source_position(body: list[tuple[str, int, str]], offset: int) -> tuple[int, int]:
    """File line and column of an offset into the body lines joined by
    spaces; a joining space maps to the end of the line before it."""
    for line, lineno, code in body:
        if offset <= len(line):
            break
        offset -= len(line) + 1
    return lineno, len(code) - len(code.lstrip()) + offset + 1


def parse_field(text: str) -> VectorField | OneForm:
    """Parse a field file into a vector field or 1-form on a fresh chart.

    Header lines declare ``vars:`` (up to three distinct names, ``i``
    reserved) and ``kind:`` (``field`` or ``form``); the remaining
    non-comment lines hold the comma-separated component expressions.
    """
    vars: tuple[str, ...] | None = None
    kind: str | None = None
    body: list[tuple[str, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith("vars:"):
            names = tuple(v.strip() for v in line[5:].split(",") if v.strip())
            if not 1 <= len(names) <= 3:
                raise ParseError("declare one to three variables", lineno, 1)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable names", lineno, 1)
            for name in names:
                if name == "i":
                    raise ParseError("'i' is reserved for the imaginary unit",
                                     lineno, 1)
                if not (name[0].isalpha() or name[0] == "_") \
                        or not all(c.isalnum() or c == "_" for c in name):
                    raise ParseError(f"bad variable name {name!r}", lineno, 1)
            vars = names
            continue
        if lowered.startswith("kind:"):
            kind = line[5:].strip().lower()
            if kind not in (KIND_FIELD, KIND_FORM):
                raise ParseError("kind must be 'field' or 'form'", lineno, 1)
            continue
        body.append((line, lineno, code))
    if vars is None:
        raise ParseError("missing 'vars:' header", 1, 1)
    if kind is None:
        kind = KIND_FIELD
    if not body:
        raise ParseError("missing component expressions", 1, 1)
    first_line = body[0][1]
    pieces = _split_components(body)
    if len(pieces) != len(vars):
        raise ParseError(
            f"expected {len(vars)} components, found {len(pieces)}",
            first_line, 1)
    components = []
    start = 0  # offset of the piece in the joined text
    for piece in pieces:
        try:
            components.append(parse_expression(piece, vars, first_line))
        except ParseError as exc:
            line, column = _source_position(body, start + exc.column - 1)
            raise ParseError(exc.reason, line, column) from None
        start += len(piece) + 1
    chart = Chart.root(vars)
    if kind == KIND_FIELD:
        return VectorField.make(chart, components)
    return OneForm.make(chart, components)


def render_field(obj: VectorField | OneForm) -> str:
    """Canonical file text for a polynomial field or form (round-trips)."""
    if isinstance(obj, VectorField):
        kind = KIND_FIELD
        comps = obj.components
    elif isinstance(obj, OneForm):
        kind = KIND_FORM
        comps = obj.coefficients
    else:
        raise StructuralError("expected a vector field or 1-form")
    lines = [
        "vars: " + ", ".join(obj.chart.var_names),
        "kind: " + kind,
        ", ".join(c.render() for c in comps),
    ]
    return "\n".join(lines) + "\n"
