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

The parser computes on ints.  Tokens are plain tuples, a literal's value
its canonical ``(a, b, d)`` triple for ``(a + b*i) / d``, and the grammar
is evaluated on term dicts from exponent tuples to such triples with the
term-dict arithmetic of :mod:`foliations.algebra`, the one that
:class:`~foliations.algebra.Poly`'s ``+``, ``*`` and ``**`` run, so the
terms come out in the order ``Poly`` arithmetic gives them.  One ``Poly``
is built per component, on its term dict as it stands; a parsed vector
field keeps those polynomials as its expansions.
"""

from __future__ import annotations

import math
import re

from .algebra import (
    _ONE,
    Poly,
    _poly,
    _terms_negated,
    _terms_power,
    _terms_product,
    _terms_sum,
)
from .errors import ParseError, StructuralError
from .fields import Chart, OneForm, VectorField

KIND_FIELD = "field"
KIND_FORM = "form"

# bound on every exponent and on the total degree of every product or power
# formed while parsing, checked before the polynomial is expanded; it also
# bounds the term count
_MAX_DEGREE = 32

# ---------------------------------------------------------------------------
# Tokens: ``(kind, text, column, value)`` tuples.  ``kind`` is "number",
# "name", "end", or the operator character itself; a number's ``value`` is
# its canonical ``(a, b, d)`` triple, ``(a + b*i) / d``.
# ---------------------------------------------------------------------------


def _int_literal(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int conversion limit
        raise ParseError(f"numeric literal of {len(digits)} digits is too long",
                         line, col) from None


# literal digits are ASCII only: str.isdigit also accepts superscripts and
# other scripts' digits
_DIGITS = "0123456789"
_I = (0, 1, 1)


def _tokenize(text: str, line: int) -> list[tuple]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            num = _int_literal(text[i:j], line, col)
            den = 1
            if j + 1 < n and text[j] == "/" and text[j + 1] in _DIGITS:
                k = j + 2
                while k < n and text[k] in _DIGITS:
                    k += 1
                den = _int_literal(text[j + 1:k], line, col)
                if den == 0:
                    raise ParseError("zero denominator in literal", line, col)
                j = k
            g = math.gcd(num, den)
            if j < n and text[j] == "i":
                j += 1
                value = (0, num // g, den // g)
            else:
                value = (num // g, 0, den // g)
            out.append(("number", text[i:j], col, value))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            out.append(("number", name, col, _I) if name == "i"
                       else ("name", name, col, None))
            i = j
        elif ch in "+-*^()":
            out.append((ch, ch, col, None))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(("end", "", n + 1, None))
    return out


def _degree(p: dict) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max(map(sum, p), default=-1)


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

def parse_expression(text: str, vars: tuple[str, ...], line: int = 1) -> Poly:
    """Parse one polynomial expression over the declared variables.

    Recursive descent over the tokens, each rule returning its term dict
    and the index of the next token; one :class:`Poly` is built at the end.
    """
    toks = _tokenize(text, line)
    zero = (0,) * len(vars)
    units: dict = {}
    for j, v in enumerate(vars):
        units.setdefault(v, zero[:j] + (1,) + zero[j + 1:])
    one = {zero: _ONE}

    def check_degree(degree: int, col: int) -> None:
        if degree > _MAX_DEGREE:
            raise ParseError(f"total degree {degree} exceeds the limit {_MAX_DEGREE}",
                             line, col)

    def parse_sum(i: int) -> tuple[dict, int]:
        sign = toks[i][0]
        if sign == "+" or sign == "-":
            left, i = parse_product(i + 1)
            if sign == "-":
                left = _terms_negated(left)
        else:
            left, i = parse_product(i)
        while (sign := toks[i][0]) == "+" or sign == "-":
            right, i = parse_product(i + 1)
            left = _terms_sum(left, right if sign == "+" else _terms_negated(right))
        return left, i

    def parse_product(i: int) -> tuple[dict, int]:
        left, i = parse_factor(i)
        while toks[i][0] == "*":
            col = toks[i][2]
            right, i = parse_factor(i + 1)
            check_degree(_degree(left) + _degree(right), col)
            left = _terms_product(left, right)
        return left, i

    def parse_factor(i: int) -> tuple[dict, int]:
        if toks[i][0] == "-":
            value, i = parse_factor(i + 1)
            return _terms_negated(value), i
        base, i = parse_atom(i)
        if toks[i][0] != "^":
            return base, i
        kind, _, col, value = toks[i + 1]
        if kind != "number" or value[1:] != (0, 1):
            raise ParseError("exponent must be a nonnegative integer", line, col)
        k = value[0]                    # a literal is never negative
        if k > _MAX_DEGREE:
            raise ParseError(f"exponent {k} exceeds the limit {_MAX_DEGREE}", line, col)
        check_degree(_degree(base) * k, col)
        return _terms_power(base, k, one), i + 2

    def parse_atom(i: int) -> tuple[dict, int]:
        kind, name, col, value = toks[i]
        if kind == "number":
            return ({zero: value} if value[0] or value[1] else {}), i + 1
        if kind == "name":
            if name not in units:
                raise ParseError(f"undeclared variable {name!r}", line, col)
            return {units[name]: _ONE}, i + 1
        if kind == "(":
            inner, i = parse_sum(i + 1)
            if toks[i][0] != ")":
                raise ParseError("expected ')'", line, toks[i][2])
            return inner, i + 1
        raise ParseError("expected a number, variable, or '('" if kind == "end"
                         else f"unexpected {name!r}", line, col)

    terms, i = parse_sum(0)
    kind, name, col, _ = toks[i]
    if kind != "end":
        raise ParseError(f"unexpected {name!r}", line, col)
    return _poly(tuple(vars), terms)


_SPLITTERS = re.compile(r"[(),]")


def _split_components(body: list[tuple[str, int, str]]) -> list[str]:
    """The top-level comma-separated pieces of the body lines joined by
    spaces; an unbalanced ``)`` raises at its own line and column."""
    joined = " ".join(part for part, _, _ in body)
    parts = []
    depth = 0
    start = 0
    for m in _SPLITTERS.finditer(joined):
        ch = m.group()
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", *_source_position(body, m.start()))
        elif depth == 0:
            parts.append(joined[start:m.start()])
            start = m.end()
    parts.append(joined[start:])
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
    polys = []
    start = 0  # offset of the piece in the joined text
    for piece in pieces:
        try:
            polys.append(parse_expression(piece, vars, first_line))
        except ParseError as exc:
            line, column = _source_position(body, start + exc.column - 1)
            raise ParseError(exc.reason, line, column) from None
        start += len(piece) + 1
    chart = Chart.root(vars)
    if kind == KIND_FIELD:
        return VectorField.make(chart, polys)
    return OneForm.make(chart, polys)


def render_field(obj: VectorField | OneForm) -> str:
    """Canonical file text for a polynomial field or form (round-trips)."""
    if isinstance(obj, VectorField):
        kind = KIND_FIELD
    elif isinstance(obj, OneForm):
        kind = KIND_FORM
    else:
        raise StructuralError("expected a vector field or 1-form")
    lines = ["vars: " + ", ".join(obj.chart.var_names), "kind: " + kind, obj.render()]
    return "\n".join(lines) + "\n"
