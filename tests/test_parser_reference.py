"""The expression parser against a reference.

The reference below is the parser written the direct way: a tokenizer that
builds one ``Token`` per token, with its value as a
:class:`~foliations.algebra.GaussianRational`, and a recursive-descent
parser that builds one :class:`~foliations.algebra.Poly` per atom and
combines them with ``Poly``'s addition, negation, multiplication and
square-and-multiply power, copied here so that the reference does not move
with the library.

The toolkit must agree with it on every text: the same variables and terms
in the same dict order, or a :class:`~foliations.errors.ParseError` with the
same message, line and column.  Texts are drawn valid and invalid: sums,
products, powers of sums that cancel, fractions, ``i`` literals, Unicode
digits, over-long literals and unbalanced parentheses.  Every fixture file
is also compared component by component through ``parse_field``.

``Poly``'s own ``+``, ``-``, ``*`` and ``**`` must give the reference
arithmetic's terms in the same dict order, on random polynomials with
non-trivial denominators and terms that cancel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliations.algebra import GR_ONE, GR_ZERO, ChartFunction, GaussianRational, Poly, _make
from foliations.corpus import fixtures_dir
from foliations.errors import ParseError
from foliations.expressions import (
    _MAX_DEGREE,
    _split_components,
    parse_expression,
    parse_field,
)
from foliations.fields import VectorField

# ---------------------------------------------------------------------------
# Reference polynomial arithmetic
# ---------------------------------------------------------------------------


def reference_add(p: Poly, q: Poly) -> Poly:
    out = dict(p.terms)
    for e, c in q.terms.items():
        s = out.get(e, GR_ZERO) + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return Poly(p.vars, out)


def reference_neg(p: Poly) -> Poly:
    return Poly(p.vars, {e: -c for e, c in p.terms.items()})


def reference_mul(p: Poly, q: Poly) -> Poly:
    # times one term: the keys stay in the other factor's order
    one, many = (p, q) if len(p.terms) == 1 else (q, p)
    if len(one.terms) == 1:
        (e1, c1), = one.terms.items()
        return Poly(p.vars, {tuple(x + y for x, y in zip(e, e1)): c * c1
                             for e, c in many.terms.items()})
    out: dict = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, GR_ZERO) + ca * cb
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return Poly(p.vars, out)


def reference_pow(p: Poly, k: int) -> Poly:
    out = Poly(p.vars, {(0,) * len(p.vars): GR_ONE})
    base = p
    while k:
        if k & 1:
            out = reference_mul(out, base)
        base = reference_mul(base, base)
        k >>= 1
    return out


def reference_degree(p: Poly) -> int:
    return max((sum(e) for e in p.terms), default=-1)


# ---------------------------------------------------------------------------
# Reference tokenizer and parser
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str        # number, name, op, end
    text: str
    line: int
    column: int
    value: GaussianRational | None = None


def _int_literal(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"numeric literal of {len(digits)} digits is too long",
                         line, col) from None


_DIGITS = "0123456789"


def reference_tokenize(text: str, line: int) -> list[Token]:
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
                out.append(Token("number", name, line, col, GaussianRational.i()))
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


class ReferenceParser:
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
                left = reference_neg(left)
        else:
            left = self.parse_product()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.next()
                right = self.parse_product()
                left = reference_add(left, right if tok.text == "+" else reference_neg(right))
            else:
                return left

    def parse_product(self) -> Poly:
        left = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.next()
                right = self.parse_factor()
                _check_degree(reference_degree(left) + reference_degree(right), tok)
                left = reference_mul(left, right)
            else:
                return left

    def parse_factor(self) -> Poly:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return reference_neg(self.parse_factor())
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
            k = exp_tok.value._abd[0]
            if k > _MAX_DEGREE:
                raise ParseError(f"exponent {k} exceeds the limit {_MAX_DEGREE}",
                                 exp_tok.line, exp_tok.column)
            _check_degree(reference_degree(base) * k, exp_tok)
            return reference_pow(base, k)
        return base

    def parse_atom(self) -> Poly:
        tok = self.next()
        if tok.kind == "number":
            if tok.value.is_zero():
                return Poly(self.vars, {})
            return Poly(self.vars, {(0,) * len(self.vars): tok.value})
        if tok.kind == "name":
            if tok.text not in self.vars:
                raise ParseError(f"undeclared variable {tok.text!r}",
                                 tok.line, tok.column)
            return Poly(self.vars, {tuple(int(v == tok.text) for v in self.vars): GR_ONE})
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_sum()
            close = self.next()
            if close.kind != "op" or close.text != ")":
                raise ParseError("expected ')'", close.line, close.column)
            return inner
        raise ParseError(
            "expected a number, variable, or '('" if tok.kind == "end"
            else f"unexpected {tok.text!r}", tok.line, tok.column)


def reference_parse_expression(text: str, vars: tuple[str, ...], line: int = 1) -> Poly:
    parser = ReferenceParser(reference_tokenize(text, line), vars)
    poly = parser.parse_sum()
    parser.expect_end()
    return poly


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _terms(p: Poly) -> tuple:
    """The variables and the terms of ``p`` in dict order, as ints."""
    return p.vars, [(e, c._abd) for e, c in p.terms.items()]


def outcome(parse, text: str, vars: tuple[str, ...], line: int = 1):
    try:
        return _terms(parse(text, vars, line))
    except ParseError as exc:
        return ("error", str(exc), exc.reason, exc.line, exc.column)


def assert_agrees(text: str, vars: tuple[str, ...], line: int = 1) -> None:
    assert outcome(parse_expression, text, vars, line) == \
        outcome(reference_parse_expression, text, vars, line), text


def assert_field_agrees(text: str) -> None:
    """``parse_field`` gives, per component, the reference's terms in order,
    both as its expansion and through its chart function."""
    obj = parse_field(text)
    names = obj.chart.var_names
    lines = [(line, n, code) for n, raw in enumerate(text.splitlines(), start=1)
             if (line := (code := raw.split("#", 1)[0]).strip())
             and not line.lower().startswith(("vars:", "kind:"))]
    pieces = _split_components(lines)
    assert len(pieces) == len(names)
    comps = obj.components if isinstance(obj, VectorField) else obj.coefficients
    for piece, comp in zip(pieces, comps):
        expected = reference_parse_expression(piece, names, lines[0][1])
        reference = ChartFunction.make(expected)
        assert _terms(comp.numerator) == _terms(reference.numerator)
        assert comp.monomial_exponents == reference.monomial_exponents
    if isinstance(obj, VectorField):
        assert [_terms(p) for p in obj.polys()] == [
            _terms(reference_parse_expression(piece, names, lines[0][1])) for piece in pieces]


# ---------------------------------------------------------------------------
# Texts
# ---------------------------------------------------------------------------

V3 = ("x", "y", "z")
_VARS = st.sampled_from([("x",), ("x", "y"), V3, ("u", "v_1")])

_spaces = st.sampled_from(["", "", " ", "  ", "\t"])
_small = st.integers(0, 12)
_integers = st.one_of(_small, _small, _small, st.integers(0, 10 ** 30)).map(str)
_denominators = st.one_of(st.integers(1, 9), st.integers(1, 9), st.integers(1, 10 ** 20))
_numbers = st.one_of(
    _integers,
    st.tuples(_integers, _denominators).map(lambda t: f"{t[0]}/{t[1]}"))


@st.composite
def _atoms(draw, vars):
    # hypothesis favours the ends of a range: both are declared names
    kind = draw(st.integers(0, 63))
    if kind == 7:
        return draw(st.sampled_from(["w", "ix", "x_1", "xi", "_"]))
    if kind in (8, 9):
        return draw(_numbers)
    if kind == 10:
        return draw(_numbers) + "i"
    if kind == 11:
        return "i"
    return draw(st.sampled_from(vars))


@st.composite
def _factor(draw, vars, depth):
    if depth and draw(st.integers(0, 2)) == 0:
        base = f"({draw(_sum(vars, depth - 1))})"
    else:
        base = draw(_atoms(vars))
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.one_of(*[st.integers(0, 3)] * 9, st.integers(4, 36)))
        base = f"{base}{draw(_spaces)}^{draw(_spaces)}{k}"
    return draw(st.sampled_from(["", "", "", "-"])) + base


@st.composite
def _product(draw, vars, depth):
    factors = [draw(_factor(vars, depth)) for _ in range(draw(st.integers(1, 2)))]
    return f"{draw(_spaces)}*{draw(_spaces)}".join(factors)


@st.composite
def _sum(draw, vars, depth):
    """A sum of products; sometimes followed by terms that cancel it, so
    keys are deleted and may come back later in the sum."""
    text = draw(st.sampled_from(["", "", "", "-", "+"])) + draw(_product(vars, depth))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["+", "-"]))
        text += f"{draw(_spaces)}{op}{draw(_spaces)}{draw(_product(vars, depth))}"
    form = draw(st.sampled_from(["{s}", "{s}", "{s}", "{s} - ({s})", "({s})^2 - ({s})*({s})",
                                 "-1*({s}) + {s} + ({s})^2", "({s})^3 + -({s})^3 + {v}"]))
    return form.format(s=text, v=vars[-1])


_junk = st.sampled_from(["(", ")", "((", "))", "$", ".", "/", "/0", "^", "^-1", "*", "**",
                         "+", "-", " ", "\u00b2", "\u0663", "\u00bd", "x\u00b2", "2i",
                         "1/0", "1" * 4400, "2/" + "3" * 4400, ",", "\n", "\u00e9", "_1"])


@st.composite
def _cases(draw):
    """``(text, vars)``: an expression over ``vars``; three in seven are
    mutated by inserting junk or deleting a character."""
    vars = draw(_VARS)
    text = draw(_sum(vars, 2))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2]))):
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:pos] + draw(_junk) + text[pos:]
        else:
            text = text[:pos] + text[pos + 1:]
    return text, vars


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_cases(), st.integers(1, 9))
@example(("(x + y)^3 - (x - y)^3 + x^3", V3), 1)
@example(("x + y - x + x", V3), 1)
@example(("(x + y)^16*(x - y)^16*x", V3), 1)
@example(("(x^8)^5", V3), 2)
@example(("1" * 5000 + "*x", V3), 1)
@example(("((x + 1)^2 - x^2 - 2*x - 1)^33", V3), 1)
@example(("(1/2 + 3/4i)^5*x*(y - 2i)^3 + 0/7 - 0i", V3), 1)
@example(("x^4/2 + 4/2*x + \u0663", V3), 1)
@example(("(x + (y - (z + 1)", V3), 1)
@example(("0*x^32*y", V3), 1)
def test_expression_matches_reference(case, line):
    text, vars = case
    assert_agrees(text, vars, line)


@pytest.mark.parametrize("path", sorted(fixtures_dir().glob("*.field")),
                         ids=lambda p: p.name)
def test_fixture_files_match_reference(path):
    assert_field_agrees(path.read_text(encoding="utf-8"))


def test_reference_pow_is_square_and_multiply():
    # the reference's own check: a power equals repeated products
    p = reference_parse_expression("(x - 2*y + 1/3i)", ("x", "y"))
    for k in range(6):
        q = Poly(p.vars, {(0, 0): GR_ONE})
        for _ in range(k):
            q = reference_mul(q, p)
        assert reference_pow(p, k) == q


# ---------------------------------------------------------------------------
# Poly arithmetic against the reference
# ---------------------------------------------------------------------------

_coefficients = st.sampled_from([
    GaussianRational.of(c) for c in (1, 1, -1, -1, 2, -3, "1/2", "-1/3", "3/4", "10/7")]
    + [GaussianRational(0, 1), GaussianRational(1, -1), GaussianRational(Fraction(1, 6), 2),
       GaussianRational(Fraction(-5, 4), Fraction(7, 10 ** 20 + 39))])


@st.composite
def _polys(draw, vars):
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))
    return Poly.make(vars, dict(draw(st.lists(st.tuples(exps, _coefficients), max_size=6))))


@st.composite
def _poly_pairs(draw):
    """``(p, q)`` on one variable list; ``q`` often repeats some of ``p``'s
    terms, negated or scaled by -1/2, before its own, so sums cancel."""
    vars = draw(_VARS)
    p = draw(_polys(vars))
    q = draw(_polys(vars))
    if p.terms and draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(list(p.terms)), unique=True))
        factor = draw(st.sampled_from([GaussianRational.of(-1), GaussianRational.of("-1/2")]))
        q = Poly.make(vars, {**{e: p.terms[e] * factor for e in keys}, **q.terms})
    return p, q


def _same(r: Poly, expected: Poly) -> None:
    assert r.vars == expected.vars
    assert list(r.terms.items()) == list(expected.terms.items())


X, Y = Poly.variable(("x", "y"), "x"), Poly.variable(("x", "y"), "y")


@settings(max_examples=300, deadline=None)
@given(_poly_pairs(), st.integers(0, 4))
@example((X + Y, X - Y), 2)
@example((X.scale("1/2") + Y.scale("1/3"), X.scale("-1/2") + Y.scale("2/3")), 3)
@example((X - Y + Poly.constant(("x", "y"), 1), X + Y), 4)
def test_poly_arithmetic_matches_reference(pair, k):
    p, q = pair
    _same(p + q, reference_add(p, q))
    _same(p - q, reference_add(p, reference_neg(q)))
    _same(p * q, reference_mul(p, q))
    _same(q * p, reference_mul(q, p))
    _same(p ** k, reference_pow(p, k))
