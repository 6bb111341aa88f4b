from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import GaussianRational, Poly, gr
from foliations.corpus import (
    fixtures_dir,
    jouanolou_form,
    saddle_node_family,
    strict_siegel_diagonal,
    two_integrals_field,
)
from foliations.errors import ParseError
from foliations.expressions import (
    parse_expression,
    parse_field,
    render_field,
)
from foliations.fields import Chart, OneForm, VectorField

from conftest import make_poly

V3 = ("x", "y", "z")


class TestExpressionGrammar:
    def test_precedence(self):
        p = parse_expression("2*x^2 + -3*y*z", V3)
        assert p == make_poly(V3, {(2, 0, 0): 2, (0, 1, 1): -3})

    def test_power_binds_tighter_than_unary_minus(self):
        p = parse_expression("-x^2", ("x",))
        assert p == make_poly(("x",), {(2,): -1})

    def test_parentheses(self):
        p = parse_expression("(x + y)*(x - y)", ("x", "y"))
        assert p == make_poly(("x", "y"), {(2, 0): 1, (0, 2): -1})

    def test_gaussian_literals(self):
        p = parse_expression("(1+2i)*x^2*y", V3)
        assert p == Poly.make(V3, {(2, 1, 0): gr(1, 2)})
        q = parse_expression("3/4i*x", ("x",))
        assert q == Poly.make(("x",), {(1,): gr(0, "3/4")})
        assert parse_expression("i*i", ("x",)) == Poly.constant(("x",), -1)

    def test_syntax_error_with_position(self):
        with pytest.raises(ParseError) as info:
            parse_expression("x + ", ("x",))
        assert info.value.column is not None

    def test_undeclared_variable(self):
        with pytest.raises(ParseError):
            parse_expression("x + w", ("x", "y"))

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse_expression("x^y", ("x", "y"))
        with pytest.raises(ParseError):
            parse_expression("x^(2)", ("x",))

    @pytest.mark.parametrize("text, message, column", [
        ("x^33", "exponent 33 exceeds the limit 32", 3),
        ("(x + y)^40", "exponent 40 exceeds the limit 32", 9),
        ("(x^8)^5", "total degree 40 exceeds the limit 32", 7),
        ("x^16*y^17", "total degree 33 exceeds the limit 32", 5),
        ("(x + y)^16*(x - y)^16*x", "total degree 33 exceeds the limit 32", 22)])
    def test_degree_limit(self, text, message, column):
        # refused at the offending token, before the result is expanded
        with pytest.raises(ParseError, match=message) as info:
            parse_expression(text, ("x", "y"))
        assert (info.value.line, info.value.column) == (1, column)

    def test_degree_limit_is_inclusive(self):
        for text in ("x^32", "(x^8)^4", "x^16*y^16", "(x + y)^16*(x - y)^16"):
            assert parse_expression(text, ("x", "y")).degree() == 32


class TestFieldFiles:
    def test_parse_field_example(self):
        text = "vars: x, y, z\nkind: field\n2*x*y, x^3 + 2*y^2, -2*y*z\n"
        obj = parse_field(text)
        assert isinstance(obj, VectorField)
        assert obj == two_integrals_field()

    def test_parse_radial(self):
        obj = parse_field("vars: x, y\n x, y\n")
        assert isinstance(obj, VectorField)
        assert obj.chart.var_names == ("x", "y")

    def test_parse_form(self):
        text = render_field(jouanolou_form(1))
        obj = parse_field(text)
        assert isinstance(obj, OneForm)
        assert obj == jouanolou_form(1)

    def test_comments_and_multiline(self):
        text = ("# two-line components\nvars: x, y\nkind: field\n"
                "x + \n y, # continuation\n -y\n")
        obj = parse_field(text)
        assert obj.components[0].expand() == make_poly(("x", "y"), {(1, 0): 1, (0, 1): 1})

    def test_component_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_field("vars: x, y\nx\n")

    def test_reserved_i(self):
        with pytest.raises(ParseError):
            parse_field("vars: i, y\ni, y\n")

    def test_missing_vars(self):
        with pytest.raises(ParseError):
            parse_field("kind: field\nx, y\n")

    def test_round_trip_corpus(self):
        for obj in (two_integrals_field(), saddle_node_family(1, 1, 1),
                    strict_siegel_diagonal(), jouanolou_form(2)):
            assert parse_field(render_field(obj)) == obj

    def test_round_trip_fixture_files(self):
        for path in sorted(fixtures_dir().glob("*.field")):
            obj = parse_field(path.read_text(encoding="utf-8"))
            assert parse_field(render_field(obj)) == obj


class TestParseErrorPositions:
    """Message, line and column of every error the parser raises.

    Some pinned texts are odd (a component continued on a later line
    reports the first body line and a column in the joined text), but they
    are today's output.
    """

    @pytest.mark.parametrize("text, message", [
        # _tokenize
        ("x $ y", "unexpected character '$' (line 1, column 3)"),
        ("x.y", "unexpected character '.' (line 1, column 2)"),
        ("1/0*x", "zero denominator in literal (line 1, column 1)"),
        ("x + 3/00", "zero denominator in literal (line 1, column 5)"),
        ("1" * 5000 + "*x", "numeric literal of 5000 digits is too long (line 1, column 1)"),
        ("x + 2/" + "1" * 5000, "numeric literal of 5000 digits is too long (line 1, column 5)"),
        ("1/x", "unexpected character '/' (line 1, column 2)"),
        ("1/2/3*x", "unexpected character '/' (line 1, column 4)"),
        # literal digits are ASCII: a superscript two or an Arabic-Indic
        # digit is an unexpected character where it stands
        ("x^\u00b2", "unexpected character '\u00b2' (line 1, column 3)"),
        ("3/\u00b2", "unexpected character '/' (line 1, column 2)"),
        ("\u0663*x", "unexpected character '\u0663' (line 1, column 1)"),
        ("x^\u0663", "unexpected character '\u0663' (line 1, column 3)"),
        ("\u0663/\u0664*x", "unexpected character '\u0663' (line 1, column 1)"),
        # _Parser
        ("2^-1", "exponent must be a nonnegative integer (line 1, column 3)"),
        ("x^-1", "exponent must be a nonnegative integer (line 1, column 3)"),
        ("x^(1/2)", "exponent must be a nonnegative integer (line 1, column 3)"),
        ("x^1/2", "exponent must be a nonnegative integer (line 1, column 3)"),
        ("x^2i", "exponent must be a nonnegative integer (line 1, column 3)"),
        ("x^i", "exponent must be a nonnegative integer (line 1, column 3)"),
        ("x^y", "exponent must be a nonnegative integer (line 1, column 3)"),
        ("x^", "exponent must be a nonnegative integer (line 1, column 3)"),
        ("x^33", "exponent 33 exceeds the limit 32 (line 1, column 3)"),
        ("x)", "unexpected ')' (line 1, column 2)"),
        ("(x", "expected ')' (line 1, column 3)"),
        ("(x + y", "expected ')' (line 1, column 7)"),
        ("x y", "unexpected 'y' (line 1, column 3)"),
        ("2x", "unexpected 'x' (line 1, column 2)"),
        ("x**2", "unexpected '*' (line 1, column 3)"),
        ("*x", "unexpected '*' (line 1, column 1)"),
        ("x + ", "expected a number, variable, or '(' (line 1, column 5)"),
        ("", "expected a number, variable, or '(' (line 1, column 1)"),
        ("x + w", "undeclared variable 'w' (line 1, column 5)"),
        ("ix", "undeclared variable 'ix' (line 1, column 1)"),
    ])
    def test_expression_errors(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_expression(text, ("x", "y"))
        assert str(info.value) == message
        line, column = message.rsplit("(line ", 1)[1].rstrip(")").split(", column ")
        assert (info.value.line, info.value.column) == (int(line), int(column))

    def test_expression_error_carries_the_given_line(self):
        with pytest.raises(ParseError) as info:
            parse_expression("x + w", ("x", "y"), line=7)
        assert (str(info.value), info.value.line, info.value.column) == (
            "undeclared variable 'w' (line 7, column 5)", 7, 5)

    @pytest.mark.parametrize("text, expected", [
        ("4/2*x^4/2", "2*x^2"),
        ("i*x + 0/5*y", "i*x"),
    ])
    def test_literals_that_parse(self, text, expected):
        assert parse_expression(text, ("x", "y")).render() == expected

    @pytest.mark.parametrize("text, message", [
        ("vars: x, y\nx, y)\n", "unbalanced ')' (line 2, column 5)"),
        ("vars: x, y\n(x, y))\n", "unbalanced ')' (line 2, column 7)"),
        ("vars: x, y\nx,\n  y)\n", "unbalanced ')' (line 3, column 4)"),
        ("vars:\nx\n", "declare one to three variables (line 1, column 1)"),
        ("vars: x, y, z, w\nx, y, z, w\n", "declare one to three variables (line 1, column 1)"),
        ("vars: x, x\nx, x\n", "duplicate variable names (line 1, column 1)"),
        ("vars: i, y\ni, y\n", "'i' is reserved for the imaginary unit (line 1, column 1)"),
        ("vars: 1x\nx\n", "bad variable name '1x' (line 1, column 1)"),
        ("vars: x-y\nx\n", "bad variable name 'x-y' (line 1, column 1)"),
        ("vars: \u0663\nx\n", "bad variable name '\u0663' (line 1, column 1)"),
        ("vars: x\u00b2\nx\n", "undeclared variable 'x' (line 2, column 1)"),
        ("vars: x\nkind: flow\nx\n", "kind must be 'field' or 'form' (line 2, column 1)"),
        ("kind: field\nx, y\n", "missing 'vars:' header (line 1, column 1)"),
        ("vars: x\n# only a comment\n", "missing component expressions (line 1, column 1)"),
        ("vars: x, y\nx\n", "expected 2 components, found 1 (line 2, column 1)"),
        ("vars: x\n x, \n", "expected 1 components, found 2 (line 2, column 1)"),
        ("vars: x, y\n\n x+\n ,w\n", "expected a number, variable, or '(' (line 4, column 2)"),
        ("vars: x, y\nx, y\n\n  z\n", "unexpected 'z' (line 4, column 3)"),
        ("vars: x, y\nx,\ny $\n", "unexpected character '$' (line 3, column 3)"),
        ("vars: x, y\nx, w\n", "undeclared variable 'w' (line 2, column 4)"),
        ("vars: x, y\nx,  # c\n\t y + q  # d\n", "undeclared variable 'q' (line 3, column 7)"),
    ])
    def test_field_file_errors(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_field(text)
        assert str(info.value) == message
        line, column = message.rsplit("(line ", 1)[1].rstrip(")").split(", column ")
        assert (info.value.line, info.value.column) == (int(line), int(column))

    def test_headers_are_case_insensitive(self):
        obj = parse_field("VARS: x\nKIND: FORM\nx\n")
        assert isinstance(obj, OneForm)


_fractions = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6))
_coefficients = st.builds(GaussianRational, _fractions,
                          st.one_of(st.just(Fraction(0)), _fractions))


@st.composite
def _fields(draw):
    vars = draw(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z"), ("u", "v_1")]))
    exps = st.lists(st.integers(0, 5), min_size=len(vars), max_size=len(vars)).map(tuple)
    comps = [Poly.make(vars, draw(st.dictionaries(exps, _coefficients, max_size=5)))
             for _ in vars]
    make = draw(st.sampled_from([VectorField.make, OneForm.make]))
    return make(Chart.root(vars), comps)


@settings(max_examples=150, deadline=None)
@given(_fields())
def test_render_parse_round_trip(obj):
    assert parse_field(render_field(obj)) == obj
