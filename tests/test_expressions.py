from __future__ import annotations

import pytest

from foliations.algebra import Poly, gr
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
from foliations.fields import OneForm, VectorField

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
