"""Catalog of the classical example germs and the verification runner.

The builders construct, with exact coefficients, the example vector fields
and forms this toolkit is validated against: the Jouanolou forms and their
homogeneous companions, the commuting pair with an invariant axis, the
three-dimensional field carrying two independent holomorphic first
integrals (its topologically equivalent partner ships only as the fixture
``suzuki_type.field``), the saddle-node family with formal but non-convergent first integrals, the
Sancho-Sanz persistent-nilpotent family, cuspidal Hamiltonian fields, and
assorted linear saddles.

:func:`run_corpus` executes one self-contained check per example (all
exact assertions exact, all numeric assertions at fixed tolerances) and
returns a deterministic report; two consecutive runs produce byte-identical
JSON.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .algebra import GR_ONE, GaussianRational, Poly, gr
from .blowup import POINT, BlowupSpec, all_charts, curve_center, weighted_blowup
from .classify import (
    CLASS_NILPOTENT,
    CLASS_SADDLE_NODE,
    POSITION_SIEGEL,
    classify_singularity,
    resonance_rank,
    second_jet_check,
    siegel_test,
)
from .dynamics import (
    NOT_SEMICOMPLETE,
    SEMICOMPLETE,
    CircularArc,
    LogSpiral,
    half_circle,
    lift_path,
    loop_lift_ratio,
    omega1_integral,
    semicomplete_order_test,
    separating_direction,
    spiral_path,
    time_form_integral,
)
from .errors import FoliationError
from .expressions import parse_field, render_field
from .fields import (
    Chart,
    OneForm,
    VectorField,
    contract,
    euler_test,
    integrability_check,
    lie_bracket,
    radial_field,
)
from .integrals import (
    FactoredFunction,
    formal_first_integral,
    independence_check,
    meromorphic_quotient,
    verify_first_integral,
)
from .jsontext import dumps
from .resolve import (
    STATUS_RESOLVED,
    detect_persistent_nilpotent,
    resolve3,
    seidenberg_resolve,
)

V1 = ("x",)
V2 = ("x", "y")
V3 = ("x", "y", "z")


def _poly(vars, terms) -> Poly:
    return Poly.make(vars, {e: gr(c) for e, c in terms.items()})


def chart2() -> Chart:
    return Chart.root(V2)


def chart3() -> Chart:
    return Chart.root(V3)


# ---------------------------------------------------------------------------
# Example builders
# ---------------------------------------------------------------------------

def radial(dim: int) -> VectorField:
    return radial_field(Chart.root(V3 if dim == 3 else V2))


def jouanolou_form(n: int) -> OneForm:
    """(y x^n - z^{n+1}) dx + (z y^n - x^{n+1}) dy + (x z^n - y^{n+1}) dz."""
    return OneForm.make(chart3(), [
        _poly(V3, {(n, 1, 0): 1, (0, 0, n + 1): -1}),
        _poly(V3, {(0, n, 1): 1, (n + 1, 0, 0): -1}),
        _poly(V3, {(1, 0, n): 1, (0, n + 1, 0): -1}),
    ])


def jouanolou_field(n: int) -> VectorField:
    """y^n d/dx + z^n d/dy + x^n d/dz (degree-n homogeneous companion)."""
    return VectorField.make(chart3(), [
        _poly(V3, {(0, n, 0): 1}),
        _poly(V3, {(0, 0, n): 1}),
        _poly(V3, {(n, 0, 0): 1}),
    ])


def commuting_pair(a) -> tuple[VectorField, VectorField]:
    """X = zy d/dy + z^2 d/dz and Y = x^2 d/dx + a x y d/dy (they commute)."""
    x = VectorField.make(chart3(), [
        Poly.zero(V3), _poly(V3, {(0, 1, 1): 1}), _poly(V3, {(0, 0, 2): 1})])
    y = VectorField.make(chart3(), [
        _poly(V3, {(2, 0, 0): 1}),
        Poly.make(V3, {(1, 1, 0): GaussianRational.of(a)}),
        Poly.zero(V3)])
    return x, y


def two_integrals_field() -> VectorField:
    """2xy d/dx + (x^3 + 2y^2) d/dy - 2yz d/dz; annihilates xz and (y^2-x^3)z^2."""
    return VectorField.make(chart3(), [
        _poly(V3, {(1, 1, 0): 2}),
        _poly(V3, {(3, 0, 0): 1, (0, 2, 0): 2}),
        _poly(V3, {(0, 1, 1): -2}),
    ])


def diagonal_two_integrals_field() -> VectorField:
    """x d/dx - y d/dy - z d/dz, with first integrals xy and xz."""
    return VectorField.make(chart3(), [
        _poly(V3, {(1, 0, 0): 1}),
        _poly(V3, {(0, 1, 0): -1}),
        _poly(V3, {(0, 0, 1): -1}),
    ])


def saddle_node_family(a, b, c) -> VectorField:
    """x^2 d/dx + (1+ax)(y d/dy - z d/dz) + bxz d/dy + cxy d/dz.

    For parameters with cos(2 pi a) != cos(2 pi sqrt(a^2+bc)) the germ has
    formal first integrals but no holomorphic one; coordinates here are
    (x, y, z) with y, z the two hyperbolic directions.
    """
    a, b, c = (GaussianRational.of(v) for v in (a, b, c))
    comp_y = Poly.make(V3, {(0, 1, 0): GR_ONE, (1, 1, 0): a, (1, 0, 1): b})
    comp_z = Poly.make(V3, {(0, 0, 1): -GR_ONE, (1, 0, 1): -a, (1, 1, 0): c})
    return VectorField.make(chart3(), [_poly(V3, {(2, 0, 0): 1}), comp_y, comp_z])


def sancho_sanz_field(alpha=1, beta=1, lam=0) -> VectorField:
    """x(x d/dx - a y d/dy - b z d/dz) + xz d/dy + (y - l x) d/dz."""
    alpha = GaussianRational.of(alpha)
    beta = GaussianRational.of(beta)
    lam = GaussianRational.of(lam)
    comp_y = Poly.make(V3, {(1, 0, 1): GR_ONE, (1, 1, 0): -alpha})
    comp_z = Poly.make(V3, {(0, 1, 0): GR_ONE, (1, 0, 0): -lam, (1, 0, 1): -beta})
    return VectorField.make(chart3(), [_poly(V3, {(2, 0, 0): 1}), comp_y, comp_z])


def persistent_synthetic_field() -> VectorField:
    """(y + z^3) d/dx + x^2 d/dy + z^2 d/dz: direct normal-form match."""
    return VectorField.make(chart3(), [
        _poly(V3, {(0, 1, 0): 1, (0, 0, 3): 1}),
        _poly(V3, {(2, 0, 0): 1}),
        _poly(V3, {(0, 0, 2): 1}),
    ])


def cusp_hamiltonian(n: int = 1) -> VectorField:
    """2y d/dx + (2n+1) x^{2n} d/dy, tangent to {y^2 - x^{2n+1} = 0}."""
    return VectorField.make(chart2(), [
        _poly(V2, {(0, 1): 2}),
        _poly(V2, {(2 * n, 0): 2 * n + 1}),
    ])


def linear_saddle(k: int) -> VectorField:
    """x d/dx - k y d/dy."""
    return VectorField.make(chart2(), [
        _poly(V2, {(1, 0): 1}), _poly(V2, {(0, 1): -k})])


def strict_siegel_diagonal() -> VectorField:
    """Diagonal field with eigenvalues (1, 1+i, -2-i)."""
    return VectorField.make(chart3(), [
        _poly(V3, {(1, 0, 0): 1}),
        Poly.make(V3, {(0, 1, 0): gr(1, 1)}),
        Poly.make(V3, {(0, 0, 1): gr(-2, -1)}),
    ])


def airy_model_field() -> VectorField:
    """-x^4/2 d/dx + (z - x^3 y/2) d/dy + (y - x^3 z) d/dz.

    Classification fixture only: a saddle-node with a formal meromorphic
    first integral but no holomorphic or meromorphic one.
    """
    return VectorField.make(chart3(), [
        Poly.make(V3, {(4, 0, 0): gr("-1/2")}),
        Poly.make(V3, {(0, 0, 1): GR_ONE, (3, 1, 0): gr("-1/2")}),
        _poly(V3, {(0, 1, 0): 1, (3, 0, 1): -1}),
    ])


def quadratic_isolated_field(variant: int = 2) -> VectorField:
    """Quadratic germs with vanishing linear part and isolated singularity.

    Variants 2 and 3 are the symmetric pairs x(x-ky) d/dx + y(y-kx) d/dy
    for k = 2, 3.  (A related printed quartet contains typos and is not
    treated as golden data; these two members are unambiguous.)
    """
    if variant not in (2, 3):
        raise ValueError("variant must be 2 or 3")
    k = variant
    return VectorField.make(chart2(), [
        _poly(V2, {(2, 0): 1, (1, 1): -k}),
        _poly(V2, {(0, 2): 1, (1, 1): -k}),
    ])


def meromorphic_transform_example() -> VectorField:
    """y d/dx + x d/dy + y d/dz: weight-2 transform is strictly meromorphic."""
    return VectorField.make(chart3(), [
        _poly(V3, {(0, 1, 0): 1}),
        _poly(V3, {(1, 0, 0): 1}),
        _poly(V3, {(0, 1, 0): 1}),
    ])


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusCheck:
    name: str
    label: str
    run: Callable[[], str]   # returns a detail string; raises on failure


class CheckFailure(AssertionError):
    pass


def _ensure(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _checks(fixtures: Path | None = None) -> list[CorpusCheck]:
    fixtures_root = fixtures if fixtures is not None else fixtures_dir()
    out: list[CorpusCheck] = []

    def check(name: str, label: str):
        def wrap(fn):
            out.append(CorpusCheck(name, label, fn))
            return fn
        return wrap

    @check("first_integrals_exact",
           "two independent holomorphic first integrals annihilated exactly")
    def _():
        x = two_integrals_field()
        f = _poly(V3, {(1, 0, 1): 1})
        g = _poly(V3, {(0, 2, 2): 1, (3, 0, 2): -1})
        _ensure(verify_first_integral(x, f), "X.(xz) != 0")
        _ensure(verify_first_integral(x, g), "X.((y^2-x^3)z^2) != 0")
        _ensure(independence_check(f, g), "integrals not independent")
        return "X.(xz) = X.((y^2-x^3)z^2) = 0, dF^dG != 0"

    @check("diagonal_first_integrals",
           "x d/dx - y d/dy - z d/dz annihilates xy and xz")
    def _():
        x = diagonal_two_integrals_field()
        _ensure(verify_first_integral(x, _poly(V3, {(1, 1, 0): 1})), "X.(xy) != 0")
        _ensure(verify_first_integral(x, _poly(V3, {(1, 0, 1): 1})), "X.(xz) != 0")
        return "both monomial integrals verified"

    @check("meromorphic_quotient_restriction",
           "quotient of shared-factor integrals restricts to y/z on {x=0}")
    def _():
        f = FactoredFunction.make([(_poly(V3, {(1, 0, 0): 1}), 1),
                                   (_poly(V3, {(0, 1, 0): 1}), 1)])
        g = FactoredFunction.make([(_poly(V3, {(1, 0, 0): 1}), 1),
                                   (_poly(V3, {(0, 0, 1): 1}), 1)])
        q = meromorphic_quotient(f, g)
        _ensure(q.numerator == _poly(V3, {(0, 1, 0): 1}), "numerator != y")
        _ensure(q.denominator == _poly(V3, {(0, 0, 1): 1}), "denominator != z")
        return "xy/xz -> y/z"

    @check("commuting_pair", "the pair zy d/dy + z^2 d/dz, x^2 d/dx + a x y d/dy commutes")
    def _():
        for a in (1, 2, gr(1, 1)):
            x, y = commuting_pair(a)
            _ensure(lie_bracket(x, y).is_zero(), f"bracket != 0 for a={a}")
        return "[X, Y] = 0 for a in {1, 2, 1+i}"

    @check("affine_relation", "radial and homogeneous companion satisfy [R,Z]=(d-1)Z")
    def _():
        r = radial(3)
        z = jouanolou_field(2)
        expected = z.scale(gr(1))
        _ensure(lie_bracket(r, z) == expected, "[R,Z] != (d-1)Z for d=2")
        return "[R, Z] = Z for the degree-2 companion"

    @check("jouanolou_integrability", "degree-n forms satisfy w^dw=0, n=1..4")
    def _():
        for n in range(1, 5):
            _ensure(integrability_check(jouanolou_form(n)), f"w^dw != 0 at n={n}")
        return "w ^ dw = 0 exactly for n = 1..4"

    @check("jouanolou_radial_kernel", "the radial field lies in each form kernel")
    def _():
        r = radial(3)
        for n in range(1, 5):
            _ensure(contract(jouanolou_form(n), r).is_zero(), f"w(R) != 0 at n={n}")
        return "w(R) = 0 exactly for n = 1..4"

    @check("jouanolou_euler_degrees", "Euler degree of the homogeneous companions")
    def _():
        for n in range(1, 5):
            _ensure(euler_test(jouanolou_field(n)) == n, f"degree != {n}")
        return "euler degree d = n for n = 1..4"

    @check("weighted_chart_substitution", "y pulls back to tx in the weight-2 chart")
    def _():
        p = _poly(V3, {(0, 1, 0): 1})
        image = p.substitute_monomials({
            "x": (GR_ONE, (2, 0, 0)),
            "y": (GR_ONE, (1, 1, 0)),
        })
        _ensure(image == _poly(V3, {(1, 1, 0): 1}), "pullback is not t*x")
        return "y -> tx under (x, t, z) -> (x^2, tx, z)"

    @check("multiplicity_rule", "divisor multiplicity k-1, or k for radial parts")
    def _():
        details = []
        cases = [
            (radial(2), 1, "radial, k=1"),
            (cusp_hamiltonian(1), 0, "non-radial, k=1"),
            (VectorField.make(chart2(), [_poly(V2, {(0, 2): 1}),
                                         _poly(V2, {(2, 0): 1})]), 1,
             "non-radial, k=2"),
            (VectorField.make(chart2(), [_poly(V2, {(2, 0): 1}),
                                         _poly(V2, {(1, 1): 1})]), 2,
             "radial multiple, k=2"),
            (VectorField.make(chart2(), [_poly(V2, {(0, 3): 1}),
                                         _poly(V2, {(3, 0): 1})]), 2,
             "non-radial, k=3"),
            (VectorField.make(chart2(), [_poly(V2, {(3, 0): 1, (1, 2): 1}),
                                         _poly(V2, {(2, 1): 1, (0, 3): 1})]), 3,
             "radial multiple, k=3"),
        ]
        for field, expected, what in cases:
            for result in all_charts(field):
                _ensure(result.divisor_multiplicity == expected,
                        f"{what}: multiplicity {result.divisor_multiplicity} != {expected}")
            details.append(f"{what}: {expected}")
        return "; ".join(details)

    @check("radial_blowup_dicritical", "radial blow-up is dicritical, no divisor zeros")
    def _():
        from .resolve import singular_points_on_divisor
        for result in all_charts(radial(2)):
            _ensure(result.dicritical, "radial blow-up not dicritical")
            exact, certified, whole = singular_points_on_divisor(
                result.representative, result.divisor_var)
            _ensure(not exact and not certified and not whole,
                    "unexpected singular points on the divisor")
        return "dicritical with a regular fiber field"

    @check("homogeneous_blowup_invariant", "degree-2 companion keeps the divisor invariant")
    def _():
        for result in all_charts(jouanolou_field(2)):
            _ensure(not result.dicritical, "divisor not invariant")
        return "non-dicritical in all three charts"

    @check("curve_blowup_regular_partner", "x^2 d/dx + xy d/dy is regular at generic axis points")
    def _():
        _, y = commuting_pair(1)
        # blow up the x-axis {y = z = 0}; the transform of Y has a
        # nonvanishing component at generic divisor points
        result = weighted_blowup(y, BlowupSpec(curve_center("x"), (1, 1), 0))
        comp = result.representative.component("x").expand().restrict(
            result.divisor_var, 0)
        _ensure(not comp.is_zero(), "transform vanished along the divisor")
        return "transform nonzero at generic points of the divisor"

    @check("weighted_transform_pole", "weight-2 transform is strictly meromorphic")
    def _():
        field = meromorphic_transform_example()
        result = weighted_blowup(field, BlowupSpec(curve_center("z"), (2, 1), 0))
        _ensure(result.pole_order == 1, f"pole order {result.pole_order} != 1")
        _ensure(not result.field.is_holomorphic(), "transform unexpectedly holomorphic")
        return "pole order 1 along the new divisor"

    @check("weight_one_degeneration", "weights (1,..,1) reproduce the standard transform")
    def _():
        field = cusp_hamiltonian(1)
        for idx in range(2):
            std = weighted_blowup(field, BlowupSpec(POINT, None, idx))
            wtd = weighted_blowup(field, BlowupSpec(POINT, (1, 1), idx))
            _ensure(std.representative == wtd.representative
                    and std.field == wtd.field
                    and std.divisor_multiplicity == wtd.divisor_multiplicity,
                    "weight-1 output differs from the standard blow-up")
        return "outputs identical in both charts"

    @check("family_quadratic_part", "x-component of the family is x^2 in degree 2")
    def _():
        x = saddle_node_family(1, 1, 1)
        comp = x.component("x").expand()
        _ensure(comp.homogeneous_component(2) == _poly(V3, {(2, 0, 0): 1}),
                "quadratic part is not x^2")
        return "degree-2 part of the x-component is x^2"

    @check("family_saddle_node", "family germ is a rank-1 saddle-node with eigenvalues 0,1,-1")
    def _():
        report = classify_singularity(saddle_node_family(1, 1, 1))
        _ensure(report.klass == CLASS_SADDLE_NODE and report.rank == 1,
                f"class {report.klass} rank {report.rank}")
        values = sorted((v.re, v.im) for v in report.eigen.exact_values())
        _ensure(values == [(-1, 0), (0, 0), (1, 0)], f"eigenvalues {values}")
        return "saddle-node of rank 1, spectrum {0, 1, -1}"

    @check("family_formal_integrals", "truncated first-integral spaces are nonzero")
    def _():
        x = saddle_node_family(1, 1, 1)
        space = formal_first_integral(x, 6)
        _ensure(all(d > 0 for d in space.dims_by_degree[1:]),
                f"dims {space.dims_by_degree}")
        return f"dims by degree (1..6): {list(space.dims_by_degree)}"

    @check("sancho_sanz_nilpotent", "Sancho-Sanz germ has a nilpotent linear part")
    def _():
        report = classify_singularity(sancho_sanz_field())
        _ensure(report.klass == CLASS_NILPOTENT, f"class {report.klass}")
        return "nilpotent (char poly t^3, nonzero linear part)"

    @check("sancho_sanz_escape", "one weight-2 blow-up resolves the persistent point")
    def _():
        tree = resolve3(sancho_sanz_field(), max_steps=12)
        _ensure(tree.status == STATUS_RESOLVED, f"status {tree.status}")
        _ensure(tree.weighted_steps == 1, f"weighted steps {tree.weighted_steps}")
        return "resolved with exactly one weight-2 blow-up"

    @check("persistent_direct_match", "synthetic germ matches the persistent normal form")
    def _():
        report = detect_persistent_nilpotent(persistent_synthetic_field(), 6)
        _ensure(report.matched and report.n == 2, "no direct match with n=2")
        return "matched with n = 2 at stage 0"

    @check("cusp_resolution_chain", "three blow-ups, weights -3,-2,-1, ratios -1/3,-1/2,-1/6")
    def _():
        tree = seidenberg_resolve(cusp_hamiltonian(1))
        _ensure(tree.status == STATUS_RESOLVED and tree.steps == 3,
                f"{tree.status} in {tree.steps} steps")
        weights = sorted(c.weight for c in tree.components.values())
        _ensure(weights == [-3, -2, -1], f"weights {weights}")
        last = "E3"
        ratios = sorted((p.cs_indices[last].re, p.cs_indices[last].im)
                        for _, p in tree.component_points(last)
                        if last in p.cs_indices)
        from fractions import Fraction as Fr
        _ensure(ratios == [(Fr(-1, 2), 0), (Fr(-1, 3), 0), (Fr(-1, 6), 0)],
                f"ratios {ratios}")
        total = tree.component_index_sum(last)
        _ensure(total == gr(-1), f"index sum {total}")
        return "weights (-3,-2,-1); ratios -1/2, -1/3, -1/6 sum to -1"

    @check("cusp_resolution_higher", "four blow-ups for the next cusp, orders 2 and 5")
    def _():
        tree = seidenberg_resolve(cusp_hamiltonian(2))
        _ensure(tree.status == STATUS_RESOLVED and tree.steps == 4,
                f"{tree.status} in {tree.steps} steps")
        minus_one = [c.id for c in tree.components.values() if c.weight == -1]
        _ensure(len(minus_one) == 1, f"-1 components: {minus_one}")
        label = minus_one[0]
        denominators = sorted(
            p.cs_indices[label].re.denominator
            for _, p in tree.component_points(label) if label in p.cs_indices)
        _ensure(denominators == [2, 5, 10], f"ratio denominators {denominators}")
        _ensure(tree.component_index_sum(label) == gr(-1), "index sum != -1")
        return "unique -1 component; corner ratios with denominators 2 and 5"

    @check("strict_siegel_triple", "(1, 1+i, -2-i) is Siegel with one integer relation")
    def _():
        values = [gr(1), gr(1, 1), gr(-2, -1)]
        _ensure(siegel_test(values) == POSITION_SIEGEL, "not Siegel")
        _ensure(resonance_rank(values) == 1, "resonance rank != 1")
        return "Siegel position, relation lattice of rank 1"

    @check("time_form_cubic", "half-circle time integral vanishes for x^3")
    def _():
        value, _ = time_form_integral(_poly(V1, {(3,): 1}), half_circle(0.1))
        _ensure(abs(value) < 1e-9, f"|integral| = {abs(value)}")
        return f"|integral| = {abs(value):.2e} < 1e-9"

    @check("time_form_quadratic", "half-circle time integral equals 4/eps for x^2")
    def _():
        value, _ = time_form_integral(_poly(V1, {(2,): 1}), half_circle(0.1))
        _ensure(abs(value - 20.0) <= 1e-6 * 20.0, f"value {value}")
        return "integral = 20 within 1e-6 relative (eps = 0.2)"

    @check("semicompleteness_orders", "order rule: k <= 2 semicomplete, k >= 3 not")
    def _():
        for k, expected in ((1, SEMICOMPLETE), (2, SEMICOMPLETE),
                            (3, NOT_SEMICOMPLETE), (4, NOT_SEMICOMPLETE)):
            verdict = semicomplete_order_test(_poly(V1, {(k,): 1}))
            _ensure(verdict.verdict == expected, f"x^{k}: {verdict.verdict}")
            if expected == NOT_SEMICOMPLETE:
                _ensure(abs(verdict.evidence_integral) < 1e-9,
                        f"evidence integral {verdict.evidence_integral}")
        return "verdicts match for k = 1..4 with vanishing evidence integrals"

    @check("holonomy_order_three", "loop lift of the (1,-3) saddle is a third root")
    def _():
        ratio, _err = loop_lift_ratio(linear_saddle(3), "y", 0.1, 0.01)
        expected = cmath.exp(-2j * math.pi / 3)
        _ensure(abs(ratio - expected) < 1e-4, f"ratio {ratio}")
        return "holonomy derivative = exp(-2 pi i/3) within 1e-4"

    @check("holonomy_order_two", "loop lift of the (1,-2) saddle is a half turn")
    def _():
        ratio, _err = loop_lift_ratio(linear_saddle(2), "y", 0.1, 0.01)
        expected = cmath.exp(-1j * math.pi)
        _ensure(abs(ratio - expected) < 1e-4, f"ratio {ratio}")
        return "holonomy derivative = exp(-pi i) within 1e-4"

    @check("saddle_behavior_radial", "|x2| decays along radial lifts of the Siegel triple")
    def _():
        x = strict_siegel_diagonal()
        ray = LogSpiral(0.1, -1.0, 0.0, 3.0)
        lift = lift_path(x, "x", ray, [0.01, 0.01])
        mods = lift.fiber_moduli("y")
        _ensure(all(a > b for a, b in zip(mods, mods[1:])), "|x2| not decreasing")
        return "|x2| strictly decreasing toward the singular point"

    @check("saddle_behavior_spiral", "spiral lifts of the Siegel triple grow in both fibers")
    def _():
        x = strict_siegel_diagonal()
        v = separating_direction([1, 1 + 1j, -2 - 1j])
        lift = lift_path(x, "x", spiral_path(0.1, 0.3, v, -10.0),
                         [0.01, 0.01], escape_radius=1e6)
        m2 = lift.fiber_moduli("y")
        m3 = lift.fiber_moduli("z")
        _ensure(all(a < b for a, b in zip(m2, m2[1:])), "|x2| not increasing")
        _ensure(all(a < b for a, b in zip(m3, m3[1:])), "|x3| not increasing")
        return "|x2| and |x3| strictly increasing along the spiral"

    @check("second_jet_examples", "second-jet flag on the cusp and a cubic germ")
    def _():
        _ensure(second_jet_check(cusp_hamiltonian(1)), "cusp second jet zero")
        _ensure(second_jet_check(quadratic_isolated_field(2)),
                "quadratic germ second jet zero")
        cubic = VectorField.make(chart2(), [_poly(V2, {(3, 0): 1}),
                                            _poly(V2, {(0, 3): 1})])
        _ensure(not second_jet_check(cubic), "cubic germ second jet nonzero")
        return "order-2 jets nonzero exactly for the quadratic examples"

    @check("lift_quadrature_agreement", "lifted height matches exp of the form integral")
    def _():
        f = _poly(V1, {(0,): 1, (1,): gr("1/4")})
        h = _poly(V1, {(0,): 1, (1,): gr("1/2")})
        arc = CircularArc(0j, 0.5, 0.0, 2.5)
        value, _ = omega1_integral(f, h, arc)
        vars_ = ("x", "z")
        chart = Chart.root(vars_)
        base = Poly.make(vars_, {(0, 0): GR_ONE, (1, 0): gr("1/4")})
        height = Poly.make(vars_, {(0, 1): GR_ONE, (1, 1): gr("1/2")})
        field = VectorField.make(chart, [base, height])
        lift = lift_path(field, "x", arc, [1.0 + 0j])
        expected = cmath.exp(value)
        _ensure(abs(lift.final[0] - expected) / abs(expected) <= 1e-6,
                f"mismatch {abs(lift.final[0] - expected)}")
        return "agreement within 1e-6 relative"

    @check("airy_model_class", "the Airy-model germ is a rank-1 saddle-node")
    def _():
        report = classify_singularity(airy_model_field())
        _ensure(report.klass == CLASS_SADDLE_NODE and report.rank == 1,
                f"class {report.klass}")
        return "saddle-node of rank 1 (classification fixture)"

    @check("fixture_files_parse", "shipped field files parse and round-trip")
    def _():
        from .errors import ParseError
        count = 0
        for path in sorted(fixtures_root.glob("*.field")):
            try:
                obj = parse_field(path.read_text(encoding="utf-8"))
            except ParseError as exc:
                raise CheckFailure(f"load error in {path}: {exc}") from None
            again = parse_field(render_field(obj))
            _ensure(again == obj, f"round-trip failed for {path.name}")
            count += 1
        _ensure(count >= 10, f"only {count} fixture files")
        return f"{count} files parse and round-trip"

    @check("fixture_two_integrals_file", "shipped file matches the built example")
    def _():
        path = fixtures_root / "two_integrals.field"
        obj = parse_field(path.read_text(encoding="utf-8"))
        _ensure(obj == two_integrals_field(), "file differs from builder")
        return "file and builder agree exactly"

    return out


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def fixtures_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


def run_corpus(filter_substring: str | None = None,
               fixtures_path: str | None = None) -> dict:
    """Execute the example-catalog checks; deterministic JSON-ready report.

    ``filter_substring`` keeps only checks whose name contains it.  A
    fixture directory override is used by the file-loading checks
    (corrupted files surface as failed checks naming the offending path).
    """
    fixtures = Path(fixtures_path) if fixtures_path is not None else None
    checks = _checks(fixtures)
    if filter_substring:
        checks = [c for c in checks if filter_substring in c.name]
    report = {"checks": [], "total": 0, "failures": 0}
    for check in sorted(checks, key=lambda c: c.name):
        entry = {"name": check.name, "label": check.label}
        try:
            entry["details"] = check.run()
            entry["passed"] = True
        except CheckFailure as exc:
            entry["details"] = str(exc)
            entry["passed"] = False
        except (FoliationError, OSError) as exc:
            entry["details"] = f"error: {exc}"
            entry["passed"] = False
        report["checks"].append(entry)
    report["total"] = len(report["checks"])
    report["failures"] = sum(1 for c in report["checks"] if not c["passed"])
    return report


def render_report(report: dict) -> str:
    return dumps(report) + "\n"
