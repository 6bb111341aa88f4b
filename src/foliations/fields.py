"""Vector fields and differential 1-forms on coordinate charts.

A :class:`Chart` names the coordinates and remembers how it was produced
(blow-up provenance and which variables currently cut exceptional-divisor
components).  :class:`VectorField` and :class:`OneForm` are tuples of
:class:`~foliations.algebra.ChartFunction` components on a chart.

Operations: directional derivatives, Lie brackets, linear parts,
contraction, the integrability test ``w ^ dw == 0`` (2- and 3-forms stay
internal), and the homogeneous Euler-relation test ``[R, Z] == (d-1) Z``.
All computations are exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from .algebra import ChartFunction, GaussianRational, Poly, _poly, _reduced, _scaled
from .errors import (
    ChartMismatchError,
    NotApplicableError,
    PoleEvaluationError,
    StructuralError,
)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupRecord:
    """One step of blow-up provenance (append-only history entries)."""

    center: str                      # 'point' or 'curve:<free variable>'
    center_coords: tuple[str, ...]   # exact coordinates of the center point, rendered
    weights: tuple[int, ...]         # one weight per blown-up variable
    chart_var: str                   # variable that became the divisor coordinate
    divisor_label: str               # identifier of the created component


@dataclass(frozen=True)
class Chart:
    """An affine coordinate chart with blow-up provenance."""

    var_names: tuple[str, ...]
    history: tuple[BlowupRecord, ...] = ()
    divisor_labels: tuple[str | None, ...] = ()

    def __post_init__(self):
        if not 1 <= len(self.var_names) <= 3:
            raise StructuralError("charts carry one to three variables")
        if not self.divisor_labels:
            object.__setattr__(self, "divisor_labels", (None,) * len(self.var_names))
        if len(self.divisor_labels) != len(self.var_names):
            raise StructuralError("divisor label list length mismatch")

    @property
    def dim(self) -> int:
        return len(self.var_names)

    @staticmethod
    def root(var_names: Sequence[str]) -> "Chart":
        return Chart(tuple(var_names))

    def var_index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise StructuralError(f"unknown variable {name!r}") from None

    def with_labels(self, labels: Sequence[str | None]) -> "Chart":
        return replace(self, divisor_labels=tuple(labels))

    def extended(self, record: BlowupRecord, labels: Sequence[str | None]) -> "Chart":
        return Chart(self.var_names, self.history + (record,), tuple(labels))


# ---------------------------------------------------------------------------
# Fields and forms
# ---------------------------------------------------------------------------

def _as_chart_functions(chart: Chart, components) -> tuple[ChartFunction, ...]:
    out = []
    for comp in components:
        if isinstance(comp, Poly):
            comp = ChartFunction.make(comp)
        if not isinstance(comp, ChartFunction):
            raise StructuralError("components must be Poly or ChartFunction")
        if comp.vars != chart.var_names:
            raise StructuralError(
                f"component variables {comp.vars} differ from chart {chart.var_names}")
        out.append(comp)
    if len(out) != chart.dim:
        raise StructuralError("one component per chart variable required")
    return tuple(out)


@dataclass(frozen=True, eq=False)
class VectorField:
    """Sum of ``components[i] * d/d var_i`` on a chart."""

    chart: Chart
    components: tuple[ChartFunction, ...]

    @staticmethod
    def make(chart: Chart, components) -> "VectorField":
        """The field of ``Poly`` or ``ChartFunction`` components, one per
        chart variable.  When every component is a ``Poly``, the field keeps
        them as its ``polys()``: ``ChartFunction.make(p).expand()`` is ``p``
        term for term."""
        components = tuple(components)
        functions = _as_chart_functions(chart, components)
        if all(isinstance(c, Poly) for c in components):
            return VectorField._of_expansions(chart, functions, components)
        return VectorField(chart, functions)

    @staticmethod
    def _of_expansions(chart: Chart, components: tuple[ChartFunction, ...],
                       polys: tuple[Poly, ...]) -> "VectorField":
        """The field whose ``polys()`` are ``polys``, for a caller that has
        them already: ``polys[i]`` must equal ``components[i].expand()``,
        term for term and in the same order."""
        field = VectorField(chart, components)
        field.__dict__["_polys"] = polys
        return field

    def is_holomorphic(self) -> bool:
        return all(c.is_holomorphic() for c in self.components)

    def polys(self) -> tuple[Poly, ...]:
        """Components as plain polynomials (requires holomorphy)."""
        return self._polys

    @cached_property
    def _polys(self) -> tuple[Poly, ...]:
        # expanded once per field: the formal solver asks for them per column
        if not self.is_holomorphic():
            raise PoleEvaluationError("vector field has meromorphic components")
        return tuple(c.expand() for c in self.components)

    @cached_property
    def _integer_terms(self) -> tuple[int, tuple[list, ...]]:
        """``(L, terms)``: L the lcm of the coefficient denominators, and per
        component of ``L.X`` its ``(degree, exponents, re, im)`` terms in
        ascending degree, with Gaussian-integer coefficients ``re + im*i``."""
        polys = self.polys()
        scale, pairs = _scaled([c for p in polys for c in p._abd.values()])
        pairs = iter(pairs)
        return scale, tuple(sorted((sum(e), e, *next(pairs)) for e in p._abd)
                            for p in polys)

    def component(self, var: str) -> ChartFunction:
        return self.components[self.chart.var_index(var)]

    def vanishes_at_origin(self) -> bool:
        return self.is_holomorphic() and all(
            p.constant_term().is_zero() for p in self.polys())

    def scale(self, c) -> "VectorField":
        return VectorField(self.chart, tuple(f.scale(c) for f in self.components))

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_shared_chart(self, other)
        return VectorField(self.chart, tuple(
            a + b for a, b in zip(self.components, other.components)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def render(self) -> str:
        # ChartFunction.render of a holomorphic component renders its
        # expansion, which polys() holds already
        if self.is_holomorphic():
            return ", ".join(p.render() for p in self.polys())
        return ", ".join(c.render() for c in self.components)


@dataclass(frozen=True, eq=False)
class OneForm:
    """Sum of ``coefficients[i] * d var_i`` on a chart."""

    chart: Chart
    coefficients: tuple[ChartFunction, ...]

    @staticmethod
    def make(chart: Chart, coefficients) -> "OneForm":
        return OneForm(chart, _as_chart_functions(chart, coefficients))

    def is_holomorphic(self) -> bool:
        return all(c.is_holomorphic() for c in self.coefficients)

    def polys(self) -> tuple[Poly, ...]:
        if not self.is_holomorphic():
            raise PoleEvaluationError("form has meromorphic coefficients")
        return tuple(c.expand() for c in self.coefficients)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.chart == other.chart and self.coefficients == other.coefficients

    def render(self) -> str:
        return ", ".join(c.render() for c in self.coefficients)


@dataclass(frozen=True)
class LinearPart:
    """Exact Jacobian matrix of a vector field at the chart origin."""

    entries: tuple[tuple[GaussianRational, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)


def _require_shared_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ChartMismatchError("objects live on different charts")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def directional_derivative(x: VectorField, f: Poly, bound: int | None = None) -> Poly:
    """X . F = sum_i X^i dF/dx_i, exactly (X holomorphic).

    With ``bound``, only the terms of total degree <= bound are formed: the
    result equals ``directional_derivative(x, f).jet_truncate(bound)``, and
    no product of higher degree is computed.

    The sums run on Gaussian integers, ``(re, im)`` pairs of ints: X is
    scaled by the lcm L of its denominators and F by the lcm M of its
    own, the products are summed term by term, and each result term is
    reduced once to a canonical triple over ``L*M``.
    """
    if f.vars != x.chart.var_names:
        raise ChartMismatchError("function lives on a different chart")
    scale, comps = x._integer_terms
    f_scale, f_pairs = _scaled(list(f._abd.values()))
    limit = math.inf if bound is None else bound
    out: dict = {}
    # components in ascending degree, so each term of dF/dx_i stops at the
    # first component term that would exceed the bound
    for i, comp_terms in enumerate(comps):
        for e, (a, b) in zip(f._abd, f_pairs):
            k = e[i]
            if not k:
                continue
            eb = e[:i] + (k - 1,) + e[i + 1:]
            fa, fb = a * k, b * k
            room = limit - sum(eb)
            for da, ea, ca, cb in comp_terms:
                if da > room:
                    break
                key = tuple(map(operator.add, ea, eb))
                re = ca * fa - cb * fb
                im = ca * fb + cb * fa
                old = out.get(key)
                if old is not None:
                    re += old[0]
                    im += old[1]
                    if not (re or im):
                        del out[key]
                        continue
                out[key] = (re, im)
    den = scale * f_scale
    return _poly(f.vars, {e: _reduced(a, b, den) for e, (a, b) in out.items()})


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^i = X . Y^i - Y . X^i, exactly (both fields holomorphic)."""
    _require_shared_chart(x, y)
    xp, yp = x.polys(), y.polys()
    comps = []
    for i in range(x.chart.dim):
        comps.append(directional_derivative(x, yp[i]) - directional_derivative(y, xp[i]))
    return VectorField.make(x.chart, comps)


def linear_part(x: VectorField) -> LinearPart:
    """Exact Jacobian at the chart origin; poles at the origin are an error."""
    names = x.chart.var_names
    n = len(names)
    rows = []
    for comp in x.polys():
        lin = comp.homogeneous_component(1)
        row = []
        for j in range(n):
            e = [0] * n
            e[j] = 1
            row.append(lin.coefficient(tuple(e)))
        rows.append(tuple(row))
    return LinearPart(tuple(rows))


def contract(omega: OneForm, x: VectorField) -> ChartFunction:
    """The pairing omega(X) = sum_i omega_i X^i as a chart function."""
    _require_shared_chart(omega, x)
    out = ChartFunction.zero(x.chart.var_names)
    for a, b in zip(omega.coefficients, x.components):
        out = out + a * b
    return out


def _wedge3_coefficient(omega: OneForm) -> Poly:
    """The single coefficient of ``omega ^ d(omega)`` in dimension 3."""
    a, b, c = omega.polys()
    names = omega.chart.var_names
    x, y, z = names
    d_xy = b.partial(x) - a.partial(y)
    d_xz = c.partial(x) - a.partial(z)
    d_yz = c.partial(y) - b.partial(z)
    return a * d_yz - b * d_xz + c * d_xy


def integrability_check(omega: OneForm) -> bool:
    """True iff ``omega ^ d(omega) == 0`` exactly (always true in dim 2)."""
    if omega.chart.dim == 2:
        return True
    if omega.chart.dim != 3:
        raise NotApplicableError("integrability test needs dimension 2 or 3")
    return _wedge3_coefficient(omega).is_zero()


def radial_field(chart: Chart) -> VectorField:
    """R = sum_i x_i d/dx_i on the chart."""
    return VectorField.make(
        chart, [Poly.variable(chart.var_names, v) for v in chart.var_names])


def homogeneous_degree(x: VectorField) -> int | None:
    """The common total degree when every nonzero component is homogeneous."""
    degree = None
    for comp in x.polys():
        if comp.is_zero():
            continue
        d = comp.degree()
        if comp.homogeneous_component(d) != comp:
            return None
        if degree is None:
            degree = d
        elif degree != d:
            return None
    return degree


def euler_test(z: VectorField) -> int:
    """Return d with ``[R, Z] == (d-1) Z`` for a homogeneous polynomial field.

    The bracket identity is re-verified exactly; non-homogeneous input is
    rejected as not applicable.
    """
    if z.is_zero():
        raise NotApplicableError("zero field has no degree")
    d = homogeneous_degree(z)
    if d is None:
        raise NotApplicableError("field is not homogeneous")
    r = radial_field(z.chart)
    expected = z.scale(GaussianRational.of(d - 1))
    if lie_bracket(r, z) != expected:
        raise NotApplicableError("Euler bracket identity failed")
    return d
