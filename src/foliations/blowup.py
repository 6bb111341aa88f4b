"""Blow-up transforms of vector fields.

Supports one-point blow-ups, blow-ups along coordinate-axis curves in
dimension 3, and weighted variants of both, through one entry point,
:func:`weighted_blowup`.  Weights default to ones, which is the standard
blow-up.

For the chart in which the blown-up variable ``v`` carries weight ``w`` and
another blown-up variable ``u`` carries weight ``w_u`` the substitution
``v_old = v**w``, ``u_old = u * v**w_u`` maps exponents one-to-one and keeps
every coefficient.  With ``top = max(weights)`` each transformed component
times ``v**top`` is a polynomial numerator:

    v' * v**top  =  X_v(sub) * v**(top-w+1) / w
    u' * v**top  =  X_u(sub) * v**(top-w_u) - (w_u/w) * u * X_v(sub) * v**(top-w)
    z' * v**top  =  X_z(sub) * v**top          (z free on a curve center)

The monomial content of the numerators gives the holomorphic, content-free
representative, and its ``v`` exponent minus ``top`` the vanishing order of
the transform along the divisor; a transform with poles is reported with its
pole order instead of being silently cleared.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ChartFunction, Poly, monomial_content
from .errors import InvalidCenterError, NotApplicableError, StructuralError
from .fields import BlowupRecord, Chart, VectorField

POINT = "point"


def curve_center(free_var: str) -> str:
    """Center descriptor for the coordinate axis on which ``free_var`` is free."""
    return f"curve:{free_var}"


@dataclass(frozen=True)
class BlowupSpec:
    """Which center, which weights, which chart of the covering."""

    center: str = POINT                  # 'point' or 'curve:<free var>'
    weights: tuple[int, ...] | None = None   # default: all ones
    chart_index: int = 0

    def free_var(self) -> str | None:
        if self.center.startswith("curve:"):
            return self.center.split(":", 1)[1]
        return None


@dataclass(frozen=True)
class TransformResult:
    """Outcome of one blow-up chart.

    ``field`` is the raw transform (possibly meromorphic along the new
    divisor), ``representative`` the holomorphic content-free field that
    defines the transformed foliation on the chart.  ``divisor_multiplicity``
    is the vanishing order of the transform along the divisor (negative when
    the transform is strictly meromorphic), ``pole_order`` its pole order
    (0 for a holomorphic transform).
    """

    field: VectorField
    representative: VectorField
    divisor_multiplicity: int
    pole_order: int
    dicritical: bool
    chart: Chart
    divisor_var: str
    record: BlowupRecord


def _blown_vars(chart: Chart, spec: BlowupSpec) -> list[str]:
    free = spec.free_var()
    if free is None:
        return list(chart.var_names)
    if chart.dim != 3:
        raise NotApplicableError("curve centers need ambient dimension 3")
    if free not in chart.var_names:
        raise StructuralError(f"unknown axis variable {free!r}")
    return [v for v in chart.var_names if v != free]


def _check_center(x: VectorField, spec: BlowupSpec, blown: list[str]) -> None:
    if not x.is_holomorphic():
        raise NotApplicableError("transforms act on holomorphic fields")
    free = spec.free_var()
    if free is None:
        if not x.vanishes_at_origin():
            raise NotApplicableError("blow-up centered at a regular point")
        return
    # curve center: the components transverse to the axis must vanish on it
    polys = x.polys()
    for var, comp in zip(x.chart.var_names, polys):
        if var == free:
            continue
        restricted = comp
        for other in blown:
            restricted = restricted.restrict(other, 0)
        if not restricted.is_zero():
            raise InvalidCenterError(
                f"axis of {free!r} is not invariant: component {var} survives")
    return


def weighted_blowup(
    x: VectorField,
    spec: BlowupSpec,
    divisor_label: str | None = None,
    center_coords: tuple[str, ...] | None = None,
) -> TransformResult:
    """Transform ``x`` under one chart of a (possibly weighted) blow-up."""
    chart = x.chart
    blown = _blown_vars(chart, spec)
    weights = spec.weights if spec.weights is not None else tuple([1] * len(blown))
    if len(weights) != len(blown):
        raise StructuralError("one weight per blown-up variable required")
    if any(w < 1 for w in weights):
        raise StructuralError("weights must be positive integers")
    if len(blown) < 2:
        raise StructuralError("blow-ups involve at least two variables")
    if not 0 <= spec.chart_index < len(blown):
        raise StructuralError("chart index out of range")
    _check_center(x, spec, blown)

    names = chart.var_names
    n = len(names)
    weight_of = dict(zip(blown, weights))
    v_name = blown[spec.chart_index]
    k = chart.var_index(v_name)
    wv = weight_of[v_name]
    top = max(weights)
    blown_weights = [(chart.var_index(name), w) for name, w in weight_of.items()]

    def v_power(d: int) -> tuple[int, ...]:
        return tuple(d if j == k else 0 for j in range(n))

    # the substitution: one-to-one on exponents, coefficients kept
    subbed = [Poly(names, {e[:k] + (sum(w * e[j] for j, w in blown_weights),) + e[k + 1:]: c
                           for e, c in p.terms.items()})
              for p in x.polys()]

    # each transformed component times v**top, as a polynomial numerator
    numerators = []
    for i, name in enumerate(names):
        if i == k:
            num = subbed[k].times_monomial(v_power(top - wv + 1))
            if wv != 1:
                num = num.scale(Fraction(1, wv))
        elif name in weight_of:
            wu = weight_of[name]
            u_times = list(v_power(top - wv))
            u_times[i] += 1
            drift = subbed[k].times_monomial(tuple(u_times))
            if wu != wv:
                drift = drift.scale(Fraction(wu, wv))
            num = subbed[i].times_monomial(v_power(top - wu)) - drift
        else:
            num = subbed[i].times_monomial(v_power(top))
        numerators.append(num)

    # divisor labels: the chart variable cuts the new component; strict
    # transforms of previously labelled hypersurfaces keep their labels
    if divisor_label is None:
        divisor_label = f"E{len(chart.history) + 1}"
    labels = list(chart.divisor_labels)
    labels[k] = divisor_label
    if center_coords is None:
        center_coords = ("0",) * n
    record = BlowupRecord(spec.center, tuple(center_coords), tuple(weights),
                          v_name, divisor_label)
    new_chart = chart.extended(record, labels)

    if all(p.is_zero() for p in numerators):
        raise NotApplicableError("transform of the zero field")
    content, reduced = monomial_content(numerators)
    multiplicity = content[k] - top
    pole_order = max(0, -multiplicity)
    representative = VectorField.make(new_chart, reduced)
    # the raw transform is the representative times x**content / v**top
    shift = content[:k] + (multiplicity,) + content[k + 1:]
    field = VectorField(new_chart, tuple(
        f if f.is_zero() else ChartFunction(
            f.numerator, tuple(map(operator.add, f.monomial_exponents, shift)))
        for f in representative.components))

    rep_v = representative.components[k]
    dicritical = (not rep_v.is_zero()) and rep_v.order_in(v_name) == 0

    return TransformResult(
        field=field,
        representative=representative,
        divisor_multiplicity=multiplicity,
        pole_order=pole_order,
        dicritical=dicritical,
        chart=new_chart,
        divisor_var=v_name,
        record=record,
    )


def all_charts(
    x: VectorField,
    center: str = POINT,
    weights: tuple[int, ...] | None = None,
    divisor_label: str | None = None,
    center_coords: tuple[str, ...] | None = None,
) -> list[TransformResult]:
    """All charts of one blow-up, in blown-variable order."""
    probe = BlowupSpec(center, weights, 0)
    count = len(_blown_vars(x.chart, probe))
    out = []
    for idx in range(count):
        out.append(weighted_blowup(
            x, BlowupSpec(center, weights, idx), divisor_label, center_coords))
    return out

