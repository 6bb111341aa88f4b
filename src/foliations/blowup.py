"""Blow-up transforms of vector fields.

Supports one-point blow-ups, blow-ups along coordinate-axis curves in
dimension 3, and weighted variants of both.  :func:`weighted_blowup` gives
one chart and :func:`all_charts` every chart of one blow-up; both check the
spec and then the centre once per call, so the charts of one blow-up share
one centre check, and build each chart with the same code.  Weights default
to ones, which is the standard blow-up.

For the chart in which the blown-up variable ``v`` carries weight ``w`` and
another blown-up variable ``u`` carries weight ``w_u`` the substitution
``v_old = v**w``, ``u_old = u * v**w_u`` maps exponents one-to-one and keeps
every coefficient.  With ``top = max(weights)`` each transformed component
times ``v**top`` is a polynomial numerator:

    v' * v**top  =  X_v(sub) * v**(top-w+1) / w
    u' * v**top  =  X_u(sub) * v**(top-w_u) - (w_u/w) * u * X_v(sub) * v**(top-w)
    z' * v**top  =  X_z(sub) * v**top          (z free on a curve center)

One transform, :func:`_terms_blowup`, computes the numerators on term dicts
of ``(a, b, d)`` int triples, for every centre and weight: each numerator is
one dict built in one pass over the component's exponent keys, which does
the substitution and the power of ``v`` (and of ``u`` for the drift)
together; the drift is folded into the ``u`` numerator in place.  Each
numerator's own monomial content comes from one scan, and their minimum is
the transform's content.  :func:`_chart` builds the chart's polynomials on
them as they come: dividing each numerator once by its own content gives
both the holomorphic, content-free representative and the raw field.  The
representative is handed its expanded components, each numerator over the
transform's content in the numerator's term order, so reading its
``polys()`` expands nothing.  The persistent-nilpotent probe
in ``resolve`` calls :func:`_terms_blowup` directly and builds no field.
The content's ``v`` exponent minus ``top`` is the vanishing order of the
transform along the divisor; a transform with poles is reported with its
pole order instead of being silently cleared.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .algebra import ChartFunction, _accumulate, _over, _poly, _reduced, _triple_product
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
    (0 for a holomorphic transform).  The new chart is
    ``representative.chart``.
    """

    field: VectorField
    representative: VectorField
    divisor_multiplicity: int
    pole_order: int
    dicritical: bool
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


def _validated(x: VectorField, spec: BlowupSpec) -> tuple[list[str], tuple[int, ...]]:
    """The blown-up variables and weights of ``spec``, once the spec and then
    the centre have passed every check a blow-up of ``x`` makes."""
    blown = _blown_vars(x.chart, spec)
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
    return blown, weights


def weighted_blowup(x: VectorField, spec: BlowupSpec) -> TransformResult:
    """Transform ``x`` under one chart of a (possibly weighted) blow-up.

    The new divisor is labelled ``E<k>`` for the chart's ``k``-th blow-up and
    the centre is recorded at the origin; :func:`all_charts` takes both, for
    the resolution driver.
    """
    blown, weights = _validated(x, spec)
    return _chart(x, spec.center, blown, weights, spec.chart_index, None, None)


def all_charts(
    x: VectorField,
    center: str = POINT,
    weights: tuple[int, ...] | None = None,
    divisor_label: str | None = None,
    center_coords: tuple[str, ...] | None = None,
) -> list[TransformResult]:
    """All charts of one blow-up, in blown-variable order.

    The centre is checked once, for all the charts, and raises what
    :func:`weighted_blowup` raises on chart 0.
    """
    blown, weights = _validated(x, BlowupSpec(center, weights, 0))
    return [_chart(x, center, blown, weights, idx, divisor_label, center_coords)
            for idx in range(len(blown))]


def _terms_blowup(comps: Sequence[dict], k: int, row: tuple[int, ...]):
    """The transform of the components ``comps`` (term dicts of ``(a, b, d)``
    triples) in the chart whose divisor variable has index ``k``, for the
    blow-up giving variable ``j`` weight ``row[j]`` (0 off the centre).

    Returns ``(numerators, owns, content)``: each transformed component times
    ``v**top`` as a term dict, each numerator's own monomial content (``()``
    for a zero one) and the transform's content, their minimum.
    """
    wv = row[k]
    top = max(row)

    def key_map(p: dict, shift: int, bump: int | None = None) -> list[tuple[int, ...]]:
        """``p``'s exponents after the substitution, times ``v**shift`` (and ``bump``)."""
        keys = []
        for e in p:
            key = list(e)
            key[k] = sum(map(operator.mul, row, e)) + shift
            if bump is not None:
                key[bump] += 1
            keys.append(tuple(key))
        return keys

    numerators = []
    for i, p in enumerate(comps):
        keys = key_map(p, top - row[i] + (i == k))
        if i == k and wv != 1:
            factor = (1, 0, wv)
            num = {e: _triple_product(c, factor) for e, c in zip(keys, p.values())}
        else:
            num = dict(zip(keys, p.values()))
        if i != k and row[i]:
            # fold in the drift term by term; a sum of zero drops its key
            factor = _reduced(-row[i], 0, wv)
            for e, c in zip(key_map(comps[k], top - wv, i), comps[k].values()):
                _accumulate(num, e, _triple_product(c, factor))
        numerators.append(num)
    if not any(numerators):
        raise NotApplicableError("transform of the zero field")
    owns = [tuple(map(min, zip(*num))) if num else () for num in numerators]
    return numerators, owns, tuple(map(min, zip(*filter(None, owns))))


def _chart(x: VectorField, center: str, blown: list[str], weights: tuple[int, ...],
           index: int, divisor_label: str | None,
           center_coords: tuple[str, ...] | None) -> TransformResult:
    """The transform of ``x`` in chart ``index`` of a validated blow-up."""
    chart = x.chart
    names = chart.var_names
    n = len(names)
    weight_of = dict(zip(blown, weights))
    v_name = blown[index]
    k = chart.var_index(v_name)
    top = max(weights)

    # divisor labels: the chart variable cuts the new component; strict
    # transforms of previously labelled hypersurfaces keep their labels
    if divisor_label is None:
        divisor_label = f"E{len(chart.history) + 1}"
    labels = list(chart.divisor_labels)
    labels[k] = divisor_label
    if center_coords is None:
        center_coords = ("0",) * n
    record = BlowupRecord(center, tuple(center_coords), tuple(weights),
                          v_name, divisor_label)
    new_chart = chart.extended(record, labels)

    numerators, owns, content = _terms_blowup(
        [p._abd for p in x.polys()], k,
        tuple(weight_of.get(name, 0) for name in names))
    multiplicity = content[k] - top
    pole_order = max(0, -multiplicity)
    # one division per component: the representative is the transform over
    # x**content, the raw field the transform over v**top; the
    # representative's expanded component is the numerator over x**content
    parts = []
    for num, own in zip(numerators, owns):
        if not num:
            zero = _poly(names, num)
            parts.append((ChartFunction(zero, (0,) * n),) * 2 + (zero,))
            continue
        rest = tuple(map(operator.sub, own, content))
        reduced = _poly(names, _over(num, own))
        expanded = _poly(names, _over(num, content)) if any(rest) else reduced
        parts.append((ChartFunction(reduced, rest),
                      ChartFunction(reduced, own[:k] + (own[k] - top,) + own[k + 1:]),
                      expanded))
    rep_parts, field_parts, expansions = zip(*parts)
    representative = VectorField._of_expansions(new_chart, rep_parts, expansions)
    field = VectorField(new_chart, field_parts)

    rep_v = representative.components[k]
    dicritical = (not rep_v.is_zero()) and rep_v.order_in(v_name) == 0

    return TransformResult(
        field=field,
        representative=representative,
        divisor_multiplicity=multiplicity,
        pole_order=pole_order,
        dicritical=dicritical,
        divisor_var=v_name,
        record=record,
    )
