"""``weighted_blowup`` against a step-by-step reference, term order included.

The reference below builds the transform the long way: a substituted copy
of every component, then ``times_monomial``, ``scale``, negation and
addition for the drift, one ``monomial_content`` of the numerators and one
``VectorField.make``.  ``weighted_blowup`` must give the same numerator
terms in the same insertion order, the same monomial exponents for the raw
field and for the representative, and the same multiplicity, pole order,
dicritical flag, chart and record.  Insertion order matters because the
compiled evaluators add terms in that order, so a reordering moves the last
bits of every floating-point evaluation downstream.

Cases are the sympy suite's germs (weights 1-3, point and curve centers,
every chart) and germs with equal weights whose ``u`` components contain
``u`` times part of the ``v`` component, so the drift cancels terms of the
``u`` numerator: some disappear and some change in place.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import ChartFunction, Poly, monomial_content
from foliations.blowup import (
    POINT,
    BlowupSpec,
    _blown_vars,
    _check_center,
    curve_center,
    weighted_blowup,
)
from foliations.errors import FoliationError, NotApplicableError
from foliations.fields import BlowupRecord, Chart, VectorField

from test_blowup_sympy import blowups, component


def reference_blowup(x, spec, divisor_label=None, center_coords=None):
    """The transform by whole-polynomial operations, one step at a time."""
    chart = x.chart
    blown = _blown_vars(chart, spec)
    weights = spec.weights if spec.weights is not None else tuple([1] * len(blown))
    _check_center(x, spec, blown)

    names = chart.var_names
    n = len(names)
    weight_of = dict(zip(blown, weights))
    v_name = blown[spec.chart_index]
    k = chart.var_index(v_name)
    wv = weight_of[v_name]
    top = max(weights)
    blown_weights = [(chart.var_index(name), w) for name, w in weight_of.items()]

    def v_power(d):
        return tuple(d if j == k else 0 for j in range(n))

    subbed = [Poly(names, {e[:k] + (sum(w * e[j] for j, w in blown_weights),) + e[k + 1:]: c
                           for e, c in p.terms.items()})
              for p in x.polys()]

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
    shift = content[:k] + (multiplicity,) + content[k + 1:]
    field = VectorField(new_chart, tuple(
        f if f.is_zero() else ChartFunction(
            f.numerator, tuple(map(operator.add, f.monomial_exponents, shift)))
        for f in representative.components))

    rep_v = representative.components[k]
    dicritical = (not rep_v.is_zero()) and rep_v.order_in(v_name) == 0
    return field, representative, multiplicity, pole_order, dicritical, new_chart, v_name, record


def shape(field: VectorField):
    """Each component's numerator variables, its terms in insertion order
    and its monomial exponents."""
    return [(f.numerator.vars, list(f.numerator.terms.items()), f.monomial_exponents)
            for f in field.components]


def outcome(blowup, x, spec):
    try:
        result = blowup(x, spec)
    except FoliationError as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        field, rep, *rest = result
    else:
        field, rep = result.field, result.representative
        rest = [result.divisor_multiplicity, result.pole_order, result.dicritical,
                result.representative.chart, result.divisor_var, result.record]
    return [shape(field), shape(rep), *rest]


@st.composite
def cancelling_blowups(draw):
    """Equal weights; each blown component is ``u * p + q_u`` for one shared
    ``p``, so the drift ``u * X_v(s)`` cancels ``u * p(s)`` term by term and
    may meet terms of ``q_u(s)``."""
    dim = draw(st.integers(2, 3))
    vars = ("x", "y", "z")[:dim]
    free = draw(st.sampled_from((None,) + vars)) if dim == 3 else None
    blown = [v for v in vars if v != free]
    blown_at = [vars.index(v) for v in blown]
    on_center = lambda e: any(e[j] for j in blown_at)
    p = component(draw, vars, lambda e: True)
    comps = [Poly.variable(vars, name) * p + component(draw, vars, on_center)
             if name != free else component(draw, vars, lambda e: True)
             for name in vars]
    weights = (draw(st.integers(1, 3)),) * len(blown)
    index = draw(st.integers(0, len(blown) - 1))
    center = POINT if free is None else curve_center(free)
    return vars, comps, BlowupSpec(center, weights, index), blown


@settings(max_examples=150, deadline=None)
@given(st.one_of(blowups(), cancelling_blowups()))
def test_weighted_blowup_matches_reference_term_order(case):
    vars, comps, spec, _ = case
    x = VectorField.make(Chart.root(vars), comps)
    assert outcome(weighted_blowup, x, spec) == outcome(reference_blowup, x, spec)


def test_drift_pops_and_updates_terms_in_place():
    # X = (x*(1 + 2*y) + y^2, y*(1 + y) + x^3): in each chart the drift
    # removes one term of the u numerator, changes one in place, where it
    # keeps its position, and appends one
    vars = ("x", "y")
    x_, y_ = Poly.variable(vars, "x"), Poly.variable(vars, "y")
    one = Poly.constant(vars, 1)
    x = VectorField.make(Chart.root(vars), [
        x_ * (one + y_.scale(2)) + y_ ** 2, y_ * (one + y_) + x_ ** 3])
    for index in (0, 1):
        spec = BlowupSpec(POINT, (1, 1), index)
        assert outcome(weighted_blowup, x, spec) == outcome(reference_blowup, x, spec)
    u_numerator = weighted_blowup(x, BlowupSpec(POINT, (1, 1), 1)).field.components[0].numerator
    assert [(e, c.text()) for e, c in u_numerator.terms.items()] == [
        ((1, 0), "1"), ((0, 0), "1"), ((4, 1), "-1")]
