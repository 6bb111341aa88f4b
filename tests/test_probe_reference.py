"""The persistent-nilpotent probe and the blow-up charts against a reference.

The reference below is the probe and the blow-up written the direct way:

- ``reference_weighted_blowup`` validates the spec and checks the centre on
  every call, so ``reference_all_charts`` checks it once per chart, and the
  representative it returns expands its components when ``polys()`` is
  first read;
- ``reference_is_nilpotent`` decides nilpotency from the exact
  characteristic polynomial of the linear part;
- ``reference_divisor_candidates_3d`` sorts its points by ``Fraction`` keys
  and finds common roots by ``reference_common_roots``: the gcd over Q(i)
  and its factors, by sympy;
- the memo key, the univariate test and the earlier-chart test of the
  object-based probe are kept here as ``_germ_key``, ``_uses_only`` and
  ``_invisible_in_earlier_charts``;
- ``reference_probe_expansions`` and ``reference_detect_persistent_nilpotent``
  follow nilpotent divisor points through the reference blow-ups, one call
  per chart.

The toolkit must agree with it: every probe report (match, ``n``, witness,
cap, matched germ with its term order, chart and labels), every chart of
every blow-up, the term order of each representative's ``polys()`` against
``expand()`` of its components, the singular points found on each 3-D
chart's divisor, in their order, and the error raised for an invalid centre
by ``all_charts`` and by a direct ``weighted_blowup`` on chart index 2.

Germs are Sancho-Sanz members, the persistent-nilpotent fixtures, random
nilpotent germs (conjugated strictly triangular linear parts with
Gaussian-rational higher-order terms) and random 2-D and 3-D fields, some
not vanishing at the origin, some with an invariant or non-invariant axis,
one meromorphic.
"""

from __future__ import annotations

import operator
from collections import deque
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliations.algebra import GR_ONE, GR_ZERO, ChartFunction, GaussianRational, Poly, _make
from foliations.blowup import (
    POINT,
    BlowupSpec,
    TransformResult,
    _blown_vars,
    all_charts,
    curve_center,
    weighted_blowup,
)
from foliations.classify import CLASS_NILPOTENT, _nilpotent_class, char_poly
from foliations.corpus import (
    persistent_synthetic_field,
    sancho_sanz_field,
)
from foliations.errors import (
    FoliationError,
    InvalidCenterError,
    NotApplicableError,
    StructuralError,
)
from foliations.fields import BlowupRecord, Chart, VectorField, linear_part
from foliations.resolve import (
    _MAX_PROBE_GERMS,
    PersistentNilpotentReport,
    _divisor_candidates_3d,
    detect_persistent_nilpotent,
    germ_at,
    match_persistent_normal_form,
)

from conftest import make_poly

V2 = ("x", "y")
V3 = ("x", "y", "z")


# ---------------------------------------------------------------------------
# The reference blow-up
# ---------------------------------------------------------------------------

def _reference_check_center(x, spec, blown):
    if not x.is_holomorphic():
        raise NotApplicableError("transforms act on holomorphic fields")
    free = spec.free_var()
    if free is None:
        if not x.vanishes_at_origin():
            raise NotApplicableError("blow-up centered at a regular point")
        return
    for var, comp in zip(x.chart.var_names, x.polys()):
        if var == free:
            continue
        restricted = comp
        for other in blown:
            restricted = restricted.restrict(other, 0)
        if not restricted.is_zero():
            raise InvalidCenterError(
                f"axis of {free!r} is not invariant: component {var} survives")


def reference_weighted_blowup(x, spec, divisor_label=None, center_coords=None):
    """One chart of a blow-up, the centre checked on this call."""
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
    _reference_check_center(x, spec, blown)

    names = chart.var_names
    n = len(names)
    weight_of = dict(zip(blown, weights))
    v_name = blown[spec.chart_index]
    k = chart.var_index(v_name)
    wv = weight_of[v_name]
    top = max(weights)
    v_row = tuple(weight_of.get(name, 0) for name in names)
    polys = x.polys()

    def key_map(p, shift, bump=None):
        keys = []
        for e in p.terms:
            key = list(e)
            key[k] = sum(map(operator.mul, v_row, e)) + shift
            if bump is not None:
                key[bump] += 1
            keys.append(tuple(key))
        return keys

    numerators = []
    for i, (name, p) in enumerate(zip(names, polys)):
        keys = key_map(p, top - weight_of.get(name, 0) + (i == k))
        if i == k and wv != 1:
            factor = _make(1, 0, wv)
            num = {e: c * factor for e, c in zip(keys, p.terms.values())}
        else:
            num = dict(zip(keys, p.terms.values()))
        if i != k and name in weight_of:
            factor = _make(-weight_of[name], 0, wv)
            for e, c in zip(key_map(polys[k], top - wv, i), polys[k].terms.values()):
                c = c * factor
                s = num[e] + c if e in num else c
                if s:
                    num[e] = s
                else:
                    del num[e]
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

    if not any(numerators):
        raise NotApplicableError("transform of the zero field")
    owns = [tuple(map(min, zip(*num))) if num else () for num in numerators]
    content = tuple(map(min, zip(*filter(None, owns))))
    multiplicity = content[k] - top
    pole_order = max(0, -multiplicity)
    parts = []
    for num, own in zip(numerators, owns):
        if not num:
            parts.append((ChartFunction(Poly(names, num), (0,) * n),) * 2)
            continue
        if any(own):
            num = {tuple(map(operator.sub, e, own)): c for e, c in num.items()}
        reduced = Poly(names, num)
        parts.append((ChartFunction(reduced, tuple(map(operator.sub, own, content))),
                      ChartFunction(reduced, own[:k] + (own[k] - top,) + own[k + 1:])))
    rep_parts, field_parts = zip(*parts)
    representative = VectorField(new_chart, rep_parts)
    field = VectorField(new_chart, field_parts)

    rep_v = representative.components[k]
    dicritical = (not rep_v.is_zero()) and rep_v.order_in(v_name) == 0
    return TransformResult(field, representative, multiplicity, pole_order,
                           dicritical, v_name, record)


def reference_all_charts(x, center=POINT, weights=None, divisor_label=None,
                         center_coords=None):
    count = len(_blown_vars(x.chart, BlowupSpec(center, weights, 0)))
    return [reference_weighted_blowup(x, BlowupSpec(center, weights, idx),
                                      divisor_label, center_coords)
            for idx in range(count)]


# ---------------------------------------------------------------------------
# The reference probe
# ---------------------------------------------------------------------------

def _germ_key(germ):
    """The chart variables and exact components of a germ, hashable."""
    return (germ.chart.var_names,) + tuple(
        (f.monomial_exponents, tuple((e, c._abd) for e, c in f.numerator.terms.items()))
        for f in germ.components)


def _uses_only(p, var):
    return all(k == 0 for e in p.terms for v, k in zip(p.vars, e) if v != var)


def _invisible_in_earlier_charts(chart, divisor_var, coords):
    """True when a divisor point has a zero coordinate in every variable
    blown up before ``divisor_var``: no earlier chart of the blow-up shows
    it."""
    for name in _blown_vars(chart, BlowupSpec(chart.history[-1].center)):
        if name == divisor_var:
            break
        if not coords[chart.var_names.index(name)].is_zero():
            return False
    return True


def reference_is_nilpotent(x):
    if not x.vanishes_at_origin():
        return False
    lp = linear_part(x)
    return not lp.is_zero() and _nilpotent_class(lp, char_poly(lp)) == CLASS_NILPOTENT


def _reference_is_nilpotent_germ(germ):
    try:
        return reference_is_nilpotent(germ)
    except FoliationError:
        return False


def _to_sympy(c):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator)


def reference_common_roots(polys, var):
    """The roots shared by univariates in ``var``: (their Q(i) roots sorted
    by (re, im), the number of their other roots), from the gcd over Q(i)
    and its irreducible factors."""
    i, s = polys[0].var_index(var), sympy.Symbol(var)
    gcd = None
    for p in polys:
        q = sympy.Poly(sum(_to_sympy(c) * s ** e[i] for e, c in p.terms.items()), s,
                       domain=sympy.QQ_I)
        gcd = q if gcd is None else gcd.gcd(q)
    exact, others = [], 0
    for factor, _multiplicity in gcd.factor_list()[1]:
        if factor.degree() > 1:
            others += factor.degree()
            continue
        a, b = factor.all_coeffs()
        re, im = sympy.expand(-b / a).as_real_imag()
        exact.append(GaussianRational(Fraction(int(re.p), int(re.q)),
                                      Fraction(int(im.p), int(im.q))))
    return sorted(exact, key=lambda r: (r.re, r.im)), others


def reference_divisor_candidates_3d(rep, divisor_var):
    names = rep.chart.var_names
    polys = rep.polys()
    u1, u2 = [v for v in names if v != divisor_var]
    restricted = [p.restrict(divisor_var, 0) for p in polys]
    nonzero = [p for p in restricted if not p.is_zero()]
    points = []
    lines = []
    nonrational = 0
    complete = True

    def full_coords(a, b):
        values = {u1: a, u2: b, divisor_var: GR_ZERO}
        return tuple(values[name] for name in names)

    if any(p.degree() == 0 for p in nonzero):
        return [], [], 0, True

    def solve_with_pivot(pivot_var, other_var):
        nonlocal nonrational
        pivot_comps = [p for p in nonzero if _uses_only(p, pivot_var)]
        exact, others = reference_common_roots(pivot_comps, pivot_var)
        nonrational += others
        for r in exact:
            sliced = [p.restrict(pivot_var, r) for p in restricted]
            sliced_nonzero = [p for p in sliced if not p.is_zero()]
            if not sliced_nonzero:
                lines.append(f"{other_var}-line through {pivot_var}={r.text()}")
                points.append((r, GR_ZERO) if pivot_var == u1 else (GR_ZERO, r))
                continue
            if any(p.degree() == 0 for p in sliced_nonzero):
                continue
            sub_exact, sub_others = reference_common_roots(sliced_nonzero, other_var)
            nonrational += sub_others
            for s in sub_exact:
                points.append((r, s) if pivot_var == u1 else (s, r))

    if any(_uses_only(p, u1) for p in nonzero):
        solve_with_pivot(u1, u2)
    elif any(_uses_only(p, u2) for p in nonzero):
        solve_with_pivot(u2, u1)
    elif len(nonzero) == 1 and len(nonzero[0].terms) == 1:
        (exps, _coeff), = nonzero[0].terms.items()
        for name, e in zip(names, exps):
            if e > 0 and name != divisor_var:
                lines.append(f"{name}-axis")
        points.append((GR_ZERO, GR_ZERO))
    else:
        complete = False
        if all(p.constant_term().is_zero() for p in restricted):
            points.append((GR_ZERO, GR_ZERO))

    unique = sorted({(a._abd, b._abd): (a, b) for a, b in points}.values(),
                    key=lambda ab: (ab[0].re, ab[0].im, ab[1].re, ab[1].im))
    candidates = [c for c in (full_coords(a, b) for a, b in unique)
                  if _invisible_in_earlier_charts(rep.chart, divisor_var, c)]
    return candidates, lines, nonrational, complete


def reference_probe_expansions(germ, memo):
    key = _germ_key(germ)
    found = memo.get(key)
    if found is None:
        found = []
        for idx in range(3):
            result = reference_weighted_blowup(
                germ, BlowupSpec(POINT, (1, 1, 1), idx), divisor_label="probe")
            candidates, _lines, _nr, _complete = reference_divisor_candidates_3d(
                result.representative, result.divisor_var)
            for coords in candidates:
                sub = germ_at(result.representative, coords)
                if _reference_is_nilpotent_germ(sub):
                    found.append((result.divisor_var, coords, sub.components))
        memo[key] = found
    chart = germ.chart
    out = []
    for var, coords, components in found:
        record = BlowupRecord(POINT, ("0",) * 3, (1, 1, 1), var, "probe")
        labels = ["probe" if name == var else label if c.is_zero() else None
                  for name, label, c in zip(chart.var_names, chart.divisor_labels, coords)]
        out.append((var, coords, VectorField(chart.extended(record, labels), components)))
    return out


def reference_detect_persistent_nilpotent(x, probe_budget=6, memo=None):
    if x.chart.dim != 3:
        raise NotApplicableError("persistent-nilpotent detection is three-dimensional")
    if not _reference_is_nilpotent_germ(x):
        raise NotApplicableError("field does not have a nilpotent linear part")
    if memo is None:
        memo = {}
    examined = 0
    queue = deque([(x, [], 0)])
    while queue:
        if examined == _MAX_PROBE_GERMS:
            return PersistentNilpotentReport(False, capped=True)
        germ, chain, depth = queue.popleft()
        examined += 1
        witness = match_persistent_normal_form(germ)
        if witness is not None:
            witness = dict(witness)
            witness["chain"] = [
                {"chart_var": var, "coords": [c.text() for c in coords]}
                for var, coords in chain]
            witness["stage"] = depth
            return PersistentNilpotentReport(True, witness["n"], witness, germ)
        if depth >= probe_budget:
            continue
        queue.extend((sub, chain + [(var, coords)], depth + 1)
                     for var, coords, sub in reference_probe_expansions(germ, memo))
    return PersistentNilpotentReport(False)


# ---------------------------------------------------------------------------
# What must agree
# ---------------------------------------------------------------------------

def shape(field):
    """Chart, and each component's numerator terms in insertion order and
    monomial exponents."""
    return field.chart, [(list(f.numerator.terms.items()), f.monomial_exponents)
                         for f in field.components]


def error_of(call):
    try:
        call()
    except FoliationError as exc:
        return type(exc), str(exc)
    return None


def probe_facts(detect, germ, budget, memo=None):
    try:
        report = detect(germ, budget, memo=memo)
    except FoliationError as exc:
        return type(exc), str(exc)
    germ = report.germ
    return (report.matched, report.n, report.witness, report.capped,
            germ and shape(germ))


def chart_facts(results):
    return [(shape(r.field), shape(r.representative), r.divisor_multiplicity,
             r.pole_order, r.dicritical, r.divisor_var, r.record)
            for r in results]


def expanded_in_order(results) -> bool:
    """Each representative's ``polys()`` holds its components' ``expand()``
    terms in the same order."""
    return all([list(p.terms.items()) for p in r.representative.polys()]
               == [list(c.expand().terms.items()) for c in r.representative.components]
               for r in results)


def centers(x):
    names = x.chart.var_names
    yield POINT, None
    yield POINT, (1,) * len(names)
    yield POINT, (1, 2, 1)[:len(names)]
    for free in names:
        yield curve_center(free), None
        yield curve_center(free), (2, 1)


def assert_blowups_agree(x):
    """Every centre of ``x``: the same charts or error from ``all_charts``,
    the same outcome of ``weighted_blowup`` on chart index 2, and
    representatives whose ``polys()`` are their expansions, in order."""
    for center, weights in centers(x):
        try:
            ours = all_charts(x, center, weights, "E", ("0",) * x.chart.dim)
        except FoliationError as exc:
            ours = (type(exc), str(exc))
        try:
            ref = reference_all_charts(x, center, weights, "E", ("0",) * x.chart.dim)
        except FoliationError as exc:
            ref = (type(exc), str(exc))
        if isinstance(ref, tuple):
            assert ours == ref, (center, weights)
        else:
            assert chart_facts(ours) == chart_facts(ref), (center, weights)
            assert expanded_in_order(ours)
            if x.chart.dim == 3:
                assert ([_divisor_candidates_3d(r.representative, r.divisor_var) for r in ours]
                        == [reference_divisor_candidates_3d(r.representative, r.divisor_var)
                            for r in ref]), (center, weights)
        spec = BlowupSpec(center, weights, 2)
        try:
            direct = chart_facts([weighted_blowup(x, spec)])
        except FoliationError as exc:
            direct = (type(exc), str(exc))
        try:
            expected = chart_facts([reference_weighted_blowup(x, spec)])
        except FoliationError as exc:
            expected = (type(exc), str(exc))
        assert direct == expected, (center, weights)


def assert_probe_agrees(x, budget):
    assert (probe_facts(detect_persistent_nilpotent, x, budget)
            == probe_facts(reference_detect_persistent_nilpotent, x, budget))


# ---------------------------------------------------------------------------
# Germs
# ---------------------------------------------------------------------------

coefficients = st.sampled_from([
    GaussianRational.of(c) for c in (1, -1, 2, -2, 3, "1/2", "-1/3")]
    + [GaussianRational(1, 1), GaussianRational(0, -1), GaussianRational(Fraction(1, 2), 2)])
small = st.integers(-2, 2)
ss_values = st.sampled_from([
    GaussianRational.of(c) for c in (1, 2, "1/2", "3/2", "1/3", -2, 3)]
    + [GaussianRational(1, 1)])


def _higher_terms(draw, vars, min_degree=2, max_size=3):
    exps = st.lists(st.integers(0, 3), min_size=len(vars), max_size=len(vars)).map(tuple)
    terms = draw(st.dictionaries(exps, coefficients, max_size=max_size))
    return {e: c for e, c in terms.items() if sum(e) >= min_degree}


def _unit_triangular(draw, lower):
    return [[draw(small) if (j < i if lower else j > i) else int(i == j)
             for j in range(3)] for i in range(3)]


def _product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _unit_triangular_inverse(m, lower):
    """Inverse of a unit triangular integer matrix, by substitution."""
    order = range(3) if lower else range(2, -1, -1)
    inv = [[0] * 3 for _ in range(3)]
    for col in range(3):
        for i in order:
            s = int(i == col)
            for j in range(3):
                if j != i and (j < i if lower else j > i):
                    s -= m[i][j] * inv[j][col]
            inv[i][col] = s
    return inv


@st.composite
def nilpotent_germs(draw):
    """``P N P^-1`` linear part (``N`` strictly upper triangular, ``P`` a
    product of unit triangular integer matrices) plus terms of degree 2-3."""
    lower, upper = _unit_triangular(draw, True), _unit_triangular(draw, False)
    p = _product(lower, upper)
    p_inv = _product(_unit_triangular_inverse(upper, False),
                     _unit_triangular_inverse(lower, True))
    n = [[draw(small) if j > i else 0 for j in range(3)] for i in range(3)]
    lin = _product(_product(p, n), p_inv)
    comps = []
    for i in range(3):
        terms = _higher_terms(draw, V3)
        for j in range(3):
            if lin[i][j]:
                terms[tuple(int(k == j) for k in range(3))] = GaussianRational.of(lin[i][j])
        comps.append(make_poly(V3, terms))
    return VectorField.make(Chart.root(V3), comps)


@st.composite
def sancho_sanz_members(draw):
    lam = draw(st.one_of(st.just(GR_ZERO), ss_values))
    return sancho_sanz_field(draw(ss_values), draw(ss_values), lam)


@st.composite
def random_fields(draw):
    """2-D and 3-D fields: vanishing at the origin, with a constant term, or
    with an invariant axis (every component a multiple of its other two
    variables)."""
    vars = draw(st.sampled_from([V2, V3]))
    kind = draw(st.sampled_from(["singular", "constant", "axis"]))
    comps = []
    for i in range(len(vars)):
        terms = _higher_terms(draw, vars, min_degree=1, max_size=4)
        if kind == "constant" and i == 0:
            terms[(0,) * len(vars)] = GR_ONE
        if kind == "axis":
            terms = {e: c for e, c in terms.items() if any(e[1:])}
        comps.append(make_poly(vars, terms))
    return VectorField.make(Chart.root(vars), comps)


# the persistent-nilpotent fixtures, and x^3 d/dx + (2x + z) d/dy - y^2 d/dz,
# which matches only after one point blow-up
PRECHAIN = VectorField.make(Chart.root(V3), [
    make_poly(V3, {(3, 0, 0): 1}),
    make_poly(V3, {(1, 0, 0): 2, (0, 0, 1): 1}),
    make_poly(V3, {(0, 2, 0): -1})])
FIXTURES = {
    "sancho_sanz": sancho_sanz_field(),
    "sancho_sanz_111": sancho_sanz_field(1, 1, 1),
    "sancho_sanz_i": sancho_sanz_field(GaussianRational(1, 1), 3, "1/2"),
    "complete_nilpotent": sancho_sanz_field(0, 1, 0),
    "persistent_synthetic": persistent_synthetic_field(),
    "prechain": PRECHAIN,
}

# x d/dx + y/x d/dy + z d/dz: meromorphic along x = 0
MEROMORPHIC = VectorField(Chart.root(V3), (
    ChartFunction.make(Poly.variable(V3, "x")),
    ChartFunction(Poly.variable(V3, "y"), (-1, 0, 0)),
    ChartFunction.make(Poly.variable(V3, "z"))))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_probes_and_blowups_match_reference(name):
    x = FIXTURES[name]
    for budget in range(7):
        assert_probe_agrees(x, budget)
    assert_blowups_agree(x)


@settings(max_examples=60, deadline=None)
@given(sancho_sanz_members(), st.integers(0, 6))
def test_sancho_sanz_probe_matches_reference(x, budget):
    assert_probe_agrees(x, budget)
    assert_blowups_agree(x)


@settings(max_examples=80, deadline=None)
@given(nilpotent_germs(), st.integers(0, 3))
def test_nilpotent_germ_probe_matches_reference(x, budget):
    assert_probe_agrees(x, budget)
    assert_blowups_agree(x)


@settings(max_examples=80, deadline=None)
@given(random_fields())
@example(MEROMORPHIC)
def test_blowups_and_invalid_centers_match_reference(x):
    assert_blowups_agree(x)
    if x.chart.dim == 3:
        assert_probe_agrees(x, 1)


def test_shared_memo_gives_the_reference_reports():
    # the probes of one resolution share a memo; in the order the fixtures
    # come, with one memo per side, every report agrees
    ours, ref = {}, {}
    for name in sorted(FIXTURES):
        x = FIXTURES[name]
        assert (probe_facts(detect_persistent_nilpotent, x, 6, ours)
                == probe_facts(reference_detect_persistent_nilpotent, x, 6, ref))
    assert [len(v) for v in ours.values()] == [len(v) for v in ref.values()]


def test_divisor_points_keep_the_reference_order():
    # (-3x + 10y) d/dx + (-2x + 6y) d/dy + 3z d/dz has eigenlines through
    # (5, 2, 0) and (2, 1, 0): on the x chart of its point blow-up the
    # divisor points y = 2/5 and y = 1/2, whose numerators are in the
    # opposite order
    x = VectorField.make(Chart.root(V3), [
        make_poly(V3, {(1, 0, 0): -3, (0, 1, 0): 10}),
        make_poly(V3, {(1, 0, 0): -2, (0, 1, 0): 6}),
        make_poly(V3, {(0, 0, 1): 3})])
    chart = all_charts(x)[0]
    candidates = _divisor_candidates_3d(chart.representative, "x")[0]
    assert [[c.text() for c in point] for point in candidates] == [
        ["0", "2/5", "0"], ["0", "1/2", "0"]]
    assert_blowups_agree(x)


def test_invalid_centers_raise_the_reference_errors():
    regular = VectorField.make(Chart.root(V3), [
        make_poly(V3, {(0, 0, 0): 1}), make_poly(V3, {(0, 1, 0): 1}),
        make_poly(V3, {(0, 0, 1): 1})])
    cases = [
        (regular, POINT, None),
        (sancho_sanz_field(1, 1, 1), curve_center("x"), None),
        (sancho_sanz_field(), curve_center("w"), None),
        (sancho_sanz_field(), POINT, (1, 1)),
        (sancho_sanz_field(), POINT, (1, 0, 1)),
        (MEROMORPHIC, POINT, None),
        (FIXTURES["complete_nilpotent"], curve_center("y"), (1, 1)),
    ]
    for x, center, weights in cases:
        expected = error_of(lambda: reference_all_charts(x, center, weights))
        assert expected is not None
        assert error_of(lambda: all_charts(x, center, weights)) == expected
        for idx in range(3):
            spec = BlowupSpec(center, weights, idx)
            assert (error_of(lambda: weighted_blowup(x, spec))
                    == error_of(lambda: reference_weighted_blowup(x, spec)))
