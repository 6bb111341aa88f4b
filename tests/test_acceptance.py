"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is fixed here, not configurable.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from foliations.algebra import Poly, gr
from foliations.blowup import (
    POINT,
    BlowupSpec,
    all_charts,
    curve_center,
    weighted_blowup,
)
from foliations.classify import CLASS_NILPOTENT, CLASS_SADDLE_NODE, classify_singularity
from foliations.corpus import (
    commuting_pair,
    cusp_hamiltonian,
    jouanolou_field,
    jouanolou_form,
    linear_saddle,
    meromorphic_transform_example,
    radial,
    render_report,
    run_corpus,
    saddle_node_family,
    sancho_sanz_field,
    strict_siegel_diagonal,
    two_integrals_field,
)
from foliations.dynamics import (
    NOT_SEMICOMPLETE,
    SEMICOMPLETE,
    LogSpiral,
    Segment,
    adaptive_quadrature,
    half_circle,
    lift_path,
    loop_lift_ratio,
    omega1_integral,
    semicomplete_order_test,
    separating_direction,
    spiral_path,
    time_form_integral,
)
from foliations.fields import Chart, VectorField, contract, directional_derivative, euler_test, integrability_check, lie_bracket
from foliations.integrals import formal_first_integral, independence_check
from foliations.resolve import (
    POINT_NONRATIONAL,
    STATUS_BUDGET,
    STATUS_RESOLVED,
    detect_persistent_nilpotent,
    resolve3,
    seidenberg_resolve,
)

V1 = ("x",)
V2 = ("x", "y")
V3 = ("x", "y", "z")


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {summary}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {summary}")


def P(vars, terms):
    return Poly.make(vars, {e: gr(c) for e, c in terms.items()})


def test_criterion_01_exact_first_integrals():
    with criterion(1, "two exact first integrals, independent"):
        x = two_integrals_field()
        f = P(V3, {(1, 0, 1): 1})
        g = P(V3, {(0, 2, 2): 1, (3, 0, 2): -1})
        assert directional_derivative(x, f).is_zero()
        assert directional_derivative(x, g).is_zero()
        assert independence_check(f, g)


def test_criterion_02_jouanolou_suite():
    with criterion(2, "degree-n form suite: integrable, radial kernel, Euler degree"):
        r = radial(3)
        for n in (1, 2, 3, 4):
            omega = jouanolou_form(n)
            assert integrability_check(omega)
            assert contract(omega, r).is_zero()
            z = jouanolou_field(n)
            assert euler_test(z) == n
            # Euler bracket identity re-checked explicitly and exactly
            assert lie_bracket(r, z) == z.scale(gr(n - 1))


def test_criterion_03_commuting_pair():
    with criterion(3, "commuting pair brackets vanish for a in {1, 2, 1+i}"):
        for a in (1, 2, gr(1, 1)):
            x, y = commuting_pair(a)
            assert lie_bracket(x, y).is_zero()


def test_criterion_04_cusp_resolutions():
    with criterion(4, "cusp chains: 3 and 4 blow-ups with exact divisor data"):
        tree = seidenberg_resolve(cusp_hamiltonian(1))
        assert tree.status == STATUS_RESOLVED and tree.steps == 3
        weights = {c.id: c.weight for c in tree.components.values()}
        assert weights == {"E1": -3, "E2": -2, "E3": -1}
        points = [p for _, p in tree.component_points("E3")
                  if "E3" in p.cs_indices]
        assert len(points) == 3
        by_components = {}
        for p in points:
            key = tuple(sorted(p.on_components))
            by_components[key] = p.cs_indices["E3"]
        assert by_components[("E1", "E3")] == gr("-1/3")   # s1
        assert by_components[("E2", "E3")] == gr("-1/2")   # s2
        assert by_components[("E3",)] == gr("-1/6")        # s0 (index sum)
        assert tree.component_index_sum("E3") == gr(-1)

        five = seidenberg_resolve(cusp_hamiltonian(2))
        assert five.status == STATUS_RESOLVED and five.steps == 4
        comps = {c.id: c.weight for c in five.components.values()}
        assert len(comps) == 4
        minus_one = [cid for cid, w in comps.items() if w == -1]
        assert len(minus_one) == 1
        label = minus_one[0]
        # chain adjacency: corners define a path with the -1 component inner
        corners = [tuple(sorted(p.on_components))
                   for _, p in five.all_points()
                   if len(p.on_components) == 2 and p.status != "blown_up"]
        adjacency = {cid: set() for cid in comps}
        for a, b in corners:
            adjacency[a].add(b)
            adjacency[b].add(a)
        degrees = sorted(len(v) for v in adjacency.values())
        assert degrees == [1, 1, 2, 2]          # a path on four vertices
        assert len(adjacency[label]) == 2       # the -1 component is inner
        # separatrix point: the extra singular point lying on -1 only
        extremal = [p for _, p in five.component_points(label)
                    if p.on_components == (label,) and p.status != "blown_up"]
        assert len(extremal) == 1
        ratios = sorted(p.cs_indices[label].re.denominator
                        for _, p in five.component_points(label)
                        if label in p.cs_indices)
        assert ratios == [2, 5, 10]             # holonomy orders 2 and 5
        assert five.component_index_sum(label) == gr(-1)


def test_criterion_05_seidenberg_termination():
    with criterion(5, "100 seeded random planar fields resolve within 40 steps"):
        rng = random.Random(555000111)
        start = time.time()
        accepted = 0
        tried = 0
        while accepted < 100:
            tried += 1
            assert tried < 1000, "generator exhausted"
            terms_pair = []
            min_deg = rng.choice([1, 1, 2, 2, 3])
            for _ in range(2):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    d = rng.randint(min_deg, 3)
                    a = rng.randint(0, d)
                    terms[(a, d - a)] = gr(rng.choice([-3, -2, -1, 1, 2, 3]))
                terms_pair.append(terms)
            f = P(V2, terms_pair[0])
            g = P(V2, terms_pair[1])
            if f.is_zero() and g.is_zero():
                continue
            field = VectorField.make(Chart.root(V2), [f, g])
            tree = seidenberg_resolve(field, max_steps=40)
            if any(p.status == POINT_NONRATIONAL for _, p in tree.all_points()):
                continue  # rational-points-by-construction: resample
            assert tree.status == STATUS_RESOLVED, field.render()
            assert tree.steps <= 40
            for _, point in tree.final_points():
                if point.report is not None and point.report.klass != "regular":
                    assert point.report.is_elementary(), field.render()
            accepted += 1
        elapsed = time.time() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_06_one_dimensional_semicompleteness():
    with criterion(6, "time-form integrals and the vanishing-order rule"):
        cubic, _ = time_form_integral(P(V1, {(3,): 1}), half_circle(0.1))
        assert abs(cubic) < 1e-9
        quadratic, _ = time_form_integral(P(V1, {(2,): 1}), half_circle(0.1))
        assert abs(quadratic - 20.0) <= 1e-6 * 20.0   # 4/eps with eps = 0.2
        expectations = {1: SEMICOMPLETE, 2: SEMICOMPLETE,
                        3: NOT_SEMICOMPLETE, 4: NOT_SEMICOMPLETE}
        for k, expected in expectations.items():
            assert semicomplete_order_test(P(V1, {(k,): 1})).verdict == expected


def test_criterion_07_holonomy_orders():
    with criterion(7, "loop-lift holonomy derivatives of the reference saddles"):
        ratio3, _ = loop_lift_ratio(linear_saddle(3), "y", 0.1, 0.01)
        assert abs(ratio3 - cmath.exp(-2j * math.pi / 3)) < 1e-4
        ratio2, _ = loop_lift_ratio(linear_saddle(2), "y", 0.1, 0.01)
        assert abs(ratio2 - cmath.exp(-1j * math.pi)) < 1e-4


def test_criterion_08_saddle_node_family():
    with criterion(8, "family germ: exact classification and formal integral jets"):
        x = saddle_node_family(1, 1, 1)
        report = classify_singularity(x)
        assert report.klass == CLASS_SADDLE_NODE and report.rank == 1
        values = sorted((v.re, v.im) for v in report.eigen.exact_values())
        assert values == [(-1, 0), (0, 0), (1, 0)]
        previous = None
        for n in range(2, 9):
            space = formal_first_integral(x, n)
            assert space.dimension > 0
            for f in space.basis:
                assert directional_derivative(x, f).jet_truncate(n).is_zero()
            if previous is not None:
                assert space.dims_by_degree[:len(previous)] == previous
            previous = space.dims_by_degree


def _transform_snapshot(result) -> str:
    return json.dumps({
        "field": result.field.render(),
        "representative": result.representative.render(),
        "multiplicity": result.divisor_multiplicity,
        "pole_order": result.pole_order,
        "dicritical": result.dicritical,
        "divisor_var": result.divisor_var,
    }, sort_keys=True)


def test_criterion_09_weighted_blowup_pole():
    with criterion(9, "weight-2 pole order 1; weight-1 degeneration byte-identical"):
        field = meromorphic_transform_example()
        result = weighted_blowup(field, BlowupSpec(curve_center("z"), (2, 1), 0))
        assert result.pole_order == 1
        for sample in (cusp_hamiltonian(1), radial(2), linear_saddle(2)):
            for idx in range(2):
                std = weighted_blowup(sample, BlowupSpec(POINT, None, idx))
                wtd = weighted_blowup(sample, BlowupSpec(POINT, (1, 1), idx))
                assert _transform_snapshot(std) == _transform_snapshot(wtd)


def test_criterion_10_persistent_pipeline():
    with criterion(10, "persistent nilpotent pipeline with one weight-2 escape"):
        field = sancho_sanz_field()
        standard = resolve3(field, max_steps=12, allow_weighted=False)
        assert standard.status == STATUS_BUDGET
        pending_nilpotent = [
            p for _, p in standard.all_points()
            if p.status == "pending" and p.report is not None
            and p.report.klass == CLASS_NILPOTENT]
        assert pending_nilpotent
        probe = detect_persistent_nilpotent(field, 6)
        assert probe.matched and probe.n >= 2
        weighted = resolve3(field, max_steps=12, allow_weighted=True)
        assert weighted.status == STATUS_RESOLVED
        assert weighted.weighted_steps == 1


def test_criterion_11_multiplicity_rule():
    with criterion(11, "divisor multiplicity rule for degrees 1, 2, 3"):
        cases = []
        for k in (1, 2, 3):
            radial_multiple = VectorField.make(Chart.root(V2), [
                P(V2, {(k, 0): 1}), P(V2, {(k - 1, 1): 1})])
            cases.append((radial_multiple, k))
        cases.append((cusp_hamiltonian(1), 0))
        cases.append((VectorField.make(Chart.root(V2), [
            P(V2, {(0, 2): 1}), P(V2, {(2, 0): 1})]), 1))
        cases.append((VectorField.make(Chart.root(V2), [
            P(V2, {(0, 3): 1, (2, 1): 1}), P(V2, {(3, 0): 2})]), 2))
        for field, expected in cases:
            for result in all_charts(field):
                assert result.divisor_multiplicity == expected


def test_criterion_12_lift_quadrature_agreement():
    with criterion(12, "lift vs quadrature on 10 fixtures; contraction consistent"):
        rng = random.Random(31337)
        for case in range(10):
            f = P(V1, {(0,): 1}) + Poly.make(V1, {(1,): gr(rng.randint(-2, 2)) * gr("1/8"),
                                                  (2,): gr(rng.randint(0, 1)) * gr("1/16")})
            h = P(V1, {(0,): 1}) + Poly.make(V1, {(1,): gr(rng.randint(-1, 2)) * gr("1/8")})
            a = complex(rng.uniform(-0.3, 0.0), rng.uniform(-0.2, 0.2))
            b = a + rng.uniform(0.5, 1.5)
            path = Segment(a, b)
            value, _ = omega1_integral(f, h, path)
            vars_ = ("x", "z")
            chart = Chart.root(vars_)
            fb = Poly.make(vars_, {(e[0], 0): c for e, c in f.terms.items()})
            hz = Poly.make(vars_, {(e[0], 1): c for e, c in h.terms.items()})
            lifted = lift_path(VectorField.make(chart, [fb, hz]),
                               "x", path, [1.0 + 0j])
            expected = cmath.exp(value)
            assert abs(lifted.final[0] - expected) / abs(1.0) <= 1e-6
            # contraction (Re I > 0) consistent with the monotone holonomy height
            contracting = value.real > 0
            heights = []
            samples = 24
            positive_speed = True
            for k in range(samples + 1):
                t = k / samples
                prefix = Segment(a, a + t * (b - a))
                partial, _ = omega1_integral(f, h, prefix) if t > 0 else (0j, 0.0)
                heights.append(abs(cmath.exp(-partial)))
                z, v = path.at(t)
                speed = (h.eval_complex((z,)) / f.eval_complex((z,)) * v).real
                positive_speed = positive_speed and speed > 0
            if positive_speed:
                assert contracting
                assert all(u > v for u, v in zip(heights, heights[1:]))


def test_criterion_13_saddle_behavior():
    with criterion(13, "monotone fiber moduli along radial and spiral lifts"):
        x = strict_siegel_diagonal()
        ray = LogSpiral(0.1, -1.0, 0.0, 3.0)
        radial_lift = lift_path(x, "x", ray, [0.01, 0.01], min_samples=256)
        m2 = radial_lift.fiber_moduli("y")
        assert len(radial_lift.samples) >= 256
        assert all(a > b for a, b in zip(m2, m2[1:]))
        v = separating_direction([1, 1 + 1j, -2 - 1j])
        spiral_lift = lift_path(x, "x", spiral_path(0.1, 0.3, v, -10.0),
                                [0.01, 0.01], escape_radius=1e9,
                                min_samples=256)
        assert len(spiral_lift.samples) >= 256
        s2 = spiral_lift.fiber_moduli("y")
        s3 = spiral_lift.fiber_moduli("z")
        assert all(a < b for a, b in zip(s2, s2[1:]))
        assert all(a < b for a, b in zip(s3, s3[1:]))


def test_criterion_14_corpus_determinism():
    with criterion(14, "two consecutive corpus runs are byte-identical and green"):
        first = run_corpus()
        second = run_corpus()
        assert render_report(first) == render_report(second)
        assert first["failures"] == 0
        assert first["total"] >= 20
