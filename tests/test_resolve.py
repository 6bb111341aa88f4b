from __future__ import annotations

import io
import random
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foliations.resolve as resolve
from foliations.algebra import Poly, gr
from foliations.classify import CLASS_NILPOTENT
from foliations.cli import main
from foliations.corpus import (
    cusp_hamiltonian,
    linear_saddle,
    persistent_synthetic_field,
    radial,
    sancho_sanz_field,
)
from foliations.errors import NotApplicableError
from foliations.expressions import parse_field
from foliations.blowup import POINT
from foliations.fields import BlowupRecord, Chart, VectorField
from foliations.resolve import (
    POINT_NONRATIONAL,
    STATUS_BUDGET,
    STATUS_RESOLVED,
    detect_persistent_nilpotent,
    emit_tree,
    germ_at,
    match_persistent_normal_form,
    resolve3,
    seidenberg_resolve,
    singular_points_on_divisor,
)

from conftest import make_poly
import test_probe_reference as reference

V2 = ("x", "y")
V3 = ("x", "y", "z")


class TestGermAt:
    def test_origin_returns_the_representative(self):
        rep = cusp_hamiltonian(2)
        assert germ_at(rep, (gr(0), gr(0))) is rep

    def test_recentres_and_clears_labels_off_the_point(self):
        chart = Chart(V3, divisor_labels=("E1", "E2", None))
        rep = VectorField.make(chart, [
            make_poly(V3, {(1, 1, 0): 1, (0, 2, 0): 1}),
            make_poly(V3, {(0, 0, 1): 1}),
            make_poly(V3, {(1, 0, 0): 1})])
        germ = germ_at(rep, (gr(0), gr(2), gr(0)))
        # the point is on E1 (x = 0) but not on E2 (y = 2)
        assert germ.chart.divisor_labels == ("E1", None, None)
        assert germ.chart.history == rep.chart.history
        # x*y + y^2 at y + 2: x*y + 2*x + y^2 + 4*y + 4
        assert germ.polys() == (
            make_poly(V3, {(1, 1, 0): 1, (1, 0, 0): 2, (0, 2, 0): 1,
                           (0, 1, 0): 4, (0, 0, 0): 4}),
            rep.polys()[1], rep.polys()[2])
        assert rep.chart.divisor_labels == ("E1", "E2", None)


class TestDivisorPoints:
    def test_cusp_single_tangency_point(self):
        from foliations.blowup import BlowupSpec, POINT, weighted_blowup
        result = weighted_blowup(cusp_hamiltonian(1), BlowupSpec(POINT, None, 0))
        exact, certified, whole = singular_points_on_divisor(
            result.representative, result.divisor_var)
        assert exact == [gr(0)] and not certified and not whole

    def test_saddle_two_points(self):
        from foliations.blowup import BlowupSpec, POINT, weighted_blowup
        saddle = linear_saddle(1)
        result0 = weighted_blowup(saddle, BlowupSpec(POINT, None, 0))
        exact, _, _ = singular_points_on_divisor(result0.representative,
                                                 result0.divisor_var)
        assert exact == [gr(0)]
        result1 = weighted_blowup(saddle, BlowupSpec(POINT, None, 1))
        assert result1.representative.vanishes_at_origin()

    def test_radial_no_points(self):
        from foliations.blowup import BlowupSpec, POINT, weighted_blowup
        result = weighted_blowup(radial(2), BlowupSpec(POINT, None, 0))
        exact, certified, whole = singular_points_on_divisor(
            result.representative, result.divisor_var)
        assert not exact and not certified and not whole


class TestSeidenberg:
    def test_cusp_chain(self):
        tree = seidenberg_resolve(cusp_hamiltonian(1))
        assert tree.status == STATUS_RESOLVED
        assert tree.steps == 3
        weights = {c.id: c.weight for c in tree.components.values()}
        assert weights == {"E1": -3, "E2": -2, "E3": -1}
        ratios = sorted(
            (p.cs_indices["E3"] for _, p in tree.component_points("E3")
             if "E3" in p.cs_indices),
            key=lambda g: (g.re, g.im))
        assert [r.re for r in ratios] == [gr("-1/2").re, gr("-1/3").re, gr("-1/6").re]
        assert all(r.im == 0 for r in ratios)
        assert tree.component_index_sum("E3") == gr(-1)
        assert tree.component_index_sum("E1") == gr(-3)
        assert tree.component_index_sum("E2") == gr(-2)

    def test_elementary_input_zero_steps(self):
        tree = seidenberg_resolve(linear_saddle(1))
        assert tree.status == STATUS_RESOLVED and tree.steps == 0

    def test_budget_exhaustion(self):
        tree = seidenberg_resolve(cusp_hamiltonian(2), max_steps=2)
        assert tree.status == STATUS_BUDGET
        assert tree.steps == 2

    def test_weight_bookkeeping(self):
        # recompute every weight from the blow-up records: a component starts
        # at -1 and drops by one for each later center lying on it
        for field in (cusp_hamiltonian(1), cusp_hamiltonian(2)):
            tree = seidenberg_resolve(field)
            order = {comp.id: int(comp.id[1:]) for comp in tree.components.values()}
            recomputed = {cid: -1 for cid in order}
            for _, point in tree.all_points():
                if point.status != "blown_up":
                    continue
                # the label created by blowing this point up
                child = next(n for n in tree.nodes
                             if n.parent == point.node_id
                             and n.transform.record.center_coords == tuple(
                                 c.text() for c in point.coords))
                created = order[child.transform.record.divisor_label]
                for comp in point.on_components:
                    if order[comp] < created:
                        recomputed[comp] -= 1
            assert recomputed == {c.id: c.weight for c in tree.components.values()}
            # index-sum cross-check on every component with exact data
            for comp in tree.components.values():
                total = tree.component_index_sum(comp.id)
                if total is not None:
                    assert total == gr(comp.weight)

    def test_final_state_soundness_reclassification(self):
        from foliations.resolve import germ_at
        from foliations.classify import classify_singularity
        tree = seidenberg_resolve(cusp_hamiltonian(2))
        assert tree.status == STATUS_RESOLVED
        for node, point in tree.final_points():
            if point.coords is None or point.report is None:
                continue
            again = classify_singularity(germ_at(node.rep, point.coords))
            assert again.klass == point.report.klass
            if again.klass != "regular":
                assert again.is_elementary()

    def test_clustered_rectangle_certifies_nothing(self, tmp_path):
        # the divisor of the first chart carries y^2 - 2e-18, whose roots
        # +-sqrt(2)*1e-9 lie closer together than the smallest Newton
        # radius: each comes back in a coarse clustered box holding both
        text = "vars: x, y\nx^2, -2/1000000000000000000*x^2 + x*y + y^2\n"
        tree = seidenberg_resolve(parse_field(text))
        points = tree.nodes[1].singular_points
        assert len(points) == 2
        for p in points:
            assert p.coords is None and p.status == POINT_NONRATIONAL
            assert p.note == "clustered rectangle left unprocessed: it certifies no single root"
        assert tree.status == STATUS_BUDGET
        path = tmp_path / "clustered.field"
        path.write_text(text, encoding="utf-8")
        with redirect_stdout(io.StringIO()):
            assert main(["resolve", str(path)]) == 1

    def test_determinism_byte_identical(self):
        a = emit_tree(seidenberg_resolve(cusp_hamiltonian(2)))
        b = emit_tree(seidenberg_resolve(cusp_hamiltonian(2)))
        assert a == b

    def test_dot_output(self):
        dot = emit_tree(seidenberg_resolve(cusp_hamiltonian(1)), "dot")
        assert 'label="E1\\nweight -3"' in dot
        assert 'label="E2\\nweight -2"' in dot
        assert 'label="E3\\nweight -1"' in dot

    def test_random_fields_resolve(self, rng):
        accepted = 0
        tried = 0
        while accepted < 12 and tried < 60:
            tried += 1
            field = _random_field(rng)
            if field is None:
                continue
            tree = seidenberg_resolve(field, max_steps=40)
            if any(p.status == POINT_NONRATIONAL for _, p in tree.all_points()):
                continue
            assert tree.status == STATUS_RESOLVED
            # final-state soundness: every surviving point elementary/regular
            for _, point in tree.final_points():
                if point.report is not None:
                    assert point.report.klass in (
                        "regular", "elementary_nondegenerate", "saddle_node")
            accepted += 1
        assert accepted == 12


def _random_field(rng: random.Random):
    terms_a = {}
    terms_b = {}
    for terms in (terms_a, terms_b):
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 3)
            a = rng.randint(0, d)
            terms[(a, d - a)] = gr(rng.choice([-3, -2, -1, 1, 2, 3]))
    f = make_poly(V2, terms_a)
    g = make_poly(V2, terms_b)
    if f.is_zero() and g.is_zero():
        return None
    return VectorField.make(Chart.root(V2), [f, g])


class TestPersistentDetection:
    def test_normal_form_match_roles(self):
        witness = match_persistent_normal_form(sancho_sanz_field())
        assert witness is not None
        assert witness["n"] == 2
        assert witness["roles"] == {"x": "z", "y": "y", "z": "x"}
        assert witness["z_orders_exceed_2n"] is True

    def test_synthetic_direct_match(self):
        report = detect_persistent_nilpotent(persistent_synthetic_field(), 6)
        assert report.matched and report.n == 2
        assert report.witness["stage"] == 0
        assert report.witness["f_axis_order"] == 3
        assert report.witness["z_orders_exceed_2n"] is False

    def test_elementary_rejected(self):
        field = VectorField.make(Chart.root(V3), [
            Poly.variable(V3, "x"), Poly.variable(V3, "y"),
            Poly.variable(V3, "z")])
        with pytest.raises(NotApplicableError):
            detect_persistent_nilpotent(field)

    def test_sancho_sanz_match(self):
        report = detect_persistent_nilpotent(sancho_sanz_field(), 6)
        assert report.matched and report.n >= 2
        assert report.witness["chain"] == []

    def test_match_after_one_blowup(self):
        # x^3 d/dx + (2x + z) d/dy - y^2 d/dz matches only on the x chart
        # of its point blow-up, at (0, 0, -2); the escape then follows that
        # pre-chain, whose component is labelled E1pre
        field = VectorField.make(Chart.root(V3), [
            make_poly(V3, {(3, 0, 0): 1}),
            make_poly(V3, {(1, 0, 0): 2, (0, 0, 1): 1}),
            make_poly(V3, {(0, 2, 0): -1})])
        report = detect_persistent_nilpotent(field)
        assert report.matched and report.n == 3
        assert report.witness["stage"] == 1
        assert report.witness["chain"] == [
            {"chart_var": "x", "coords": ["0", "0", "-2"]}]
        tree = resolve3(field, max_steps=3)
        assert tree.steps == 2 and tree.weighted_steps == 1
        assert tree.nodes[2].rep.chart.divisor_labels == ("E1pre", None, "E1")

    def test_probe_examines_each_divisor_point_once(self, monkeypatch):
        # a point of the divisor with a nonzero coordinate in the first
        # chart's variable is seen from that chart too; the probe follows it
        # from the first chart only, so Sancho-Sanz(1, 1, 1) at budget 6
        # takes 7 germs, not 13
        import foliations.resolve as resolve
        calls = []
        match = resolve._terms_match

        def counted(germ, names):
            calls.append(germ)
            return match(germ, names)

        monkeypatch.setattr(resolve, "_terms_match", counted)
        report = detect_persistent_nilpotent(sancho_sanz_field(1, 1, 1), 6)
        assert not report.matched and not report.capped
        assert len(calls) == 7

    @pytest.mark.parametrize("field", [
        VectorField.make(Chart.root(V3), [
            make_poly(V3, {(3, 0, 0): 1}),
            make_poly(V3, {(1, 0, 0): 2, (0, 0, 1): 1}),
            make_poly(V3, {(0, 2, 0): -1})]),
        persistent_synthetic_field()], ids=["prechain", "persistent_synthetic"])
    def test_shared_memo_gives_the_fresh_report(self, monkeypatch, field):
        # the probes of one resolution, run in the driver's order: each gives
        # with the memo the earlier probes filled the report it gives alone,
        # while making fewer blow-ups; the probe makes each chart of a
        # blow-up with one call of the shared transform kernel
        import foliations.blowup as blowup_module
        import foliations.resolve as resolve
        blowups = []
        kernel = blowup_module._terms_blowup

        def counted(*args, **kwargs):
            blowups.append(args[0])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(blowup_module, "_terms_blowup", counted)
        monkeypatch.setattr(resolve, "_terms_blowup", counted)
        tree = resolve3(field, max_steps=12)
        probed = [germ_at(tree.nodes[point.node_id].rep, point.coords)
                  for _, point in tree.all_points()
                  if point.status in ("blown_up", "escaped_weighted")
                  and point.report.klass == CLASS_NILPOTENT]
        assert len(probed) >= 2

        def facts(report):
            germ = report.germ
            return (report.matched, report.n, report.capped, report.witness,
                    germ and germ.render(), germ and germ.chart.divisor_labels,
                    germ and germ.chart.history)

        memo = {}
        del blowups[:]
        shared = [facts(detect_persistent_nilpotent(germ, memo=memo)) for germ in probed]
        shared_blowups = len(blowups)
        del blowups[:]
        fresh = [facts(detect_persistent_nilpotent(germ)) for germ in probed]
        assert shared == fresh
        assert any(matched for matched, *_ in fresh)
        assert shared_blowups < len(blowups)
        # the first germ again, on a chart with a history and a label: a
        # match reached through the memo gets this chart's history and labels
        record = BlowupRecord(POINT, ("0",) * 3, (1, 1, 1), "y", "E1")
        moved = VectorField(Chart(V3, (record,), (None, "E1", None)),
                            probed[0].components)
        assert (facts(detect_persistent_nilpotent(moved, memo=memo))
                == facts(detect_persistent_nilpotent(moved)))

    def test_probe_cap_is_reported(self, monkeypatch):
        # Sancho-Sanz(1, 1, 1) does not match; with probe budget 6 the probe
        # examines 7 germs, so a cap of 3 stops it with germs left over
        import foliations.resolve as resolve
        field = sancho_sanz_field(1, 1, 1)
        assert not detect_persistent_nilpotent(field, 6).capped
        monkeypatch.setattr(resolve, "_MAX_PROBE_GERMS", 3)
        report = detect_persistent_nilpotent(field, 6)
        assert not report.matched and report.capped
        tree = resolve3(field, max_steps=1)
        assert ("node 0: persistent-nilpotent probe stopped after 3 germs "
                "without a verdict") in tree.diagnostics

    # (-x + y) d/dx + (y^2 - x + y) d/dy + y^2 d/dz: no match, 9 germs at
    # probe budget 3
    BRANCHING = VectorField.make(Chart.root(V3), [
        make_poly(V3, {(1, 0, 0): -1, (0, 1, 0): 1}),
        make_poly(V3, {(0, 2, 0): 1, (1, 0, 0): -1, (0, 1, 0): 1}),
        make_poly(V3, {(0, 2, 0): 1})])

    @pytest.mark.parametrize("cap", [3, 7])
    def test_probe_cap_stops_where_the_reference_stops(self, cap):
        # the cap counts germs in breadth-first order: with the same cap the
        # probe and the object-based reference give the same report, so they
        # take the same germs in the same order.  Sancho-Sanz(1, 1, 1) takes
        # exactly 7 germs at budget 6, so a cap of 7 just does not stop it
        capped = []
        germs = dict(reference.FIXTURES, branching=self.BRANCHING)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolve, "_MAX_PROBE_GERMS", cap)
            mp.setattr(reference, "_MAX_PROBE_GERMS", cap)
            for name, x in sorted(germs.items()):
                for budget in range(7):
                    facts = reference.probe_facts(detect_persistent_nilpotent, x, budget)
                    assert facts == reference.probe_facts(
                        reference.reference_detect_persistent_nilpotent, x, budget)
                    if facts[3]:
                        capped.append((name, budget))
        expected = {3: {("branching", b) for b in range(2, 7)}
                    | {(f"sancho_sanz_{v}", b) for v in ("111", "i") for b in range(3, 7)},
                    7: {("branching", b) for b in range(3, 7)}}
        assert set(capped) == expected[cap]

    @settings(max_examples=40, deadline=None)
    @given(reference.nilpotent_germs(), st.integers(0, 3), st.sampled_from([3, 7]))
    def test_probe_cap_matches_the_reference_on_nilpotent_germs(self, x, budget, cap):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolve, "_MAX_PROBE_GERMS", cap)
            mp.setattr(reference, "_MAX_PROBE_GERMS", cap)
            assert (reference.probe_facts(detect_persistent_nilpotent, x, budget)
                    == reference.probe_facts(
                        reference.reference_detect_persistent_nilpotent, x, budget))


class TestResolve3:
    def test_standard_only_budget_exhausts_at_nilpotent(self):
        tree = resolve3(sancho_sanz_field(), max_steps=12, allow_weighted=False)
        assert tree.status == STATUS_BUDGET
        nilpotent_pending = [
            p for _, p in tree.all_points()
            if p.status == "pending" and p.report
            and p.report.klass == CLASS_NILPOTENT]
        assert nilpotent_pending

    def test_weighted_escape_resolves(self):
        tree = resolve3(sancho_sanz_field(), max_steps=12)
        assert tree.status == STATUS_RESOLVED
        assert tree.weighted_steps == 1

    def test_elementary_input(self):
        field = VectorField.make(Chart.root(V3), [
            Poly.variable(V3, "x"),
            make_poly(V3, {(0, 1, 0): 2}),
            make_poly(V3, {(0, 0, 1): 3})])
        tree = resolve3(field)
        assert tree.status == STATUS_RESOLVED and tree.steps == 0

    def test_radial_elementary(self):
        tree = resolve3(radial(3))
        assert tree.status == STATUS_RESOLVED and tree.steps == 0

    def test_complete_nilpotent_budget(self):
        # the complete-field example also persists under standard blow-ups
        tree = resolve3(sancho_sanz_field(0, 1, 0), max_steps=6,
                        allow_weighted=False)
        assert tree.status == STATUS_BUDGET

    def test_determinism(self):
        a = emit_tree(resolve3(sancho_sanz_field(), max_steps=12))
        b = emit_tree(resolve3(sancho_sanz_field(), max_steps=12))
        assert a == b


class TestTreeSerialization:
    def test_json_roundtrip_loadable(self):
        import json
        tree = seidenberg_resolve(cusp_hamiltonian(1))
        data = json.loads(emit_tree(tree))
        assert data["status"] == "resolved"
        assert data["steps"] == 3
        assert len(data["components"]) == 3
        assert data["nodes"][0]["parent"] is None

    def test_budget_status_in_json(self):
        import json
        tree = seidenberg_resolve(cusp_hamiltonian(2), max_steps=1)
        data = json.loads(emit_tree(tree))
        assert data["status"] == "budget_exhausted"

    def test_single_root_tree(self):
        import json
        tree = seidenberg_resolve(linear_saddle(2))
        data = json.loads(emit_tree(tree))
        assert len(data["nodes"]) == 1 and data["components"] == []


class TestPersistentPendingStatus:
    def test_budget_zero_with_weighted_reports_pending(self):
        from foliations.resolve import STATUS_PERSISTENT_PENDING
        tree = resolve3(sancho_sanz_field(), max_steps=0, allow_weighted=True)
        assert tree.status == STATUS_PERSISTENT_PENDING

    def test_standard_only_stays_budget_exhausted(self):
        tree = resolve3(sancho_sanz_field(), max_steps=0, allow_weighted=False)
        assert tree.status == STATUS_BUDGET


class TestDivisorEnumeration3D:
    def test_off_axis_points_found(self):
        # diagonal quadratic: the induced foliation on the exceptional plane
        # has the generic count of seven singular points, one of them off
        # both coordinate axes of the first chart
        field = VectorField.make(Chart.root(V3), [
            make_poly(V3, {(2, 0, 0): 1}),
            make_poly(V3, {(0, 2, 0): 1}),
            make_poly(V3, {(0, 0, 2): 1})])
        tree = resolve3(field, max_steps=20)
        assert tree.status == STATUS_RESOLVED and tree.steps == 1
        singular = [p for _, p in tree.final_points()
                    if p.report and p.report.klass != "regular"]
        assert len(singular) == 7
        assert all(p.report.is_elementary() for p in singular)
        coords = {tuple(c.text() for c in p.coords) for p in singular
                  if p.node_id == 1}
        assert ("0", "1", "1") in coords  # the off-axis point

    def test_incomplete_enumeration_capped(self):
        # genuinely bivariate restricted system: the driver refuses to claim
        # a full resolution and says why
        field = VectorField.make(Chart.root(V3), [
            make_poly(V3, {(2, 0, 0): 1}),
            make_poly(V3, {(0, 2, 0): 1, (0, 1, 1): 1, (0, 0, 3): 1}),
            make_poly(V3, {(0, 0, 2): 1, (0, 3, 0): 1, (0, 1, 1): -1})])
        tree = resolve3(field, max_steps=8)
        if tree.status == STATUS_RESOLVED:
            # enumeration turned out complete on every chart after all
            assert not any("not fully enumerable" in d for d in tree.diagnostics)
        else:
            assert any("not fully enumerable" in d or "gaps" in d
                       for d in tree.diagnostics)
