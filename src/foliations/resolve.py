"""Resolution of foliation germs in dimensions 2 and 3.

One breadth-first skeleton, :func:`_resolve`, drives both dimensions.  It
prepares the input and classifies the origin, then repeatedly takes the
oldest pending singular point, spends one budget step and one divisor label
``E{n}`` on it, blows it up and classifies the singular points on each new
chart's divisor.  The result is an annotated tree: divisor components with
self-intersection weights, exact (or certified) singular points with their
classification, and transverse/tangent eigenvalue ratios feeding the
index-sum cross-check on compact invariant components.  Point selection is
deterministic (breadth-first over nodes, canonical coordinate order within
a node), so identical inputs and budgets yield byte-identical serialized
trees.

The dimensions differ in three places, which they pass to the skeleton:

* **The blow-up.**  Dimension 2 always blows up the point with weights
  (1, 1).  Dimension 3 blows up a coordinate-axis curve contained in the
  singular set, or else the point; a nilpotent point matching the
  persistent-nilpotent normal form

      (y + f(x,y,z)) d/dx + g(x,y,z) d/dy + z^n d/dz,
      ord f >= 2, ord g >= 2, n >= 2,

  is instead escaped with a single blow-up of weight 2 centered on the
  distinguished invariant axis.  The probe that finds the match may first
  follow a chain of point blow-ups; the escape starts from the germ the
  probe matched, whose chain divisors become the components ``E{n}pre``.
  The probes of one resolution share a memo of the germs they expanded, so
  no point blow-up one of them made is made again.
* **The divisor points of a new chart, and whether that list is
  complete.**  Dimension 2 enumerates the whole divisor in the first chart
  and only the origin in the second.  Dimension 3 solves the restricted
  system where it can; non-rational roots and bivariate systems leave gaps,
  and then the tree does not claim a full resolution.
* **An exhausted budget.**  Dimension 3 names the nilpotent points left
  pending, and reports ``persistent_nilpotent_pending`` when all of them
  match the normal form.

Self-intersection weights are tracked in dimension 2 only: its components
start at -1, those of dimension 3 carry ``None``.

Each tree node keeps the ``TransformResult`` of the blow-up chart that made
it (``None`` at the root), the one record of that blow-up's facts.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial

from .algebra import GR_ONE, GR_ZERO, ChartFunction, GaussianRational, Poly, monomial_content
from .blowup import (POINT, BlowupSpec, TransformResult, _blown_vars, all_charts,
                     curve_center, weighted_blowup)
from .classify import (
    CLASS_NILPOTENT,
    SingularityReport,
    classify_singularity,
    is_nilpotent,
)
from .errors import DegenerateInputError, FoliationError, NotApplicableError, StructuralError
from .fields import BlowupRecord, Chart, VectorField, linear_part
from . import intervals as iv

STATUS_RESOLVED = "resolved"
STATUS_BUDGET = "budget_exhausted"
STATUS_PERSISTENT_PENDING = "persistent_nilpotent_pending"

POINT_ELEMENTARY = "elementary"
POINT_REGULAR = "regular"
POINT_BLOWN_UP = "blown_up"
POINT_PENDING = "pending"
POINT_NONRATIONAL = "unprocessed_nonrational"
POINT_ESCAPED = "escaped_weighted"


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass
class SingularPoint:
    """A located singular point of the transformed foliation."""

    node_id: int
    coords: tuple[GaussianRational, ...] | None      # exact coordinates, or None
    box: tuple[tuple[float, float, float, float], ...] | None  # certified rectangles
    on_components: tuple[str, ...]
    report: SingularityReport | None
    status: str
    cs_indices: dict[str, GaussianRational] = field(default_factory=dict)
    note: str = ""

    def coords_text(self) -> list:
        if self.coords is not None:
            return [c.text() for c in self.coords]
        return [list(b) for b in self.box]

    def is_final_ok(self) -> bool:
        return self.status in (POINT_ELEMENTARY, POINT_REGULAR, POINT_BLOWN_UP,
                               POINT_ESCAPED)


@dataclass
class TreeNode:
    """One chart of the resolution tree, with its foliation representative
    and the blow-up chart that made it (``None`` at the root)."""

    id: int
    parent: int | None
    rep: VectorField
    transform: TransformResult | None
    singular_points: list[SingularPoint] = field(default_factory=list)


@dataclass
class DivisorComponent:
    id: str
    weight: int | None          # self-intersection in dimension 2, None in dim 3
    created_at_node: int


@dataclass
class ResolutionTree:
    dim: int
    nodes: list[TreeNode] = field(default_factory=list)
    components: dict[str, DivisorComponent] = field(default_factory=dict)
    status: str = STATUS_RESOLVED
    steps: int = 0
    weighted_steps: int = 0
    diagnostics: list[str] = field(default_factory=list)

    def all_points(self):
        for node in self.nodes:
            for p in node.singular_points:
                yield node, p

    def component_points(self, label: str):
        return [(n, p) for n, p in self.all_points() if label in p.on_components]

    def component_index_sum(self, label: str) -> GaussianRational | None:
        """Sum of transverse/tangent eigenvalue ratios on one component.

        Returns None when some point on the component lacks an exact
        nonzero tangent eigenvalue (the ratio is then not defined by the
        linear part alone).
        """
        total = GR_ZERO
        for _, p in self.component_points(label):
            if p.status == POINT_BLOWN_UP:
                continue  # replaced by its preimages on child charts
            ratio = p.cs_indices.get(label)
            if ratio is None:
                return None
            total = total + ratio
        return total

    def final_points(self):
        return [(n, p) for n, p in self.all_points() if p.status != POINT_BLOWN_UP]

    def to_json_dict(self) -> dict:
        nodes = []
        for n in self.nodes:
            t = n.transform
            nodes.append({
                "id": n.id,
                "parent": n.parent,
                "vars": list(n.rep.chart.var_names),
                "divisor_labels": list(n.rep.chart.divisor_labels),
                "center": None if t is None else {
                    "coords": list(t.record.center_coords),
                    "kind": t.record.center,
                    "weights": list(t.record.weights),
                },
                "divisor_var": None if t is None else t.divisor_var,
                "divisor_label": None if t is None else t.record.divisor_label,
                "field": n.rep.render(),
                "dicritical": t is not None and t.dicritical,
                "multiplicity": 0 if t is None else t.divisor_multiplicity,
                # 0 for every blow-up made here: each blown component has
                # weighted order at least its variable's weight at the center
                "pole_order": 0 if t is None else t.pole_order,
                "singular_points": [{
                    "coords": p.coords_text(),
                    "exact": p.coords is not None,
                    "status": p.status,
                    "on_components": list(p.on_components),
                    "report": p.report.to_json() if p.report else None,
                    "eigenvalue_ratios": {k: v.text() for k, v in sorted(p.cs_indices.items())},
                    "note": p.note,
                } for p in n.singular_points],
            })
        return {
            "dimension": self.dim,
            "status": self.status,
            "steps": self.steps,
            "weighted_steps": self.weighted_steps,
            "components": [{
                "id": c.id,
                "weight": c.weight,
                "created_at_node": c.created_at_node,
            } for c in sorted(self.components.values(), key=lambda c: c.id)],
            "diagnostics": list(self.diagnostics),
            "nodes": nodes,
        }


# ---------------------------------------------------------------------------
# Root finding on the divisor
# ---------------------------------------------------------------------------

def _common_roots(polys: list[Poly], var: str):
    """(exact roots, certified interval roots) shared by univariates in ``var``."""
    coeffs = polys[0].univariate_coeffs(var)
    for p in polys[1:]:
        coeffs = iv.poly_gcd(coeffs, p.univariate_coeffs(var))
    if iv.poly_degree(coeffs) <= 0:
        return [], []
    exact, certified = iv.certified_roots(coeffs)
    return [r for r, _m in exact], certified


def singular_points_on_divisor(rep: VectorField, divisor_var: str):
    """Exact and certified singular points on the divisor of a 2-D chart.

    Returns ``(exact_roots, certified_roots, whole_divisor_singular)`` where
    the roots are values of the non-divisor coordinate.
    """
    if rep.chart.dim != 2:
        raise NotApplicableError("divisor point enumeration is two-dimensional here")
    names = rep.chart.var_names
    other = names[1] if names[0] == divisor_var else names[0]
    restricted = [comp.expand().restrict(divisor_var, 0) for comp in rep.components]
    nonzero = [p for p in restricted if not p.is_zero()]
    if not nonzero:
        return [], [], True
    exact, certified = _common_roots(nonzero, other)
    return exact, certified, False


# ---------------------------------------------------------------------------
# Point classification helpers
# ---------------------------------------------------------------------------

def germ_at(rep: VectorField, coords) -> VectorField:
    """The representative recentered at an exact point (``rep`` itself at the
    origin), with the labels of the divisors the point is not on cleared."""
    if all(c.is_zero() for c in coords):
        return rep
    offsets = dict(zip(rep.chart.var_names, coords))
    labels = [label if c.is_zero() else None
              for label, c in zip(rep.chart.divisor_labels, coords)]
    return VectorField.make(rep.chart.with_labels(labels),
                            [p.shift(offsets) for p in rep.polys()])


def _eigenvalue_ratios(germ: VectorField) -> dict[str, GaussianRational]:
    """transverse/tangent linear-part eigenvalue ratio per labelled component.

    Defined when the component's coordinate hypersurface is invariant for
    the germ and the tangent diagonal entry is nonzero; the Jacobian is then
    triangular for that splitting, so the diagonal entries are the exact
    eigenvalues.
    """
    chart = germ.chart
    if chart.dim != 2:
        return {}
    lp = linear_part(germ)
    out: dict[str, GaussianRational] = {}
    for i, label in enumerate(chart.divisor_labels):
        if label is None:
            continue
        var = chart.var_names[i]
        comp = germ.components[i]
        if not comp.is_zero() and comp.order_in(var) < 1:
            continue  # hypersurface not invariant: no well-defined ratio
        j = 1 - i
        tangent = lp.entries[j][j]
        transverse = lp.entries[i][i]
        if tangent.is_zero():
            continue
        out[label] = transverse / tangent
    return out


def _on_components(chart: Chart, coords) -> tuple[str, ...]:
    out = []
    for label, c in zip(chart.divisor_labels, coords):
        if label is not None and c.is_zero():
            out.append(label)
    return tuple(out)


def _classify_point(node: TreeNode, coords) -> SingularPoint:
    germ = germ_at(node.rep, coords)
    report = classify_singularity(germ)
    status = POINT_REGULAR if report.klass == "regular" else (
        POINT_ELEMENTARY if report.is_elementary() else POINT_PENDING)
    point = SingularPoint(
        node_id=node.id,
        coords=tuple(coords),
        box=None,
        on_components=_on_components(node.rep.chart, coords),
        report=report,
        status=status,
    )
    if report.klass != "regular":
        point.cs_indices = _eigenvalue_ratios(germ)
    return point


def _interval_point(node: TreeNode, divisor_var: str, other: str,
                    root: iv.CertifiedRoot) -> SingularPoint:
    """Record a non-rational divisor point; prove elementarity if possible."""
    chart = node.rep.chart
    iv_idx = chart.var_index(divisor_var)
    boxes = []
    for name in chart.var_names:
        if name == other:
            boxes.append(root.box.bounds())
        else:
            boxes.append((0.0, 0.0, 0.0, 0.0))
    # trace and determinant of the Jacobian along the divisor, as exact
    # univariate polynomials in the free coordinate
    names = chart.var_names
    polys = node.rep.polys()
    jac = [[polys[i].partial(names[j]) for j in range(len(names))]
           for i in range(len(names))]
    on_divisor = []
    for row in jac:
        on_divisor.append([_restrict_all_but(p, other) for p in row])
    n = len(names)
    trace = Poly.zero(names)
    for i in range(n):
        trace = trace + on_divisor[i][i]
    provable = _interval_excludes_zero(trace, other, root)
    if not provable and n == 2:
        det = on_divisor[0][0] * on_divisor[1][1] - on_divisor[0][1] * on_divisor[1][0]
        provable = _interval_excludes_zero(det, other, root)
    label = chart.divisor_labels[iv_idx]
    point = SingularPoint(
        node_id=node.id,
        coords=None,
        box=tuple(boxes),
        on_components=(label,) if label else (),
        report=None,
        status=POINT_ELEMENTARY if provable else POINT_NONRATIONAL,
        note="elementary (certified: nonzero eigenvalue)" if provable
        else "non-rational divisor point left unprocessed",
    )
    return point


def _restrict_all_but(p: Poly, keep: str) -> Poly:
    for v in p.vars:
        if v != keep:
            p = p.restrict(v, 0)
    return p


def _interval_excludes_zero(p: Poly, var: str, root: iv.CertifiedRoot) -> bool:
    coeffs = [iv.ComplexInterval.of_gaussian(c) for c in p.univariate_coeffs(var)]
    value = iv._interval_eval(coeffs, root.box)
    return not value.contains_zero()


# ---------------------------------------------------------------------------
# The breadth-first skeleton shared by both dimensions
# ---------------------------------------------------------------------------

def _prepare_input(x: VectorField, tree: ResolutionTree) -> VectorField:
    polys = [c.expand() for c in x.components]
    if all(p.is_zero() for p in polys):
        raise DegenerateInputError("cannot resolve the zero field")
    content, reduced = monomial_content(polys)
    if any(content):
        tree.diagnostics.append(
            "input had a monomial zero divisor; working with its representative")
    return VectorField(x.chart, tuple(ChartFunction.of_poly(p) for p in reduced))


def _resolve(x: VectorField, max_steps: int, blow_up, divisor_points,
             on_budget=None, new_weight: int | None = None) -> ResolutionTree:
    """Blow up pending points breadth first until none is left.

    Every popped point costs one label ``E{n}`` and one new divisor
    component of self-intersection ``new_weight`` (``None`` when weights are
    not tracked).  The dimension supplies:

    * ``blow_up(tree, point, germ, label, center_coords)``: blows up the
      point's recentered ``germ``, adds the blow-ups it made to
      ``tree.steps`` / ``tree.weighted_steps``, sets the point's status and
      returns the chart results, each of which becomes a child node;
    * ``divisor_points(tree, child, first)``: the singular points on the
      divisor of a new chart (``first`` for the first chart of a blow-up),
      and whether that list is complete;
    * ``on_budget(tree)``: what to add when ``max_steps`` runs out.
    """
    tree = ResolutionTree(dim=x.chart.dim)
    rep = _prepare_input(x, tree)
    root = TreeNode(0, None, rep, None)
    tree.nodes.append(root)
    p0 = _classify_point(root, tuple([GR_ZERO] * tree.dim))
    root.singular_points.append(p0)
    queue: deque[tuple[TreeNode, SingularPoint]] = deque()
    if p0.status == POINT_PENDING:
        queue.append((root, p0))
    label_counter = 0
    complete = True

    while queue:
        if tree.steps + tree.weighted_steps >= max_steps:
            tree.status = STATUS_BUDGET
            if on_budget is not None:
                on_budget(tree)
            tree.diagnostics.append("blow-up budget exhausted")
            return tree
        node, point = queue.popleft()
        label_counter += 1
        label = f"E{label_counter}"
        if new_weight is not None:
            # components through the center drop by one
            for comp_label in point.on_components:
                tree.components[comp_label].weight -= 1
        tree.components[label] = DivisorComponent(label, new_weight, node.id)
        germ = germ_at(node.rep, point.coords)
        center_coords = tuple(c.text() for c in point.coords)
        for idx, result in enumerate(blow_up(tree, point, germ, label, center_coords)):
            child = TreeNode(len(tree.nodes), node.id, result.representative, result)
            tree.nodes.append(child)
            points, listed_all = divisor_points(tree, child, idx == 0)
            complete = complete and listed_all
            for p in points:
                child.singular_points.append(p)
                if p.status == POINT_PENDING:
                    queue.append((child, p))
                elif p.status == POINT_NONRATIONAL:
                    tree.diagnostics.append(
                        f"node {child.id}: unprocessed non-rational point")

    if any(not p.is_final_ok() for _, p in tree.all_points()):
        tree.status = STATUS_BUDGET
        tree.diagnostics.append("stuck on points that cannot be recentered exactly")
    elif not complete:
        tree.status = STATUS_BUDGET
        tree.diagnostics.append(
            "all enumerated points are elementary, but the divisor enumeration "
            "had gaps; refusing to claim a full resolution")
    else:
        tree.status = STATUS_RESOLVED
    return tree


# ---------------------------------------------------------------------------
# Dimension 2: Seidenberg iteration
# ---------------------------------------------------------------------------

def seidenberg_resolve(x: VectorField, max_steps: int = 40) -> ResolutionTree:
    """Iterated point blow-ups in dimension 2 until every point is elementary.

    Returns the annotated tree; exhausting ``max_steps`` yields status
    ``budget_exhausted`` with the pending points marked, not an exception.
    """
    if x.chart.dim != 2:
        raise NotApplicableError("use resolve3 for three-dimensional germs")
    if max_steps < 1:
        raise StructuralError("max_steps must be at least 1")
    return _resolve(x, max_steps, _blow_up_2d, _divisor_points_2d, new_weight=-1)


def _blow_up_2d(tree: ResolutionTree, point: SingularPoint, germ: VectorField,
                label: str, center_coords: tuple[str, ...]):
    tree.steps += 1
    point.status = POINT_BLOWN_UP
    return all_charts(germ, POINT, (1, 1), label, center_coords)


def _divisor_points_2d(tree: ResolutionTree, child: TreeNode, first: bool):
    if not first:
        # the second chart only contributes the point at infinity of the
        # first chart, i.e. its own origin
        if child.rep.vanishes_at_origin():
            return [_classify_point(child, (GR_ZERO, GR_ZERO))], True
        return [], True
    # a content-free representative never vanishes on its whole divisor
    divisor_var = child.transform.divisor_var
    exact, certified, _ = singular_points_on_divisor(child.rep, divisor_var)
    names = child.rep.chart.var_names
    other = names[1] if names[0] == divisor_var else names[0]
    points = [_classify_point(child, _lift_coords(child.rep.chart, divisor_var, r))
              for r in sorted(exact, key=lambda g: g.sort_key())]
    points += [_interval_point(child, divisor_var, other, c) for c in certified]
    return points, True


def _lift_coords(chart: Chart, divisor_var: str, root: GaussianRational):
    coords = []
    for name in chart.var_names:
        coords.append(GR_ZERO if name == divisor_var else root)
    return tuple(coords)


# ---------------------------------------------------------------------------
# Persistent-nilpotent detection (dimension 3)
# ---------------------------------------------------------------------------

# germs one probe examines at most before giving up without a verdict
_MAX_PROBE_GERMS = 200


@dataclass
class PersistentNilpotentReport:
    """Outcome of the normal-form probe.

    ``matched=False`` is a non-verdict: the form is semi-decidable and the
    probe only explores finitely many blow-ups; ``capped`` says it stopped
    at ``_MAX_PROBE_GERMS`` germs with more left.  ``germ`` is the matched
    germ, after the witness chain of blow-ups labelled ``probe``.
    """

    matched: bool
    n: int | None = None
    witness: dict | None = None
    germ: VectorField | None = None
    capped: bool = False


def _order_in_var(p: Poly, var: str) -> float:
    q = _restrict_all_but(p, var)
    if q.is_zero():
        return math.inf
    return min(e[q.var_index(var)] for e in q.terms)


def match_persistent_normal_form(x: VectorField) -> dict | None:
    """Syntactic match of the persistent-nilpotent normal form.

    Tries all coordinate role assignments; reports the witness dictionary
    (roles, n, orders, and whether the ``> 2n`` axis-order conditions hold)
    or None.
    """
    if x.chart.dim != 3 or not x.is_holomorphic():
        return None
    polys = x.polys()
    names = x.chart.var_names
    for ix, iy, iz in itertools.permutations(range(3)):
        comp_x, comp_y, comp_z = polys[ix], polys[iy], polys[iz]
        # d/dZ component: exactly Z^n with n >= 2
        if len(comp_z.terms) != 1:
            continue
        (exps, coeff), = comp_z.terms.items()
        n = exps[iz]
        if coeff != GR_ONE or sum(exps) != n or n < 2:
            continue
        f = comp_x - Poly.variable(names, names[iy])
        if f.order() < 2:
            continue
        if comp_y.order() < 2:
            continue
        f_axis = _order_in_var(f, names[iz])
        g_axis = _order_in_var(comp_y, names[iz])
        strict = f_axis > 2 * n and g_axis > 2 * n
        return {
            "roles": {"x": names[ix], "y": names[iy], "z": names[iz]},
            "n": n,
            "f_order": int(f.order()) if f.order() != math.inf else None,
            "g_order": int(comp_y.order()) if comp_y.order() != math.inf else None,
            "f_axis_order": None if f_axis == math.inf else int(f_axis),
            "g_axis_order": None if g_axis == math.inf else int(g_axis),
            "z_orders_exceed_2n": strict,
        }
    return None


def _is_nilpotent_germ(germ: VectorField) -> bool:
    try:
        return is_nilpotent(germ)
    except FoliationError:
        return False


def _uses_only(p: Poly, var: str) -> bool:
    used = p.used_vars()
    return used == () or used == (var,)


def _divisor_candidates_3d(rep: VectorField, divisor_var: str):
    """Singular points of the representative on a 3-D divisor chart.

    The restricted system is solved exactly whenever some component is
    univariate in one of the two divisor coordinates (then every common
    zero lies over a root of those components and the enumeration is
    complete) or a single monomial component cuts out coordinate lines.
    Otherwise the caller is told the enumeration is incomplete.

    Returns ``(candidates, singular_lines, nonrational, complete)`` where
    candidates are exact points (full chart coordinates) not already seen
    from an earlier chart of the same blow-up, singular_lines
    describe one-dimensional singular components found on the divisor, and
    nonrational counts certified-interval roots that could not be followed.
    """
    names = rep.chart.var_names
    polys = rep.polys()
    others = [v for v in names if v != divisor_var]
    u1, u2 = others
    restricted = [p.restrict(divisor_var, 0) for p in polys]
    nonzero = [p for p in restricted if not p.is_zero()]
    points: list[tuple[GaussianRational, GaussianRational]] = []
    lines: list[str] = []
    nonrational = 0
    complete = True

    def full_coords(a: GaussianRational, b: GaussianRational):
        values = {u1: a, u2: b, divisor_var: GR_ZERO}
        return tuple(values[name] for name in names)

    if any(p.degree() == 0 for p in nonzero):
        return [], [], 0, True  # a nonvanishing component: no zeros at all

    def solve_with_pivot(pivot_var: str, other_var: str):
        nonlocal nonrational
        pivot_comps = [p for p in nonzero if _uses_only(p, pivot_var)]
        exact, certified = _common_roots(pivot_comps, pivot_var)
        nonrational += len(certified)
        for r in exact:
            sliced = [p.restrict(pivot_var, r) for p in restricted]
            sliced_nonzero = [p for p in sliced if not p.is_zero()]
            if not sliced_nonzero:
                # the whole line {pivot = r} on the divisor is singular
                lines.append(f"{other_var}-line through {pivot_var}={r.text()}")
                points.append((r, GR_ZERO) if pivot_var == u1 else (GR_ZERO, r))
                continue
            if any(p.degree() == 0 for p in sliced_nonzero):
                continue
            sub_exact, sub_certified = _common_roots(sliced_nonzero, other_var)
            nonrational += len(sub_certified)
            for s in sub_exact:
                points.append((r, s) if pivot_var == u1 else (s, r))

    if any(_uses_only(p, u1) for p in nonzero):
        solve_with_pivot(u1, u2)
    elif any(_uses_only(p, u2) for p in nonzero):
        solve_with_pivot(u2, u1)
    elif len(nonzero) == 1 and len(nonzero[0].terms) == 1:
        # single monomial component: zero set is a union of coordinate lines
        (exps, _coeff), = nonzero[0].terms.items()
        for name, e in zip(names, exps):
            if e > 0 and name != divisor_var:
                lines.append(f"{name}-axis")
        points.append((GR_ZERO, GR_ZERO))
    else:
        # genuinely bivariate system: fall back to the origin candidate and
        # report that the enumeration may be missing points
        complete = False
        if all(p.constant_term().is_zero() for p in restricted):
            points.append((GR_ZERO, GR_ZERO))

    unique = sorted({(a.re, a.im, b.re, b.im): (a, b)
                     for a, b in points}.values(),
                    key=lambda ab: (ab[0].re, ab[0].im, ab[1].re, ab[1].im))
    candidates = [c for c in (full_coords(a, b) for a, b in unique)
                  if _invisible_in_earlier_charts(rep.chart, divisor_var, c)]
    return candidates, lines, nonrational, complete


def _germ_key(germ: VectorField) -> tuple:
    """The chart variables and exact components of a germ, hashable without
    building a ``Fraction``."""
    return (germ.chart.var_names,) + tuple(
        (f.monomial_exponents, tuple((e, c._abd) for e, c in f.numerator.terms.items()))
        for f in germ.components)


def _probe_expansions(germ: VectorField, memo: dict) -> list:
    """``(divisor var, coords, sub-germ)`` for each nilpotent singular point
    on the divisor of the point blow-up of ``germ``, chart by chart.

    The sub-germs' components depend on the germ's components alone, so
    ``memo`` keeps them per :func:`_germ_key`; their charts are rebuilt
    from the germ's chart as the blow-up labelled ``probe`` and
    :func:`germ_at` make them.
    """
    key = _germ_key(germ)
    found = memo.get(key)
    if found is None:
        found = []
        for idx in range(3):
            result = weighted_blowup(germ, BlowupSpec(POINT, (1, 1, 1), idx),
                                     divisor_label="probe")
            candidates, _lines, _nr, _complete = _divisor_candidates_3d(
                result.representative, result.divisor_var)
            for coords in candidates:
                sub = germ_at(result.representative, coords)
                if _is_nilpotent_germ(sub):
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


def detect_persistent_nilpotent(
    x: VectorField,
    probe_budget: int = 6,
    require_axis_orders: bool = False,
    memo: dict | None = None,
) -> PersistentNilpotentReport:
    """Probe for the persistent-nilpotent normal form.

    Follows nilpotent singular points through at most ``probe_budget``
    one-point blow-ups, matching the normal form syntactically at each
    stage.  The ``> 2n`` conditions on the axis orders of f and g are
    reported in the witness; they become mandatory only with
    ``require_axis_orders=True``, since further blow-ups can always raise
    them.  Probes that pass the same ``memo`` dict share their blow-ups:
    a germ one of them expanded is not blown up again.
    """
    if x.chart.dim != 3:
        raise NotApplicableError("persistent-nilpotent detection is three-dimensional")
    if not _is_nilpotent_germ(x):
        raise NotApplicableError("field does not have a nilpotent linear part")
    if memo is None:
        memo = {}

    examined = 0
    queue: deque[tuple[VectorField, list, int]] = deque([(x, [], 0)])
    while queue:
        if examined == _MAX_PROBE_GERMS:
            return PersistentNilpotentReport(False, capped=True)
        germ, chain, depth = queue.popleft()
        examined += 1
        witness = match_persistent_normal_form(germ)
        if witness is not None and (not require_axis_orders
                                    or witness["z_orders_exceed_2n"]):
            witness = dict(witness)
            witness["chain"] = [
                {"chart_var": var, "coords": [c.text() for c in coords]}
                for var, coords in chain]
            witness["stage"] = depth
            return PersistentNilpotentReport(True, witness["n"], witness, germ)
        if depth >= probe_budget:
            continue
        queue.extend((sub, chain + [(var, coords)], depth + 1)
                     for var, coords, sub in _probe_expansions(germ, memo))
    return PersistentNilpotentReport(False)


# ---------------------------------------------------------------------------
# Dimension 3 driver
# ---------------------------------------------------------------------------

def _singular_axis_center(germ: VectorField) -> str | None:
    """First coordinate axis contained in the singular set, if any."""
    polys = germ.polys()
    for axis in germ.chart.var_names:
        if all(_restrict_all_but(p, axis).is_zero() for p in polys):
            return axis
    return None


def _escape_blowup(germ: VectorField, witness: dict, label: str,
                   center_coords: tuple[str, ...]):
    """Weight-2 blow-up removing a matched persistent-nilpotent point.

    Preferred center: the distinguished axis of the normal form (the 'x'
    role), which carries the formal separatrix; weight 2 goes to the 'z'
    role variable.  Falls back to a weighted point blow-up when the axis is
    not contained in the singular set.
    """
    roles = witness["roles"]
    axis = roles["x"]
    center = curve_center(axis) if _singular_axis_center(germ) == axis else POINT
    blown = _blown_vars(germ.chart, BlowupSpec(center))
    weights = tuple(2 if v == roles["z"] else 1 for v in blown)
    return all_charts(germ, center, weights, label, center_coords)


def resolve3(
    x: VectorField,
    max_steps: int = 12,
    probe_budget: int = 6,
    allow_weighted: bool = True,
) -> ResolutionTree:
    """Resolution driver for three-dimensional germs.

    Standard blow-ups are centered at singular points or coordinate-axis
    curves inside the singular set.  With ``allow_weighted`` enabled, a
    nilpotent point matching the persistent normal form is removed by a
    single weight-2 blow-up; with it disabled the driver keeps applying
    standard blow-ups until the budget runs out.  A negative
    ``probe_budget`` raises :class:`StructuralError`.
    """
    if x.chart.dim != 3:
        raise NotApplicableError("resolve3 expects a three-dimensional germ")
    if probe_budget < 0:
        raise StructuralError(f"probe budget must be nonnegative, got {probe_budget}")
    return _resolve(
        x, max_steps,
        partial(_blow_up_3d, probe_budget=probe_budget, allow_weighted=allow_weighted,
                probe_memo={}),
        _divisor_points_3d,
        on_budget=partial(_budget_3d, allow_weighted=allow_weighted))


def _blow_up_3d(tree: ResolutionTree, point: SingularPoint, germ: VectorField,
                label: str, center_coords: tuple[str, ...], *,
                probe_budget: int, allow_weighted: bool, probe_memo: dict):
    if (allow_weighted and point.report is not None
            and point.report.klass == CLASS_NILPOTENT):
        probe = detect_persistent_nilpotent(germ, probe_budget, memo=probe_memo)
        if probe.capped:
            tree.diagnostics.append(
                f"node {point.node_id}: persistent-nilpotent probe stopped after "
                f"{_MAX_PROBE_GERMS} germs without a verdict")
        if probe.matched:
            # the escape starts where the probe matched: after its chain of
            # point blow-ups, whose divisors become this label's pre-chain
            tree.steps += len(probe.witness["chain"])
            tree.weighted_steps += 1
            point.status = POINT_ESCAPED
            point.note = f"persistent nilpotent (n={probe.n}); weight-2 escape"
            matched = probe.germ
            labels = [f"{label}pre" if name == "probe" else name
                      for name in matched.chart.divisor_labels]
            matched = VectorField(matched.chart.with_labels(labels), matched.components)
            return _escape_blowup(matched, probe.witness, label, center_coords)
    tree.steps += 1
    point.status = POINT_BLOWN_UP
    axis = _singular_axis_center(germ)
    if axis is not None:
        center, weights = curve_center(axis), (1, 1)
    else:
        center, weights = POINT, (1, 1, 1)
    return all_charts(germ, center, weights, label, center_coords)


def _divisor_points_3d(tree: ResolutionTree, child: TreeNode, first: bool):
    # ``first`` is not needed: the candidates of a later chart already
    # leave out the points an earlier chart shows
    candidates, lines, nonrational, complete = _divisor_candidates_3d(
        child.rep, child.transform.divisor_var)
    for line in lines:
        tree.diagnostics.append(
            f"node {child.id}: singular curve on the divisor ({line})")
    if nonrational:
        tree.diagnostics.append(
            f"node {child.id}: {nonrational} non-rational divisor point(s) "
            "left unprocessed")
    if not complete:
        tree.diagnostics.append(
            f"node {child.id}: divisor singular locus not fully "
            "enumerable (bivariate system); resolution status capped")
    points = [_classify_point(child, coords) for coords in candidates]
    return points, complete and not nonrational


def _budget_3d(tree: ResolutionTree, *, allow_weighted: bool) -> None:
    pending = [point for _, point in tree.all_points()
               if point.status == POINT_PENDING]
    matched_pending = 0
    for point in pending:
        if point.report and point.report.klass == CLASS_NILPOTENT:
            tree.diagnostics.append(
                f"budget exhausted at a nilpotent point (node {point.node_id})")
            if allow_weighted:
                germ = germ_at(tree.nodes[point.node_id].rep, point.coords)
                if match_persistent_normal_form(germ) is not None:
                    matched_pending += 1
    if allow_weighted and matched_pending and matched_pending == len(pending):
        # everything left is detected persistent-nilpotent work that
        # the budget prevented the weight-2 escape from finishing
        tree.status = STATUS_PERSISTENT_PENDING


def _invisible_in_earlier_charts(chart: Chart, divisor_var: str, coords) -> bool:
    """True when a divisor point is not already covered by an earlier chart.

    In the chart where variable ``w`` (blown up before ``divisor_var``) is
    the divisor coordinate, a point with nonzero ``w`` coordinate appears
    with coordinates scaled by 1/w; only points with that coordinate equal
    to zero are genuinely new in this chart.
    """
    for name in _blown_vars(chart, BlowupSpec(chart.history[-1].center)):
        if name == divisor_var:
            break
        i = chart.var_names.index(name)
        if not coords[i].is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def emit_tree(tree: ResolutionTree, fmt: str = "json") -> str:
    """Deterministic serialization of a resolution tree (json or dot)."""
    if fmt == "json":
        return json.dumps(tree.to_json_dict(), indent=2, sort_keys=False)
    if fmt != "dot":
        raise StructuralError("format must be 'json' or 'dot'")
    lines = ["digraph resolution {"]
    for comp in sorted(tree.components.values(), key=lambda c: c.id):
        weight = "?" if comp.weight is None else str(comp.weight)
        lines.append(
            f'  "{comp.id}" [shape=ellipse, label="{comp.id}\\nweight {weight}"];')
    counter = 0
    for node, point in tree.all_points():
        if point.status == POINT_BLOWN_UP:
            continue
        counter += 1
        klass = point.report.klass if point.report else point.status
        pid = f"s{counter}"
        lines.append(f'  "{pid}" [shape=box, label="{klass}"];')
        for comp in point.on_components:
            lines.append(f'  "{comp}" -> "{pid}" [dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"
