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
  no point blow-up one of them made is made again.  The probe runs on term
  dicts of ``(a, b, d)`` int triples from the germ's ``polys()`` to its
  verdict: its blow-ups (``blowup._terms_blowup``), divisor points,
  recentring, nilpotency tests and normal-form matches build no object,
  and only the germ it matches becomes a field.  The driver finds 3-D
  divisor points, and both dimensions their common roots, with the same
  triple functions.
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
import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial, reduce

from .algebra import (_ONE, _ZERO, GR_ZERO, GaussianRational, Poly, _over, _poly, _raw,
                      _scaled, _terms_restricted, _terms_shifted, monomial_content)
from .blowup import (POINT, BlowupSpec, TransformResult, _blown_vars, _terms_blowup,
                     all_charts, curve_center)
from .classify import CLASS_NILPOTENT, SingularityReport, _nilpotent_terms, classify_singularity
from .errors import DegenerateInputError, NotApplicableError, StructuralError
from .fields import BlowupRecord, VectorField, linear_part
from . import intervals as iv
from .jsontext import dumps

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

def _terms_common_roots(comps: list[dict], i: int):
    """(exact roots, certified interval roots) shared by term dicts of
    triples univariate in ``x_i``."""
    rows = []
    for t in comps:
        row = [_ZERO] * (max((e[i] for e in t), default=0) + 1)
        for e, c in t.items():
            row[e[i]] = c
        rows.append(row)
    if len(rows) > 1:
        row = reduce(iv._gcd, [iv._monic(_scaled(r)[1]) for r in rows])
        # the Gaussian-integer row is den times the monic gcd, and
        # certified_roots brings it back to the same monic row
        coeffs = [_raw(a, b, 1) for a, b in row]
    else:
        coeffs = [_raw(*c) for c in rows[0]]
    if len(coeffs) <= 1:
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
    restricted = [p.restrict(divisor_var, 0) for p in rep.polys()]
    nonzero = [p for p in restricted if not p.is_zero()]
    if not nonzero:
        return [], [], True
    exact, certified = _terms_common_roots([p._abd for p in nonzero],
                                           nonzero[0].var_index(other))
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
                            (p.shift(offsets) for p in rep.polys()))


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


def _classify_point(node: TreeNode, coords) -> SingularPoint:
    germ = germ_at(node.rep, coords)
    report = classify_singularity(germ)
    status = POINT_REGULAR if report.klass == "regular" else (
        POINT_ELEMENTARY if report.is_elementary() else POINT_PENDING)
    point = SingularPoint(
        node_id=node.id,
        coords=tuple(coords),
        box=None,
        on_components=tuple(label for label, c in zip(node.rep.chart.divisor_labels, coords)
                            if label is not None and c.is_zero()),
        report=report,
        status=status,
    )
    if report.klass != "regular":
        point.cs_indices = _eigenvalue_ratios(germ)
    return point


def _interval_point(node: TreeNode, divisor_var: str, other: str,
                    root: iv.CertifiedRoot) -> SingularPoint:
    """Record a non-rational point on the divisor of a 2-D chart; prove it
    elementary if possible.

    A clustered rectangle proves nothing: it may hold several roots, or a
    root that another rectangle holds too, so its point is left
    unprocessed."""
    chart = node.rep.chart
    names = chart.var_names
    boxes = tuple(root.box if name == other else (0.0, 0.0, 0.0, 0.0)
                  for name in names)
    if root.clustered:
        provable = False
        note = "clustered rectangle left unprocessed: it certifies no single root"
    else:
        # trace and determinant of the Jacobian along the divisor, as exact
        # univariate polynomials in the free coordinate
        (a, b), (c, d) = [[p.partial(v).restrict(divisor_var, 0) for v in names]
                          for p in node.rep.polys()]
        provable = (_interval_excludes_zero(a + d, other, root)
                    or _interval_excludes_zero(a * d - b * c, other, root))
        note = ("elementary (certified: nonzero eigenvalue)" if provable
                else "non-rational divisor point left unprocessed")
    label = chart.divisor_labels[chart.var_index(divisor_var)]
    return SingularPoint(
        node_id=node.id,
        coords=None,
        box=boxes,
        on_components=(label,) if label else (),
        report=None,
        status=POINT_ELEMENTARY if provable else POINT_NONRATIONAL,
        note=note,
    )


def _interval_excludes_zero(p: Poly, var: str, root: iv.CertifiedRoot) -> bool:
    coeffs = [iv._rectangle(*c._abd) for c in p.univariate_coeffs(var)]
    re_lo, re_hi, im_lo, im_hi = iv._interval_eval(coeffs, root.box)
    return not (re_lo <= 0.0 <= re_hi and im_lo <= 0.0 <= im_hi)


# ---------------------------------------------------------------------------
# The breadth-first skeleton shared by both dimensions
# ---------------------------------------------------------------------------

def _prepare_input(x: VectorField, tree: ResolutionTree) -> VectorField:
    polys = x.polys()
    if all(p.is_zero() for p in polys):
        raise DegenerateInputError("cannot resolve the zero field")
    content, reduced = monomial_content(polys)
    if any(content):
        tree.diagnostics.append(
            "input had a monomial zero divisor; working with its representative")
    return VectorField.make(x.chart, reduced)


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
    * ``divisor_points(tree, child)``: the singular points on the divisor
      of a new chart that no earlier chart of its blow-up shows, and whether
      that list is complete;
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
        for result in blow_up(tree, point, germ, label, center_coords):
            child = TreeNode(len(tree.nodes), node.id, result.representative, result)
            tree.nodes.append(child)
            points, listed_all = divisor_points(tree, child)
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


def _divisor_points_2d(tree: ResolutionTree, child: TreeNode):
    divisor_var = child.transform.divisor_var
    names = child.rep.chart.var_names
    if divisor_var != names[0]:
        # ``all_charts`` gives the charts in variable order, so the first
        # chart already shows every point of this divisor but its origin,
        # the first chart's point at infinity
        if child.rep.vanishes_at_origin():
            return [_classify_point(child, (GR_ZERO, GR_ZERO))], True
        return [], True
    # a content-free representative never vanishes on its whole divisor
    exact, certified, _ = singular_points_on_divisor(child.rep, divisor_var)
    points = [_classify_point(child, (GR_ZERO, r)) for r in exact]
    points += [_interval_point(child, divisor_var, names[1], c) for c in certified]
    return points, True


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


def _uses_only(t, i: int) -> bool:
    """True when no term key of ``t`` has a nonzero exponent but at ``i``."""
    return all(sum(e) == e[i] for e in t)


def _axis_order(t, i: int) -> float:
    """The lowest exponent of ``x_i`` among the term keys of ``t`` in ``x_i``
    alone, the constant included; +inf when there is none."""
    return min((e[i] for e in t if sum(e) == e[i]), default=math.inf)


def match_persistent_normal_form(x: VectorField) -> dict | None:
    """Syntactic match of the persistent-nilpotent normal form.

    Tries all coordinate role assignments; reports the witness dictionary
    (roles, n, orders, and whether the ``> 2n`` axis-order conditions hold)
    or None.  It runs :func:`_terms_match` on the term dicts of ``polys()``.
    """
    if x.chart.dim != 3 or not x.is_holomorphic():
        return None
    return _terms_match(tuple(p._abd for p in x.polys()), x.chart.var_names)


def _terms_match(germ: tuple[dict, ...], names: tuple[str, ...]) -> dict | None:
    """:func:`match_persistent_normal_form` of the 3-D germ whose components
    are the term dicts ``germ`` of triples, on the variables ``names``."""
    for ix, iy, iz in itertools.permutations(range(3)):
        comp_x, comp_y, comp_z = germ[ix], germ[iy], germ[iz]
        # d/dZ component: exactly Z^n with n >= 2
        if len(comp_z) != 1:
            continue
        (exps, coeff), = comp_z.items()
        n = exps[iz]
        if coeff != _ONE or sum(exps) != n or n < 2:
            continue
        # f = comp_x - Y has order >= 2 iff comp_x holds Y with coefficient 1
        # and no other term of order below 2; then f is comp_x without Y
        y = tuple(int(j == iy) for j in range(3))
        if comp_x.get(y) != _ONE:
            continue
        f_order = min((sum(e) for e in comp_x if e != y), default=math.inf)
        g_order = min(map(sum, comp_y), default=math.inf)
        if f_order < 2 or g_order < 2:
            continue
        f_axis = _axis_order(comp_x, iz)
        g_axis = _axis_order(comp_y, iz)
        return {
            "roles": {"x": names[ix], "y": names[iy], "z": names[iz]},
            "n": n,
            "f_order": None if f_order == math.inf else f_order,
            "g_order": None if g_order == math.inf else g_order,
            "f_axis_order": None if f_axis == math.inf else f_axis,
            "g_axis_order": None if g_axis == math.inf else g_axis,
            "z_orders_exceed_2n": f_axis > 2 * n and g_axis > 2 * n,
        }
    return None


def _divisor_candidates_3d(rep: VectorField, divisor_var: str):
    """Singular points of the representative on a 3-D divisor chart, as
    :func:`_terms_divisor_candidates` finds them from the term dicts of
    ``polys()``, with exact coordinates."""
    chart = rep.chart
    names = chart.var_names
    # a point with a nonzero coordinate in a variable blown up before the
    # divisor variable shows, scaled, in that variable's chart already
    earlier = []
    for name in _blown_vars(chart, BlowupSpec(chart.history[-1].center)):
        if name == divisor_var:
            break
        earlier.append(names.index(name))
    candidates, lines, nonrational, complete = _terms_divisor_candidates(
        names, [p._abd for p in rep.polys()], names.index(divisor_var), earlier)
    return ([tuple(_raw(*c) for c in coords) for coords in candidates],
            lines, nonrational, complete)


def _terms_divisor_candidates(names: tuple[str, ...], comps: list[dict], k: int,
                              earlier) -> tuple[list, list[str], int, bool]:
    """Singular points on the divisor ``{x_k = 0}`` of a 3-D chart whose
    representative has the components ``comps``, term dicts of triples.

    The restricted system is solved exactly whenever some component is
    univariate in one of the two divisor coordinates (then every common
    zero lies over a root of those components and the enumeration is
    complete) or a single monomial component cuts out coordinate lines.
    Otherwise the caller is told the enumeration is incomplete.

    Returns ``(candidates, singular_lines, nonrational, complete)`` where
    candidates are exact points (full chart coordinates, as triples) with a
    zero coordinate at each index in ``earlier``, singular_lines describe
    one-dimensional singular components found on the divisor, and
    nonrational counts certified-interval roots that could not be followed.
    """
    u1, u2 = [j for j in range(3) if j != k]
    restricted = [_terms_restricted(t, k) for t in comps]
    nonzero = [t for t in restricted if t]
    points: list[tuple[tuple, tuple]] = []
    lines: list[str] = []
    nonrational = 0
    complete = True

    def constant(t: dict) -> bool:
        return len(t) == 1 and not any(next(iter(t)))

    if any(map(constant, nonzero)):
        return [], [], 0, True  # a nonvanishing component: no zeros at all

    def solve_with_pivot(pivot: int, other: int):
        nonlocal nonrational
        exact, certified = _terms_common_roots(
            [t for t in nonzero if _uses_only(t, pivot)], pivot)
        nonrational += len(certified)
        for r in exact:
            a = r._abd
            sliced = [s for s in (_terms_restricted(t, pivot, a) for t in restricted) if s]
            if not sliced:
                # the whole line {pivot = r} on the divisor is singular
                lines.append(f"{names[other]}-line through {names[pivot]}={r.text()}")
                points.append((a, _ZERO) if pivot == u1 else (_ZERO, a))
                continue
            if any(map(constant, sliced)):
                continue
            sub_exact, sub_certified = _terms_common_roots(sliced, other)
            nonrational += len(sub_certified)
            for b in sub_exact:
                points.append((a, b._abd) if pivot == u1 else (b._abd, a))

    if any(_uses_only(t, u1) for t in nonzero):
        solve_with_pivot(u1, u2)
    elif any(_uses_only(t, u2) for t in nonzero):
        solve_with_pivot(u2, u1)
    elif len(nonzero) == 1 and len(nonzero[0]) == 1:
        # single monomial component: zero set is a union of coordinate lines
        (exps,) = nonzero[0]
        lines += [f"{names[j]}-axis" for j, e in enumerate(exps) if e > 0 and j != k]
        points.append((_ZERO, _ZERO))
    else:
        # genuinely bivariate system: fall back to the origin candidate and
        # report that the enumeration may be missing points
        complete = False
        if all((0, 0, 0) not in t for t in restricted):
            points.append((_ZERO, _ZERO))

    # sorted by (re, im) of each coordinate, as ints over one denominator;
    # the points are distinct, so no two keys tie
    unique = list(dict.fromkeys(points))
    _, ints = _scaled([v for pair in unique for v in pair])
    keys = [a + b for a, b in zip(ints[::2], ints[1::2])]
    candidates = []
    for _, (a, b) in sorted(zip(keys, unique)):
        coords = [a, b]
        coords.insert(k, _ZERO)
        if not any(coords[j][0] or coords[j][1] for j in earlier):
            candidates.append(tuple(coords))
    return candidates, lines, nonrational, complete


def _probe_expansions(names: tuple[str, ...], germ: tuple[dict, ...], memo: dict) -> list:
    """``(divisor index, coords, sub-germ)`` for each nilpotent singular
    point on the divisor of the point blow-up of ``germ``, chart by chart;
    the germs are tuples of term dicts of triples, the coordinates triples.

    The sub-germs depend on the germ's components alone, so ``memo`` keeps
    them per germ, keyed by its terms in their order.
    """
    key = tuple(tuple(t.items()) for t in germ)
    found = memo.get(key)
    if found is None:
        found = []
        for k in range(3):
            numerators, _owns, content = _terms_blowup(germ, k, (1, 1, 1))
            rep = [_over(num, content) for num in numerators]
            for coords in _terms_divisor_candidates(names, rep, k, range(k))[0]:
                offsets = [(j, c) for j, c in enumerate(coords) if c[0] or c[1]]
                sub = tuple(_terms_shifted(t, offsets) for t in rep)
                if _nilpotent_terms(sub):
                    found.append((k, coords, sub))
        memo[key] = found
    return found


def _matched_germ(x: VectorField, germ: tuple[dict, ...], chain: list) -> VectorField:
    """The probe's ``germ``, reached from ``x`` through ``chain``, as a field
    on ``x``'s chart extended by the chain's blow-ups, labelled ``probe``."""
    if not chain:
        return x
    chart = x.chart
    for k, coords in chain:
        record = BlowupRecord(POINT, ("0",) * 3, (1, 1, 1), chart.var_names[k], "probe")
        labels = ["probe" if j == k else None if c[0] or c[1] else label
                  for j, (label, c) in enumerate(zip(chart.divisor_labels, coords))]
        chart = chart.extended(record, labels)
    return VectorField.make(chart, (_poly(chart.var_names, t) for t in germ))


def detect_persistent_nilpotent(
    x: VectorField,
    probe_budget: int = 6,
    memo: dict | None = None,
) -> PersistentNilpotentReport:
    """Probe for the persistent-nilpotent normal form.

    Follows nilpotent singular points through at most ``probe_budget``
    one-point blow-ups, matching the normal form syntactically at each
    stage, and stops at the first match.  The ``> 2n`` conditions on the
    axis orders of f and g are reported in the witness as
    ``z_orders_exceed_2n``, not required for a match, since further
    blow-ups can always raise them.  Probes that pass the same ``memo``
    dict share their blow-ups: a germ one of them expanded is not blown up
    again.

    The germs are term dicts of triples from ``x.polys()`` to the match:
    the blow-ups, divisor points, recentring, nilpotency tests and matches
    build no object, and only a matched germ becomes a field again.
    """
    if x.chart.dim != 3:
        raise NotApplicableError("persistent-nilpotent detection is three-dimensional")
    start = tuple(p._abd for p in x.polys()) if x.is_holomorphic() else None
    if start is None or not _nilpotent_terms(start):
        raise NotApplicableError("field does not have a nilpotent linear part")
    if memo is None:
        memo = {}

    names = x.chart.var_names
    examined = 0
    queue: deque[tuple[tuple[dict, ...], list, int]] = deque([(start, [], 0)])
    while queue:
        if examined == _MAX_PROBE_GERMS:
            return PersistentNilpotentReport(False, capped=True)
        germ, chain, depth = queue.popleft()
        examined += 1
        witness = _terms_match(germ, names)
        if witness is not None:
            witness["chain"] = [
                {"chart_var": names[k], "coords": [_raw(*c).text() for c in coords]}
                for k, coords in chain]
            witness["stage"] = depth
            return PersistentNilpotentReport(True, witness["n"], witness,
                                             _matched_germ(x, germ, chain))
        if depth >= probe_budget:
            continue
        queue.extend((sub, chain + [(k, coords)], depth + 1)
                     for k, coords, sub in _probe_expansions(names, germ, memo))
    return PersistentNilpotentReport(False)


# ---------------------------------------------------------------------------
# Dimension 3 driver
# ---------------------------------------------------------------------------

def _singular_axis_center(germ: VectorField) -> str | None:
    """First coordinate axis contained in the singular set, if any."""
    polys = germ.polys()
    for i, axis in enumerate(germ.chart.var_names):
        if all(_axis_order(p._abd, i) == math.inf for p in polys):
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


def _divisor_points_3d(tree: ResolutionTree, child: TreeNode):
    # the candidates of a later chart already leave out the points an
    # earlier chart shows
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


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def emit_tree(tree: ResolutionTree, fmt: str = "json") -> str:
    """Deterministic serialization of a resolution tree (json or dot)."""
    if fmt == "json":
        return dumps(tree.to_json_dict())
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
