"""Classification of singular points.

Given a holomorphic vector field vanishing at the chart origin this module
computes the exact characteristic polynomial of its linear part, solves for
eigenvalues (exactly whenever they lie in Q(i), otherwise as certified
complex rectangles), and derives the classification tags: regular,
elementary nondegenerate, saddle-node with its rank, nilpotent, or zero
linear part.  It also provides the integer-relation rank of an exact
eigenvalue vector, bounded resonance-relation search, and the exact convex
hull test separating the Siegel and Poincare positions.

Resonance and hull tests refuse to guess on certified-interval data: they
return ``undecided`` instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import GR_ONE, GR_ZERO, GaussianRational, Poly
from .errors import NotApplicableError, StructuralError
from .fields import LinearPart, VectorField, linear_part
from .intervals import CertifiedRoot, certified_roots

CLASS_REGULAR = "regular"
CLASS_ELEMENTARY = "elementary_nondegenerate"
CLASS_SADDLE_NODE = "saddle_node"
CLASS_NILPOTENT = "nilpotent"
CLASS_ZERO_LINEAR = "zero_linear_part"

POSITION_SIEGEL = "siegel"
POSITION_POINCARE = "poincare"
POSITION_SIEGEL_BOUNDARY = "siegel_boundary"
POSITION_UNDECIDED = "undecided"

UNDECIDED = "undecided"

_T = "t"

# largest total order resonant_relations enumerates: the multi-indices
# grow as order**n, as the formal solver's unknowns do with jet order
_MAX_RESONANCE_BOUND = 32


@dataclass(frozen=True)
class EigenData:
    """Characteristic polynomial plus its roots.

    ``roots`` pairs each value with its multiplicity; a value is either an
    exact :class:`GaussianRational` or a :class:`CertifiedRoot` rectangle of
    width at most ``1e-10`` (pairwise disjoint unless flagged clustered).
    """

    char_poly: Poly
    roots: tuple[tuple[object, int], ...]

    def all_exact(self) -> bool:
        return all(isinstance(v, GaussianRational) for v, _ in self.roots)

    def exact_values(self) -> list[GaussianRational]:
        out = []
        for v, m in self.roots:
            if not isinstance(v, GaussianRational):
                raise NotApplicableError("eigenvalues are not all exact")
            out.extend([v] * m)
        return out

    def zero_multiplicity(self) -> int:
        for v, m in self.roots:
            if isinstance(v, GaussianRational) and v.is_zero():
                return m
        return 0

    def to_json(self) -> list[dict]:
        out = []
        for v, m in self.roots:
            if isinstance(v, GaussianRational):
                out.append({"type": "exact", "value": v.text(), "multiplicity": m})
            else:
                assert isinstance(v, CertifiedRoot)
                out.append({
                    "type": "interval",
                    "value": list(v.box.bounds()),
                    "multiplicity": m,
                    "clustered": v.clustered,
                })
        return out


@dataclass(frozen=True)
class SingularityReport:
    """Full classification record for one singular point."""

    klass: str
    rank: int | None            # saddle-node rank (zero-eigenvalue count)
    eigen: EigenData | None
    resonance_rank: int | str   # integer or 'undecided'
    domain_position: str
    second_jet_nonzero: bool

    def is_elementary(self) -> bool:
        return self.klass in (CLASS_ELEMENTARY, CLASS_SADDLE_NODE)

    def to_json(self) -> dict:
        return {
            "class": self.klass,
            "rank": self.rank,
            "eigenvalues": self.eigen.to_json() if self.eigen else None,
            "char_poly": self.eigen.char_poly.render() if self.eigen else None,
            "resonance_rank": self.resonance_rank,
            "domain_position": self.domain_position,
            "second_jet_nonzero": self.second_jet_nonzero,
        }


# ---------------------------------------------------------------------------
# Characteristic polynomial and eigenvalues
# ---------------------------------------------------------------------------

def char_poly(lp: LinearPart) -> Poly:
    """Exact monic characteristic polynomial det(t I - L) in the variable t."""
    n = lp.dim
    if n > 3:
        raise StructuralError("only dimensions up to 3 are supported")
    a = lp.entries

    def det(rows: list[list[GaussianRational]]) -> GaussianRational:
        if len(rows) == 1:
            return rows[0][0]
        if len(rows) == 2:
            return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        d = GR_ZERO
        sign = GR_ONE
        for j in range(3):
            minor = [[rows[1][k] for k in range(3) if k != j],
                     [rows[2][k] for k in range(3) if k != j]]
            d = d + sign * rows[0][j] * det(minor)
            sign = -sign
        return d

    # expand det(tI - L) by evaluating the coefficient of each power of t
    # symbolically: treat entries as constants of a univariate polynomial.
    # For n <= 3 use the explicit trace / second-symmetric / det formulas.
    tr = lp.trace()
    if n == 1:
        coeffs = [-a[0][0], GR_ONE]
    elif n == 2:
        dt = det([list(a[0]), list(a[1])])
        coeffs = [dt, -tr, GR_ONE]
    else:
        dt = det([list(r) for r in a])
        sec = GR_ZERO
        for i, j in ((0, 1), (0, 2), (1, 2)):
            sec = sec + (a[i][i] * a[j][j] - a[i][j] * a[j][i])
        coeffs = [-dt, sec, -tr, GR_ONE]
    terms = {(k,): c for k, c in enumerate(coeffs) if not c.is_zero()}
    return Poly((_T,), terms)


def eigen_solve(p: Poly) -> EigenData:
    """Roots of a monic univariate polynomial of degree <= 3.

    :func:`certified_roots` gives every root in Q(i) exactly and certifies
    each other root by an interval Newton rectangle of width <= 1e-10.
    """
    coeffs = p.univariate_coeffs(p.vars[0] if p.vars else _T)
    degree = len(coeffs) - 1
    if degree > 3:
        raise StructuralError("eigen_solve expects degree at most 3")
    if coeffs[-1] != GR_ONE:
        raise StructuralError("eigen_solve expects a monic polynomial")
    exact, certified = certified_roots(coeffs)
    return EigenData(p, tuple(exact + [(c, c.multiplicity) for c in certified]))


# ---------------------------------------------------------------------------
# Resonances and domain position
# ---------------------------------------------------------------------------

def resonance_rank(eigenvalues) -> int | str:
    """Rank of the lattice {m in Z^n : sum m_i lambda_i = 0}.

    Exact linear algebra over Q on real and imaginary parts.  Certified
    (non-exact) eigenvalues yield 'undecided'.
    """
    vals = list(eigenvalues)
    if not all(isinstance(v, GaussianRational) for v in vals):
        return UNDECIDED
    n = len(vals)
    rows = [[v.re for v in vals], [v.im for v in vals]]
    rank = 0
    col = 0
    rows = [list(r) for r in rows]
    for col in range(n):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return n - rank


def resonant_relations(eigenvalues, bound: int = 6):
    """All relations lambda_i = (I, lambda) with |I| in [2, bound].

    Returns a list of ``(i, I)`` pairs (0-based i, exponent tuples).  A
    bound below 0 or above 32 raises :class:`StructuralError`.
    """
    if not 0 <= bound <= _MAX_RESONANCE_BOUND:
        raise StructuralError(
            f"resonance bound must lie between 0 and {_MAX_RESONANCE_BOUND}, got {bound}")
    vals = list(eigenvalues)
    if not all(isinstance(v, GaussianRational) for v in vals):
        raise NotApplicableError("resonant relations need exact eigenvalues")
    n = len(vals)
    out = []
    for total in range(2, bound + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            mi = [0] * n
            for c in combo:
                mi[c] += 1
            s = GR_ZERO
            for j in range(n):
                if mi[j]:
                    s = s + vals[j] * GaussianRational.of(mi[j])
            for i in range(n):
                if vals[i] == s:
                    out.append((i, tuple(mi)))
    return sorted(set(out))


def siegel_test(eigenvalues) -> str:
    """Exact convex-hull position of the origin among the eigenvalues.

    Zero eigenvalues make the origin a hull vertex: reported as the explicit
    boundary case rather than folded into either side.
    """
    vals = list(eigenvalues)
    if not all(isinstance(v, GaussianRational) for v in vals):
        return POSITION_UNDECIDED
    if any(v.is_zero() for v in vals):
        return POSITION_SIEGEL_BOUNDARY
    pts = [(v.re, v.im) for v in vals]
    return POSITION_SIEGEL if _hull_contains_origin(pts) else POSITION_POINCARE


def _cross(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def _segment_contains_origin(a, b) -> bool:
    if _cross(a, b) != 0:
        return False
    return _dot(a, b) <= 0  # origin between a and b (inclusive)


def _hull_contains_origin(pts) -> bool:
    n = len(pts)
    if n == 1:
        return pts[0] == (0, 0)
    if n == 2:
        return _segment_contains_origin(pts[0], pts[1])
    for i, j in itertools.combinations(range(n), 2):
        if _segment_contains_origin(pts[i], pts[j]):
            return True
    if n == 3:
        a, b, c = pts
        d1 = _cross(a, b)
        d2 = _cross(b, c)
        d3 = _cross(c, a)
        if d1 == 0 and d2 == 0 and d3 == 0:
            # all points on one line through the origin; segment checks above
            # already decided membership
            return False
        has_pos = d1 > 0 or d2 > 0 or d3 > 0
        has_neg = d1 < 0 or d2 < 0 or d3 < 0
        return not (has_pos and has_neg)
    raise StructuralError("hull test supports up to three eigenvalues")


# ---------------------------------------------------------------------------
# Full classification
# ---------------------------------------------------------------------------

def second_jet_check(x: VectorField) -> bool:
    """True iff the order-2 jet of the field at the origin is nonzero."""
    return any(not p.jet_truncate(2).is_zero() for p in x.polys())


def _nilpotent_class(lp: LinearPart, cp: Poly) -> str | None:
    """The class of a linear part whose characteristic polynomial ``cp`` is
    ``t**n`` (nilpotent, or zero), else None."""
    if cp != Poly((_T,), {(lp.dim,): GR_ONE}):
        return None
    return CLASS_ZERO_LINEAR if lp.is_zero() else CLASS_NILPOTENT


def is_nilpotent(x: VectorField) -> bool:
    """True iff ``x`` vanishes at the origin with a nonzero nilpotent linear
    part: the class :func:`classify_singularity` reports as nilpotent,
    without solving for eigenvalues."""
    if not x.vanishes_at_origin():
        return False
    lp = linear_part(x)
    # a zero linear part needs no characteristic polynomial
    return not lp.is_zero() and _nilpotent_class(lp, char_poly(lp)) == CLASS_NILPOTENT


def classify_singularity(x: VectorField) -> SingularityReport:
    """Classify the germ of a holomorphic field at the chart origin.

    A non-vanishing field is reported as regular (not an error).  The
    second-jet flag records whether the order-2 jet at the origin is nonzero.
    """
    second_jet = second_jet_check(x)
    if not x.vanishes_at_origin():
        return SingularityReport(CLASS_REGULAR, None, None, UNDECIDED,
                                 POSITION_UNDECIDED, second_jet)
    lp = linear_part(x)
    cp = char_poly(lp)
    eigen = eigen_solve(cp)
    klass = _nilpotent_class(lp, cp)
    if klass is not None:
        rank = None
    else:
        zero_mult = eigen.zero_multiplicity()
        if zero_mult == 0:
            klass, rank = CLASS_ELEMENTARY, None
        else:
            klass, rank = CLASS_SADDLE_NODE, zero_mult
    if eigen.all_exact():
        values = eigen.exact_values()
        res = resonance_rank(values)
        pos = siegel_test(values)
    else:
        res, pos = UNDECIDED, POSITION_UNDECIDED
    return SingularityReport(klass, rank, eigen, res, pos, second_jet)
