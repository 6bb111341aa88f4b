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
from typing import Sequence

from .algebra import (
    _ONE,
    _ZERO,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    _poly,
    _reduced,
    _reduced_echelon,
    _scaled,
)
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
    exact :class:`GaussianRational` or a :class:`CertifiedRoot`, whose
    ``box`` is the float rectangle ``(re_lo, re_hi, im_lo, im_hi)`` of width
    at most ``1e-10`` (pairwise disjoint unless flagged clustered) that
    :meth:`to_json` prints as the interval's ``value``.
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
                    "value": list(v.box),
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
    """Exact monic characteristic polynomial det(t I - L) in the variable t.

    L is scaled to Gaussian integers over the lcm s of its denominators;
    the coefficient of ``t**(n-k)`` is ``(-1)**k * e_k / s**k``, where e_k
    is the k-th elementary symmetric function of the eigenvalues of ``s*L``
    (:func:`_symmetric_functions`), so no ``GaussianRational`` is
    multiplied.
    """
    n = lp.dim
    if n > 3:
        raise StructuralError("only dimensions up to 3 are supported")
    s, pairs = _scaled([c._abd for row in lp.entries for c in row])
    e = list(_symmetric_functions([pairs[i * n:i * n + n] for i in range(n)]))
    terms = {}
    for k in range(n, 0, -1):
        a, b = e[k - 1]
        if a or b:
            sign = -1 if k & 1 else 1
            terms[(n - k,)] = _reduced(sign * a, sign * b, s ** k)
    terms[(n,)] = _ONE
    return _poly((_T,), terms)


def _minor(a, b, c, d) -> tuple[int, int]:
    """``a*d - b*c`` for Gaussian integers held as ``(re, im)`` int pairs."""
    return (a[0] * d[0] - a[1] * d[1] - b[0] * c[0] + b[1] * c[1],
            a[0] * d[1] + a[1] * d[0] - b[0] * c[1] - b[1] * c[0])


def _symmetric_functions(m):
    """Yield e_1, ..., e_n of the eigenvalues of an n x n matrix ``m`` of
    Gaussian-integer ``(re, im)`` pairs, n <= 3, as such pairs: e_k is the
    sum of the principal k x k minors, so
    ``det(t I - m) = sum_k (-1)**k e_k t**(n-k)`` with ``e_0 = 1``."""
    n = len(m)
    yield tuple(map(sum, zip(*(m[i][i] for i in range(n)))))
    if n > 1:
        yield tuple(map(sum, zip(*(_minor(m[i][i], m[i][j], m[j][i], m[j][j])
                                   for i, j in itertools.combinations(range(n), 2)))))
    if n > 2:
        cofactors = [_minor(m[1][1], m[1][2], m[2][1], m[2][2]),
                     _minor(m[1][0], m[1][2], m[2][0], m[2][2]),
                     _minor(m[1][0], m[1][1], m[2][0], m[2][1])]
        det_re = det_im = 0
        for sign, (a, b), (c, d) in zip((1, -1, 1), m[0], cofactors):
            det_re += sign * (a * c - b * d)
            det_im += sign * (a * d + b * c)
        yield det_re, det_im


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

    Exact linear algebra over Q: n minus the rank of the two rows holding
    the real and the imaginary parts.  Certified (non-exact) eigenvalues
    yield 'undecided'.
    """
    vals = list(eigenvalues)
    if not all(isinstance(v, GaussianRational) for v in vals):
        return UNDECIDED
    _, pairs = _scaled([v._abd for v in vals])
    rows = [{j: (a, 0) for j, (a, _) in enumerate(pairs) if a},
            {j: (b, 0) for j, (_, b) in enumerate(pairs) if b}]
    return len(vals) - len(_reduced_echelon(rows))


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
    boundary case rather than folded into either side.  Any number of
    eigenvalues is decided.
    """
    vals = list(eigenvalues)
    if not all(isinstance(v, GaussianRational) for v in vals):
        return POSITION_UNDECIDED
    if any(v.is_zero() for v in vals):
        return POSITION_SIEGEL_BOUNDARY
    # the origin lies in the hull of some points iff it lies in the hull of
    # any positive multiples of them, so (a + b*i)/d enters as the ints (a, b)
    pts = [v._abd[:2] for v in vals]
    return POSITION_SIEGEL if _hull_contains_origin(pts) else POSITION_POINCARE


def _cross(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _segment_contains_origin(a, b) -> bool:
    if _cross(a, b) != 0:
        return False
    return _dot(a, b) <= 0  # origin between a and b (inclusive)


def _hull_contains_origin(pts) -> bool:
    """Whether the origin lies in the convex hull of the nonzero int points
    ``pts``, boundary included.  In the plane it does iff it lies in the
    hull of at most three of them (Caratheodory), and no single nonzero
    point holds it, so every pair and then every triple is tried."""
    for a, b in itertools.combinations(pts, 2):
        if _segment_contains_origin(a, b):
            return True
    for a, b, c in itertools.combinations(pts, 3):
        d = (_cross(a, b), _cross(b, c), _cross(c, a))
        # all zero: the three lie on one line through the origin, and the
        # pairs decided that line
        if any(d) and not (max(d) > 0 and min(d) < 0):
            return True
    return False


# ---------------------------------------------------------------------------
# Full classification
# ---------------------------------------------------------------------------

def second_jet_check(x: VectorField) -> bool:
    """True iff the order-2 jet of the field at the origin is nonzero."""
    return any(not p.jet_truncate(2).is_zero() for p in x.polys())


def _nilpotent_class(lp: LinearPart, cp: Poly) -> str | None:
    """The class of a linear part whose characteristic polynomial ``cp`` is
    ``t**n`` (nilpotent, or zero), else None."""
    if cp._abd != {(lp.dim,): _ONE}:
        return None
    return CLASS_ZERO_LINEAR if lp.is_zero() else CLASS_NILPOTENT


def is_nilpotent(x: VectorField) -> bool:
    """True iff ``x`` vanishes at the origin with a nonzero nilpotent linear
    part: the class :func:`classify_singularity` reports as nilpotent.  It
    runs :func:`_nilpotent_terms` on the term dicts of ``polys()``."""
    return x.is_holomorphic() and _nilpotent_terms([p._abd for p in x.polys()])


def _nilpotent_terms(comps: Sequence[dict]) -> bool:
    """:func:`is_nilpotent` of the polynomial field whose components are the
    term dicts ``comps`` of ``(a, b, d)`` triples.

    The degree-1 coefficients are scaled to Gaussian integers over the lcm
    of their denominators.  The linear part is nilpotent iff its
    characteristic polynomial is ``t**n``, that is iff every elementary
    symmetric function of its eigenvalues (:func:`_symmetric_functions`, as
    in :func:`char_poly`) is zero, and the test stops at the first nonzero
    one; no :class:`LinearPart`, characteristic polynomial or eigenvalue is
    built.
    """
    n = len(comps)
    origin = (0,) * n
    if any(origin in t for t in comps):
        return False
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    _, pairs = _scaled([t.get(e, _ZERO) for t in comps for e in units])
    if not any(a or b for a, b in pairs):
        return False
    m = [pairs[i * n:i * n + n] for i in range(n)]
    return not any(a or b for a, b in _symmetric_functions(m))


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
