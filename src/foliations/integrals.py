"""First-integral machinery.

Exact verification (``X . F == 0``), truncated formal solving (the exact
nullspace of ``F -> jet(X . F, N)`` over polynomials without constant
term), functional independence via ``dF ^ dG``, and the meromorphic
quotient of two first integrals sharing an irreducible factor, restricted
to that factor's zero set when the factor is a coordinate.

Formal solving uses the structure of the jet system: since X(0) = 0, the
image ``X . m`` of a degree-k monomial has order at least k, so the system
is block lower-triangular by degree.  Degree d eliminates only the block
whose rows are the degree-d monomials and whose columns are the degree-d
images of the new degree-d monomials followed by those of the order-(d-1)
solutions, instead of the whole order-d system.  A monomial's image has
few terms and a solution's image many; with the monomials first, the
pivots fall on the sparse columns where they can, and the nullspace
vectors combine fewer old solutions.

The solver runs on Gaussian integers, ``(re, im)`` pairs of ints.  It
scales X by the lcm L of its coefficient denominators (``L.X`` has the
first integrals of X) and builds one image table per call: for every
monomial of degree 1..N, its image under ``L.X`` through degree N, split by
degree.  Every monomial in the solver is one int, its packed key
``sum(e_i * B**(k-1-i))`` in base ``B = N + 1``: the table, the block
rows, the solution vectors and the canonical basis's columns are keyed by
it.  No monomial the solver stores has degree above N, so no exponent
reaches B, and a product of monomials whose degrees add up to at most N is
the sum of their keys, with no carry; ``d/dx_i`` subtracts the place value
``B**(k-1-i)``.  Exponent tuples come back only when the canonical basis is
built.  The block rows read the table, and a solution's image is the
combination of its monomials' images, formed through degree d+1 for an
order-d solution (its residual check in all degrees up to d, then the next
block).  Solutions are kept as primitive Gaussian-integer vectors, since
only their span matters; the canonical order-N basis is reduced to
canonical ``(a, b, d)`` coefficient triples once.  Each of its elements is
then checked again, independently of the table: ``X . F`` through degree N
is recomputed from X and F themselves by
:func:`~foliations.fields.directional_derivative`, which multiplies
Gaussian integers (X and F each scaled by the lcm of its own
denominators), and must vanish.

Factorizations are caller-supplied: multivariate polynomial factorization
is deliberately out of scope, and the quotient construction only needs the
factored shape.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .algebra import _ONE, GR_ONE, Poly, _poly, _reduced, _reduced_echelon
from .errors import NotApplicableError, StructuralError
from .fields import VectorField, directional_derivative

# highest jet order the formal solver accepts: the unknowns grow as the
# cube of the order in dimension 3
_MAX_JET_ORDER = 32


# ---------------------------------------------------------------------------
# Verification and independence
# ---------------------------------------------------------------------------

def verify_first_integral(x: VectorField, f: Poly) -> bool:
    """Exact test ``X . F == 0``."""
    return directional_derivative(x, f).is_zero()


def independence_check(f: Poly, g: Poly) -> bool:
    """True iff ``dF ^ dG`` is not identically zero (exact)."""
    if f.vars != g.vars:
        raise StructuralError("integrals live on different variable lists")
    names = f.vars
    for i, j in itertools.combinations(range(len(names)), 2):
        minor = (f.partial(names[i]) * g.partial(names[j])
                 - f.partial(names[j]) * g.partial(names[i]))
        if not minor.is_zero():
            return True
    return False


# ---------------------------------------------------------------------------
# Formal jet solving
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JetSolutionSpace:
    """Solutions of ``jet(X . F, N) == 0`` with ``1 <= deg F <= N``.

    ``basis`` is in reduced echelon form with respect to the canonical
    (graded lexicographic) monomial order, so the output is deterministic:
    each element is 1 at its lowest monomial, which no other element
    contains, and elements come highest lowest-monomial first.
    ``dims_by_degree[d-1]`` is the dimension of the order-d problem for
    d = 1..N; the listed prefix is independent of N.  The solver extends
    the order-(d-1) basis by degree-d terms with one block elimination per
    degree over Gaussian integers, reading the images of monomials from one
    table per call, and brings only the order-N basis to canonical form,
    the only step that forms coefficient triples over a denominator or
    exponent tuples.  Until then a monomial is its packed key, one int with
    one base ``N + 1`` digit per exponent: a monomial of degree at most N
    has no exponent above N.
    """

    degree: int
    basis: tuple[Poly, ...]
    dims_by_degree: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "dimension": self.dimension,
            "dims_by_degree": list(self.dims_by_degree),
            "basis": [f.render() for f in self.basis],
        }


@functools.cache
def _monomials(k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples in ``k`` variables of total degree ``d``, ascending."""
    if k == 1:
        return ((d,),)
    return tuple((a,) + rest for a in range(d + 1) for rest in _monomials(k - 1, d - a))


def _places(k: int, n: int) -> tuple[int, ...]:
    """Place values ``B**(k-1-i)`` of the packed keys for order ``n``, with
    base ``B = n + 1``: no exponent of a monomial of degree at most n
    exceeds n, so a sum of such keys whose monomials' degrees add up to at
    most n carries no digit."""
    return tuple((n + 1) ** (k - 1 - i) for i in range(k))


def _pack(e, places) -> int:
    return sum(map(operator.mul, e, places))


@functools.cache
def _packed_monomials(k: int, n: int, d: int) -> tuple[int, ...]:
    """The packed keys of ``_monomials(k, d)`` for order ``n``, in that order."""
    places = _places(k, n)
    return tuple(_pack(m, places) for m in _monomials(k, d))


def _nullspace(rows, ncols):
    """Nullspace basis of a sparse Gaussian-integer matrix, one vector (a
    dict from column index to a Gaussian integer ``(re, im)``) per non-pivot
    column; each vector is the exact one scaled to Gaussian integers."""
    reduced = _reduced_echelon(rows)
    pivots = {c for c, _, _ in reduced}
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        hits = [(c, den, row[free]) for c, den, row in reduced if free in row]
        scale = math.lcm(*(den for _, den, _ in hits))
        vec = {free: (scale, 0)}
        for c, den, (a, b) in hits:
            m = scale // den
            vec[c] = (-m * a, -m * b)
        basis.append(vec)
    return basis


def _add_scaled(out: dict, terms: dict, fa: int, fb: int) -> None:
    """``out += (fa + fb*i) * terms`` over Gaussian-integer ``(re, im)`` values."""
    for e, (a, b) in terms.items():
        x, y = out.get(e, (0, 0))
        out[e] = (x + fa * a - fb * b, y + fa * b + fb * a)


def _image_table(x: VectorField, n: int) -> dict:
    """``(L.X) . m`` for every monomial m of degree 1..n, as a map from the
    packed key of m to ``{degree: {packed key: (re, im)}}`` holding degrees
    up to n, where L is the lcm of the coefficient denominators of X, so
    every value is a Gaussian integer.  A term's key is the sum of the keys
    of a component term and of ``m / x_i``; the place value of ``x_i`` is
    subtracted from m's key for ``d/dx_i``."""
    _, comps = x._integer_terms
    k = len(comps)
    places = _places(k, n)
    comps = [[(da, _pack(ea, places), ca, cb) for da, ea, ca, cb in comp] for comp in comps]
    table = {}
    for d in range(1, n + 1):
        for m, key in zip(_monomials(k, d), _packed_monomials(k, n, d)):
            image: dict = {}
            for p, place, comp in zip(m, places, comps):
                if not p:
                    continue
                base = key - place
                # components in ascending degree: stop past degree n
                for da, ea, ca, cb in comp:
                    if d - 1 + da > n:
                        break
                    part = image.setdefault(d - 1 + da, {})
                    e = ea + base
                    a, b = part.get(e, (0, 0))
                    part[e] = (a + p * ca, b + p * cb)
            table[key] = {deg: {e: v for e, v in part.items() if v != (0, 0)}
                          for deg, part in sorted(image.items())}
    return table


def _image(table: dict, f: dict, top: int) -> dict:
    """``(L.X) . f`` for a Gaussian-integer polynomial ``f``, as a map from
    degree to its nonzero terms, for degrees up to ``top``."""
    out: dict = {}
    for m, (fa, fb) in f.items():
        for deg, part in table[m].items():
            if deg > top:
                break
            _add_scaled(out.setdefault(deg, {}), part, fa, fb)
    return {deg: nonzero for deg, part in out.items()
            if (nonzero := {e: v for e, v in part.items() if v != (0, 0)})}


def _canonical_basis(names, n: int, basis: list[dict]) -> list[Poly]:
    """The unique reduced echelon basis of the span of ``basis``, whose
    polynomials are keyed by packed monomials: reduced in ascending grlex
    column order, the row with the highest pivot monomial first."""
    k = len(names)
    order = [e for d in range(1, n + 1) for e in _monomials(k, d)]
    col_of = {key: j for j, key in enumerate(
        itertools.chain.from_iterable(_packed_monomials(k, n, d) for d in range(1, n + 1)))}
    reduced = _reduced_echelon([{col_of[e]: v for e, v in f.items()} for f in basis])
    return [_poly(names, {order[j]: _reduced(a, b, den) for j, (a, b) in row.items()})
            for _, den, row in reversed(reduced)]


def formal_first_integral(x: VectorField, n: int = 8) -> JetSolutionSpace:
    """Exact truncated first-integral solution space at order ``n``.

    Solves ``jet(X . F, n) == 0`` over polynomials of degree 1..n with zero
    constant term, one degree at a time: the order-d solutions are exactly
    ``G + H`` with G an order-(d-1) solution and H homogeneous of degree d
    whose degree-d parts of ``X . G + X . H`` cancel.  At every degree,
    every new basis element's residual is checked to vanish in all degrees
    up to d; each element of the canonical order-n basis is checked again
    with :func:`~foliations.fields.directional_derivative` through degree
    n, exactly and independently of the solver's image table.  Orders from
    2 to 32 are accepted.
    """
    if not x.is_holomorphic():
        raise NotApplicableError("formal solving needs a holomorphic field")
    if not x.vanishes_at_origin():
        raise NotApplicableError("formal solving needs a singular germ")
    if n < 2:
        raise StructuralError("jet order must be at least 2")
    if n > _MAX_JET_ORDER:
        raise StructuralError(f"jet order must be at most {_MAX_JET_ORDER}")
    names = x.chart.var_names
    table = _image_table(x, n)
    dims = []
    basis: list[dict] = []  # order-(d-1) solutions, Gaussian-integer terms
    tops: list[dict] = []   # degree-d terms of (L.X) . f for f in basis
    for d in range(1, n + 1):
        degree_d = _packed_monomials(len(names), n, d)
        row_of = {e: i for i, e in enumerate(degree_d)}
        rows = [{} for _ in degree_d]
        # X(0) = 0, so (L.X) . m has order >= d for a degree-d monomial m
        for j, image in enumerate([table[m].get(d, {}) for m in degree_d] + tops):
            for e, v in image.items():
                rows[row_of[e]][j] = v
        new = len(degree_d)
        solutions = []
        for vec in _nullspace(rows, new + len(basis)):
            terms: dict = {}
            for j, (a, b) in vec.items():
                if j < new:
                    terms[degree_d[j]] = (a, b)
                else:
                    _add_scaled(terms, basis[j - new], a, b)
            terms = {e: v for e, v in terms.items() if v != (0, 0)}
            g = math.gcd(*itertools.chain.from_iterable(terms.values()))
            solutions.append({e: (a // g, b // g) for e, (a, b) in terms.items()})
        basis = solutions
        # degree <= d+1 is all that is read: the residual check, then the
        # degree-(d+1) rows of the next block
        tops = []
        for f in basis:
            image = _image(table, f, d + 1)
            if any(deg <= d for deg in image):
                raise StructuralError("nullspace element failed residual check")
            tops.append(image.get(d + 1, {}))
        dims.append(len(basis))
    canonical = _canonical_basis(names, n, basis)
    for f in canonical:
        if not directional_derivative(x, f, n).is_zero():
            raise StructuralError("nullspace element failed residual check")
    return JetSolutionSpace(n, tuple(canonical), tuple(dims))


# ---------------------------------------------------------------------------
# Meromorphic quotients of first integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactoredFunction:
    """A product of caller-supplied irreducible factors with multiplicities."""

    factors: tuple[tuple[Poly, int], ...]

    @staticmethod
    def make(factors) -> "FactoredFunction":
        out = []
        for f, m in factors:
            if m < 1:
                raise StructuralError("factor exponents must be positive")
            if f.is_zero():
                raise StructuralError("zero factor")
            out.append((f, m))
        return FactoredFunction(tuple(out))


@dataclass(frozen=True)
class QuotientResult:
    """Numerator/denominator of ``F**n1 / G**m1`` after cancelling the shared
    factor, with the optional restriction to the factor's zero set."""

    power_num: int
    power_den: int
    numerator: Poly
    denominator: Poly
    restricted: tuple[Poly, Poly] | None


def meromorphic_quotient(f: FactoredFunction, g: FactoredFunction) -> QuotientResult:
    """Cancel the shared irreducible factor between two first integrals.

    The shared factor is the first of each factorization; the minimal
    powers ``n1, m1`` with ``n1 * mult_F == m1 * mult_G`` are used, so the
    shared factor disappears from ``F**n1 / G**m1`` entirely.  When the
    shared factor is a single coordinate, the restriction of numerator and
    denominator to its zero set is included.  An empty factorization, or
    first factors that differ, raise :class:`NotApplicableError`.
    """
    if not (f.factors and g.factors):
        raise NotApplicableError("empty factorization: no first factor to share")
    (f_fac, f_mult), (g_fac, g_mult) = f.factors[0], g.factors[0]
    if f_fac != g_fac:
        raise NotApplicableError("first factors are not equal")
    gcd = math.gcd(f_mult, g_mult)
    n1 = g_mult // gcd
    m1 = f_mult // gcd
    num = Poly.constant(f_fac.vars, GR_ONE)
    for fac, mult in f.factors[1:]:
        num = num * fac ** (mult * n1)
    den = Poly.constant(g_fac.vars, GR_ONE)
    for fac, mult in g.factors[1:]:
        den = den * fac ** (mult * m1)
    restricted = None
    coord = _as_coordinate(f_fac)
    if coord is not None:
        restricted = (num.restrict(coord, 0), den.restrict(coord, 0))
    return QuotientResult(n1, m1, num, den, restricted)


def _as_coordinate(p: Poly) -> str | None:
    if len(p._abd) != 1:
        return None
    (exps, coeff), = p._abd.items()
    if coeff != _ONE or sum(exps) != 1:
        return None
    return p.vars[exps.index(1)]
