"""Complex rectangle interval arithmetic and certified polynomial roots.

Rectangles ``[re_lo, re_hi] x [im_lo, im_hi]`` with outward-rounded float
endpoints.  The only consumer-facing entry point is
:func:`certified_roots`, which isolates all complex roots of an exact
univariate polynomial over Q(i): exact Gaussian-rational roots are split off
by divisor search, the square-free part of the remainder is computed by
exact Euclidean gcd, and each remaining simple root is certified by an
interval Newton contraction seeded from floating-point approximations and
refined below a requested width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import GR_ONE, GR_ZERO, GaussianRational
from .errors import DegenerateInputError

_UP = math.inf
_DOWN = -math.inf


def _lo(x: float) -> float:
    return math.nextafter(x, _DOWN)


def _hi(x: float) -> float:
    return math.nextafter(x, _UP)


@dataclass(frozen=True)
class Interval:
    """Closed real interval with float endpoints."""

    lo: float
    hi: float

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def of_fraction(q: Fraction) -> "Interval":
        x = float(q)
        lo, hi = x, x
        if Fraction(x) > q:
            lo = _lo(x)
        elif Fraction(x) < q:
            hi = _hi(x)
        return Interval(lo, hi)

    def __add__(self, o: "Interval") -> "Interval":
        return Interval(_lo(self.lo + o.lo), _hi(self.hi + o.hi))

    def __sub__(self, o: "Interval") -> "Interval":
        return Interval(_lo(self.lo - o.hi), _hi(self.hi - o.lo))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, o: "Interval") -> "Interval":
        prods = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_lo(min(prods)), _hi(max(prods)))

    def square(self) -> "Interval":
        if self.lo >= 0:
            return Interval(_lo(self.lo * self.lo), _hi(self.hi * self.hi))
        if self.hi <= 0:
            return Interval(_lo(self.hi * self.hi), _hi(self.lo * self.lo))
        m = max(-self.lo, self.hi)
        return Interval(0.0, _hi(m * m))

    def inv(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return Interval(_lo(1.0 / self.hi), _hi(1.0 / self.lo))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def subset(self, o: "Interval") -> bool:
        return o.lo <= self.lo and self.hi <= o.hi

    def strict_subset(self, o: "Interval") -> bool:
        return o.lo < self.lo and self.hi < o.hi

    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def width(self) -> float:
        return self.hi - self.lo

    def intersect(self, o: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, o.lo), min(self.hi, o.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)


@dataclass(frozen=True)
class ComplexInterval:
    """Axis-aligned rectangle in the complex plane."""

    re: Interval
    im: Interval

    @staticmethod
    def point(z: complex) -> "ComplexInterval":
        return ComplexInterval(Interval.point(z.real), Interval.point(z.imag))

    @staticmethod
    def of_gaussian(g: GaussianRational) -> "ComplexInterval":
        return ComplexInterval(Interval.of_fraction(g.re), Interval.of_fraction(g.im))

    @staticmethod
    def box(center: complex, radius: float) -> "ComplexInterval":
        return ComplexInterval(
            Interval(center.real - radius, center.real + radius),
            Interval(center.imag - radius, center.imag + radius),
        )

    def __add__(self, o: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    def contains_zero(self) -> bool:
        return self.re.straddles_zero() and self.im.straddles_zero()

    def inv(self) -> "ComplexInterval":
        # 1/w = conj(w) / |w|^2; requires 0 outside the rectangle
        d = self.re.square() + self.im.square()
        inv_d = d.inv()
        return ComplexInterval(self.re * inv_d, (-self.im) * inv_d)

    def contains(self, z: complex) -> bool:
        return self.re.contains(z.real) and self.im.contains(z.imag)

    def subset(self, o: "ComplexInterval") -> bool:
        return self.re.subset(o.re) and self.im.subset(o.im)

    def strict_subset(self, o: "ComplexInterval") -> bool:
        return self.re.strict_subset(o.re) and self.im.strict_subset(o.im)

    def intersect(self, o: "ComplexInterval") -> "ComplexInterval | None":
        re = self.re.intersect(o.re)
        im = self.im.intersect(o.im)
        if re is None or im is None:
            return None
        return ComplexInterval(re, im)

    def mid(self) -> complex:
        return complex(self.re.mid(), self.im.mid())

    def width(self) -> float:
        return max(self.re.width(), self.im.width())

    def overlaps(self, o: "ComplexInterval") -> bool:
        return self.intersect(o) is not None

    def bounds(self) -> tuple[float, float, float, float]:
        """Serialization order: [re_lo, re_hi, im_lo, im_hi]."""
        return (self.re.lo, self.re.hi, self.im.lo, self.im.hi)


# ---------------------------------------------------------------------------
# Exact univariate helpers (coefficients over Q(i), dense low-to-high lists)
# ---------------------------------------------------------------------------

def poly_degree(c: list[GaussianRational]) -> int:
    d = len(c) - 1
    while d >= 0 and c[d].is_zero():
        d -= 1
    return d


def poly_trim(c: list[GaussianRational]) -> list[GaussianRational]:
    d = poly_degree(c)
    return c[: d + 1] if d >= 0 else [GR_ZERO]

def poly_eval(c: list[GaussianRational], x: GaussianRational) -> GaussianRational:
    out = GR_ZERO
    for coeff in reversed(c):
        out = out * x + coeff
    return out


def poly_derivative(c: list[GaussianRational]) -> list[GaussianRational]:
    if len(c) <= 1:
        return [GR_ZERO]
    return [ck * GaussianRational.of(k) for k, ck in enumerate(c) if k >= 1]


def poly_monic(c: list[GaussianRational]) -> list[GaussianRational]:
    c = poly_trim(c)
    lead = c[-1]
    if lead.is_zero():
        raise DegenerateInputError("zero polynomial has no monic form")
    return [ck / lead for ck in c]


def poly_divmod(a: list[GaussianRational], b: list[GaussianRational]):
    """Exact division with remainder over the field Q(i)."""
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if poly_degree(b) < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [GR_ZERO] * max(0, len(a) - len(b) + 1)
    r = list(a)
    db = poly_degree(b)
    while poly_degree(r) >= db:
        dr = poly_degree(r)
        coeff = r[dr] / b[db]
        q[dr - db] = coeff
        for k in range(db + 1):
            r[dr - db + k] = r[dr - db + k] - coeff * b[k]
    return poly_trim(q), poly_trim(r)


def poly_gcd(a: list[GaussianRational], b: list[GaussianRational]) -> list[GaussianRational]:
    """Monic gcd over Q(i) by the Euclidean algorithm."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while poly_degree(b) >= 0:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if poly_degree(a) < 0:
        return [GR_ZERO]
    return poly_monic(a)


def deflate(c: list[GaussianRational], root: GaussianRational) -> list[GaussianRational]:
    """Divide exactly by (t - root); the root must be exact."""
    q, r = poly_divmod(c, [-root, GR_ONE])
    if poly_degree(r) >= 0:
        raise DegenerateInputError("claimed root does not divide polynomial")
    return q


# ---------------------------------------------------------------------------
# Gaussian-rational root search (divisor enumeration)
# ---------------------------------------------------------------------------

_DIVISOR_NORM_CAP = 4_000_000


def _gaussian_integer_divisors(a: int, b: int) -> list[tuple[int, int]]:
    """All Gaussian-integer divisors of the nonzero Gaussian integer a+bi."""
    norm = a * a + b * b
    out = []
    bound = int(math.isqrt(norm))
    for m in range(0, bound + 1):
        for n in range(-bound, bound + 1):
            nd = m * m + n * n
            if nd == 0 or nd > norm or norm % nd:
                continue
            # exact divisibility of a+bi by m+ni
            re_num = a * m + b * n
            im_num = b * m - a * n
            if re_num % nd == 0 and im_num % nd == 0:
                out.append((m, n))
                out.append((-m, -n))
    return out


def _recognized_candidates(c: list[GaussianRational],
                           denominator_cap: int = 10 ** 6) -> list[GaussianRational]:
    """Gaussian-rational candidates recognized from floating approximations."""
    coeffs = [k.to_complex() for k in reversed(c)]
    try:
        approx = np.roots(coeffs)
    except Exception:  # pragma: no cover - degenerate float input
        return []
    out = []
    for z in approx:
        re = Fraction(z.real).limit_denominator(denominator_cap)
        im = Fraction(z.imag).limit_denominator(denominator_cap)
        out.append(GaussianRational(re, im))
    return out


def gaussian_rational_roots(c: list[GaussianRational]) -> list[GaussianRational]:
    """All roots of the polynomial lying in Q(i), with multiplicity.

    Candidates come from two sources: exact rational recognition of floating
    approximations (always attempted, verified by exact evaluation), and the
    classical divisor search on trailing/leading coefficients after clearing
    denominators (skipped when the coefficient norms are too large for
    enumeration -- the recognition pass covers those in practice).  Every
    reported root is verified exactly and deflated; a linear remainder
    ``c0 + c1*t`` gives its root ``-c0/c1`` exactly, with no search.
    """
    c = poly_trim(list(c))
    roots: list[GaussianRational] = []
    while poly_degree(c) > 0:
        if c[0].is_zero():
            roots.append(GR_ZERO)
            c = poly_trim(c[1:])
            continue
        if poly_degree(c) == 1:
            roots.append(-c[0] / c[1])
            break
        found = None
        for cand in _recognized_candidates(c):
            if poly_eval(c, cand).is_zero():
                found = cand
                break
        if found is None:
            # clear denominators -> Gaussian integer coefficients
            scale = math.lcm(*(ck._abd[2] for ck in c))
            ints = [ck * GaussianRational.of(scale) for ck in c]
            lead, tail = ints[-1], ints[0]
            if max(lead.norm2(), tail.norm2()) <= _DIVISOR_NORM_CAP:
                tail_divs = _gaussian_integer_divisors(int(tail.re), int(tail.im))
                lead_divs = _gaussian_integer_divisors(int(lead.re), int(lead.im))
                seen: set[GaussianRational] = set()
                for p, q in ((p, q) for p in tail_divs for q in lead_divs):
                    cand = GaussianRational(*p) / GaussianRational(*q)
                    if cand in seen:
                        continue
                    seen.add(cand)
                    if poly_eval(c, cand).is_zero():
                        found = cand
                        break
        if found is None:
            break
        roots.append(found)
        c = deflate(c, found)
    return roots


# ---------------------------------------------------------------------------
# Certified interval roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedRoot:
    """A rectangle certified to contain exactly one root (of the sqfree part)."""

    box: ComplexInterval
    multiplicity: int
    clustered: bool = False


def _interval_eval(coeffs: list[ComplexInterval], x: ComplexInterval) -> ComplexInterval:
    out = ComplexInterval.point(0j)
    for ck in reversed(coeffs):
        out = out * x + ck
    return out


def _newton_certify(coeffs, dcoeffs, seed: complex, radius: float,
                    width: float) -> ComplexInterval | None:
    """Interval Newton: certify and refine a unique simple root near ``seed``."""
    box = ComplexInterval.box(seed, radius)
    certified = False
    for _ in range(80):
        mid = box.mid()
        try:
            dp = _interval_eval(dcoeffs, box)
            step = _interval_eval(coeffs, ComplexInterval.point(mid)) * dp.inv()
        except ZeroDivisionError:
            return None
        newton = ComplexInterval.point(mid) - step
        if newton.strict_subset(box):
            certified = True
        nxt = newton.intersect(box)
        if nxt is None:
            return None
        if certified and nxt.width() <= width:
            return nxt
        box = nxt
    return box if certified and box.width() <= width else None


def certified_roots(c: list[GaussianRational], width: float = 1e-10):
    """All complex roots of an exact polynomial, with multiplicities.

    Returns ``(exact, intervals)`` where ``exact`` is a list of
    ``(GaussianRational, multiplicity)`` and ``intervals`` a list of
    :class:`CertifiedRoot` for the non-Q(i) roots.  Multiplicities are exact
    (derived from repeated gcd with the derivative); the rectangles certify
    containment and uniqueness via an interval Newton contraction and are
    pairwise disjoint unless flagged clustered.
    """
    c = poly_trim(list(c))
    d = poly_degree(c)
    if d < 0:
        raise DegenerateInputError("zero polynomial has every point as a root")
    if d == 0:
        return [], []
    # exact roots first
    exact_list = gaussian_rational_roots(c)
    exact: dict[tuple[Fraction, Fraction], tuple[GaussianRational, int]] = {}
    work = c
    for r in exact_list:
        key = (r.re, r.im)
        prev = exact.get(key)
        exact[key] = (r, (prev[1] if prev else 0) + 1)
        work = deflate(work, r)
    out_exact = [exact[k] for k in sorted(exact)]
    if poly_degree(work) <= 0:
        return out_exact, []
    # multiplicity structure of the remainder via square-free decomposition
    remaining: list[tuple[list[GaussianRational], int]] = []
    p = poly_monic(work)
    mult = 1
    while poly_degree(p) > 0:
        g = poly_gcd(p, poly_derivative(p))
        sqfree, _ = poly_divmod(p, g)
        # roots of sqfree that are not roots of g have multiplicity == mult
        part, _ = poly_divmod(sqfree, poly_gcd(sqfree, g))
        if poly_degree(part) > 0:
            remaining.append((part, mult))
        p = g
        mult += 1
    intervals: list[CertifiedRoot] = []
    for part, m in remaining:
        dd = poly_degree(part)
        approx = np.roots([p_.to_complex() for p_ in reversed(part)])
        coeffs_iv = [ComplexInterval.of_gaussian(p_) for p_ in part]
        dcoeffs_iv = [ComplexInterval.of_gaussian(p_) for p_ in poly_derivative(part)]
        boxes: list[ComplexInterval] = []
        for z in sorted(approx, key=lambda w: (w.real, w.imag)):
            box = None
            for radius in (1e-7, 1e-5, 1e-3, 1e-2, 1e-1):
                box = _newton_certify(coeffs_iv, dcoeffs_iv, complex(z), radius, width)
                if box is not None:
                    break
            if box is None:
                # certification failed: report a coarse box, flagged clustered
                intervals.append(CertifiedRoot(
                    ComplexInterval.box(complex(z), 1e-6), m, clustered=True))
            else:
                boxes.append(box)
        clustered = any(
            boxes[i].overlaps(boxes[j])
            for i in range(len(boxes)) for j in range(i + 1, len(boxes)))
        for box in boxes:
            intervals.append(CertifiedRoot(box, m, clustered=clustered))
        if dd != len(approx):  # pragma: no cover - numpy contract
            raise DegenerateInputError("root count mismatch")
    return out_exact, intervals
