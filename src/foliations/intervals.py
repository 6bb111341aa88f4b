"""Complex rectangle interval arithmetic and certified polynomial roots.

Rectangles ``[re_lo, re_hi] x [im_lo, im_hi]`` with outward-rounded float
endpoints.  The one root pipeline is :func:`certified_roots`, which finds
all complex roots of an exact univariate polynomial over Q(i): every root
in Q(i) exactly, and each other root in an interval Newton rectangle.

Exactness rests on one fact: once denominators are cleared, f lies in
Z[i][t] with some leading coefficient a, and a*r lies in Z[i] for every
Q(i) root r.  So a root is found by locating a*r in Z[i], never by
enumerating divisors.  p-adic lifting does this on each square-free part
without floats: every Q(i) root lifts from a root modulo a prime, and that
lift leaves a single Gaussian-integer candidate, checked exactly.  The
search is complete, with no cap, and also covers roots that float
arithmetic cannot separate or certify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import GR_ONE, GR_ZERO, GaussianRational
from .errors import DegenerateInputError, EvaluationOverflowError

_UP = math.inf
_DOWN = -math.inf
_TOO_LARGE = "coefficient too large for a floating-point root certification"


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
        try:
            x = float(q)
        except OverflowError:
            raise EvaluationOverflowError(_TOO_LARGE) from None
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
    r = poly_trim(list(a))
    b = poly_trim(list(b))
    db = len(b) - 1
    if b[db].is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [GR_ZERO] * max(0, len(r) - db)
    for dr in range(len(r) - 1, db - 1, -1):
        if r[dr].is_zero():
            continue
        coeff = q[dr - db] = r[dr] / b[db]
        for k in range(db):
            r[dr - db + k] = r[dr - db + k] - coeff * b[k]
        r[dr] = GR_ZERO
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
# Exact Q(i) roots: p-adic lifting onto Z[i]
# ---------------------------------------------------------------------------

def _round(z: GaussianRational) -> GaussianRational:
    """The Gaussian integer nearest to ``z``."""
    a, b, d = z._abd
    return GaussianRational((2 * a + d) // (2 * d), (2 * b + d) // (2 * d))


def _eval_mod(h: list[int], x: int, m: int) -> int:
    out = 0
    for c in reversed(h):
        out = (out * x + c) % m
    return out


def _squarefree_mod(h: list[int], p: int) -> bool:
    """Whether the monic ``h`` has no repeated factor mod p: gcd(h, h') = 1."""
    a, b = h, [k * c % p for k, c in enumerate(h)][1:]
    while any(b):
        while not b[-1]:
            b.pop()
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, off = a[-1] * inv % p, len(a) - len(b)
            a = a[:off] + [(x - q * y) % p for x, y in zip(a[off:-1], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _hensel(h: list[int], x: int, m: int) -> int:
    """Lift a root x of ``h`` mod p, simple mod p, to a root mod m = p**k."""
    dh = [k * c for k, c in enumerate(h)][1:]
    while (v := _eval_mod(h, x, m)):
        x = (x - v * pow(_eval_mod(dh, x, m), -1, m)) % m
    return x


def _qi_roots(part: list[GaussianRational]) -> list[GaussianRational]:
    """Every root in Q(i) of the monic square-free ``part``.

    With D the lcm of the denominators, D*r runs over the Gaussian-integer
    roots g of the monic G(s) = D**n part(s/D) in Z[i][s].  Cauchy's bound
    |r| <= 1 + max |c_j| gives 4|g|**2 < L = 8 D**2 (1 + max |c_j|**2).
    Take a prime p = 1 (mod 4) modulo which G is square-free, and
    M = p**k > L.  Only a prime dividing the norm of the discriminant of G
    fails, and each is rejected after a gcd mod p, so the primes tried cost
    work polynomial in the input size.  Sending i to a square root iota of
    -1 maps Z[i] onto Z/M with kernel pi**k, pi = gcd(p, iota - i).  Each
    root of G mod p lifts to one root mod M (Hensel), and the element of
    Z[i] nearest 0 that maps to it is the only candidate for g; it is kept
    when part(g/D) == 0.
    """
    n = poly_degree(part)
    if n == 1:
        return [-part[0]]
    d = math.lcm(*(c._abd[2] for c in part))
    g = [(c * GaussianRational.of(d ** (n - j)))._abd for j, c in enumerate(part)]
    limit = 8 * d * d * (1 + max(c.norm2() for c in part))
    p = 1
    while True:
        p += 4
        if any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        w = next(x for x in range(2, p) if pow(x, p // 2, p) == p - 1)
        iota = pow(w, p // 4, p)  # a square root of -1 mod p
        gp = [(a + iota * b) % p for a, b, _ in g]
        if _squarefree_mod(gp, p):
            break
    roots = [x for x in range(p) if _eval_mod(gp, x, p) == 0]
    if not roots:
        return []
    pi, q = GaussianRational.of(p), GaussianRational(iota, -1)
    while not q.is_zero():
        pi, q = q, pi - _round(pi / q) * q
    m, k = p, 1
    while m <= limit:
        m, k = m * p, k + 1
    iota = _hensel([1, 0, 1], iota, m)
    gm = [(a + iota * b) % m for a, b, _ in g]
    pik = pi ** k
    out = []
    for x in roots:
        z = GaussianRational.of(_hensel(gm, x, m))
        r = (z - _round(z / pik) * pik) / GaussianRational.of(d)
        if poly_eval(part, r).is_zero():
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# Certified interval roots
# ---------------------------------------------------------------------------

_WIDTH = 1e-10  # every certified rectangle is refined to at most this width


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


def _newton_certify(coeffs, dcoeffs, seed: complex, radius: float) -> ComplexInterval | None:
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
        if certified and nxt.width() <= _WIDTH:
            return nxt
        box = nxt
    return None


def _square_free_parts(c: list[GaussianRational]) -> list[tuple[list[GaussianRational], int]]:
    """``(part, m)`` pairs: each part monic, holding the roots of multiplicity m."""
    parts = []
    p = poly_monic(c)
    mult = 1
    while poly_degree(p) > 0:
        g = poly_gcd(p, poly_derivative(p))
        if poly_degree(g) == 0:  # p is square-free
            parts.append((p, mult))
            break
        sqfree, _ = poly_divmod(p, g)
        # roots of sqfree that are not roots of g have multiplicity == mult
        part, _ = poly_divmod(sqfree, poly_gcd(sqfree, g))
        if poly_degree(part) > 0:
            parts.append((part, mult))
        p = g
        mult += 1
    return parts


def _certify(part: list[GaussianRational], m: int) -> list[CertifiedRoot]:
    """Certified rectangles for the roots of the square-free ``part``."""
    # NumPy is imported at its one use, so a root-find with every root in
    # Q(i) never loads it
    import numpy as np

    intervals: list[CertifiedRoot] = []
    try:
        seeds = [p_.to_complex() for p_ in reversed(part)]
    except OverflowError:
        raise EvaluationOverflowError(_TOO_LARGE) from None
    approx = np.roots(seeds)
    coeffs_iv = [ComplexInterval.of_gaussian(p_) for p_ in part]
    dcoeffs_iv = [ComplexInterval.of_gaussian(p_) for p_ in poly_derivative(part)]
    boxes: list[ComplexInterval] = []
    for z in sorted(approx, key=lambda w: (w.real, w.imag)):
        box = None
        for radius in (1e-7, 1e-5, 1e-3, 1e-2, 1e-1):
            box = _newton_certify(coeffs_iv, dcoeffs_iv, complex(z), radius)
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
    if poly_degree(part) != len(approx):  # pragma: no cover - numpy contract
        raise DegenerateInputError("root count mismatch")
    return intervals


def certified_roots(c: list[GaussianRational]):
    """All complex roots of an exact polynomial, with multiplicities.

    Returns ``(exact, intervals)``: ``exact`` lists every root in Q(i) as
    ``(GaussianRational, multiplicity)``, sorted by (re, im), and
    ``intervals`` holds a :class:`CertifiedRoot` for each other root.
    A factor t**k is split off first (in a resolution it is the common
    case, and the exact gcds below cost more than the rest).  The quotient
    is split into square-free parts by repeated gcd with the derivative,
    each holding the roots of one multiplicity; the Q(i) roots of a part
    are found by :func:`_qi_roots` and divided out, and the rest are
    certified from ``np.roots`` seeds by interval Newton rectangles of width
    at most 1e-10, pairwise disjoint unless flagged clustered.  No float
    decides exactness, so ``exact`` is complete: no rectangle, flagged
    clustered or not, holds a root in Q(i).
    """
    c = poly_trim(list(c))
    if poly_degree(c) < 0:
        raise DegenerateInputError("zero polynomial has every point as a root")
    exact: list[GaussianRational] = []  # each root repeated by multiplicity
    intervals: list[CertifiedRoot] = []
    while poly_degree(c) > 0 and c[0].is_zero():
        exact.append(GR_ZERO)
        c = c[1:]
    for part, m in _square_free_parts(c):
        for r in _qi_roots(part):
            exact += [r] * m
            part = deflate(part, r)
        if poly_degree(part) > 0:
            intervals += _certify(part, m)
    exact.sort(key=GaussianRational.sort_key)
    return [(r, len(list(g))) for r, g in itertools.groupby(exact)], intervals

