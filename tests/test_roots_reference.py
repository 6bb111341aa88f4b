"""Bit identity of ``certified_roots`` against its GaussianRational form.

``reference_roots`` is the root pipeline written on :class:`GaussianRational`
coefficient lists and on ``Interval``/``ComplexInterval`` operator objects,
kept here as the reference: every exact root and multiplicity, every
rectangle endpoint (as ``float.hex``), every ``multiplicity`` and
``clustered`` flag of the certified rectangles, their order, and every
raised error of ``intervals.certified_roots`` must equal it.  The inputs are
random polynomials over Q(i) of degree at most 4: planted exact roots with
multiplicities, factors without a root in Q(i), large denominators, powers
of ``t``, a random scalar, trailing zero coefficients and coefficients too
large for a float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliations import intervals
from foliations.algebra import GR_ONE, GR_ZERO, GaussianRational, gr
from foliations.errors import DegenerateInputError, EvaluationOverflowError

_TOO_LARGE = "coefficient too large for a floating-point root certification"


def _lo(x):
    return math.nextafter(x, -math.inf)


def _hi(x):
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    @staticmethod
    def of_fraction(q):
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

    def __add__(self, o):
        return Interval(_lo(self.lo + o.lo), _hi(self.hi + o.hi))

    def __sub__(self, o):
        return Interval(_lo(self.lo - o.hi), _hi(self.hi - o.lo))

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __mul__(self, o):
        prods = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_lo(min(prods)), _hi(max(prods)))

    def square(self):
        if self.lo >= 0:
            return Interval(_lo(self.lo * self.lo), _hi(self.hi * self.hi))
        if self.hi <= 0:
            return Interval(_lo(self.hi * self.hi), _hi(self.lo * self.lo))
        m = max(-self.lo, self.hi)
        return Interval(0.0, _hi(m * m))

    def inv(self):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return Interval(_lo(1.0 / self.hi), _hi(1.0 / self.lo))

    def intersect(self, o):
        lo, hi = max(self.lo, o.lo), min(self.hi, o.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)


@dataclass(frozen=True)
class ComplexInterval:
    re: Interval
    im: Interval

    @staticmethod
    def point(z):
        return ComplexInterval(Interval(z.real, z.real), Interval(z.imag, z.imag))

    @staticmethod
    def of_gaussian(g):
        return ComplexInterval(Interval.of_fraction(g.re), Interval.of_fraction(g.im))

    @staticmethod
    def box(center, radius):
        return ComplexInterval(
            Interval(center.real - radius, center.real + radius),
            Interval(center.imag - radius, center.imag + radius))

    def __add__(self, o):
        return ComplexInterval(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return ComplexInterval(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return ComplexInterval(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    def inv(self):
        inv_d = (self.re.square() + self.im.square()).inv()
        return ComplexInterval(self.re * inv_d, (-self.im) * inv_d)

    def strict_subset(self, o):
        return (o.re.lo < self.re.lo and self.re.hi < o.re.hi
                and o.im.lo < self.im.lo and self.im.hi < o.im.hi)

    def intersect(self, o):
        re, im = self.re.intersect(o.re), self.im.intersect(o.im)
        if re is None or im is None:
            return None
        return ComplexInterval(re, im)

    def mid(self):
        return complex(0.5 * (self.re.lo + self.re.hi), 0.5 * (self.im.lo + self.im.hi))

    def width(self):
        return max(self.re.hi - self.re.lo, self.im.hi - self.im.lo)


def degree(c):
    d = len(c) - 1
    while d >= 0 and c[d].is_zero():
        d -= 1
    return d


def trim(c):
    d = degree(c)
    return c[: d + 1] if d >= 0 else [GR_ZERO]


def evaluate(c, x):
    out = GR_ZERO
    for ck in reversed(c):
        out = out * x + ck
    return out


def derivative(c):
    if len(c) <= 1:
        return [GR_ZERO]
    return [ck * GaussianRational.of(k) for k, ck in enumerate(c) if k >= 1]


def monic(c):
    c = trim(c)
    if c[-1].is_zero():
        raise DegenerateInputError("zero polynomial has no monic form")
    return [ck / c[-1] for ck in c]


def divmod_(a, b):
    r, b = trim(list(a)), trim(list(b))
    db = len(b) - 1
    q = [GR_ZERO] * max(0, len(r) - db)
    for dr in range(len(r) - 1, db - 1, -1):
        if r[dr].is_zero():
            continue
        coeff = q[dr - db] = r[dr] / b[db]
        for k in range(db):
            r[dr - db + k] = r[dr - db + k] - coeff * b[k]
        r[dr] = GR_ZERO
    return trim(q), trim(r)


def gcd(a, b):
    a, b = trim(list(a)), trim(list(b))
    while degree(b) >= 0:
        a, b = b, divmod_(a, b)[1]
    if degree(a) < 0:
        return [GR_ZERO]
    return monic(a)


def deflate(c, root):
    q, r = divmod_(c, [-root, GR_ONE])
    assert degree(r) < 0
    return q


def _round(z):
    a, b, d = z._abd
    return GaussianRational((2 * a + d) // (2 * d), (2 * b + d) // (2 * d))


def _eval_mod(h, x, m):
    out = 0
    for c in reversed(h):
        out = (out * x + c) % m
    return out


def _squarefree_mod(h, p):
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


def _hensel(h, x, m):
    dh = [k * c for k, c in enumerate(h)][1:]
    while (v := _eval_mod(h, x, m)):
        x = (x - v * pow(_eval_mod(dh, x, m), -1, m)) % m
    return x


def qi_roots(part):
    n = degree(part)
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
        iota = pow(w, p // 4, p)
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
        if evaluate(part, r).is_zero():
            out.append(r)
    return out


def interval_eval(coeffs, x):
    out = ComplexInterval.point(0j)
    for ck in reversed(coeffs):
        out = out * x + ck
    return out


def newton_certify(coeffs, dcoeffs, seed, radius):
    box = ComplexInterval.box(seed, radius)
    certified = False
    for _ in range(80):
        mid = box.mid()
        try:
            dp = interval_eval(dcoeffs, box)
            step = interval_eval(coeffs, ComplexInterval.point(mid)) * dp.inv()
        except ZeroDivisionError:
            return None
        newton = ComplexInterval.point(mid) - step
        if newton.strict_subset(box):
            certified = True
        nxt = newton.intersect(box)
        if nxt is None:
            return None
        if certified and nxt.width() <= 1e-10:
            return nxt
        box = nxt
    return None


def square_free_parts(c):
    parts = []
    p = monic(c)
    mult = 1
    while degree(p) > 0:
        g = gcd(p, derivative(p))
        if degree(g) == 0:
            parts.append((p, mult))
            break
        sqfree, _ = divmod_(p, g)
        part, _ = divmod_(sqfree, gcd(sqfree, g))
        if degree(part) > 0:
            parts.append((part, mult))
        p = g
        mult += 1
    return parts


def _bounds(box):
    return box.re.lo, box.re.hi, box.im.lo, box.im.hi


def certify(part, m):
    """(bounds, multiplicity, clustered) per rectangle."""
    import numpy as np

    out = []
    try:
        seeds = [p_.to_complex() for p_ in reversed(part)]
    except OverflowError:
        raise EvaluationOverflowError(_TOO_LARGE) from None
    approx = np.roots(seeds)
    coeffs_iv = [ComplexInterval.of_gaussian(p_) for p_ in part]
    dcoeffs_iv = [ComplexInterval.of_gaussian(p_) for p_ in derivative(part)]
    boxes = []
    for z in sorted(approx, key=lambda w: (w.real, w.imag)):
        box = None
        for radius in (1e-7, 1e-5, 1e-3, 1e-2, 1e-1):
            box = newton_certify(coeffs_iv, dcoeffs_iv, complex(z), radius)
            if box is not None:
                break
        if box is None:
            out.append((_bounds(ComplexInterval.box(complex(z), 1e-6)), m, True))
        else:
            boxes.append(box)
    clustered = any(boxes[i].intersect(boxes[j]) is not None
                    for i in range(len(boxes)) for j in range(i + 1, len(boxes)))
    out += [(_bounds(box), m, clustered) for box in boxes]
    assert degree(part) == len(approx)
    return out


def reference_roots(c):
    """``(exact, rectangles)`` as ``certified_roots`` returns them, each
    rectangle as ``(bounds, multiplicity, clustered)``."""
    c = trim(list(c))
    if degree(c) < 0:
        raise DegenerateInputError("zero polynomial has every point as a root")
    exact = []
    rectangles = []
    while degree(c) > 0 and c[0].is_zero():
        exact.append(GR_ZERO)
        c = c[1:]
    for part, m in square_free_parts(c):
        for r in qi_roots(part):
            exact += [r] * m
            part = deflate(part, r)
        if degree(part) > 0:
            rectangles += certify(part, m)
    exact.sort(key=lambda z: (z.re, z.im))
    return [(r, len(list(g))) for r, g in itertools.groupby(exact)], rectangles


def certified_roots(c):
    """``intervals.certified_roots`` with each rectangle as ``reference_roots``
    gives it."""
    exact, rectangles = intervals.certified_roots(c)
    return exact, [(r.box, r.multiplicity, r.clustered) for r in rectangles]


def outcome(roots, c):
    """Exact roots, rectangles as hex bits with their flags, or the error."""
    try:
        exact, rectangles = roots(c)
    except (DegenerateInputError, EvaluationOverflowError) as exc:
        return type(exc), str(exc)
    return exact, [(tuple(x.hex() for x in bounds), m, clustered)
                   for bounds, m, clustered in rectangles]


def _mul(a, b):
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


small = st.integers(-6, 6)
fractions = st.one_of(
    st.builds(Fraction, small, st.integers(1, 4)),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12)))
gaussians = st.builds(GaussianRational, fractions, st.one_of(st.just(Fraction(0)), fractions))


@st.composite
def factors(draw, budget):
    """A list of monic-up-to-scalar factors of total degree at most ``budget``."""
    out = []
    while budget > 0 and (not out or draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["root", "root", "t", "quadratic", "dense"]))
        if kind == "root":
            r = draw(gaussians)
            mult = draw(st.integers(1, min(3, budget)))
            out += [[-r, GR_ONE]] * mult
            budget -= mult
        elif kind == "t":
            out.append([GR_ZERO, GR_ONE])
            budget -= 1
        elif kind == "quadratic" and budget >= 2:
            # (t - s)**2 - k with k not a square in Q(i)
            s = draw(gaussians)
            k = draw(st.sampled_from([gr(2), gr(3), gr(-2), gr(0, 1), gr(1, 2), gr("5/7")]))
            scale = draw(st.sampled_from([1, 1, 1, 10 ** 12, 10 ** 200, 10 ** 400]))
            k = k * GaussianRational.of(scale)
            out.append([s * s - k, -(s + s), GR_ONE])
            budget -= 2
        elif kind == "dense":
            n = draw(st.integers(1, budget))
            coeffs = [GaussianRational(draw(small), draw(small)) for _ in range(n)]
            out.append(coeffs + [GaussianRational(draw(st.integers(1, 5)), draw(small))])
            budget -= n
    return out


@st.composite
def polynomials(draw):
    poly = [GaussianRational(draw(st.integers(1, 10 ** 6)), draw(small))
            / GaussianRational.of(draw(st.integers(1, 10 ** 6)))]
    for f in draw(factors(4)):
        poly = _mul(poly, f)
    return poly + [GR_ZERO] * draw(st.integers(0, 1))


@settings(max_examples=300, deadline=None)
@given(polynomials())
@example([gr(-2), GR_ZERO, GR_ONE])
@example([gr("999999999999/1000000000000"), gr("-1999999999999/1000000000000"), GR_ONE])
@example([GR_ZERO])
@example([gr(3), GR_ZERO])
@example([gr(4), GR_ZERO, gr(-4), GR_ZERO, GR_ONE])
@example([GR_ZERO, GR_ZERO, gr(-2) * gr(10) ** 400, GR_ZERO, GR_ONE])
def test_certified_roots_match_reference(c):
    assert outcome(certified_roots, c) == outcome(reference_roots, c)
