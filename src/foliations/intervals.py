"""Certified polynomial roots over Q(i), on Gaussian-integer rows and float rectangles.

The one root pipeline is :func:`certified_roots`, which finds all complex
roots of an exact univariate polynomial over Q(i): every root in Q(i)
exactly, and each other root in an interval Newton rectangle
``[re_lo, re_hi] x [im_lo, im_hi]`` with outward-rounded float endpoints.

The exact stage works on *monic rows*, the form that
``algebra._reduced_echelon`` keeps: a list of ``(re, im)`` int pairs, low to
high, whose ints have no common factor and whose last pair is ``(den, 0)``
with ``den > 0``; the row stands for the monic polynomial ``row / den``.
That form is unique, so each square-free part, gcd and ``den`` is the one
exact rational arithmetic gives.  A gcd takes pseudo-remainders over
Z[i] and brings each back to its monic row, so no coefficient outgrows the
exact monic remainder.  No :class:`GaussianRational` or ``Fraction`` is
built before the roots are returned.

Exactness rests on one fact: once denominators are cleared, f lies in
Z[i][t] with some leading coefficient a, and a*r lies in Z[i] for every
Q(i) root r.  So a root is found by locating a*r in Z[i], never by
enumerating divisors.  p-adic lifting does this on each square-free part
without floats: every Q(i) root lifts from a root modulo a prime, and that
lift leaves a single Gaussian-integer candidate, checked exactly.  The
search is complete, with no cap, and also covers roots that float
arithmetic cannot separate or certify.

The certification stage runs on flat ``(re_lo, re_hi, im_lo, im_hi)``
float tuples.  Every operation rounds outward by one ``nextafter`` step;
:func:`_interval_eval` is the one interval-polynomial evaluator.  The
returned :class:`CertifiedRoot` values keep these tuples as their boxes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .algebra import GaussianRational, _make, _scaled
from .errors import DegenerateInputError, EvaluationOverflowError

_UP = math.inf
_DOWN = -math.inf
_TOO_LARGE = "coefficient too large for a floating-point root certification"

_next = math.nextafter


# ---------------------------------------------------------------------------
# Monic rows over Z[i]
# ---------------------------------------------------------------------------

def _monic(row: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The monic row of a list of Gaussian integers whose last is nonzero."""
    # divide by the lead x + yi: by |x| and its sign when real, else
    # multiply by its conjugate, which makes the lead x^2 + y^2
    x, y = row[-1]
    if y:
        row = [(a * x + b * y, b * x - a * y) for a, b in row]
    elif x < 0:
        row = [(-a, -b) for a, b in row]
    g = math.gcd(*itertools.chain.from_iterable(row))
    return row if g == 1 else [(a // g, b // g) for a, b in row]


def _row(c: list[GaussianRational]) -> list[tuple[int, int]]:
    """The monic row of a polynomial whose last coefficient is nonzero."""
    return _monic(_scaled([v._abd for v in c])[1])


def _pseudo_divmod(a, b):
    """``(q, r)`` with ``lead**k * a == q * b + r`` and ``deg r < deg b``.

    ``b``'s last pair is ``(lead, 0)`` with ``lead > 0``, and ``k`` is
    ``deg a - deg b + 1``; ``q`` and ``r`` are Gaussian-integer lists, ``r``
    with no zero last entry (empty for a zero remainder).
    """
    lead = b[-1][0]
    n = len(b) - 1
    r = list(a)
    q = []  # high to low
    for i in range(len(a) - len(b), -1, -1):
        # lead * r - x t^i b, which cancels r's term of degree i + n
        x, y = r.pop()
        q = [(lead * u, lead * v) for u, v in q]
        q.append((x, y))
        r = [(lead * u, lead * v) for u, v in r[:i]] + [
            (lead * u - x * s + y * w, lead * v - x * w - y * s)
            for (u, v), (s, w) in zip(r[i:], b)]
    while r and r[-1] == (0, 0):
        r.pop()
    return q[::-1], r


def _quotient(a, b):
    """The monic row of ``a / b`` for monic rows ``b`` dividing ``a``."""
    return _monic(_pseudo_divmod(a, b)[0])


def _gcd(a, b):
    """The monic row of the gcd of ``a`` and ``b``: nonzero Gaussian-integer
    lists, ``b``'s last pair ``(lead, 0)`` with ``lead > 0``."""
    while b:
        r = _pseudo_divmod(a, b)[1]
        a, b = b, _monic(r) if r else r
    return _monic(a)


def _square_free_parts(p):
    """``(part, m)`` pairs: each part a monic row holding the roots of
    multiplicity m of the monic row ``p``."""
    parts = []
    mult = 1
    while len(p) > 1:
        g = _gcd(p, [(k * a, k * b) for k, (a, b) in enumerate(p) if k])
        if len(g) == 1:  # p is square-free
            parts.append((p, mult))
            break
        sqfree = _quotient(p, g)
        # roots of sqfree that are not roots of g have multiplicity == mult
        part = _quotient(sqfree, _gcd(sqfree, g))
        if len(part) > 1:
            parts.append((part, mult))
        p = g
        mult += 1
    return parts


# ---------------------------------------------------------------------------
# Exact Q(i) roots: p-adic lifting onto Z[i]
# ---------------------------------------------------------------------------

def _nearest(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    """The Gaussian integer nearest to ``z / w``, halves rounded up."""
    (a, b), (c, e) = z, w
    n = c * c + e * e
    return (2 * (a * c + b * e) + n) // (2 * n), (2 * (b * c - a * e) + n) // (2 * n)


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


def _deflate(g: list[tuple[int, int]], z: tuple[int, int]) -> list[tuple[int, int]] | None:
    """``g / (s - z)`` for a monic ``g`` in Z[i][s] with the root ``z``, or
    None when ``z`` is not a root."""
    x, y = z
    a, b = g[-1]
    q = []
    for c, e in reversed(g[:-1]):
        q.append((a, b))
        a, b = c + a * x - b * y, e + a * y + b * x
    return None if a or b else q[::-1]


def _qi_roots(part):
    """``(roots, rest)`` for the square-free monic row ``part``.

    With P = part / den the polynomial the row stands for, the Q(i) roots
    of P are the g / den for the Gaussian-integer roots g, listed in
    ``roots``, of the monic G(s) = den**n P(s/den) in Z[i][s].  ``rest`` is
    G divided by every s - g: den**n' P'(s/den) for the P' that is left.
    Cauchy's bound |r| <= 1 + max |c_j| on the roots r of P gives
    4|g|**2 < L = 8 den**2 (1 + max |c_j|**2).  Take a prime p = 1 (mod 4)
    modulo which G is square-free, and M = p**k > L.  Only a prime dividing
    the norm of the discriminant of G fails, and each is rejected after a
    gcd mod p, so the primes tried cost work polynomial in the input size.
    Sending i to a square root iota of -1 maps Z[i] onto Z/M with kernel
    pi**k, pi = gcd(p, iota - i).  Each root of G mod p lifts to one root
    mod M (Hensel), and the element of Z[i] nearest 0 that maps to it is the
    only candidate for g; it is kept when s - g divides G exactly.
    """
    n = len(part) - 1
    if n == 1:
        a, b = part[0]
        return [(-a, -b)], [(1, 0)]
    den = part[-1][0]
    g = [(a * den ** (n - 1 - j), b * den ** (n - 1 - j))
         for j, (a, b) in enumerate(part[:-1])] + [(1, 0)]
    # 8 den^2 (1 + max |c_j|^2), the c_j = part_j / den taking the lead 1 too
    limit = 8 * den * den + 8 * max(a * a + b * b for a, b in part)
    p = 1
    while True:
        p += 4
        if any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        w = next(x for x in range(2, p) if pow(x, p // 2, p) == p - 1)
        iota = pow(w, p // 4, p)  # a square root of -1 mod p
        gp = [(a + iota * b) % p for a, b in g]
        if _squarefree_mod(gp, p):
            break
    residues = [x for x in range(p) if _eval_mod(gp, x, p) == 0]
    if not residues:
        return [], g
    pi, q = (p, 0), (iota, -1)
    while q != (0, 0):
        u, v = _nearest(pi, q)
        pi, q = q, (pi[0] - u * q[0] + v * q[1], pi[1] - u * q[1] - v * q[0])
    m, k = p, 1
    while m <= limit:
        m, k = m * p, k + 1
    iota = _hensel([1, 0, 1], iota, m)
    gm = [(a + iota * b) % m for a, b in g]
    c, e = 1, 0  # pi**k
    for _ in range(k):
        c, e = c * pi[0] - e * pi[1], c * pi[1] + e * pi[0]
    roots = []
    for x in residues:
        z = _hensel(gm, x, m)
        u, v = _nearest((z, 0), (c, e))
        r = (z - u * c + v * e, -u * e - v * c)
        rest = _deflate(g, r)
        if rest is not None:
            roots.append(r)
            g = rest
    return roots, g


# ---------------------------------------------------------------------------
# Certified interval roots
# ---------------------------------------------------------------------------

_WIDTH = 1e-10  # every certified rectangle is refined to at most this width


@dataclass(frozen=True)
class CertifiedRoot:
    """A rectangle ``(re_lo, re_hi, im_lo, im_hi)`` of floats certified to
    contain exactly one root of the square-free part, unless ``clustered``:
    a clustered box is either a coarse box around a seed that interval
    Newton could not certify, or a certified box that overlaps another, and
    proves nothing about how many roots it holds."""

    box: tuple[float, float, float, float]
    multiplicity: int
    clustered: bool = False


def _endpoints(n: int, d: int) -> tuple[float, float]:
    """The nearest float to ``n / d`` (``d > 0``), widened by one step
    toward the exact value when it is not that float."""
    try:
        x = n / d  # int true division rounds correctly
    except OverflowError:
        raise EvaluationOverflowError(_TOO_LARGE) from None
    xn, xd = x.as_integer_ratio()
    if xn * d > n * xd:
        return _next(x, _DOWN), x
    if xn * d < n * xd:
        return x, _next(x, _UP)
    return x, x


def _rectangle(a: int, b: int, d: int) -> tuple[float, float, float, float]:
    """The rectangle of ``(a + b*i) / d``, ``d > 0``."""
    return _endpoints(a, d) + _endpoints(b, d)


# Rectangles are (re_lo, re_hi, im_lo, im_hi) tuples.  Each sum, difference
# and product of endpoints is rounded outward by one nextafter step, so each
# result holds the exact one.

def _mul(al: float, ah: float, bl: float, bh: float) -> tuple[float, float]:
    """``[al, ah] * [bl, bh]``."""
    p = (al * bl, al * bh, ah * bl, ah * bh)
    return _next(min(p), _DOWN), _next(max(p), _UP)


def _square(lo: float, hi: float) -> tuple[float, float]:
    if lo >= 0:
        return _next(lo * lo, _DOWN), _next(hi * hi, _UP)
    if hi <= 0:
        return _next(hi * hi, _DOWN), _next(lo * lo, _UP)
    m = max(-lo, hi)
    return 0.0, _next(m * m, _UP)


def _cmul(a, b):
    """The product of two rectangles."""
    al, ah, ail, aih = a
    bl, bh, bil, bih = b
    pl, ph = _mul(al, ah, bl, bh)
    ql, qh = _mul(ail, aih, bil, bih)
    rl, rh = _mul(al, ah, bil, bih)
    sl, sh = _mul(ail, aih, bl, bh)
    return (_next(pl - qh, _DOWN), _next(ph - ql, _UP),
            _next(rl + sl, _DOWN), _next(rh + sh, _UP))


def _reciprocal(w):
    """1 / w = conj(w) / |w|^2 on a rectangle; ``ZeroDivisionError`` when
    the interval of |w|^2 holds 0."""
    ul, uh, vl, vh = w
    nl, nh = _square(ul, uh)
    sl, sh = _square(vl, vh)
    nl, nh = _next(nl + sl, _DOWN), _next(nh + sh, _UP)
    if nl <= 0 <= nh:
        raise ZeroDivisionError("rectangle meets zero")
    nl, nh = _next(1.0 / nh, _DOWN), _next(1.0 / nl, _UP)
    return _mul(ul, uh, nl, nh) + _mul(-vh, -vl, nl, nh)


def _interval_eval(coeffs, box):
    """Horner's rule on rectangles, starting from the zero rectangle: the
    result holds the value at every point of ``box`` of every polynomial
    whose coefficients, low to high, lie in the rectangles ``coeffs``."""
    rl = rh = il = ih = 0.0
    for cl, ch, dl, dh in reversed(coeffs):
        rl, rh, il, ih = _cmul((rl, rh, il, ih), box)
        rl, rh = _next(rl + cl, _DOWN), _next(rh + ch, _UP)
        il, ih = _next(il + dl, _DOWN), _next(ih + dh, _UP)
    return rl, rh, il, ih


def _newton_certify(coeffs, dcoeffs, seed: complex, radius: float):
    """Interval Newton: certify and refine a unique simple root near ``seed``."""
    xl, xh = seed.real - radius, seed.real + radius
    yl, yh = seed.imag - radius, seed.imag + radius
    certified = False
    for _ in range(80):
        mr, mi = 0.5 * (xl + xh), 0.5 * (yl + yh)
        try:
            dp = _interval_eval(dcoeffs, (xl, xh, yl, yh))
            sl, sh, tl, th = _cmul(_interval_eval(coeffs, (mr, mr, mi, mi)), _reciprocal(dp))
        except ZeroDivisionError:
            return None
        # the Newton box mid - step, kept inside the box
        nrl, nrh = _next(mr - sh, _DOWN), _next(mr - sl, _UP)
        nil, nih = _next(mi - th, _DOWN), _next(mi - tl, _UP)
        if xl < nrl and nrh < xh and yl < nil and nih < yh:
            certified = True
        xl, xh = max(nrl, xl), min(nrh, xh)
        yl, yh = max(nil, yl), min(nih, yh)
        if xl > xh or yl > yh:
            return None
        if certified and max(xh - xl, yh - yl) <= _WIDTH:
            return xl, xh, yl, yh
    return None


def _overlap(a, b) -> bool:
    """Whether two rectangles share a point."""
    return (max(a[0], b[0]) <= min(a[1], b[1])
            and max(a[2], b[2]) <= min(a[3], b[3]))


def _certify(coeffs: list[tuple[int, int, int]], m: int) -> list[CertifiedRoot]:
    """Certified rectangles for the roots of a square-free monic polynomial
    with coefficients ``(a + b*i) / d``, low to high."""
    # NumPy is imported at its one use, so a root-find with every root in
    # Q(i) never loads it
    import numpy as np

    intervals: list[CertifiedRoot] = []
    try:
        seeds = [complex(a / d, b / d) for a, b, d in reversed(coeffs)]
    except OverflowError:
        raise EvaluationOverflowError(_TOO_LARGE) from None
    approx = np.roots(seeds)
    coeffs_iv = [_rectangle(a, b, d) for a, b, d in coeffs]
    dcoeffs_iv = [_rectangle(k * a, k * b, d) for k, (a, b, d) in enumerate(coeffs) if k]
    boxes = []
    for z in sorted(approx, key=lambda w: (w.real, w.imag)):
        z = complex(z)
        box = None
        for radius in (1e-7, 1e-5, 1e-3, 1e-2, 1e-1):
            box = _newton_certify(coeffs_iv, dcoeffs_iv, z, radius)
            if box is not None:
                break
        if box is None:
            # certification failed: report a coarse box, flagged clustered
            intervals.append(CertifiedRoot(
                (z.real - 1e-6, z.real + 1e-6, z.imag - 1e-6, z.imag + 1e-6),
                m, clustered=True))
        else:
            boxes.append(box)
    clustered = any(_overlap(a, b) for a, b in itertools.combinations(boxes, 2))
    for box in boxes:
        intervals.append(CertifiedRoot(box, m, clustered=clustered))
    if len(coeffs) - 1 != len(approx):  # pragma: no cover - numpy contract
        raise DegenerateInputError("root count mismatch")
    return intervals


def certified_roots(c: list[GaussianRational]):
    """All complex roots of an exact polynomial, with multiplicities.

    Returns ``(exact, intervals)``: ``exact`` lists every root in Q(i) as
    ``(GaussianRational, multiplicity)``, sorted by (re, im), and
    ``intervals`` holds a :class:`CertifiedRoot` for each other root.
    A factor t**k is split off first (in a resolution it is the common
    case).  The monic row of the quotient is split into square-free parts
    by repeated gcd with the derivative, each holding the roots of one
    multiplicity; the Q(i) roots of a part are found by :func:`_qi_roots`
    and divided out, and the rest are certified from ``np.roots`` seeds by
    interval Newton rectangles of width at most 1e-10, pairwise disjoint
    unless flagged clustered.  No float decides exactness, so ``exact`` is
    complete: no rectangle, flagged clustered or not, holds a root in Q(i).
    The exact roots are sorted by their ints over a common denominator and
    become :class:`GaussianRational` values only here, on return.
    """
    d = len(c) - 1
    while d >= 0 and c[d].is_zero():
        d -= 1
    if d < 0:
        raise DegenerateInputError("zero polynomial has every point as a root")
    k = 0
    while k < d and c[k].is_zero():
        k += 1
    exact = [(0, 0, 1, k)] if k else []  # (a, b, den, multiplicity)
    intervals: list[CertifiedRoot] = []
    if k < d:
        for part, m in _square_free_parts(_row(c[k:d + 1])):
            den = part[-1][0]
            roots, rest = _qi_roots(part)
            exact += [(a, b, den, m) for a, b in roots]
            n = len(rest) - 1
            if n > 0:
                # rest is den**n P(s/den) for the deflated P: its
                # coefficient of s**j is den**(n - j) times P's
                intervals += _certify(
                    [(a, b, den ** (n - j)) for j, (a, b) in enumerate(rest)], m)
    if len(exact) > 1:
        lcm = math.lcm(*(r[2] for r in exact))
        exact.sort(key=lambda r: (r[0] * (lcm // r[2]), r[1] * (lcm // r[2])))
    return [(_make(a, b, den), m) for a, b, den, m in exact], intervals
