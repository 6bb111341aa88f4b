"""Reference arithmetic for checking outputs, independent of the toolkit.

Gaussian rationals are ``(re, im)`` pairs of :class:`fractions.Fraction`;
polynomials are ``{exponent tuple: gaussian}`` dicts.  Nothing here imports
``foliations``: the checks must not share code with the program they check,
and they must not show up in a traced run.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))

# A prime p = 1 (mod 4) and a square root of -1 modulo p: reducing Q(i)
# modulo p is then a ring map, so ranks modulo p bound ranks over Q(i) from
# below and agree with them unless p divides every maximal minor.
PRIME = 2305843009213693921
SQRT_MINUS_ONE = 583529827753931384


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

def gauss(re, im=0) -> tuple[Fraction, Fraction]:
    return (Fraction(re), Fraction(im))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gneg(a):
    return (-a[0], -a[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def to_complex(a) -> complex:
    return complex(float(a[0]), float(a[1]))


def parse_gauss(text: str) -> tuple[Fraction, Fraction]:
    """Parse the toolkit's scalar text: '3', '-1/2', 'i', '-2i', '1/2-3/4i'."""
    text = text.strip()
    if not text.endswith("i"):
        return (Fraction(text), Fraction(0))
    body = text[:-1]
    split = max(body.rfind("+"), body.rfind("-"))
    if split > 0:
        re_text, im_text = body[:split], body[split:]
    else:
        re_text, im_text = "0", body
    if im_text in ("", "+", "-"):
        im_text += "1"
    return (Fraction(re_text), Fraction(im_text))


def input_text(a) -> str:
    """Parenthesised literal the field-file grammar reads back as ``a``."""
    re, im = a
    if im == 0:
        return f"({re})"
    if re == 0:
        return f"({im}i)"
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}i)"


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def monomial_text(names, exps) -> str:
    parts = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k]
    return "*".join(parts) if parts else "1"


def poly_input_text(names, poly) -> str:
    if not poly:
        return "0"
    return " + ".join(f"{input_text(c)}*{monomial_text(names, e)}"
                      for e, c in sorted(poly.items()))


def field_file(names, comps, comment: str) -> str:
    body = ", ".join(poly_input_text(names, p) for p in comps)
    return f"# {comment}\nvars: {', '.join(names)}\nkind: field\n{body}\n"


def parse_poly(text: str, names) -> dict:
    """Parse a polynomial as rendered by the toolkit (terms split by ' + '/' - ')."""
    text = text.strip()
    poly: dict = {}
    if text == "0":
        return poly
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = [(sign, text)]
    for sep, s in ((" + ", 1), (" - ", -1)):
        split = []
        for sg, body in pieces:
            chunks = body.split(sep)
            split.append((sg, chunks[0]))
            split.extend((s, c) for c in chunks[1:])
        pieces = split
    index = {n: k for k, n in enumerate(names)}
    for sg, term in pieces:
        coeff = (Fraction(sg), Fraction(0))
        exps = [0] * len(names)
        for factor in term.split("*"):
            if factor.startswith("("):
                coeff = gmul(coeff, parse_gauss(factor[1:-1]))
            elif factor[0].isdigit() or factor == "i":
                coeff = gmul(coeff, parse_gauss(factor))
            else:
                name, _, power = factor.partition("^")
                exps[index[name]] += int(power) if power else 1
        key = tuple(exps)
        total = gadd(poly.get(key, ZERO), coeff)
        if total == ZERO:
            poly.pop(key, None)
        else:
            poly[key] = total
    return poly


def derivative_image(comps, exps, limit: int) -> dict:
    """``X . x**exps`` with terms of total degree above ``limit`` dropped."""
    out: dict = {}
    for i, comp in enumerate(comps):
        k = exps[i]
        if k == 0:
            continue
        base = list(exps)
        base[i] -= 1
        for e, c in comp.items():
            key = tuple(a + b for a, b in zip(base, e))
            if sum(key) > limit:
                continue
            total = gadd(out.get(key, ZERO), gmul(c, (Fraction(k), Fraction(0))))
            if total == ZERO:
                out.pop(key, None)
            else:
                out[key] = total
    return out


def residual(comps, poly, limit: int) -> dict:
    """Exact ``jet(X . f, limit)``."""
    out: dict = {}
    for e, c in poly.items():
        for key, v in derivative_image(comps, e, limit).items():
            total = gadd(out.get(key, ZERO), gmul(c, v))
            if total == ZERO:
                out.pop(key, None)
            else:
                out[key] = total
    return out


def monomials(nvars: int, low: int, high: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix, left):
        if len(prefix) == nvars - 1:
            out.append(tuple(prefix) + (left,))
            return
        for k in range(left, -1, -1):
            rec(prefix + [k], left - k)

    for d in range(low, high + 1):
        rec([], d)
    return out


def split_components(text: str) -> list[str]:
    """Components of a rendered field ('p1, p2'); coefficients hold no commas."""
    return [part.strip() for part in text.split(",")]


def _taylor_shift(coeffs: list, a) -> list:
    """Coefficients of ``c(w + a)`` from those of ``c(v)`` (lowest first)."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = gadd(out[j], gmul(a, out[j + 1]))
    return out


def camacho_sad_index(comps, u: int, point):
    """Camacho-Sad index of the invariant line ``{x_u = 0}`` at ``point``.

    Planar field ``X = x_u a ∂u + b ∂v``: the index is the residue of
    ``a(0, v) / b(0, v) dv`` at the point.  None when the line is not
    invariant (``X^u`` not divisible by ``x_u``).
    """
    v = 1 - u
    a_coeffs: dict = {}
    b_coeffs: dict = {}
    for e, c in comps[u].items():
        if e[u] == 0:
            return None
        if e[u] == 1:
            a_coeffs[e[v]] = gadd(a_coeffs.get(e[v], ZERO), c)
    for e, c in comps[v].items():
        if e[u] == 0:
            b_coeffs[e[v]] = gadd(b_coeffs.get(e[v], ZERO), c)
    size = max(list(a_coeffs) + list(b_coeffs) + [0]) + 1
    a = _taylor_shift([a_coeffs.get(k, ZERO) for k in range(size)], point[v])
    b = _taylor_shift([b_coeffs.get(k, ZERO) for k in range(size)], point[v])
    order = next((k for k, c in enumerate(b) if c != ZERO), None)
    if order is None:
        return None
    if order == 0:
        return ZERO
    b1 = b[order:]
    # power series a / b1 up to w^(order - 1); the residue is that coefficient
    quotient: list = []
    for k in range(order):
        acc = a[k] if k < len(a) else ZERO
        for j in range(k):
            if k - j < len(b1):
                acc = gadd(acc, gmul(gneg(quotient[j]), b1[k - j]))
        quotient.append(gdiv(acc, b1[0]))
    return quotient[order - 1]


# ---------------------------------------------------------------------------
# Ranks modulo a prime
# ---------------------------------------------------------------------------

def to_mod(a) -> int:
    p = PRIME
    re = a[0].numerator * pow(a[0].denominator, -1, p)
    im = a[1].numerator * pow(a[1].denominator, -1, p)
    return (re + SQRT_MINUS_ONE * im) % p


def rank_mod(rows: list[list[int]]) -> int:
    p = PRIME
    rows = [r[:] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        prow = [v * inv % p for v in rows[rank]]
        rows[rank] = prow
        for k in range(len(rows)):
            if k != rank and rows[k][c]:
                f = rows[k][c]
                rows[k] = [(a - f * b) % p for a, b in zip(rows[k], prow)]
        rank += 1
    return rank


def jet_dims(comps, nvars: int, n: int) -> list[int]:
    """Dimension of ``{f : 1 <= deg f <= d, jet(X . f, d) = 0}`` for d = 1..n."""
    dims = []
    for d in range(1, n + 1):
        cols = monomials(nvars, 1, d)
        images = [derivative_image(comps, e, d) for e in cols]
        keys = sorted({k for img in images for k in img})
        if not keys:
            dims.append(len(cols))
            continue
        row_of = {k: r for r, k in enumerate(keys)}
        matrix = [[0] * len(cols) for _ in keys]
        for j, img in enumerate(images):
            for k, v in img.items():
                matrix[row_of[k]][j] = to_mod(v)
        dims.append(len(cols) - rank_mod(matrix))
    return dims


def independent(polys, nvars: int, n: int) -> bool:
    cols = monomials(nvars, 0, n)
    rows = [[to_mod(p.get(e, ZERO)) for e in cols] for p in polys]
    return rank_mod(rows) == len(polys)


# ---------------------------------------------------------------------------
# Closed forms for the numeric workload
# ---------------------------------------------------------------------------

def time_form_primitive(k: int, z: complex) -> complex:
    """A primitive of ``1 / z**k`` (principal log for k = 1)."""
    if k == 1:
        return cmath.log(z)
    return z ** (1 - k) / (1 - k)
