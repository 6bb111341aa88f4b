"""Property test of the integer-backed Gaussian rationals.

``Ref`` below is a plain pair of :class:`Fraction` values with the textbook
Q(i) formulas and the original rendering rules.  Hypothesis draws values
with real and non-real parts, zero parts and large denominators, and every
operation of :class:`GaussianRational` must agree with ``Ref`` exactly,
including ``==``, ``hash``, ``text()`` and ``to_complex()``,
while every result stays in canonical form: ``(a + b*i) / d`` with
``d > 0`` and ``gcd(a, b, d) == 1``.  The int-triple kernel under those
operations, ``_triple_sum``, ``_triple_product``, ``_reduced`` and
``_make``, is held to the same reference directly.
"""

from __future__ import annotations

import copy
import math
import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import GaussianRational, _make, _reduced, _triple_product, _triple_sum, gr


@dataclass(frozen=True)
class Ref:
    re: Fraction
    im: Fraction

    def __add__(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return Ref(-self.re, -self.im)

    def __mul__(self, o):
        return Ref(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return Ref((self.re * o.re + self.im * o.im) / n,
                   (self.im * o.re - self.re * o.im) / n)

    def __pow__(self, k):
        out = Ref(Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            out = out * self
        return Ref(Fraction(1), Fraction(0)) / out if k < 0 else out

    def text(self):
        def imag(q):
            return "i" if q == 1 else "-i" if q == -1 else f"{q}i"
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return imag(self.im)
        return f"{self.re}{'+' if self.im > 0 else '-'}{imag(abs(self.im))}"


rationals = st.one_of(
    st.integers(-50, 50).map(Fraction),
    st.fractions(max_denominator=12),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**15),
)
pairs = st.tuples(rationals, st.one_of(st.just(Fraction(0)), rationals))


def both(pair):
    re, im = pair
    # ints as well as Fractions go into the constructor
    args = [q.numerator if q.denominator == 1 else q for q in pair]
    return GaussianRational(*args), Ref(re, im)


def canonical(t: tuple) -> tuple:
    a, b, d = t
    assert type(t) is tuple and len(t) == 3
    assert d > 0 and math.gcd(a, b, d) == 1
    return t


def check(z: GaussianRational, ref: Ref):
    canonical(z._abd)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (ref.re, ref.im)
    assert z == GaussianRational(ref.re, ref.im)
    assert hash(z) == hash((ref.re, ref.im))
    assert z.text() == ref.text()
    assert z.to_complex() == complex(float(ref.re), float(ref.im))
    assert z.is_zero() == (ref.re == 0 and ref.im == 0)


@settings(max_examples=400, deadline=None)
@given(pairs, pairs)
def test_ring_operations_match_fraction_pairs(p, q):
    (x, rx), (y, ry) = both(p), both(q)
    check(x, rx)
    check(x + y, rx + ry)
    check(x - y, rx - ry)
    check(x * y, rx * ry)
    check(-x, -rx)
    check(x.conjugate(), Ref(rx.re, -rx.im))
    assert x.norm2() == rx.re ** 2 + rx.im ** 2
    assert (x == y) == (rx == ry)
    if ry.re or ry.im:
        check(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@settings(max_examples=200, deadline=None)
@given(pairs, st.integers(-5, 5))
def test_powers_match_fraction_pairs(p, k):
    x, rx = both(p)
    if k < 0 and x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x ** k
        return
    check(x ** k, rx ** k)


def test_coercion_and_constants():
    check(GaussianRational.of("-7/21"), Ref(Fraction(-1, 3), Fraction(0)))
    check(GaussianRational.of(Fraction(4, 6)), Ref(Fraction(2, 3), Fraction(0)))
    check(GaussianRational.i(), Ref(Fraction(0), Fraction(1)))
    check(gr("1/6", "-3/4"), Ref(Fraction(1, 6), Fraction(-3, 4)))
    assert GaussianRational() == gr(0)
    assert gr(1) != 1
    z = gr(1, 2)
    for name in ("re", "_abd", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, Fraction(3))
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert z == gr(1, 2)
    assert copy.deepcopy(z) == z and pickle.loads(pickle.dumps(z)) == z


# real values and unit denominators often, so every fast path of the triple
# kernel runs, as well as the general paths
integers = st.integers(-50, 50).map(Fraction)
kernel_pairs = st.one_of(
    st.tuples(integers, st.just(Fraction(0))),
    st.tuples(integers, integers),
    st.tuples(rationals, st.just(Fraction(0))),
    pairs,
)


def triple(pair) -> tuple:
    """The canonical ``(a, b, d)`` of a Fraction pair, over the lcm of its
    denominators."""
    re, im = pair
    d = math.lcm(re.denominator, im.denominator)
    return (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)


def value(t: tuple) -> Ref:
    a, b, d = t
    return Ref(Fraction(a, d), Fraction(b, d))


@settings(max_examples=400, deadline=None)
@given(kernel_pairs, kernel_pairs, st.integers(1, 30))
def test_triple_kernel_matches_fraction_pairs(p, q, k):
    x, y = triple(p), triple(q)
    rx, ry = Ref(*p), Ref(*q)
    assert canonical(x) == x and canonical(y) == y
    total = _triple_sum(x, y)
    if rx + ry == Ref(Fraction(0), Fraction(0)):
        assert total is None
    else:
        assert value(canonical(total)) == rx + ry
    assert value(canonical(_triple_product(x, y))) == rx * ry
    # a common factor k of all three ints is divided out
    a, b, d = x
    assert canonical(_reduced(a * k, b * k, d * k)) == x
    assert canonical(_reduced(a, b, d)) == x
    check(_make(a * k, b * k, d * k), rx)
