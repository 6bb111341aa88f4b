from __future__ import annotations

import math

import pytest

from foliations import intervals
from foliations.algebra import GR_ZERO, GaussianRational, gr
from foliations.errors import DegenerateInputError
from foliations.intervals import (
    _cmul,
    _deflate,
    _endpoints,
    _gcd,
    _mul,
    _pseudo_divmod,
    _reciprocal,
    _row,
    certified_roots,
)


def coeffs(*values):
    return [gr(v) if not isinstance(v, GaussianRational) else v for v in values]


class TestIntervalArithmetic:
    def test_outward_rounding_contains_truth(self):
        lo, hi = _endpoints(1, 3)
        assert lo <= 1 / 3 <= hi and lo < hi
        b = _mul(lo, hi, lo, hi)
        assert b[0] <= 1 / 9 <= b[1]

    def test_inverse_requires_no_zero(self):
        with pytest.raises(ZeroDivisionError):
            _reciprocal((-1.0, 1.0, 0.0, 0.0))
        inv = _reciprocal((2.0, 4.0, 0.0, 0.0))
        assert inv[0] <= 0.25 and 0.5 <= inv[1]

    def test_complex_multiplication_encloses(self):
        z = (1 - 1e-12, 1 + 1e-12, 1 - 1e-12, 1 + 1e-12)
        w = _cmul(z, z)
        assert w[0] <= 0.0 <= w[1] and w[2] <= 2.0 <= w[3]


class TestExactPolynomialHelpers:
    def test_divmod(self):
        # (t-1)(t+2) = t^2 + t - 2 divided by (t-1)
        q, r = _pseudo_divmod(_row(coeffs(-2, 1, 1)), _row(coeffs(-1, 1)))
        assert q == [(2, 0), (1, 0)]
        assert r == []

    def test_gcd(self):
        a = _row(coeffs(-1, 0, 1))       # t^2 - 1
        b = _row(coeffs(1, 1))           # t + 1
        assert _gcd(a, b) == [(1, 0), (1, 0)]

    def test_gcd_is_the_monic_row(self):
        # gcd((2t - 1)(t + i), 3(2t - 1)) = t - 1/2, the row (-1, 2) over 2
        a = _row(coeffs(gr(0, -1), gr(-1, 2), 2))
        b = _row(coeffs(-3, 6))
        assert _gcd(a, b) == [(-1, 0), (2, 0)]

    def test_deflate_rejects_non_root(self):
        assert _deflate([(1, 0), (1, 0)], (1, 0)) is None
        assert _deflate([(1, 0), (1, 0)], (-1, 0)) == [(1, 0)]


class TestRationalRoots:
    def test_integer_roots(self):
        exact, intervals = certified_roots(coeffs(6, -5, -2, 1))
        assert [((r.re, r.im), m) for r, m in exact] == [((-2, 0), 1), ((1, 0), 1), ((3, 0), 1)]
        assert not intervals

    def test_gaussian_roots(self):
        # (t - i)(t + 2i): coefficients 2, i, 1
        exact, _ = certified_roots([gr(2), gr(0, 1), gr(1)])
        assert [((r.re, r.im), m) for r, m in exact] == [((0, -2), 1), ((0, 1), 1)]

    def test_fractional_roots(self):
        # (2t - 1)(3t + 1) = 6t^2 - t - 1
        exact, _ = certified_roots(coeffs(-1, -1, 6))
        assert [(str(r.re), m) for r, m in exact] == [("-1/3", 1), ("1/2", 1)]

    def test_multiplicity_by_deflation(self):
        # (t-1)^2
        assert certified_roots(coeffs(1, -2, 1)) == ([(gr(1), 2)], [])


class TestCertifiedRoots:
    def test_width_and_disjointness(self):
        exact, intervals = certified_roots(coeffs(-2, 0, 1))
        assert not exact
        assert len(intervals) == 2
        for c in intervals:
            re_lo, re_hi, im_lo, im_hi = c.box
            assert max(re_hi - re_lo, im_hi - im_lo) <= 1e-10
            assert not c.clustered
        (a_lo, a_hi, ai_lo, ai_hi), (b_lo, b_hi, bi_lo, bi_hi) = (c.box for c in intervals)
        assert max(a_lo, b_lo) > min(a_hi, b_hi) or max(ai_lo, bi_lo) > min(ai_hi, bi_hi)
        mids = sorted(0.5 * (c.box[0] + c.box[1]) for c in intervals)
        assert abs(mids[0] + math.sqrt(2)) < 1e-9

    def test_mixed_exact_and_certified(self):
        # (t - 1)(t^2 - 2)
        poly = [gr(2), gr(-2), gr(-1), gr(1)]
        exact, intervals = certified_roots(poly)
        assert [r.text() for r, _m in exact] == ["1"]
        assert len(intervals) == 2

    def test_multiple_certified_root(self):
        # (t^2 - 2)^2 = t^4 - 4 t^2 + 4
        poly = coeffs(4, 0, -4, 0, 1)
        exact, intervals = certified_roots(poly)
        assert not exact
        assert sorted(c.multiplicity for c in intervals) == [2, 2]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DegenerateInputError):
            certified_roots([GR_ZERO])

    def test_linear_remainder_is_exact(self):
        # (t - 2)(t - r): both roots exact, r with a denominator of 10**6
        r = gr("1234567/1000003")
        exact, intervals = certified_roots([gr(2) * r, -(r + gr(2)), gr(1)])
        assert exact == [(r, 1), (gr(2), 1)]
        assert intervals == []

    def test_two_large_denominator_roots_are_exact(self):
        # (t - r)(t - s): the lead after clearing denominators is about
        # 10**12, too large for a float root to pin down r or s
        r, s = gr("1234567/1000003"), gr("7654321/1000033")
        exact, intervals = certified_roots([r * s, -(r + s), gr(1)])
        assert exact == [(r, 1), (s, 1)]
        assert intervals == []

    def test_double_root_beyond_float_certification_is_exact(self):
        # (t - r)^2 with |r| > 10**6: a float root is off by about 1e-2, and
        # no rectangle around r can be refined to width 1e-10
        r = gr("10800928/3")
        exact, intervals = certified_roots([r * r, -(r + r), gr(1)])
        assert exact == [(r, 2)]
        assert intervals == []

    def test_clustered_roots_are_exact(self):
        # roots 10**-12 apart that float arithmetic cannot separate
        r, s = gr(1), gr("999999999999/1000000000000")
        exact, intervals = certified_roots([r * s, -(r + s), gr(1)])
        assert exact == [(s, 1), (r, 1)]
        assert intervals == []

    def test_exact_check_tries_few_candidates(self, monkeypatch):
        # 1999 t^3 - 2 has no root in Q(i); deciding that takes O(degree)
        # exact evaluations, not one per divisor pair of 2 and 1999
        calls = []
        real_deflate = intervals._deflate
        monkeypatch.setattr(intervals, "_deflate",
                            lambda g, z: calls.append(z) or real_deflate(g, z))
        assert certified_roots(coeffs(-2, 0, 0, 1999))[0] == []
        assert 0 < len(calls) <= 2 * 3

    def test_rejected_primes_cost_little(self, monkeypatch):
        # t^2 - N/3^k, N the product of the first 200 primes p = 1 (mod 4):
        # t^2 - N 3^k has a double root mod each of them, so the lifting
        # prime is the 201st.  Rejecting a prime takes a gcd mod p, not one
        # evaluation per residue, so the work is linear in that prime.
        primes = [p for p in range(5, 3000, 4)
                  if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]
        n = math.prod(primes[:200])
        c = GaussianRational.of(n) / GaussianRational.of(3) ** (len(str(n)) * 2)
        calls = []
        real_eval = intervals._eval_mod
        monkeypatch.setattr(intervals, "_eval_mod",
                            lambda h, x, m: calls.append(x) or real_eval(h, x, m))
        exact, boxes = certified_roots([-c, GR_ZERO, gr(1)])
        assert exact == [] and len(boxes) == 2
        assert len(calls) <= 2 * primes[200]
