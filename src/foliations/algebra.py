"""Exact arithmetic substrate.

Three layers, all immutable and exact:

* :class:`GaussianRational` -- complex numbers with rational real and
  imaginary parts.  Every coefficient in the package lives here, so equality
  of derived objects is decidable.  A value ``(a + b*i) / d`` is stored as
  three ints with ``d > 0`` and ``gcd(a, b, d) == 1``; this form is unique,
  so equality compares ints.
* :class:`Poly` -- sparse multivariate polynomials in up to three declared
  variables, stored as a map from exponent tuples to the canonical triples
  of their nonzero coefficients.  The canonical term order is graded
  lexicographic in the declared variable order.
* :class:`ChartFunction` -- a polynomial numerator times a signed monomial
  ``prod(x_i ** e_i)`` whose exponents may be negative.  This is exactly the
  class of functions produced by blow-up transforms: poles only along
  coordinate hypersurfaces.  Construction fully extracts the monomial content
  of the numerator, so equality is again decidable.

One Q(i) arithmetic runs on those triples: ``_triple_sum``,
``_triple_product`` and ``_reduced`` add, multiply and reduce them, each
with a few int products and at most one gcd.  A sum over a unit common
denominator and a product of two real integers skip the gcd, and a real
factor skips the imaginary cross products.  :class:`GaussianRational`'s
``+``, ``-``, ``*`` and ``**`` read their operands' triples, call it and
wrap the result once.  One polynomial arithmetic runs on the same kernel:
term dicts from exponent tuples to canonical triples, added, negated,
multiplied and raised to powers, restricted and shifted by the
``_terms_*`` functions.  A :class:`Poly` stores such a term dict, so its
``+``, ``-``, negation, ``*``, ``**``, ``scale``, ``partial``,
``restrict``, ``shift`` and ``laurent_substitute`` run it on their
operands' dicts and store the result as it comes (:func:`_poly`); a
:class:`GaussianRational` per term is built only when ``terms`` is read.
The expression parser runs it on the triples of its literals, and the
blow-up transform (``blowup._terms_blowup``) and the persistent-nilpotent
probe in ``resolve`` on the term dicts of their fields.

Floating-point evaluation (``eval_complex``) runs straight-line code that
:class:`_Source` writes for each object, with the operations of a
term-by-term evaluation in the same order, and compiles once per source
text: the text carries no coefficient, only names bound per object, so one
code object serves every function of one monomial shape.  Lifts compile
their right-hand side, paths their point and velocity, and the integrator
its loop from the same generator.

One exact sparse row reduction, :func:`_reduced_echelon`, serves the formal
first-integral solver and the resonance rank.  It works on Gaussian
integers, ``(re, im)`` pairs of ints, not on :class:`GaussianRational`
values: each reduced row is a positive int denominator over primitive
Gaussian-integer numerators, monic at its pivot, so its ints are those of
the exact reduced row over a common denominator, and each row update ends
in one gcd over the row instead of one per entry.

Pure functions only; no value is mutated after construction.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from types import CodeType, MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    DegenerateInputError,
    EvaluationOverflowError,
    PoleEvaluationError,
    StructuralError,
)

Exponents = tuple[int, ...]

_OVERFLOW = "floating-point overflow evaluating at a point too far from the origin"
_COEFFICIENT_TOO_LARGE = "coefficient too large for a floating-point evaluation"
_POLE = "evaluation at a pole"

# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussianRational:
    """Element of Q(i): exact complex number with rational parts.

    The value ``(a + b*i) / d`` is held as the private int triple
    ``(a, b, d)`` with ``d > 0`` and ``gcd(a, b, d) == 1``.  That form is
    unique, so equality compares the triples, and ``hash`` equals
    ``hash((re, im))``.  ``re`` and ``im`` read back as reduced
    :class:`Fraction` values.  Instances are immutable: assigning or
    deleting any attribute raises ``AttributeError``.
    """

    __slots__ = ("_abd",)

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0) -> None:
        rn, rd = re.numerator, re.denominator
        jn, jd = im.numerator, im.denominator
        # over d = lcm(rd, jd) the triple is already canonical: each prime of
        # d divides one reduced denominator fully, so not its numerator
        d = rd // math.gcd(rd, jd) * jd
        _set_abd(self, (rn * (d // rd), jn * (d // jd), d))

    def __setattr__(self, *args):
        raise AttributeError("GaussianRational is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _raw, self._abd

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    @staticmethod
    def of(value: "GaussianRational | Fraction | int | str") -> "GaussianRational":
        """Coerce an int, Fraction, or 'a/b' string to a Gaussian rational."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction, str)):
            q = Fraction(value)
            return _raw(q.numerator, 0, q.denominator)
        raise StructuralError(f"cannot coerce {value!r} to a Gaussian rational")

    @staticmethod
    def i() -> "GaussianRational":
        return _raw(0, 1, 1)

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self._abd == other._abd

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        s = _triple_sum(self._abd, other._abd)
        return GR_ZERO if s is None else _raw(*s)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        c, e, f = other._abd
        s = _triple_sum(self._abd, (-c, -e, f))
        return GR_ZERO if s is None else _raw(*s)

    def __neg__(self) -> "GaussianRational":
        a, b, d = self._abd
        return _raw(-a, -b, d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return _raw(*_triple_product(self._abd, other._abd))

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d = self._abd
        c, e, f = other._abd
        if e == 0:
            if c == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            if c < 0:
                return _make(-a * f, -b * f, -d * c)
            return _make(a * f, b * f, d * c)
        # (a + bi)/d * f/(c + ei) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        return _make((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return GR_ONE / self ** (-k)
        # a scalar is a term dict in no variables
        return _raw(*_terms_power({(): self._abd}, k, {(): _ONE})[()])

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._abd
        return _raw(a, -b, d)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        a, b, d = self._abd
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        a, b, _ = self._abd
        return a == 0 and b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def to_complex(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        a, b, d = self._abd
        return complex(a / d, b / d)

    def text(self) -> str:
        """Canonical rendering: '3', '-1/2', 'i', '2i', '1+2i', '1/2-3/4i'."""
        a, b, d = self._abd
        if b == 0:
            return _ratio_text(a, d)
        if a == 0:
            return _imag_text(_ratio_text(b, d))
        sign = "+" if b > 0 else "-"
        return f"{self.re}{sign}{_imag_text(str(abs(self.im)))}"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.text()


_new = object.__new__
_set_abd = GaussianRational._abd.__set__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b*i) / d`` from a triple already in canonical form."""
    z = _new(GaussianRational)
    _set_abd(z, (a, b, d))
    return z


def _make(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b*i) / d`` for any ``d > 0``, reduced to canonical form."""
    return _raw(*_reduced(a, b, d))


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0`` and ``gcd(n, d) == 1``."""
    return str(n) if d == 1 else f"{n}/{d}"


def _imag_text(q: str) -> str:
    if q == "1":
        return "i"
    if q == "-1":
        return "-i"
    return f"{q}i"


GR_ZERO = _raw(0, 0, 1)
GR_ONE = _raw(1, 0, 1)


def _scaled(abd: list[tuple[int, int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """``(s, pairs)``: s the lcm of the denominators of the values whose
    ``(a, b, d)`` triples are ``abd``, and each value times s as a
    Gaussian-integer ``(re, im)`` int pair."""
    s = math.lcm(*(d for _, _, d in abd))
    return s, [(a * (s // d), b * (s // d)) for a, b, d in abd]


def gr(value, im=None) -> GaussianRational:
    """Shorthand constructor: gr(2), gr('1/2'), gr(1, 2) == 1+2i."""
    if im is None:
        return GaussianRational.of(value)
    return GaussianRational(Fraction(value), Fraction(im))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def _grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), exps)


# Canonical ``(a, b, d)`` triples: the one Q(i) addition, multiplication
# and reduction, behind GaussianRational's operators and every term dict.
# Term dicts: exponent tuple -> canonical triple.  The one polynomial
# arithmetic, behind Poly's coefficient arithmetic and the expression
# parser; a zero sum deletes its key, so keys come out in the order of the
# loops below.

_ZERO = (0, 0, 1)
_ONE = (1, 0, 1)


def _reduced(a: int, b: int, d: int) -> tuple[int, int, int]:
    g = math.gcd(a, b, d)
    return (a // g, b // g, d // g) if g != 1 else (a, b, d)


def _triple_sum(p: tuple, q: tuple) -> tuple | None:
    """``p + q`` as a canonical triple, or None when it is zero; over a unit
    common denominator the sum needs no gcd."""
    a, b, d = p
    c, e, f = q
    if d == f:
        a, b = a + c, b + e
        if d == 1:
            return (a, b, 1) if a or b else None
    else:
        a, b, d = a * f + c * d, b * f + e * d, d * f
    return _reduced(a, b, d) if a or b else None


def _triple_product(p: tuple, q: tuple) -> tuple:
    """``p * q`` as a canonical triple; a real factor skips the cross
    products, and a product of two real integers the gcd."""
    a, b, d = p
    c, e, f = q
    if b == 0:
        if e == 0:
            if d == 1 and f == 1:
                return (a * c, 0, 1)
            return _reduced(a * c, 0, d * f)
        return _reduced(a * c, a * e, d * f)
    if e == 0:
        return _reduced(a * c, b * c, d * f)
    return _reduced(a * c - b * e, a * e + b * c, d * f)


def _accumulate(out: dict, e: Exponents, c: tuple) -> None:
    """``out[e] += c``, deleting the key when the sum is zero; a new key
    takes ``c`` as given, even a zero ``c``."""
    old = out.get(e)
    if old is None:
        out[e] = c
    elif (s := _triple_sum(old, c)) is None:
        del out[e]
    else:
        out[e] = s


def _terms_sum(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        _accumulate(out, e, c)
    return out


def _terms_negated(p: dict) -> dict:
    return {e: (-a, -b, d) for e, (a, b, d) in p.items()}


def _terms_product(p: dict, q: dict) -> dict:
    # times one term: the keys stay distinct and in the other factor's order
    one, many = (p, q) if len(p) == 1 else (q, p)
    if len(one) == 1:
        (e1, c1), = one.items()
        if not any(e1):
            return many if c1 == _ONE else {e: _triple_product(c, c1)
                                            for e, c in many.items()}
        return {tuple(map(operator.add, e, e1)): _triple_product(c, c1)
                for e, c in many.items()}
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            _accumulate(out, tuple(map(operator.add, ea, eb)), _triple_product(ca, cb))
    return out


def _terms_power(p: dict, k: int, one: dict) -> dict:
    """``p ** k`` by square-and-multiply from ``one``, the constant 1."""
    out = one
    while True:
        if k & 1:
            out = _terms_product(out, p)
        k >>= 1
        if not k:
            return out
        p = _terms_product(p, p)


def _triple_powers(a: tuple, k: int) -> list[tuple]:
    """``[a**0, a**1, ..., a**k]`` as canonical triples."""
    out = [_ONE]
    for _ in range(k):
        out.append(_triple_product(out[-1], a))
    return out


def _terms_restricted(p: dict, i: int, value: tuple = _ZERO) -> dict:
    """``p`` with ``x_i := value``, a canonical triple.  At zero exactly the
    terms free of ``x_i`` survive, unchanged, whatever their coefficients."""
    if not (value[0] or value[1]):
        return {e: c for e, c in p.items() if not e[i]}
    powers = _triple_powers(value, max((e[i] for e in p), default=0))
    out: dict = {}
    for e, c in p.items():
        if e[i]:
            c = _triple_product(c, powers[e[i]])
            e = e[:i] + (0,) + e[i + 1:]
        _accumulate(out, e, c)
    return out


def _terms_shifted(p: dict, offsets: Iterable[tuple[int, tuple]]) -> dict:
    """``p`` with ``x_i := x_i + a`` for each ``(i, a)``, ``a`` a nonzero
    canonical triple, in turn.

    Each term ``c * x_i**k`` expands into one dict as
    ``sum_j C(k, j) * a**(k - j) * c * x_i**j``, highest ``j`` first.
    """
    for i, a in offsets:
        powers = _triple_powers(a, max((e[i] for e in p), default=0))
        rows: dict[int, list[tuple]] = {}
        out: dict = {}
        for e, c in p.items():
            k = e[i]
            if k not in rows:   # C(k, j) * a**(k - j) for j = k, ..., 0
                rows[k] = [_triple_product(powers[k - j], (math.comb(k, j), 0, 1))
                           for j in range(k, -1, -1)]
            for j, b in zip(range(k, -1, -1), rows[k]):
                _accumulate(out, e[:i] + (j,) + e[i + 1:], _triple_product(c, b))
        p = out
    return p


def _over(num: dict, exps: Exponents) -> dict:
    """``num``'s terms divided by the monomial ``x**exps``, in their order;
    ``num`` itself when every exponent is 0."""
    if not any(exps):
        return num
    return {tuple(map(operator.sub, e, exps)): c for e, c in num.items()}


class Poly:
    """Sparse exact polynomial over Q(i) in an ordered tuple of variables.

    A polynomial stores ``vars`` and one term dict, ``_abd``, from exponent
    tuples to the canonical ``(a, b, d)`` triples of its nonzero
    coefficients; the zero polynomial has no terms.  ``Poly(vars, terms)``
    takes :class:`GaussianRational` coefficients and stores their triples in
    the same key order, and ``terms`` is a read-only view of the term dict
    with :class:`GaussianRational` values, in that order, built on its first
    read.  Instances are immutable: assigning or deleting any attribute
    raises ``AttributeError``.
    """

    def __init__(self, vars: tuple[str, ...],
                 terms: Mapping[Exponents, GaussianRational]) -> None:
        self.__dict__.update(vars=vars, _abd={e: c._abd for e, c in terms.items()})

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _poly, (self.vars, self._abd)

    def __repr__(self) -> str:
        return f"Poly(vars={self.vars!r}, terms={dict(self.terms)!r})"

    @cached_property
    def terms(self) -> Mapping[Exponents, GaussianRational]:
        return MappingProxyType({e: _raw(*c) for e, c in self._abd.items()})

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(vars: Sequence[str], terms: Mapping[Exponents, GaussianRational]) -> "Poly":
        return _poly(tuple(vars), {e: c._abd for e, c in terms.items() if not c.is_zero()})

    @staticmethod
    def zero(vars: Sequence[str]) -> "Poly":
        return _poly(tuple(vars), {})

    @staticmethod
    def constant(vars: Sequence[str], c) -> "Poly":
        return Poly.make(vars, {(0,) * len(vars): GaussianRational.of(c)})

    @staticmethod
    def variable(vars: Sequence[str], name: str) -> "Poly":
        vars = tuple(vars)
        if name not in vars:
            raise StructuralError(f"unknown variable {name!r} for {vars}")
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return _poly(vars, {tuple(e): _ONE})

    # -- structure ----------------------------------------------------------

    def _check_same_vars(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise StructuralError(
                f"variable lists differ: {self.vars} vs {other.vars}")

    def is_zero(self) -> bool:
        return not self._abd

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self._abd), default=-1)

    def order(self) -> float:
        """Lowest total degree of a term; +inf for the zero polynomial."""
        return min(map(sum, self._abd), default=math.inf)

    def var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise StructuralError(f"unknown variable {name!r} for {self.vars}") from None

    def coefficient(self, exps: Sequence[int]) -> GaussianRational:
        c = self._abd.get(tuple(exps))
        return GR_ZERO if c is None else _raw(*c)

    def constant_term(self) -> GaussianRational:
        return self.coefficient((0,) * len(self.vars))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self._abd == other._abd

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_vars(other)
        return _poly(self.vars, _terms_sum(self._abd, other._abd))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same_vars(other)
        return _poly(self.vars, _terms_sum(self._abd, _terms_negated(other._abd)))

    def __neg__(self) -> "Poly":
        return _poly(self.vars, _terms_negated(self._abd))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same_vars(other)
        return _poly(self.vars, _terms_product(self._abd, other._abd))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise StructuralError("negative polynomial power")
        one = {(0,) * len(self.vars): _ONE}
        return _poly(self.vars, _terms_power(self._abd, k, one))

    def scale(self, c) -> "Poly":
        c = GaussianRational.of(c)
        if c.is_zero():
            return Poly.zero(self.vars)
        c = c._abd
        return _poly(self.vars, {e: _triple_product(k, c) for e, k in self._abd.items()})

    def times_monomial(self, exps: Exponents) -> "Poly":
        """``self`` times the monomial with exponents ``exps`` (all >= 0).

        The term keys are shifted in their existing order and no coefficient
        is touched, so the result equals ``self`` times the one-term
        polynomial ``x**exps`` with coefficient 1.
        """
        if not any(exps):
            return self
        return _poly(self.vars, {tuple(x + k for x, k in zip(e, exps)): c
                                 for e, c in self._abd.items()})

    # -- calculus and reshaping ---------------------------------------------

    def partial(self, var: str) -> "Poly":
        """Exact formal partial derivative with respect to ``var``."""
        i = self.var_index(var)
        return _poly(self.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]:
                                 _triple_product(c, (e[i], 0, 1))
                                 for e, c in self._abd.items() if e[i]})

    def jet_truncate(self, n: int) -> "Poly":
        """Keep only the terms of total degree <= n (n >= 0)."""
        if n < 0:
            raise StructuralError("jet order must be nonnegative")
        return _poly(self.vars, {e: c for e, c in self._abd.items() if sum(e) <= n})

    def homogeneous_component(self, d: int) -> "Poly":
        """The exact degree-d homogeneous part."""
        if d < 0:
            raise StructuralError("degree must be nonnegative")
        return _poly(self.vars, {e: c for e, c in self._abd.items() if sum(e) == d})

    def restrict(self, var: str, value=0) -> "Poly":
        """Substitute ``var := value`` for an exact constant value."""
        i = self.var_index(var)
        if value:  # a text such as "0" is zero only once coerced
            value = GaussianRational.of(value)
        return _poly(self.vars, _terms_restricted(self._abd, i, value._abd if value else _ZERO))

    def shift(self, offsets: Mapping[str, "GaussianRational | int | Fraction"]) -> "Poly":
        """Translate coordinates: substitute ``x := x + a`` for each entry
        (:func:`_terms_shifted`)."""
        steps = []
        for name, a in offsets.items():
            a = GaussianRational.of(a)
            if not a.is_zero():
                steps.append((self.var_index(name), a._abd))
        return _poly(self.vars, _terms_shifted(self._abd, steps))

    def substitute_monomials(
        self, assignment: Mapping[str, tuple["GaussianRational | int | Fraction", Sequence[int]]]
    ) -> "Poly":
        """Total substitution of each variable by a monomial (exponents >= 0).

        ``assignment[name] = (coeff, exps)`` sends ``name`` to
        ``coeff * prod(vars[i] ** exps[i])``.  Unassigned variables map to
        themselves.  The substitution is a ring homomorphism.
        """
        cf = self.laurent_substitute(assignment)
        if not cf.is_holomorphic():
            raise StructuralError("substitution produced negative exponents")
        return cf.expand()

    def laurent_substitute(
        self, assignment: Mapping[str, tuple["GaussianRational | int | Fraction", Sequence[int]]]
    ) -> "ChartFunction":
        """Like :meth:`substitute_monomials` but exponents may be negative."""
        n = len(self.vars)
        images: list[tuple[tuple, Exponents]] = []
        for j, name in enumerate(self.vars):
            if name in assignment:
                c, exps = assignment[name]
                exps = tuple(exps)
                if len(exps) != n:
                    raise StructuralError("monomial exponent vector has wrong length")
                images.append((GaussianRational.of(c)._abd, exps))
            else:
                images.append((_ONE, tuple(int(t == j) for t in range(n))))
        for name in assignment:
            if name not in self.vars:
                raise StructuralError(f"unknown variable {name!r} for {self.vars}")
        terms = self._abd
        powers = [_triple_powers(cj, max((e[j] for e in terms), default=0))
                  for j, (cj, _) in enumerate(images)]
        out: dict = {}
        for e, c in terms.items():
            exps = [0] * n
            for j, k in enumerate(e):
                if k == 0:
                    continue
                c = _triple_product(c, powers[j][k])
                ej = images[j][1]
                for t in range(n):
                    exps[t] += ej[t] * k
            if not (c[0] or c[1]):
                continue
            _accumulate(out, tuple(exps), c)
        # make divides out the monomial content, negative exponents included
        return ChartFunction.make(_poly(self.vars, out))

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def _complex_terms(self) -> tuple[tuple[complex, tuple[tuple[int, int], ...]], ...]:
        """``(c.to_complex(), nonzero (index, power) pairs)`` per term, in term order."""
        try:
            return tuple((complex(a / d, b / d), tuple((j, k) for j, k in enumerate(e) if k))
                         for e, (a, b, d) in self._abd.items())
        except OverflowError:
            raise EvaluationOverflowError(_COEFFICIENT_TOO_LARGE) from None

    @cached_property
    def _evaluator(self) -> Callable[..., complex]:
        return _compile_evaluator(self)

    def eval_complex(self, point: Sequence[complex]) -> complex:
        if len(point) != len(self.vars):
            raise StructuralError("point dimension mismatch")
        return self._evaluator(*point)

    # -- univariate helpers ---------------------------------------------------

    def univariate_coeffs(self, var: str) -> list[GaussianRational]:
        """Dense coefficient list c[0..d] when the poly involves only ``var``."""
        i = self.var_index(var)
        for e in self._abd:
            for j, k in enumerate(e):
                if k and j != i:
                    raise StructuralError("polynomial is not univariate in " + var)
        if not self._abd:
            return [GR_ZERO]
        d = max(e[i] for e in self._abd)
        out = [GR_ZERO] * (d + 1)
        for e, c in self._abd.items():
            out[e[i]] = _raw(*c)
        return out

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """Canonical text: ordered terms, explicit '*', '^' powers, 'i' unit."""
        if not self._abd:
            return "0"
        parts: list[str] = []
        terms = sorted(self._abd.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        for n, (e, c) in enumerate(terms):
            sign, body = _term_text(self.vars, e, c)
            if n == 0:
                parts.append(body if sign > 0 else "-" + body)
            else:
                parts.append((" + " if sign > 0 else " - ") + body)
        return "".join(parts)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.render()


def _poly(vars: tuple[str, ...], abd: dict) -> Poly:
    """The :class:`Poly` whose term dict is ``abd``, exponent tuples to
    nonzero canonical triples, taken as given."""
    p = _new(Poly)
    p.__dict__.update(vars=vars, _abd=abd)
    return p


def _term_text(vars: tuple[str, ...], exps: Exponents, c: tuple) -> tuple[int, str]:
    """Return (sign, unsigned text) of one term for canonical rendering."""
    factors = [f"{v}^{k}" if k > 1 else v for v, k in zip(vars, exps) if k]
    # pure-real and pure-imaginary coefficients can absorb an overall sign;
    # with one part zero the other is already in lowest terms
    a, b, d = c
    if b == 0:
        sign = 1 if a > 0 else -1
        coeff_txt = None if abs(a) == d == 1 and factors else _ratio_text(abs(a), d)
    elif a == 0:
        sign = 1 if b > 0 else -1
        coeff_txt = _imag_text(_ratio_text(abs(b), d))
    else:
        sign = 1
        coeff_txt = f"({_raw(a, b, d).text()})"
    pieces = ([coeff_txt] if coeff_txt else []) + factors
    return sign, "*".join(pieces) if pieces else "1"


# ---------------------------------------------------------------------------
# Monomial content
# ---------------------------------------------------------------------------

def monomial_content(components: Iterable[Poly]) -> tuple[Exponents, list[Poly]]:
    """Greatest common monomial divisor of nonzero components.

    Returns ``(exponents, reduced)`` where every reduced nonzero component
    has no remaining common variable factor.  Zero components pass through
    unchanged; an all-zero input is degenerate.
    """
    comps = list(components)
    nonzero = [p for p in comps if not p.is_zero()]
    if not nonzero:
        raise DegenerateInputError("monomial content of all-zero input")
    vars = nonzero[0].vars
    for p in nonzero[1:]:
        if p.vars != vars:
            raise StructuralError("components live on different variable lists")
    exps = tuple(map(min, zip(*(e for p in nonzero for e in p._abd))))
    if not any(exps):
        return exps, comps
    return exps, [_poly(p.vars, _over(p._abd, exps)) for p in comps]


# ---------------------------------------------------------------------------
# Chart functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChartFunction:
    """``numerator * prod(x_i ** monomial_exponents[i])`` with integer exponents.

    The numerator carries no monomial content in any variable (fully
    extracted at construction), so the representation is canonical and the
    function is holomorphic iff every exponent is nonnegative.
    """

    numerator: Poly
    monomial_exponents: Exponents

    @staticmethod
    def make(numerator: Poly, exponents: Sequence[int] | None = None) -> "ChartFunction":
        n = len(numerator.vars)
        exps = tuple(exponents) if exponents is not None else (0,) * n
        if len(exps) != n:
            raise StructuralError("exponent vector has wrong length")
        if numerator.is_zero():
            return ChartFunction(numerator, (0,) * n)
        content, (reduced,) = monomial_content([numerator])
        exps = tuple(e + c for e, c in zip(exps, content))
        return ChartFunction(reduced, exps)

    @staticmethod
    def zero(vars: Sequence[str]) -> "ChartFunction":
        return ChartFunction(Poly.zero(vars), (0,) * len(vars))

    # -- structure -----------------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        return self.numerator.vars

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def is_holomorphic(self) -> bool:
        return all(e >= 0 for e in self.monomial_exponents)

    def order_in(self, var: str) -> float:
        """Order of vanishing along {var = 0}; +inf for the zero function."""
        if self.is_zero():
            return math.inf
        return self.monomial_exponents[self.numerator.var_index(var)]

    def expand(self) -> Poly:
        """Multiply back into a plain polynomial (requires holomorphy)."""
        if not self.is_holomorphic():
            raise PoleEvaluationError("chart function is meromorphic")
        return self.numerator.times_monomial(self.monomial_exponents)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChartFunction):
            return NotImplemented
        return (self.numerator == other.numerator
                and (self.is_zero() or self.monomial_exponents == other.monomial_exponents))

    # -- arithmetic ------------------------------------------------------------

    def _check_same_vars(self, other: "ChartFunction") -> None:
        if self.vars != other.vars:
            raise StructuralError(
                f"variable lists differ: {self.vars} vs {other.vars}")

    def __add__(self, other: "ChartFunction") -> "ChartFunction":
        self._check_same_vars(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        base = tuple(min(a, b) for a, b in
                     zip(self.monomial_exponents, other.monomial_exponents))
        pa = self.numerator.times_monomial(
            tuple(a - m for a, m in zip(self.monomial_exponents, base)))
        pb = other.numerator.times_monomial(
            tuple(b - m for b, m in zip(other.monomial_exponents, base)))
        return ChartFunction.make(pa + pb, base)

    def __sub__(self, other: "ChartFunction") -> "ChartFunction":
        return self + (-other)

    def __neg__(self) -> "ChartFunction":
        return ChartFunction(-self.numerator, self.monomial_exponents)

    def __mul__(self, other: "ChartFunction") -> "ChartFunction":
        self._check_same_vars(other)
        exps = tuple(a + b for a, b in
                     zip(self.monomial_exponents, other.monomial_exponents))
        return ChartFunction.make(self.numerator * other.numerator, exps)

    def scale(self, c) -> "ChartFunction":
        c = GaussianRational.of(c)
        if c.is_zero():
            return ChartFunction.zero(self.vars)
        return ChartFunction(self.numerator.scale(c), self.monomial_exponents)

    # -- evaluation --------------------------------------------------------------

    @cached_property
    def _powers(self) -> tuple[tuple[int, int], ...]:
        """Nonzero ``(index, exponent)`` pairs of the monomial factor."""
        return tuple((j, e) for j, e in enumerate(self.monomial_exponents) if e)

    @cached_property
    def _evaluator(self) -> Callable[..., complex]:
        return _compile_evaluator(self)

    def eval_complex(self, point: Sequence[complex]) -> complex:
        """Evaluate at a complex point; poles raise :class:`PoleEvaluationError`."""
        if len(point) != len(self.vars):
            raise StructuralError("point dimension mismatch")
        return self._evaluator(*point)

    # -- rendering ------------------------------------------------------------------

    def render(self) -> str:
        if self.is_holomorphic():
            return self.expand().render()
        mono = "*".join(
            f"{v}^{e}" if e != 1 else v
            for v, e in zip(self.vars, self.monomial_exponents) if e)
        num = self.numerator.render()
        if len(self.numerator._abd) > 1:
            num = f"({num})"
        return f"{mono}*{num}" if mono else num

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.render()


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------

# products summed in one generated expression; a longer sum goes on over
# further lines, so no expression nests deeper than the compiler allows
_TERMS_PER_LINE = 32


class _Source:
    """Straight-line source of one function of ``params`` and the values its
    names are bound to; :meth:`compile` turns it into the function.

    :meth:`evaluate` writes the floating-point evaluation of a
    :class:`Poly` or :class:`ChartFunction` at the point ``x0, x1, ...``,
    which earlier lines must bind.  Its operations are those of a
    term-by-term evaluation, in the same order: each numerator term is its
    complex coefficient times its variable powers in variable order, and the
    terms are added to ``0j`` in term order (a bare first coefficient is
    added to ``0j`` once, when the source is written, and the sum starts
    from the name bound to that value); then each nonzero monomial
    exponent, in variable order, multiplies in its power after the pole
    check of a negative one.  An ``x_j ** k`` is computed where it is first
    used and read back by name after that.  An ``OverflowError`` becomes
    :class:`EvaluationOverflowError`, and so does the ``ZeroDivisionError``
    of a negative power of a nonzero complex coordinate whose positive power
    underflows to zero.  Coefficients are bound to names,
    never written as text: the source holds only names, int indices and
    int exponents.  So :meth:`compile` compiles once per source text, not
    once per object: functions of one shape share one code object, and
    each ``exec`` of it binds that object's own names.
    """

    def __init__(self, params: Sequence[str]) -> None:
        self.params = tuple(params)
        self.lines: list[str] = []
        self.names: dict[str, object] = {
            "EvaluationOverflowError": EvaluationOverflowError,
            "PoleEvaluationError": PoleEvaluationError,
            "OVERFLOW": _OVERFLOW,
            "POLE": _POLE,
            "COEFFICIENT_TOO_LARGE": _COEFFICIENT_TOO_LARGE,
        }
        self._computed: set[tuple[int, int]] = set()

    def _power(self, j: int, k: int) -> str:
        name = f"p{j}_{k}" if k > 0 else f"p{j}_m{-k}"
        if (j, k) in self._computed:
            return name
        self._computed.add((j, k))
        return f"({name} := x{j} ** {k})"

    def evaluate(self, fun: "Poly | ChartFunction", out: str) -> None:
        """Append the lines that set ``out`` to ``fun`` at ``x0, x1, ...``."""
        numerator, monomial = ((fun.numerator, fun._powers)
                               if isinstance(fun, ChartFunction) else (fun, ()))
        try:
            terms = numerator._complex_terms
        except EvaluationOverflowError:
            self.lines.append("raise EvaluationOverflowError(COEFFICIENT_TOO_LARGE) from None")
            return
        products, total = [], "0j"
        for index, (c, powers) in enumerate(terms):
            name = f"c{len(self.names)}"
            if index == 0 and not powers:
                # a bare first coefficient: its sum with 0j is made here, once
                self.names[name] = 0j + c
                total = name
                continue
            self.names[name] = c
            products.append("*".join([name] + [self._power(j, k) for j, k in powers]))
        body = []
        for i in range(0, len(products), _TERMS_PER_LINE):
            body.append(f"{out} = {' + '.join([total] + products[i:i + _TERMS_PER_LINE])}")
            total = out
        for j, e in monomial:
            if e < 0:
                body += [f"if x{j} == 0:", "    raise PoleEvaluationError(POLE)"]
            body.append(f"{out} = {total} * {self._power(j, e)}")
            total = out
        if total != out:
            body.append(f"{out} = {total}")
        self.lines += ["try:", *(f"    {line}" for line in body),
                       "except (OverflowError, ZeroDivisionError):",
                       "    raise EvaluationOverflowError(OVERFLOW) from None"]

    def compile(self) -> Callable[..., object]:
        source = (f"def f({', '.join(self.params)}):\n"
                  + "".join(f"    {line}\n" for line in self.lines))
        exec(_code(source), self.names)
        return self.names.pop("f")


# source texts kept compiled; one field shape makes one text per use (an
# evaluator, or a lift along one kind of path), each kind of path one for its
# point and velocity, and each state length one integration loop: the
# dynamics workload's 2,000 items make 11
_CODE_CACHE_SIZE = 1024


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str) -> CodeType:
    """The code object of a :class:`_Source` text, compiled once per process."""
    return compile(source, "<string>", "exec")


def _compile_evaluator(fun: "Poly | ChartFunction") -> Callable[..., complex]:
    """``fun`` compiled to one function of the coordinates of a point."""
    source = _Source([f"x{j}" for j in range(len(fun.vars))])
    source.evaluate(fun, "value")
    source.lines.append("return value")
    return source.compile()


# ---------------------------------------------------------------------------
# Exact row reduction
# ---------------------------------------------------------------------------

def _reduced_echelon(rows):
    """Reduced row echelon form of a sparse matrix over Q(i).

    ``rows`` are dicts from column index to a nonzero Gaussian integer
    ``(re, im)``; a row stands for its span, so rows with rational entries
    are passed scaled by a common denominator.  Returns the nonzero rows of
    the reduced form as ``(pivot column, den, row)`` triples in ascending
    pivot order, the true row being ``row / den``: ``den`` is a positive
    int, ``row[pivot] == (den, 0)``, every other row's pivot column is
    absent, and the ints of ``row`` have no common factor.  The form is
    unique, so the result depends only on the row space and the column
    order.

    Rows are added one at a time: each is reduced against all stored rows
    over their common denominator, made monic at its leading column, and
    then removed from the stored rows that hold that column.  Every stored
    row is the exact reduced row, so its ints are no larger than those of
    its rational entries over their common denominator; each row update
    ends in one gcd over the row.  A row left with a single entry, at
    column p, is a unit row: it is stored as ``(1, {p: (1, 0)})`` without
    normalising, and removing it from a stored row only deletes that row's
    entry at p before the gcd, which is what the general update computes
    for it.  Most rows of the formal solver's blocks have a single entry.
    """
    done = {}  # pivot column -> (den, row)
    for r in rows:
        hits = [c for c in r if c in done]
        if hits:
            # r - sum_c r[c] / den_c * row_c, times the lcm of the den_c
            scale = math.lcm(*(done[c][0] for c in hits))
            out = {j: (scale * a, scale * b) for j, (a, b) in r.items() if j not in done}
            for c in hits:
                den, row = done[c]
                m = scale // den
                fa, fb = r[c]
                fa *= m
                fb *= m
                for j, (a, b) in row.items():
                    if j != c:
                        x, y = out.get(j, (0, 0))
                        out[j] = (x - fa * a + fb * b, y - fa * b - fb * a)
            r = {j: v for j, v in out.items() if v != (0, 0)}
        if not r:
            continue
        if len(r) == 1:
            # a unit row is monic as it stands, and removing it from a stored
            # row deletes that row's entry in its column
            (p,) = r
            for c, (oden, orow) in list(done.items()):
                if p in orow:
                    done[c] = _primitive(oden, {j: v for j, v in orow.items() if j != p})
            done[p] = (1, {p: (1, 0)})
            continue
        p = min(r)
        # divide by r[p] = x + yi: by |x| and its sign when real, else
        # multiply by its conjugate over x^2 + y^2
        x, y = r[p]
        if y:
            den = x * x + y * y
            row = {j: (a * x + b * y, b * x - a * y) for j, (a, b) in r.items()}
        else:
            den = abs(x)
            row = r if x > 0 else {j: (-a, -b) for j, (a, b) in r.items()}
        den, row = _primitive(den, row)
        for c, (oden, orow) in list(done.items()):
            f = orow.get(p)
            if f is None:
                continue
            # orow / oden - f / oden * row / den, over oden * den
            fa, fb = f
            out = {j: (den * a, den * b) for j, (a, b) in orow.items() if j != p}
            for j, (a, b) in row.items():
                if j != p:
                    x, y = out.get(j, (0, 0))
                    out[j] = (x - fa * a + fb * b, y - fa * b - fb * a)
            done[c] = _primitive(oden * den, {j: v for j, v in out.items() if v != (0, 0)})
        done[p] = (den, row)
    return [(c, *done[c]) for c in sorted(done)]


def _primitive(den, row):
    """``(den, row)`` divided by the gcd of ``den`` and every int of ``row``."""
    if den == 1:
        return den, row
    g = math.gcd(den, *itertools.chain.from_iterable(row.values()))
    if g == 1:
        return den, row
    return den // g, {j: (a // g, b // g) for j, (a, b) in row.items()}
