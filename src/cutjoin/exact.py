"""Exact scalar and series arithmetic.

The coefficient tower used everywhere else in the package:

* ``Fraction``       -- arbitrary-precision rationals (stdlib).
* ``GaussianRational`` -- a + b*i with rational a, b; carries the exact
  powers of sqrt(-1) that the generating functions produce.
* ``TauPolynomial``  -- dense polynomial in one formal variable over
  GaussianRational.
* ``LaurentSeries``  -- truncated Laurent series in one variable over any of
  the rings above (finite pole order, explicit truncation order).
* ``QHalfLaurent``   -- Laurent polynomial in a half-integer power variable,
  exponents stored as integer multiples of the half-unit.

All values are immutable after construction and all operations are pure
functions, so values can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

Rational = Fraction


def as_fraction(x) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything inexact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def fraction_str(x: Fraction) -> str:
    """Serialize a rational as a "num/den" string (denominator always kept)."""
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Inverse of :func:`fraction_str`; also accepts plain integers."""
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


_ZERO = Fraction(0)
_ONE = Fraction(1)


class GaussianRational:
    """Exact complex number a + b*i with rational a and b (i*i = -1)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        g = object.__new__(cls)
        g.re = re
        g.im = im
        return g

    @classmethod
    def i_power(cls, k: int) -> "GaussianRational":
        """The exact value of i**k for any integer k."""
        return _I_POWERS[k % 4]

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational._raw(as_fraction(x), _ZERO)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _gr(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _gr(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _gr(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = _gr(other)
        if o is None:
            return NotImplemented
        # fast paths: purely real or purely imaginary operands dominate
        if not self.im:
            if not self.re:
                return GR_ZERO
            return GaussianRational._raw(self.re * o.re, self.re * o.im)
        if not o.im:
            if not o.re:
                return GR_ZERO
            return GaussianRational._raw(self.re * o.re, self.im * o.re)
        return GaussianRational._raw(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __truediv__(self, other):
        o = _gr(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _gr(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = GR_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational._raw(self.re / norm, -self.im / norm)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    # -- structure -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = _gr(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"

    def to_json(self):
        return {"re": fraction_str(self.re), "im": fraction_str(self.im)}


def _gr(x):
    """Internal coercion; returns None when x is not scalar-like."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational._raw(as_fraction(x), _ZERO)
    return None


GR_ZERO = GaussianRational._raw(_ZERO, _ZERO)
GR_ONE = GaussianRational._raw(_ONE, _ZERO)
GR_I = GaussianRational._raw(_ZERO, _ONE)
_I_POWERS = (GR_ONE, GR_I, -GR_ONE, -GR_I)


class TauPolynomial:
    """Dense polynomial in one formal variable over GaussianRational.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero, so degree(p*q) = degree(p) + degree(q).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [GaussianRational.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "TauPolynomial":
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def constant(cls, c) -> "TauPolynomial":
        c = GaussianRational.coerce(c)
        return cls._raw((c,)) if c else TP_ZERO

    @classmethod
    def variable(cls) -> "TauPolynomial":
        return TP_TAU

    @staticmethod
    def coerce(x) -> "TauPolynomial":
        if isinstance(x, TauPolynomial):
            return x
        return TauPolynomial.constant(x)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> GaussianRational:
        return self.coeffs[0] if self.coeffs else GR_ZERO

    def coefficient(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else GR_ZERO

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _tp(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for k, c in enumerate(b):
            cs[k] = cs[k] + c
        while cs and not cs[-1]:
            cs.pop()
        return TauPolynomial._raw(tuple(cs))

    __radd__ = __add__

    def __sub__(self, other):
        o = _tp(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _tp(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return TauPolynomial._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, TauPolynomial):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return TP_ZERO
            out = [GR_ZERO] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if not ca:
                    continue
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = out[i + j] + ca * cb
            return TauPolynomial._raw(tuple(out))
        s = _gr(other)
        if s is None:
            return NotImplemented
        if not s:
            return TP_ZERO
        return TauPolynomial._raw(tuple(c * s for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n} for a tau-polynomial")
        result = TP_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "TauPolynomial":
        cs = tuple(k * c for k, c in enumerate(self.coeffs) if k)
        return TauPolynomial(cs)

    def evaluate(self, x) -> GaussianRational:
        x = GaussianRational.coerce(x)
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute(self, p: "TauPolynomial") -> "TauPolynomial":
        """Polynomial composition self(p)."""
        acc = TP_ZERO
        for c in reversed(self.coeffs):
            acc = acc * p + TauPolynomial.constant(c)
        return acc

    def divmod_poly(self, divisor: "TauPolynomial"):
        """Exact long division over the Gaussian rationals."""
        if not divisor.coeffs:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dlead = divisor.coeffs[-1].inverse()
        dd = divisor.degree
        q = [GR_ZERO] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            factor = rem[-1] * dlead
            q[k] = factor
            for j, c in enumerate(divisor.coeffs):
                rem[k + j] = rem[k + j] - factor * c
            while rem and not rem[-1]:
                rem.pop()
        return TauPolynomial(q), TauPolynomial(rem)

    def inverse(self) -> "TauPolynomial":
        if self.degree != 0:
            raise ZeroDivisionError(
                f"only degree-0 polynomials are invertible, got degree {self.degree}"
            )
        return TauPolynomial._raw((self.coeffs[0].inverse(),))

    # -- structure -------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        o = _tp(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "TauPolynomial(0)"
        return "TauPolynomial(" + ", ".join(repr(c) for c in self.coeffs) + ")"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


def _tp(x):
    if isinstance(x, TauPolynomial):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return TauPolynomial.constant(x)
    return None


TP_ZERO = TauPolynomial._raw(())
TP_ONE = TauPolynomial._raw((GR_ONE,))
TP_TAU = TauPolynomial._raw((GR_ZERO, GR_ONE))

_SCALARS = (int, Fraction, GaussianRational, TauPolynomial)


def _is_zero(c) -> bool:
    return not c


class LaurentSeries:
    """Truncated Laurent series in one variable over a commutative ring.

    Coefficients are known exactly for exponents ``min_exp .. trunc_order``
    and are zero below ``min_exp``; nothing is asserted above the truncation
    order.  Arithmetic propagates the tightest truncation implied by the
    operands so comparisons can never read past valid orders.

    The canonical zero-so-far series has an empty coefficient tuple and
    ``min_exp == trunc_order + 1``.
    """

    __slots__ = ("min_exp", "coeffs", "trunc_order")

    def __init__(self, min_exp: int, coeffs, trunc_order: int | None = None):
        cs = list(coeffs)
        if trunc_order is None:
            trunc_order = min_exp + len(cs) - 1
        if min_exp + len(cs) - 1 > trunc_order:
            raise ValueError("more coefficients than the truncation order allows")
        # pad sparse tails so the dense range always reaches trunc_order
        cs.extend([0] * (trunc_order - min_exp + 1 - len(cs)))
        while cs and _is_zero(cs[0]):
            cs.pop(0)
            min_exp += 1
        self.min_exp = min_exp if cs else trunc_order + 1
        self.coeffs = tuple(cs)
        self.trunc_order = trunc_order

    @classmethod
    def _raw(cls, min_exp, coeffs, trunc_order):
        s = object.__new__(cls)
        s.min_exp = min_exp
        s.coeffs = coeffs
        s.trunc_order = trunc_order
        return s

    @classmethod
    def zero(cls, trunc_order: int) -> "LaurentSeries":
        return cls._raw(trunc_order + 1, (), trunc_order)

    @classmethod
    def one(cls, trunc_order: int) -> "LaurentSeries":
        return cls.monomial(1, 0, trunc_order)

    @classmethod
    def monomial(cls, coeff, exp: int, trunc_order: int) -> "LaurentSeries":
        if exp > trunc_order:
            raise ValueError(f"exponent {exp} exceeds truncation order {trunc_order}")
        if _is_zero(coeff):
            return cls.zero(trunc_order)
        return cls(exp, [coeff], trunc_order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, k: int):
        """Known coefficient of exponent k; raises past the truncation order."""
        if k > self.trunc_order:
            raise ValueError(
                f"coefficient of exponent {k} is beyond truncation order {self.trunc_order}"
            )
        if k < self.min_exp:
            return 0
        return self.coeffs[k - self.min_exp]

    def items(self):
        return ((self.min_exp + i, c) for i, c in enumerate(self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        trunc = min(self.trunc_order, o.trunc_order)
        lo = min(self.min_exp, o.min_exp)
        if lo > trunc:
            return LaurentSeries.zero(trunc)
        out = [0] * (trunc - lo + 1)
        for src in (self, o):
            for i, c in enumerate(src.coeffs):
                k = src.min_exp + i
                if k > trunc:
                    break
                if not _is_zero(c):
                    out[k - lo] = out[k - lo] + c
        return LaurentSeries(lo, out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries._raw(
            self.min_exp, tuple(-c for c in self.coeffs), self.trunc_order
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            if self.is_zero() or other.is_zero():
                # truncation of a product with a zero-so-far factor
                trunc = min(
                    self.trunc_order + other.min_exp,
                    other.trunc_order + self.min_exp,
                )
                return LaurentSeries.zero(trunc)
            lo = self.min_exp + other.min_exp
            trunc = min(
                self.trunc_order + other.min_exp,
                other.trunc_order + self.min_exp,
            )
            out = [0] * (trunc - lo + 1)
            for i, a in enumerate(self.coeffs):
                if _is_zero(a):
                    continue
                ka = self.min_exp + i
                jmax = trunc - ka - other.min_exp
                if jmax < 0:
                    break
                for j, b in enumerate(other.coeffs[: jmax + 1]):
                    if not _is_zero(b):
                        k = ka + other.min_exp + j - lo
                        out[k] = out[k] + a * b
            return LaurentSeries(lo, out, trunc)
        if isinstance(other, _SCALARS):
            if _is_zero(other):
                return LaurentSeries.zero(self.trunc_order)
            return LaurentSeries(
                self.min_exp,
                [c * other if not _is_zero(c) else 0 for c in self.coeffs],
                self.trunc_order,
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n} for a Laurent series")
        if n == 0:
            return LaurentSeries.one(self.trunc_order)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by the k-th power of the series variable."""
        return LaurentSeries._raw(self.min_exp + k, self.coeffs, self.trunc_order + k)

    def truncate(self, trunc_order: int) -> "LaurentSeries":
        if trunc_order >= self.trunc_order:
            return self
        n = trunc_order - self.min_exp + 1
        return LaurentSeries(self.min_exp, self.coeffs[:max(n, 0)], trunc_order)

    def reciprocal(self) -> "LaurentSeries":
        """Multiplicative inverse, valid to trunc_order - 2*min_exp."""
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of a zero-so-far series")
        m = self.min_exp
        trunc = self.trunc_order - 2 * m
        c0 = self.coeffs[0]
        c0inv = (
            Fraction(1) / c0
            if isinstance(c0, (int, Fraction))
            else c0.inverse()
        )
        # u = self / (c0 * x^m) - 1 has positive valuation
        u = [c * c0inv for c in self.coeffs[1 : trunc + m + 1]]
        inv = [0] * (trunc + m + 1)
        inv[0] = 1
        # geometric series sum_k (-u)^k, computed by the standard recurrence
        # inv[k] = -sum_{j=1..k} u[j-1] * inv[k-j]
        for k in range(1, len(inv)):
            acc = 0
            for j in range(1, min(k, len(u)) + 1):
                uj = u[j - 1]
                if not _is_zero(uj):
                    acc = acc + uj * inv[k - j]
            inv[k] = -acc if not _is_zero(acc) else 0
        scaled = [c * c0inv if not _is_zero(c) else 0 for c in inv]
        return LaurentSeries(-m, scaled, trunc)

    def map_coefficients(self, f) -> "LaurentSeries":
        return LaurentSeries(
            self.min_exp, [f(c) for c in self.coeffs], self.trunc_order
        )

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (
            self.min_exp == o.min_exp
            and self.trunc_order == o.trunc_order
            and len(self.coeffs) == len(o.coeffs)
            and all(a == b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __hash__(self):
        return hash((self.min_exp, self.trunc_order, self.coeffs))

    def agrees_with(self, other: "LaurentSeries", up_to: int | None = None) -> bool:
        """Exact coefficient agreement on the jointly valid exponent range."""
        common = min(self.trunc_order, other.trunc_order)
        if up_to is not None:
            common = min(common, up_to)
        lo = min(self.min_exp, other.min_exp)
        for k in range(lo, common + 1):
            if not _eq_coeff(self.coefficient(k), other.coefficient(k)):
                return False
        return True

    def _coerce(self, other):
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, _SCALARS):
            if _is_zero(other):
                return LaurentSeries.zero(self.trunc_order)
            if self.trunc_order < 0:
                raise ValueError("cannot embed a constant below truncation order 0")
            return LaurentSeries.monomial(other, 0, self.trunc_order)
        return None

    def __repr__(self):
        terms = ", ".join(f"{c!r}*x^{k}" for k, c in self.items() if not _is_zero(c))
        return f"LaurentSeries({terms or '0'}; O(x^{self.trunc_order + 1}))"

    def to_json(self):
        return {
            "min_exp": self.min_exp,
            "trunc_order": self.trunc_order,
            "coeffs": [_coeff_json(c) for c in self.coeffs],
        }


def _eq_coeff(a, b) -> bool:
    if isinstance(a, int) and a == 0:
        return _is_zero(b)
    if isinstance(b, int) and b == 0:
        return _is_zero(a)
    return a == b


def _coeff_json(c):
    if isinstance(c, int):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return fraction_str(c)
    return c.to_json()


def sin_half_series(c, order: int) -> LaurentSeries:
    """Series of sin(c*x/2) = sum_k (-1)^k (c/2)^(2k+1) x^(2k+1)/(2k+1)!.

    The scale c may be any exact scalar, including a TauPolynomial.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if _is_zero(c):
        return LaurentSeries.zero(order)
    if isinstance(c, int):
        c = Fraction(c)
    half = c * Fraction(1, 2)
    coeffs = [0] * order  # exponents 1..order
    power = half
    k = 0
    while 2 * k + 1 <= order:
        term = power * Fraction((-1) ** k, factorial(2 * k + 1))
        coeffs[2 * k] = term
        power = power * half * half
        k += 1
    return LaurentSeries(1, coeffs, order)


def series_exp(x: LaurentSeries, order: int | None = None) -> LaurentSeries:
    """exp of a series with strictly positive valuation."""
    if order is None:
        order = x.trunc_order
    x = x.truncate(order)
    if not x.is_zero() and x.min_exp < 1:
        raise ValueError(
            f"series_exp requires positive valuation; found exponent {x.min_exp}"
        )
    result = LaurentSeries.one(order)
    term = LaurentSeries.one(order)
    k = 1
    while not term.is_zero() and k * max(x.min_exp, 1) <= order:
        term = (term * x) * Fraction(1, k)
        if term.is_zero():
            break
        result = result + term
        k += 1
    return result


def series_log(x: LaurentSeries, order: int | None = None) -> LaurentSeries:
    """log of a series with constant term 1."""
    if order is None:
        order = x.trunc_order
    x = x.truncate(order)
    if x.min_exp < 0:
        raise ValueError(f"series_log requires constant term 1; found pole at {x.min_exp}")
    if not _eq_coeff(x.coefficient(0), 1):
        raise ValueError(f"series_log requires constant term 1, got {x.coefficient(0)!r}")
    h = x - 1
    result = LaurentSeries.zero(order)
    power = LaurentSeries.one(order)
    k = 1
    while not h.is_zero() and k * h.min_exp <= order:
        power = power * h
        result = result + power * Fraction((-1) ** (k + 1), k)
        k += 1
    return result


class QHalfLaurent:
    """Laurent polynomial in a half-integer power variable.

    Exponents are integers counting half-units, so the monomial q**(m/2) is
    stored under key m.  Coefficients are Gaussian rationals; zero terms are
    dropped, which makes equality of coefficient maps canonical.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for k, v in items:
            v = GaussianRational.coerce(v)
            if not v:
                continue
            if k in data:
                v = data[k] + v
                if v:
                    data[k] = v
                else:
                    del data[k]
            else:
                data[k] = v
        self.terms = data

    @classmethod
    def zero(cls) -> "QHalfLaurent":
        return cls()

    @classmethod
    def one(cls) -> "QHalfLaurent":
        return cls.monomial(1, 0)

    @classmethod
    def monomial(cls, coeff, half_exp: int) -> "QHalfLaurent":
        return cls(((half_exp, coeff),))

    def __add__(self, other):
        if not isinstance(other, QHalfLaurent):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, GR_ZERO) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QHalfLaurent._from_clean(out)

    def __sub__(self, other):
        if not isinstance(other, QHalfLaurent):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QHalfLaurent._from_clean({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            s = GaussianRational.coerce(other)
            if not s:
                return QHalfLaurent.zero()
            return QHalfLaurent._from_clean(
                {k: v * s for k, v in self.terms.items()}
            )
        if not isinstance(other, QHalfLaurent):
            return NotImplemented
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, GR_ZERO) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return QHalfLaurent._from_clean(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n} for a q^(1/2)-Laurent polynomial")
        result = QHalfLaurent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @classmethod
    def _from_clean(cls, data: dict) -> "QHalfLaurent":
        q = object.__new__(cls)
        q.terms = data
        return q

    def substitute(self, value) -> GaussianRational:
        """Evaluate at q**(1/2) = value; a ring homomorphism."""
        v = GaussianRational.coerce(value)
        acc = GR_ZERO
        for k, c in self.terms.items():
            acc = acc + c * v**k
        return acc

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, QHalfLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "QHalfLaurent(0)"
        bits = [f"{c!r}*q^({k}/2)" for k, c in sorted(self.terms.items())]
        return "QHalfLaurent(" + " + ".join(bits) + ")"


def qhalf_eval_check(lhs: QHalfLaurent, rhs: QHalfLaurent) -> bool:
    """True iff the two coefficient maps agree exactly after normalization."""
    return lhs == rhs
