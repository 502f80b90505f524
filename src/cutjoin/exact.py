"""Exact scalar and series arithmetic.

* ``Fraction``       -- arbitrary-precision rationals (stdlib).
* ``RealTauPolynomial`` -- dense polynomial in one formal variable with
  rational coefficients, stored as integer numerators over one common
  denominator; the coefficient ring of the generating-series core.
* ``TauPolynomial``  -- i**0 or i**1 times a RealTauPolynomial: the values
  of the series in their original variables, and the closed forms they are
  compared with, each of which has one phase written out.
* ``GaussianRational`` -- a + b*i with rational a, b: only the readout of a
  TauPolynomial coefficient (``coeffs``, ``coefficient``, the ``{"re",
  "im"}`` JSON); no computation runs on it.
* ``LaurentSeries``  -- truncated Laurent series in one variable over the
  rationals or either tau-polynomial type (finite pole order, explicit
  truncation order).
* ``QHalfLaurent``   -- a power of i times a Laurent polynomial with integer
  coefficients in a half-integer power variable, exponents stored as
  integer multiples of the half-unit.

All values are immutable after construction and all operations are pure
functions, so values can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

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


class GaussianRational:
    """Exact complex number a + b*i with rational a and b: the readout of a
    TauPolynomial coefficient, never an operand of the computation."""

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

    # -- sum and product -------------------------------------------------
    # Test-side references use them, and the benchmark's traced run counts
    # their calls by name.

    def __add__(self, other):
        o = _gr(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __mul__(self, other):
        o = _gr(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    # -- structure -------------------------------------------------------

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


class RealTauPolynomial:
    """Dense polynomial in one formal variable with rational coefficients.

    The coefficients are stored as integer numerators over one positive
    common denominator.  The form is canonical: trailing zero numerators are
    trimmed (the zero polynomial has no numerators and denominator 1), and
    no prime divides the denominator and every numerator, so equal
    polynomials have equal (numerators, denominator) pairs.  Products and
    sums run on integers, with one gcd per result.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        fs = [as_fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fs))
        nums = [f.numerator * (den // f.denominator) for f in fs]
        self.nums, self.den = _canonical(nums, den)

    @classmethod
    def _make(cls, nums: list, den: int) -> "RealTauPolynomial":
        p = object.__new__(cls)
        p.nums, p.den = _canonical(nums, den)
        return p

    @classmethod
    def _raw(cls, nums: tuple, den: int) -> "RealTauPolynomial":
        p = object.__new__(cls)
        p.nums = nums
        p.den = den
        return p

    @classmethod
    def constant(cls, c) -> "RealTauPolynomial":
        c = as_fraction(c)
        return cls._raw((c.numerator,), c.denominator) if c else RTP_ZERO

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced fractions, constant term first."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else _ZERO

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not RealTauPolynomial:
            other = _rtp(other)
            if other is None:
                return NotImplemented
        a, b = self.nums, other.nums
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            a = [x * sa for x in a]
            b = [y * sb for y in b]
            da *= sa
        if len(a) < len(b):
            a, b = b, a
        nums = [x + y for x, y in zip(a, b)]
        nums.extend(a[len(b):])
        return RealTauPolynomial._make(nums, da)

    __radd__ = __add__

    def __neg__(self):
        return RealTauPolynomial._raw(tuple(-n for n in self.nums), self.den)

    def __mul__(self, other):
        if other.__class__ is RealTauPolynomial:
            a, b = self.nums, other.nums
            if not a or not b:
                return RTP_ZERO
            if len(a) < len(b):
                a, b = b, a
            out = [0] * (len(a) + len(b) - 1)
            for i, y in enumerate(b):
                if y:
                    for j, x in enumerate(a, i):
                        out[j] += x * y
            return RealTauPolynomial._make(out, self.den * other.den)
        if isinstance(other, int):
            if not other:
                return RTP_ZERO
            return RealTauPolynomial._make([n * other for n in self.nums], self.den)
        if isinstance(other, Fraction):
            if not other:
                return RTP_ZERO
            p = other.numerator
            return RealTauPolynomial._make(
                [n * p for n in self.nums], self.den * other.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self) -> "RealTauPolynomial":
        return RealTauPolynomial._make(
            [k * n for k, n in enumerate(self.nums) if k], self.den
        )

    def divmod_poly(self, divisor: "RealTauPolynomial"):
        """Exact long division: (q, r) with self = q*divisor + r and
        deg r < deg divisor."""
        if not divisor.nums:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = divisor.coeffs
        q = [_ZERO] * max(len(rem) - len(d) + 1, 0)
        while len(rem) >= len(d):
            k = len(rem) - len(d)
            q[k] = factor = rem[-1] / d[-1]
            for j, c in enumerate(d):
                rem[k + j] -= factor * c
            while rem and not rem[-1]:
                rem.pop()
        return RealTauPolynomial(q), RealTauPolynomial(rem)

    # -- structure -------------------------------------------------------

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if other.__class__ is not RealTauPolynomial:
            other = _rtp(other)
            if other is None:
                return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        if len(self.nums) <= 1:
            return hash(self.coefficient(0))
        return hash((self.nums, self.den))

    def __repr__(self):
        return "RealTauPolynomial(" + ", ".join(str(c) for c in self.coeffs) + ")"


def _canonical(nums: list, den: int) -> tuple[tuple, int]:
    """Trim trailing zeros and divide out the common factor of the
    numerators and the (positive) denominator."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    g = gcd(den, *nums)
    if g != 1:
        return tuple(n // g for n in nums), den // g
    return tuple(nums), den


def _rtp(x):
    """The constant polynomial of an int or Fraction; None for anything else."""
    if isinstance(x, (int, Fraction)):
        return RealTauPolynomial.constant(x)
    return None


RTP_ZERO = RealTauPolynomial._raw((), 1)


class TauPolynomial:
    """i**k times a RealTauPolynomial: a polynomial in one formal variable
    over the Gaussian rationals whose coefficients all share one phase.

    The constructor takes rational coefficients (phase i**0); a phase comes
    only from `phased`.  The phase is kept at i**0 or i**1 (a factor
    i**2 = -1 goes into the signs; zero has phase 0), as in QHalfLaurent, so
    equality of (real, i_power) is canonical.  Every operation runs on the
    rational polynomial and adds phases; a sum of nonzero values with
    different phases has no common phase and raises ValueError.  The
    readouts (coeffs, coefficient, to_json) are Gaussian rationals.
    """

    __slots__ = ("real", "i_power")

    def __init__(self, coeffs=()):
        self.real = RealTauPolynomial(coeffs)
        self.i_power = 0

    @classmethod
    def phased(cls, real, k: int) -> "TauPolynomial":
        """i**k times a real tau-polynomial (or the integer 0)."""
        if not real:
            return TP_ZERO
        k %= 4
        if k >= 2:
            real, k = -real, k - 2
        p = object.__new__(cls)
        p.real = real
        p.i_power = k
        return p

    @classmethod
    def constant(cls, c) -> "TauPolynomial":
        return cls((c,))

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """The coefficients as Gaussian rationals, constant term first."""
        return tuple(self._readout(c) for c in self.real.coeffs)

    @property
    def degree(self) -> int:
        return self.real.degree

    def coefficient(self, k: int) -> GaussianRational:
        return self._readout(self.real.coefficient(k))

    def _readout(self, c: Fraction) -> GaussianRational:
        """The rational coefficient c times this value's phase."""
        if self.i_power:
            return GaussianRational._raw(_ZERO, c)
        return GaussianRational._raw(c, _ZERO)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _tp(other)
        if o is None:
            return NotImplemented
        if not o:
            return self
        if not self:
            return o
        if self.i_power != o.i_power:
            raise ValueError("a sum of terms with phases i^0 and i^1 has no common phase")
        return TauPolynomial.phased(self.real + o.real, self.i_power)

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
        return TauPolynomial.phased(-self.real, self.i_power)

    def __mul__(self, other):
        o = _tp(other)
        if o is None:
            return NotImplemented
        return TauPolynomial.phased(self.real * o.real, self.i_power + o.i_power)

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
        return TauPolynomial.phased(self.real.derivative(), self.i_power)

    def substitute(self, p: "TauPolynomial") -> "TauPolynomial":
        """Polynomial composition self(p).  For an imaginary p the terms of
        even and odd degree get different phases, so a self with both raises
        ValueError."""
        acc = TP_ZERO
        for c in reversed(self.real.coeffs):
            acc = acc * p + c
        return TauPolynomial.phased(acc.real, acc.i_power + self.i_power)

    def divmod_poly(self, divisor: "TauPolynomial"):
        """Exact long division: the quotient's phase is the difference of the
        two phases, and the remainder keeps the dividend's."""
        q, r = self.real.divmod_poly(divisor.real)
        return (
            TauPolynomial.phased(q, self.i_power - divisor.i_power),
            TauPolynomial.phased(r, self.i_power),
        )

    # -- structure -------------------------------------------------------

    def __bool__(self):
        return bool(self.real)

    def __eq__(self, other):
        o = _tp(other)
        if o is None:
            return NotImplemented
        return self.i_power == o.i_power and self.real == o.real

    def __hash__(self):
        return hash((self.real, 1)) if self.i_power else hash(self.real)

    def __repr__(self):
        if not self.real:
            return "TauPolynomial(0)"
        return "TauPolynomial(" + ", ".join(repr(c) for c in self.coeffs) + ")"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


def _tp(x):
    """A scalar as a constant TauPolynomial; None for anything else."""
    if isinstance(x, TauPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return TauPolynomial((x,))
    return None


TP_ZERO = TauPolynomial()
TP_ONE = TauPolynomial((1,))
TP_TAU = TauPolynomial((0, 1))
TP_I = TauPolynomial.phased(TP_ONE.real, 1)

_SCALARS = (int, Fraction, TauPolynomial, RealTauPolynomial)


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

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by the k-th power of the series variable."""
        return LaurentSeries._raw(self.min_exp + k, self.coeffs, self.trunc_order + k)

    def truncate(self, trunc_order: int) -> "LaurentSeries":
        if trunc_order >= self.trunc_order:
            return self
        if trunc_order < self.min_exp:
            return LaurentSeries.zero(trunc_order)
        n = trunc_order - self.min_exp + 1
        return LaurentSeries(self.min_exp, self.coeffs[:n], trunc_order)

    def reciprocal(self) -> "LaurentSeries":
        """Multiplicative inverse of a series over the rationals, valid to
        trunc_order - 2*min_exp."""
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of a zero-so-far series")
        m = self.min_exp
        trunc = self.trunc_order - 2 * m
        c0inv = Fraction(1) / self.coeffs[0]
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
    return _odd_half_series(c, order, -1)


def sinh_half_series(c, order: int) -> LaurentSeries:
    """Series of sinh(c*x/2) = sum_k (c/2)^(2k+1) x^(2k+1)/(2k+1)!."""
    return _odd_half_series(c, order, 1)


def _odd_half_series(c, order: int, sign: int) -> LaurentSeries:
    """sum_k sign^k (c/2)^(2k+1) x^(2k+1)/(2k+1)!: sin for sign -1, sinh for +1."""
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
        term = power * Fraction(sign**k, factorial(2 * k + 1))
        coeffs[2 * k] = term
        power = power * half * half
        k += 1
    return LaurentSeries(1, coeffs, order)


def series_exp(x: LaurentSeries, order: int | None = None) -> LaurentSeries:
    """exp of a series with strictly positive valuation.

    F = exp(A) solves x F' = (x A') F, which is the Euler recurrence

        F_0 = 1,    n * F_n = sum_{k=1..n} k * A_k * F_(n-k),

    one pass over the nonzero A_k per coefficient of F.  The result is valid
    to min(order, truncation order of the argument).
    """
    if order is None:
        order = x.trunc_order
    x = x.truncate(order)
    if not x.is_zero() and x.min_exp < 1:
        raise ValueError(
            f"series_exp requires positive valuation; found exponent {x.min_exp}"
        )
    trunc = min(order, x.trunc_order)
    weighted = [(k, c * k) for k, c in x.items() if not _is_zero(c)]
    out = [1]
    for n in range(1, trunc + 1):
        acc = 0
        for k, kc in weighted:
            if k > n:
                break
            f = out[n - k]
            if not _is_zero(f):
                acc = acc + kc * f
        out.append(acc * Fraction(1, n) if not _is_zero(acc) else 0)
    return LaurentSeries(0, out, trunc)


def series_log(x: LaurentSeries, order: int | None = None) -> LaurentSeries:
    """log of a series with constant term 1.

    G = log(F) solves the recurrence of series_exp read the other way:

        n * G_n = n * F_n - sum_{k=1..n-1} k * G_k * F_(n-k).

    The result is valid to min(order, truncation order of the argument).
    """
    if order is None:
        order = x.trunc_order
    x = x.truncate(order)
    if x.min_exp < 0:
        raise ValueError(f"series_log requires constant term 1; found pole at {x.min_exp}")
    if not _eq_coeff(x.coefficient(0), 1):
        raise ValueError(f"series_log requires constant term 1, got {x.coefficient(0)!r}")
    f = [x.coefficient(n) for n in range(x.trunc_order + 1)]
    out = [0]
    for n in range(1, len(f)):
        acc = f[n] * n
        for k in range(1, n):
            g, c = out[k], f[n - k]
            if not _is_zero(g) and not _is_zero(c):
                acc = acc + g * (c * -k)
        out.append(acc * Fraction(1, n) if not _is_zero(acc) else 0)
    return LaurentSeries(0, out, x.trunc_order)


class QHalfLaurent:
    """A power of i times a Laurent polynomial with integer coefficients in a
    half-integer power variable.

    Exponents are integers counting half-units, so the monomial q**(m/2) is
    stored under key m.  Zero terms are dropped and the phase is kept at
    i**0 or i**1 (a factor i**2 = -1 goes into the signs of the terms; zero
    has phase 0), which makes equality of (terms, phase) canonical.
    """

    __slots__ = ("terms", "i_power")

    def __init__(self, terms=(), i_power: int = 0):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for k, v in items:
            if not isinstance(v, int):
                raise TypeError(f"coefficient {v!r} is not an integer")
            v = data.get(k, 0) + v
            if v:
                data[k] = v
            else:
                data.pop(k, None)
        self.terms, self.i_power = _qhalf_canonical(data, i_power)

    @classmethod
    def zero(cls) -> "QHalfLaurent":
        return cls()

    @classmethod
    def one(cls) -> "QHalfLaurent":
        return cls.monomial(1, 0)

    @classmethod
    def monomial(cls, coeff: int, half_exp: int) -> "QHalfLaurent":
        return cls(((half_exp, coeff),))

    def __add__(self, other):
        if not isinstance(other, QHalfLaurent):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        if self.i_power != other.i_power:
            raise ValueError("a sum of terms with phases i^0 and i^1 has no common phase")
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QHalfLaurent._from_clean(out, self.i_power)

    def __sub__(self, other):
        if not isinstance(other, QHalfLaurent):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QHalfLaurent._from_clean(
            {k: -v for k, v in self.terms.items()}, self.i_power
        )

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return QHalfLaurent.zero()
            return QHalfLaurent._from_clean(
                {k: v * other for k, v in self.terms.items()}, self.i_power
            )
        if not isinstance(other, QHalfLaurent):
            return NotImplemented
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + v1 * v2
        return QHalfLaurent._from_clean(
            {k: v for k, v in out.items() if v}, self.i_power + other.i_power
        )

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
    def _from_clean(cls, data: dict, i_power: int) -> "QHalfLaurent":
        q = object.__new__(cls)
        q.terms, q.i_power = _qhalf_canonical(data, i_power)
        return q

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, QHalfLaurent):
            return NotImplemented
        return self.i_power == other.i_power and self.terms == other.terms

    def __hash__(self):
        return hash((self.i_power, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "QHalfLaurent(0)"
        bits = [f"{c}*q^({k}/2)" for k, c in sorted(self.terms.items())]
        poly = " + ".join(bits)
        return f"QHalfLaurent(i*({poly}))" if self.i_power else f"QHalfLaurent({poly})"


def _qhalf_canonical(data: dict, i_power: int) -> tuple[dict, int]:
    """Phase reduced to 0 or 1 with i**2 = -1 moved into the terms."""
    if not data:
        return data, 0
    i_power %= 4
    if i_power >= 2:
        return {k: -v for k, v in data.items()}, i_power - 2
    return data, i_power
