"""Exact scalar and series arithmetic.

* ``Fraction``       -- arbitrary-precision rationals (stdlib).
* ``RealTauPolynomial`` -- dense polynomial in one formal variable with
  rational coefficients, stored as integer numerators over one common
  denominator; the coefficient ring of the generating-series core.
* ``TauPolynomial``  -- i**0 or i**1 times a RealTauPolynomial: a printed
  series value in its original variables lambda and p, the phase attached
  once, where the value is read out; no check runs on it.  Its ``{"re",
  "im"}`` JSON puts each rational coefficient on the side of the phase.
* ``GaussianRational`` -- a + b*i with rational a, b: no command builds one.
  The tests read a TauPolynomial out as Gaussian rationals against the
  paper's forms, and the benchmark's traced run counts its sum and product.
* ``LaurentSeries``  -- truncated Laurent series in one variable over the
  rationals or the rational tau-polynomials (finite pole order, explicit
  truncation order).
* ``QHalfLaurent``   -- i**0 or i**1 times y**low times an integer list in
  y = q**(1/2), its phase folded by TauPolynomial's rule.  A product of
  binomials 1 - y**e, the form of every sine and hook product, is built by
  `binomial_product` on one integer list, one shift-subtract per factor,
  with no product of two dense polynomials.

Every sum, scalar multiple and product of the computation is a sum of
products over rational values: `_dot(pairs)` is the one multiply-accumulate
path, a + b is `_dot(((a, 1), (b, 1)))` and a scalar multiple a one-pair
call.  A polynomial sum adds every schoolbook product into one integer
numerator list over a running common denominator, and a series (or genfun's
partition series) sum puts the coefficient pairs of all its factor pairs in
one bucket per output exponent (or partition) and takes one `_dot` per
bucket, so a whole convolution, such as one step of the exp/log
recurrences, is reduced once per output coefficient rather than once per
product or per sum.

All values are immutable after construction and all operations are pure
functions, so values can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, inf, lcm


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


_ZERO = Fraction(0)


class GaussianRational:
    """Exact complex number a + b*i with rational a and b: the tests' readout
    of a TauPolynomial coefficient; no command builds one."""

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
    polynomials have equal (numerators, denominator) pairs.  Sums and sums
    of products run on integers, with one gcd per result.
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
        if other.__class__ is RealTauPolynomial or isinstance(other, (int, Fraction)):
            return _dot(((self, 1), (other, 1)))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RealTauPolynomial._raw(tuple(-n for n in self.nums), self.den)

    def __mul__(self, other):
        if other.__class__ is RealTauPolynomial or isinstance(other, (int, Fraction)):
            return _dot(((self, other),))
        return NotImplemented

    @staticmethod
    def _sum_of_products(pairs) -> "RealTauPolynomial":
        """sum a*b over pairs of polynomials, ints and Fractions: schoolbook
        products added into one numerator list over a running common
        denominator, which is rescaled only when a product's denominator
        does not divide it, and reduced once at the end."""
        out = []
        den = 1
        for a, b in pairs:
            if a.__class__ is RealTauPolynomial:
                an, ad = a.nums, a.den
            else:
                an, ad = ((a.numerator,), a.denominator) if a else ((), 1)
            if b.__class__ is RealTauPolynomial:
                bn, bd = b.nums, b.den
            else:
                bn, bd = ((b.numerator,), b.denominator) if b else ((), 1)
            if not an or not bn:
                continue
            d = ad * bd
            if not out:
                den = d
            elif den % d:
                s = d // gcd(den, d)
                out = [x * s for x in out]
                den *= s
            if len(an) < len(bn):
                an, bn = bn, an
            if den != d:
                f = den // d
                bn = [y * f for y in bn]
            n = len(an) + len(bn) - 1 - len(out)
            if n > 0:
                out += [0] * n
            for i, y in enumerate(bn):
                if y:
                    for j, x in enumerate(an, i):
                        out[j] += x * y
        return RealTauPolynomial._make(out, den)

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

# bool is an int operand everywhere, as in `isinstance(True, int)`
_POLY_OPERANDS = {RealTauPolynomial, int, bool, Fraction}


def _dot(pairs):
    """sum(a * b for a, b in pairs): the one path of every sum, scalar
    multiple and product.

    The kernel of the outermost ring among the operands runs, and every other
    operand is a scalar of that ring: genfun.PartitionSeries over
    LaurentSeries (the classes with a `_RING_DEPTH`) over RealTauPolynomial,
    int and Fraction.  A kernel forms every product of the sum before
    reducing the result once.  A sum with no polynomial or series operand
    skips the polynomial kernel: it is a plain int sum when every operand is
    an int, else one Fraction from `_rational_dot`; an empty sum is 0.  An
    operand of any other kind, such as a TauPolynomial or GaussianRational
    readout or a QHalfLaurent, raises TypeError.
    """
    kinds = set()
    for a, b in pairs:
        kinds.add(a.__class__)
        kinds.add(b.__class__)
    if kinds <= _POLY_OPERANDS:
        if RealTauPolynomial in kinds:
            return RealTauPolynomial._sum_of_products(pairs)
        if Fraction in kinds:
            return _rational_dot(pairs)
        return sum(a * b for a, b in pairs)
    rings = kinds - _POLY_OPERANDS
    if odd := [kind.__name__ for kind in rings if not hasattr(kind, "_RING_DEPTH")]:
        raise TypeError(f"no sum-of-products kernel for {', '.join(sorted(odd))} operands")
    return max(rings, key=lambda kind: kind._RING_DEPTH)._sum_of_products(pairs)


def _rational_dot(pairs) -> Fraction:
    """sum a*b over pairs of ints and Fractions: integer numerators added over
    a running common denominator, which is rescaled only when a product's
    denominator does not divide it, and one Fraction built at the end."""
    num, den = 0, 1
    for a, b in pairs:
        n = a.numerator * b.numerator
        if n:
            d = a.denominator * b.denominator
            if den % d:
                s = d // gcd(den, d)
                num *= s
                den *= s
            num += n * (den // d)
    return Fraction(num, den)


class TauPolynomial:
    """i**k times a RealTauPolynomial: a polynomial in one formal variable
    over the Gaussian rationals whose coefficients all share one phase, the
    print-time readout of a rational coefficient.

    The constructor takes rational coefficients (phase i**0); a phase comes
    only from `phased`.  The phase is kept at i**0 or i**1 (a factor
    i**2 = -1 goes into the signs; zero has phase 0), so equality of
    (real, i_power) is canonical.  It is no ring: no sum is defined, and
    `_dot` rejects it as an operand.  Its one readout is `to_json`.
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
        sign, k = _phase(k)
        p = object.__new__(cls)
        p.real = real if sign > 0 else -real
        p.i_power = k
        return p

    def __mul__(self, other):
        """The product with a TauPolynomial, an int or a Fraction: one
        product of the rational polynomials, the phases added.  No command
        calls it (a phase is attached once, by `phased`, where a value is
        read out); the traced benchmark run patches it by name
        (perfbench/traced_cli.py METHODS), and the test-side references use
        it."""
        k = self.i_power
        if other.__class__ is TauPolynomial:
            other, k = other.real, k + other.i_power
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return TauPolynomial.phased(RealTauPolynomial._sum_of_products(((self.real, other),)), k)

    __rmul__ = __mul__

    # -- structure -------------------------------------------------------

    def __bool__(self):
        return bool(self.real)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.i_power and self.real == other
        if other.__class__ is not TauPolynomial:
            return NotImplemented
        return self.i_power == other.i_power and self.real == other.real

    def __hash__(self):
        return hash((self.real, 1)) if self.i_power else hash(self.real)

    def __repr__(self):
        return f"TauPolynomial.phased({self.real!r}, {self.i_power})"

    def to_json(self):
        """The coefficients as {"re", "im"} pairs, constant term first: each
        rational coefficient on the side of the phase, "0/1" on the other,
        reduced from its numerator over the common denominator by one gcd."""
        den = self.real.den
        coeffs = [f"{n // g}/{den // g}" for n in self.real.nums for g in (gcd(n, den),)]
        if self.i_power:
            return [{"re": "0/1", "im": c} for c in coeffs]
        return [{"re": c, "im": "0/1"} for c in coeffs]


def _phase(k: int) -> tuple[int, int]:
    """i**k as (sign, i**0 or i**1): the factor i**2 = -1 goes into the sign."""
    k %= 4
    return (-1, k - 2) if k >= 2 else (1, k)


TP_ZERO = TauPolynomial()

_SCALARS = (int, Fraction, RealTauPolynomial)


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
    _RING_DEPTH = 2  # see _dot

    def __init__(self, min_exp: int, coeffs, trunc_order: int | None = None):
        cs = list(coeffs)
        if trunc_order is None:
            trunc_order = min_exp + len(cs) - 1
        if min_exp + len(cs) - 1 > trunc_order:
            raise ValueError("more coefficients than the truncation order allows")
        # pad sparse tails so the dense range always reaches trunc_order
        cs.extend([0] * (trunc_order - min_exp + 1 - len(cs)))
        while cs and not cs[0]:
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
        if not coeff:
            return cls.zero(trunc_order)
        return cls(exp, [coeff], trunc_order)

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
        return _dot(((self, 1), (o, 1)))

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries._raw(
            self.min_exp, tuple(-c for c in self.coeffs), self.trunc_order
        )

    def __mul__(self, other):
        if isinstance(other, (LaurentSeries, *_SCALARS)):
            return _dot(((self, other),))
        return NotImplemented

    __rmul__ = __mul__

    @staticmethod
    def _sum_of_products(pairs) -> "LaurentSeries":
        """sum s*t over pairs of series and scalars: the coefficient pairs
        of every pair are put in one bucket per output exponent, and each
        bucket is one `_dot`.  A scalar is a constant at x^0 valid wherever
        its partner is.  The result starts at the least product min_exp and
        is valid to the least product truncation, a zero-so-far factor's
        included."""
        pairs = [(_series_terms(s), _series_terms(t)) for s, t in pairs]
        trunc = min(min(s[2] + t[0], t[2] + s[0]) for s, t in pairs)
        pairs = [(s, t) for s, t in pairs if s[1] and t[1]]
        lo = min((s[0] + t[0] for s, t in pairs), default=trunc + 1)
        if lo > trunc:
            return LaurentSeries.zero(trunc)
        buckets = [[] for _ in range(trunc - lo + 1)]
        for (s_min, s_coeffs, _), (t_min, t_coeffs, _) in pairs:
            start = s_min + t_min - lo
            for i, a in enumerate(s_coeffs[: trunc - lo - start + 1], start):
                if a:
                    # zip stops at the truncation order, where buckets[i:] ends
                    for bucket, b in zip(buckets[i:], t_coeffs):
                        if b:
                            bucket.append((a, b))
        return LaurentSeries(lo, [_dot(b) if b else 0 for b in buckets], trunc)

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
        if not self:
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
            acc = _dot([(u[j - 1], inv[k - j]) for j in range(1, min(k, len(u)) + 1) if u[j - 1]])
            inv[k] = -acc if acc else 0
        scaled = [c * c0inv if c else 0 for c in inv]
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
        # a series equal to a scalar (zero, or one term at x^0) hashes as it
        if not any(self.coeffs[1:]) and (not self.coeffs or self.min_exp == 0):
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.min_exp, self.trunc_order, self.coeffs))

    def _coerce(self, other):
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, _SCALARS):
            if not other:
                return LaurentSeries.zero(self.trunc_order)
            if self.trunc_order < 0:
                raise ValueError("cannot embed a constant below truncation order 0")
            return LaurentSeries.monomial(other, 0, self.trunc_order)
        return None

    def __repr__(self):
        terms = ", ".join(f"{c!r}*x^{k}" for k, c in self.items() if c)
        return f"LaurentSeries({terms or '0'}; O(x^{self.trunc_order + 1}))"

    def to_json(self):
        return {
            "min_exp": self.min_exp,
            "trunc_order": self.trunc_order,
            "coeffs": [_coeff_json(c) for c in self.coeffs],
        }


def _series_terms(x) -> tuple:
    """(min_exp, coeffs, trunc_order) of a series; a scalar is a constant at
    x^0 valid to every order, and a zero scalar has no terms."""
    if x.__class__ is LaurentSeries:
        return x.min_exp, x.coeffs, x.trunc_order
    return 0, ((x,) if x else ()), inf


def _coeff_json(c):
    if isinstance(c, int):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return fraction_str(c)
    return c.to_json()


def sinh_half_series(c, order: int) -> LaurentSeries:
    """Series of sinh(c*x/2) = sum_k (c/2)^(2k+1) x^(2k+1)/(2k+1)!."""
    if order < 1:
        raise ValueError("order must be at least 1")
    half = Fraction(c) / 2
    coeffs = [0] * order  # exponents 1..order
    for k in range(0, order, 2):
        coeffs[k] = half ** (k + 1) / factorial(k + 1)
    return LaurentSeries(1, coeffs, order)


def series_exp(x: LaurentSeries) -> LaurentSeries:
    """exp of a series with strictly positive valuation.

    F = exp(A) solves x F' = (x A') F, which is the Euler recurrence

        F_0 = 1,    n * F_n = sum_{k=1..n} k * A_k * F_(n-k),

    one `_dot` over the nonzero A_k per coefficient of F.  The result is valid
    to the truncation order of the argument.
    """
    if x and x.min_exp < 1:
        raise ValueError(
            f"series_exp requires positive valuation; found exponent {x.min_exp}"
        )
    weighted = [(k, c * k) for k, c in x.items() if c]
    out = [1]
    for n in range(1, x.trunc_order + 1):
        acc = _dot([(kc, out[n - k]) for k, kc in weighted if k <= n and out[n - k]])
        out.append(acc * Fraction(1, n) if acc else 0)
    return LaurentSeries(0, out, x.trunc_order)


def series_log(x: LaurentSeries) -> LaurentSeries:
    """log of a series with constant term 1.

    G = log(F) solves the recurrence of series_exp read the other way:

        n * G_n = n * F_n - sum_{k=1..n-1} k * G_k * F_(n-k),

    one `_dot` over the nonzero k * G_k per coefficient of G.  The result
    is valid to the truncation order of the argument.
    """
    if x.min_exp < 0:
        raise ValueError(f"series_log requires constant term 1; found pole at {x.min_exp}")
    if x.coefficient(0) != 1:
        raise ValueError(f"series_log requires constant term 1, got {x.coefficient(0)!r}")
    f = [x.coefficient(n) for n in range(x.trunc_order + 1)]
    weighted = []  # (k, -k * G_k) for the nonzero G_k found so far
    out = [0]
    for n in range(1, len(f)):
        acc = _dot([(f[n], n), *((kg, f[n - k]) for k, kg in weighted if f[n - k])])
        if acc:
            weighted.append((n, -acc))
        out.append(acc * Fraction(1, n) if acc else 0)
    return LaurentSeries(0, out, x.trunc_order)


class QHalfLaurent:
    """A power of i times a Laurent polynomial with integer coefficients in
    y = q**(1/2).

    The value is i**i_power * y**low * sum_k coeffs[k] * y**k: coeffs is a
    tuple of ints whose first and last entries are nonzero, and the phase is
    kept at i**0 or i**1 (i**2 = -1 goes into the signs); zero is
    (0, 0, ()).  So q**(m/2) is y**m and equality of the three fields is
    canonical.  `terms` reads the coefficients back as {m: int}.
    """

    __slots__ = ("low", "i_power", "coeffs")

    def __init__(self, terms=(), i_power: int = 0):
        data = {}
        for k, v in terms.items() if isinstance(terms, dict) else terms:
            if not isinstance(v, int):
                raise TypeError(f"coefficient {v!r} is not an integer")
            data[k] = data.get(k, 0) + v
        low = min(data, default=0)
        coeffs = [0] * (max(data, default=0) - low + 1)
        for k, v in data.items():
            coeffs[k - low] = v
        self.low, self.i_power, self.coeffs = _q_canonical(low, i_power, coeffs)

    @classmethod
    def _make(cls, low: int, i_power: int, coeffs: list) -> "QHalfLaurent":
        q = object.__new__(cls)
        q.low, q.i_power, q.coeffs = _q_canonical(low, i_power, coeffs)
        return q

    @classmethod
    def binomial_product(cls, exponents, low: int = 0, i_power: int = 0) -> "QHalfLaurent":
        """i**i_power * y**low * prod_e (1 - y**e), multiplied into one integer
        coefficient list one binomial at a time: the factor 1 - y**e is the
        shift-subtract new[k] = old[k] - old[k - e].  A negative e is folded
        as 1 - y**e = -y**e * (1 - y**(-e)), and e = 0 gives zero."""
        coeffs = [1]
        for e in exponents:
            if e < 0:
                low, i_power, e = low + e, i_power + 2, -e
            pad = [0] * e
            coeffs = [a - b for a, b in zip(coeffs + pad, pad + coeffs)]
        return cls._make(low, i_power, coeffs)

    @classmethod
    def monomial(cls, coeff: int, half_exp: int) -> "QHalfLaurent":
        return cls(((half_exp, coeff),))

    @property
    def terms(self) -> dict[int, int]:
        """The nonzero coefficients by exponent of y = q**(1/2)."""
        return {self.low + k: n for k, n in enumerate(self.coeffs) if n}

    def __mul__(self, other):
        """The product with a QHalfLaurent or an int: one integer
        convolution, the phases added.  No command calls it (the sine and
        hook products are binomial products); the traced benchmark run
        patches it by name (perfbench/traced_cli.py METHODS), and
        tests/test_trace_hooks.py checks that it is there."""
        if isinstance(other, int):
            other = QHalfLaurent(((0, other),))
        elif not isinstance(other, QHalfLaurent):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs, i):
                out[j] += a * b
        return QHalfLaurent._make(self.low + other.low, self.i_power + other.i_power, out)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QHalfLaurent):
            return NotImplemented
        return (self.low, self.i_power, self.coeffs) == (other.low, other.i_power, other.coeffs)

    def __hash__(self):
        return hash((self.low, self.i_power, self.coeffs))

    def __repr__(self):
        if not self:
            return "QHalfLaurent(0)"
        poly = " + ".join(f"{c}*q^({k}/2)" for k, c in sorted(self.terms.items()))
        return f"QHalfLaurent(i*({poly}))" if self.i_power else f"QHalfLaurent({poly})"


def _q_canonical(low: int, i_power: int, coeffs: list) -> tuple[int, int, tuple]:
    """i**i_power * y**low * coeffs as canonical (low, i_power, coeffs): the
    zeros at both ends stripped, the leading ones into low, and the phase
    folded by `_phase`; zero is (0, 0, ())."""
    start, stop = 0, len(coeffs)
    while stop and not coeffs[stop - 1]:
        stop -= 1
    if not stop:
        return 0, 0, ()
    while not coeffs[start]:
        start += 1
    sign, i_power = _phase(i_power)
    return low + start, i_power, tuple(c * sign for c in coeffs[start:stop])
