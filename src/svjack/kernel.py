"""Exact scalar arithmetic: rationals, univariate rational functions,
the quadratic extension by sqrt(2), and truncated hbar-jets.

All scalar types in this module are immutable and exact.  Plain Python
``int`` and ``fractions.Fraction`` serve as the rational layer; ``RatFun``
adds one formal variable (t, gamma, q or h), ``Sqrt2Ext`` adjoins sqrt(2)
to any base field, and ``Jet`` truncates power series in a formal
parameter hbar.  Mixed arithmetic coerces upward (int -> Fraction ->
RatFun/Sqrt2Ext/Jet); genuinely incompatible operands raise
``KernelError``.

Every failure the package reports is one of three kinds: a ``ValueError``
for input the computation cannot take, a ``KernelError`` when the exact
arithmetic cannot go on, and a ``VerificationFailure`` when an identity
the package checks does not hold.
"""

from __future__ import annotations

from fractions import Fraction


class KernelError(Exception):
    """Exact arithmetic that cannot go on: a division by zero, a pole,
    operands from different fields, an exhausted jet order."""


class VerificationFailure(KernelError):
    """An identity the package checks does not hold."""


def is_zero(x):
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


def as_scalar(x, var):
    """The field element a parameter stands for, fixed where the parameter
    enters the code: "sym" (or None) is the formal variable of Q(var), an int
    is the rational it names, and a field element is returned unchanged.
    Zero and one of the field are then ``x * 0`` and ``x * 0 + 1``."""
    if x is None or x == "sym":
        return RatFun.variable(var)
    if isinstance(x, int):
        return Fraction(x)
    return x


class _Scalar:
    """The operators every scalar class derives from its own ``_coerce``,
    ``+``, unary ``-``, ``*`` and ``/``.  ``_coerce(other)`` returns other
    as an element of self's ring, or None for an operand it cannot take.
    ``Poly`` is a ring: its ``/`` raises, so only its nonnegative powers
    exist."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        one = self._coerce(1)
        if n < 0:
            return one / self ** (-n)
        out = one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------

class Poly(_Scalar):
    """Dense univariate polynomial over an exact coefficient field.

    ``coeffs[i]`` is the coefficient of var**i; the zero polynomial has an
    empty coefficient list.  Coefficients may be Fractions or any scalar of
    this module, as long as all coefficients of one polynomial live in the
    same field.  The zero polynomial keeps the zero of its field when its
    coefficient list trims to nothing (Fraction(0) for an empty list).
    """

    __slots__ = ("var", "coeffs", "_zero")

    def __init__(self, var, coeffs):
        coeffs = list(coeffs)
        n = len(coeffs)
        while n > 0 and is_zero(coeffs[n - 1]):
            n -= 1
        self.var = var
        self.coeffs = tuple(coeffs[:n])
        self._zero = coeffs[0] if coeffs and not n else None

    @classmethod
    def const(cls, var, c):
        return cls(var, [c])

    @classmethod
    def x(cls, var):
        return cls(var, [Fraction(0), Fraction(1)])

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _field_zero(self):
        if self.coeffs:
            return self.coeffs[0] * 0
        return Fraction(0) if self._zero is None else self._zero

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.var != self.var:
                raise KernelError(
                    "polynomials in %r and %r cannot be combined" % (self.var, other.var))
            return other
        if isinstance(other, (int, Fraction)):
            return Poly(self.var, [self._field_zero() + other])
        return None

    def __eq__(self, other):
        if isinstance(other, Poly) and other.var != self.var:
            return False  # elements of different rings
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant equals its coefficient, so it must hash like it
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.var, self.coeffs))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(o.coeffs):
            a[i] = a[i] + c
        return Poly(self.var, a) if a else self

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.var, [-c for c in self.coeffs]) if self.coeffs else self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly(self.var, [self._field_zero()])
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if is_zero(a):
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.var, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if self._coerce(other) is None:
            return NotImplemented
        raise KernelError("polynomials form a ring: divide with divmod or exact_div")

    def scale(self, c):
        return Poly(self.var, [a * c for a in self.coeffs]) if self.coeffs else self

    def divmod(self, other):
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise KernelError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Poly(self.var, [self._field_zero()]), self
        quot = [Fraction(0)] * (dq + 1)
        lead = o.coeffs[-1]
        for k in range(dq, -1, -1):
            top = rem[k + len(o.coeffs) - 1]
            if is_zero(top):
                continue
            q = top / lead
            quot[k] = q
            for i, c in enumerate(o.coeffs):
                rem[k + i] = rem[k + i] - q * c
        return Poly(self.var, quot), Poly(self.var, rem)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise KernelError("inexact polynomial division")
        return q

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
        return acc

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return Poly(self.var, [c / lead for c in self.coeffs])

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if is_zero(c):
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*%s" % (c, self.var))
            else:
                parts.append("%s*%s^%d" % (c, self.var, i))
        return " + ".join(parts)


def poly_gcd(a, b):
    """Monic gcd of two polynomials with Fraction coefficients."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


# ---------------------------------------------------------------------------
# univariate rational functions
# ---------------------------------------------------------------------------

class RatFun(_Scalar):
    """Rational function numer/denom in one variable over Q.

    Canonical form: numerator and denominator share no common factor and the
    denominator is monic.  Zero is 0/1.
    """

    __slots__ = ("var", "numer", "denom")

    def __init__(self, var, numer, denom=None, _canonical=False):
        if isinstance(numer, (int, Fraction)):
            numer = Poly.const(var, Fraction(numer))
        if denom is None:
            denom = Poly.const(var, Fraction(1))
        elif isinstance(denom, (int, Fraction)):
            denom = Poly.const(var, Fraction(denom))
        if denom.is_zero():
            raise KernelError("rational function with zero denominator")
        if not _canonical:
            g = poly_gcd(numer, denom)
            if not g.is_zero() and g.degree() > 0:
                numer = numer.exact_div(g)
                denom = denom.exact_div(g)
            lead = denom.coeffs[-1]
            if lead != 1:
                numer = numer.scale(Fraction(1) / lead)
                denom = denom.scale(Fraction(1) / lead)
        self.var = var
        self.numer = numer
        self.denom = denom

    @classmethod
    def variable(cls, var):
        return cls(var, Poly.x(var), None, _canonical=True)

    @classmethod
    def const(cls, var, c):
        return cls(var, Poly.const(var, Fraction(c)), None, _canonical=True)

    def is_zero(self):
        return self.numer.is_zero()

    def _coerce(self, other):
        if isinstance(other, RatFun):
            if other.var != self.var:
                raise KernelError(
                    "rational functions in %r and %r cannot be combined"
                    % (self.var, other.var))
            return other
        if isinstance(other, (int, Fraction)):
            return RatFun.const(self.var, other)
        return None

    def __eq__(self, other):
        if isinstance(other, RatFun) and other.var != self.var:
            return False  # elements of different fields
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.numer == o.numer and self.denom == o.denom

    def __hash__(self):
        # the denominator is monic, so a polynomial hashes like its numerator
        # and a constant, which equals its rational, like that rational
        if self.denom.degree() == 0:
            return hash(self.numer)
        return hash((self.var, self.numer.coeffs, self.denom.coeffs))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun(self.var, self.numer * o.denom + o.numer * self.denom,
                      self.denom * o.denom)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(self.var, -self.numer, self.denom, _canonical=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun(self.var, self.numer * o.numer, self.denom * o.denom)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise KernelError("division by zero rational function")
        return RatFun(self.var, self.numer * o.denom, self.denom * o.numer)

    def __call__(self, x):
        den = self.denom(x)
        if is_zero(den):
            raise KernelError("evaluation at a pole of the denominator")
        return self.numer(x) / den

    def __repr__(self):
        if self.denom.degree() == 0 and self.denom.coeffs[0] == 1:
            return "(%r)" % self.numer
        return "(%r)/(%r)" % (self.numer, self.denom)


# ---------------------------------------------------------------------------
# quadratic extension by sqrt(2)
# ---------------------------------------------------------------------------

class Sqrt2Ext(_Scalar):
    """a + b*sqrt(2) over a base field (rationals or rational functions)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a
        self.b = b

    def is_zero(self):
        return is_zero(self.a) and is_zero(self.b)

    def base_part(self):
        """The sqrt(2)-free component; raises unless the sqrt(2) part vanishes."""
        if not is_zero(self.b):
            raise KernelError("element has a nonzero sqrt(2) component")
        return self.a

    def _coerce(self, other):
        if isinstance(other, Sqrt2Ext):
            return other
        if isinstance(other, (int, Fraction, RatFun, Poly)):
            return Sqrt2Ext(self.a * 0 + other, self.b * 0)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # equal to its base part when b = 0, so it must hash like it
        if is_zero(self.b):
            return hash(self.a)
        return hash(("sqrt2", self.a, self.b))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2Ext(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt2Ext(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2Ext(self.a * o.a + 2 * (self.b * o.b),
                        self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def norm(self):
        return self.a * self.a - 2 * (self.b * self.b)

    def conj(self):
        return Sqrt2Ext(self.a, -self.b)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise KernelError("division by zero in Sqrt2Ext")
        n = o.norm()
        num = self * o.conj()
        return Sqrt2Ext(num.a / n, num.b / n)

    def __repr__(self):
        return "(%r + %r*sqrt2)" % (self.a, self.b)


# ---------------------------------------------------------------------------
# truncated jets in hbar
# ---------------------------------------------------------------------------

class Jet(_Scalar):
    """Truncated power series c0 + c1*hbar + ... + cK*hbar^K.

    ``order`` is the truncation order K; coefficients beyond it are unknown,
    not zero.  Arithmetic propagates the minimum order of the operands, and
    division by a jet of positive valuation shifts both series, losing that
    many orders of precision.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise KernelError("jet order must be >= 0")
        if len(coeffs) < order + 1:
            pad = coeffs[0] * 0 if coeffs else Fraction(0)
            coeffs = coeffs + [pad] * (order + 1 - len(coeffs))
        self.coeffs = tuple(coeffs[: order + 1])
        self.order = order

    @classmethod
    def exp_linear(cls, c, order):
        """exp(c*hbar) as a jet: coefficients c^k / k!."""
        out = [c * 0 + 1]
        fact = 1
        power = c * 0 + 1
        for k in range(1, order + 1):
            fact *= k
            power = power * c
            out.append(power * Fraction(1, fact))
        return cls(out, order)

    def is_zero(self):
        return all(is_zero(c) for c in self.coeffs)

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if not is_zero(c):
                return i
        return None  # zero jet

    def coeff(self, k):
        if k > self.order:
            raise KernelError("jet truncated at order %d, coefficient %d requested"
                                 % (self.order, k))
        return self.coeffs[k]

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, Fraction, RatFun)):
            zero = self.coeffs[0] * 0
            return Jet([zero + other] + [zero] * self.order, self.order)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = min(self.order, o.order)
        return all(self.coeffs[i] == o.coeffs[i] for i in range(k + 1))

    def __hash__(self):
        # __eq__ ignores the orders beyond the lower of the two, and a
        # constant equals its jet, so only the constant term may enter the hash
        return hash(self.coeffs[0])

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = min(self.order, o.order)
        return Jet([self.coeffs[i] + o.coeffs[i] for i in range(k + 1)], k)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = min(self.order, o.order)
        zero = self.coeffs[0] * 0
        out = [zero] * (k + 1)
        for i in range(k + 1):
            a = self.coeffs[i]
            if is_zero(a):
                continue
            for j in range(k + 1 - i):
                out[i + j] = out[i + j] + a * o.coeffs[j]
        return Jet(out, k)

    __rmul__ = __mul__

    def inverse(self):
        if is_zero(self.coeffs[0]):
            raise KernelError("jet inverse requires a nonzero constant term")
        c0 = self.coeffs[0]
        zero = c0 * 0
        inv0 = (zero + 1) / c0
        out = [inv0] + [zero] * self.order
        for k in range(1, self.order + 1):
            acc = zero
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out[k] = -inv0 * acc
        return Jet(out, self.order)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise KernelError("division by a zero jet")
        v = o.valuation()
        if v == 0:
            return self * o.inverse()
        # positive valuation: the numerator must vanish to the same order
        k = min(self.order, o.order)
        for i in range(min(v, k + 1)):
            if not is_zero(self.coeffs[i]):
                raise KernelError("jet division with insufficient numerator valuation")
        if k - v < 0:
            raise KernelError("jet division exhausts the truncation order")
        num = Jet(list(self.coeffs[v: k + 1]), k - v)
        den = Jet(list(o.coeffs[v: k + 1]), k - v)
        return num * den.inverse()

    def __repr__(self):
        return "Jet(%s; O(h^%d))" % (list(self.coeffs), self.order + 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def scalar_to_json(x):
    """Canonical JSON form: rationals as {num, den} with string payloads."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return {"num": str(x.numerator), "den": str(x.denominator)}
    if isinstance(x, RatFun):
        return {
            "var": x.var,
            "numer": [scalar_to_json(c) for c in x.numer.coeffs],
            "denom": [scalar_to_json(c) for c in x.denom.coeffs],
        }
    if isinstance(x, Sqrt2Ext):
        return {"base": scalar_to_json(x.a), "sqrt2": scalar_to_json(x.b)}
    if isinstance(x, Jet):
        return {"order": x.order, "coeffs": [scalar_to_json(c) for c in x.coeffs]}
    if isinstance(x, Poly):
        return {"var": x.var, "coeffs": [scalar_to_json(c) for c in x.coeffs]}
    raise KernelError("cannot serialize %r" % (x,))
