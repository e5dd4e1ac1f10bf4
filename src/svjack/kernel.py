"""Exact scalar arithmetic: rationals, univariate rational functions,
the quadratic extension by sqrt(2), and truncated hbar-jets.

All scalar types in this module are immutable and exact.  Plain Python
``int`` and ``fractions.Fraction`` serve as the rational layer; ``RatFun``
adds one formal variable (t, gamma, q or h), ``Sqrt2Ext`` adjoins sqrt(2)
to any base field (the package builds one only for the proportionality
scalar of a free-field image), and ``Jet`` truncates power series in a
formal parameter hbar.  Mixed arithmetic coerces upward (int -> Fraction ->
RatFun/Sqrt2Ext/Jet); genuinely incompatible operands raise
``KernelError``.

``RatFun`` computes on integers: it holds c * N / D with a rational c and
primitive integer polynomials N, D that share no factor.  Its gcds come
from the heuristic GCDHEU, whose trial divisions prove each result, and
fall back to Euclid over Q (``poly_gcd``) when no evaluation point works.
``Poly`` is the generic dense polynomial over any of these fields; it is
also the monic-denominator form a ``RatFun`` shows through ``numer`` and
``denom``.

Every failure the package reports is one of three kinds: a ``ValueError``
for input the computation cannot take, a ``KernelError`` when the exact
arithmetic cannot go on, and a ``VerificationFailure`` when an identity
the package checks does not hold.
"""

from __future__ import annotations

import math
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
        a = list(self.coeffs) + [self._field_zero()] * (n - len(self.coeffs))
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
        out = [self._field_zero()] * (len(self.coeffs) + len(o.coeffs) - 1)
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
        raise KernelError("polynomials form a ring: divide with divmod")

    def divmod(self, other):
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise KernelError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Poly(self.var, [self._field_zero()]), self
        quot = [self._field_zero()] * (dq + 1)
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

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return self._field_zero() * x
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
# primitive integer polynomials
# ---------------------------------------------------------------------------
# An integer polynomial is a tuple of ints, the coefficient of var**i at
# index i, with a nonzero last entry; () is zero.

_GCDHEU_TRIES = 6


def _zz_mul(a, b):
    if a == (1,) or b == (1,):
        return b if a == (1,) else a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _zz_combine(a, p, b, q):
    """a*p + b*q for ints a, b."""
    if len(p) < len(q):
        a, p, b, q = b, q, a, p
    out = [a * x for x in p]
    for i, y in enumerate(q):
        out[i] += b * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zz_primitive(p):
    """(k, p / k) for a nonzero p, where k is its content signed like its
    leading coefficient."""
    k = math.gcd(*p) if p[-1] > 0 else -math.gcd(*p)
    return k, (p if k == 1 else tuple(x // k for x in p))


def _zz_split(x):
    """(c, p) with x = c * p, p primitive with a positive leading coefficient
    (() for zero); x is an int, a Fraction or a Poly over Q."""
    coeffs = [Fraction(a) for a in (x.coeffs if isinstance(x, Poly) else [x])]
    if not coeffs or not coeffs[-1]:
        return Fraction(0), ()
    den = math.lcm(*(a.denominator for a in coeffs))
    k, p = _zz_primitive(tuple(a.numerator * (den // a.denominator) for a in coeffs))
    return Fraction(k, den), p


def _zz_exact_quotient(f, g):
    """f / g when g divides f in Z[x], else None."""
    n = len(g) - 1
    dq = len(f) - n - 1
    if dq < 0:
        return None
    rem = list(f)
    quot = [0] * (dq + 1)
    lead = g[-1]
    for k in range(dq, -1, -1):
        q, r = divmod(rem[k + n], lead)
        if r:
            return None
        if q:
            quot[k] = q
            for i, c in enumerate(g, k):
                rem[i] -= q * c
    return None if any(rem[:n]) else tuple(quot)


def _zz_gcd(f, g):
    """(h, f / h, g / h) for the gcd h of two nonzero primitive integer
    polynomials with positive leading coefficients; h is normalised alike.

    GCDHEU (Char, Geddes & Gonnet 1989): at xi >= 2 min(|f|, |g|) + 2 the
    primitive part of the xi-adic expansion of gcd(f(xi), g(xi)), taken with
    symmetric digits, is gcd(f, g) as soon as it divides both f and g, so the
    trial divisions that give the cofactors also prove the result.  After
    ``_GCDHEU_TRIES`` failed points the gcd comes from Euclid over Q.
    """
    if len(f) == 1 or len(g) == 1:
        return (1,), f, g
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(_GCDHEU_TRIES):
        vf = vg = 0
        for a in reversed(f):
            vf = vf * xi + a
        for a in reversed(g):
            vg = vg * xi + a
        if vf and vg:
            v, h, half = math.gcd(vf, vg), [], xi // 2
            while v:
                r = v % xi
                if r > half:
                    r -= xi
                h.append(r)
                v = (v - r) // xi
            h = _zz_primitive(h)[1]
            if len(h) == 1:  # 1 divides both, so the theorem gives gcd 1
                return (1,), f, g
            cf = _zz_exact_quotient(f, h)
            cg = cf and _zz_exact_quotient(g, h)
            if cg:
                return tuple(h), cf, cg
        xi = xi * 73794 // 27011
    h = _zz_split(poly_gcd(Poly("x", map(Fraction, f)), Poly("x", map(Fraction, g))))[1]
    return h, _zz_exact_quotient(f, h), _zz_exact_quotient(g, h)


def _one_denominator(terms):
    """(var, nums, s, D) with terms[key] = nums[key] / (s D), for a dict of
    rationals and RatFuns in one variable var (None when there is no RatFun):
    D is the lcm of the RatFun denominators, a primitive integer polynomial,
    and s the lcm of the denominators of the rational contents.  Each
    nums[key] is an integer polynomial, a constant one when var is None: a
    RatFun c N / d becomes c s N (D / d).  The lcm is the only gcd work."""
    var, D, seen, split = None, (1,), {(1,)}, {}
    for key, x in terms.items():
        if isinstance(x, RatFun):
            if var is not None and x.var != var:
                raise KernelError("rational functions in %r and %r cannot be combined"
                                  % (var, x.var))
            var = x.var
            if x.D not in seen:
                seen.add(x.D)
                D = _zz_mul(D, _zz_gcd(D, x.D)[2])
            split[key] = x.c, x.N, x.D
        else:
            x = Fraction(x)
            split[key] = x, (1,) if x else (), (1,)
    s = math.lcm(*(c.denominator for c, _, _ in split.values()))
    cofactor = {d: _zz_exact_quotient(D, d) for d in seen}
    nums = {key: _zz_mul((c.numerator * (s // c.denominator),), _zz_mul(N, cofactor[d]))
            if N else () for key, (c, N, d) in split.items()}
    return var, nums, s, D


# ---------------------------------------------------------------------------
# univariate rational functions
# ---------------------------------------------------------------------------

def _ratfun(var, c, N, D):
    """c * N / D, already canonical: skips RatFun.__init__."""
    x = object.__new__(RatFun)
    x.var, x.c, x.N, x.D = var, c, N, D
    return x


class RatFun(_Scalar):
    """Rational function c * N / D in one variable over Q.

    ``c`` is a Fraction, and ``N``, ``D`` are integer polynomials (tuples of
    ints, low degree first) that are primitive, have positive leading
    coefficients and no common factor, so equal functions are held alike.
    Zero is c = 0, N = (), D = (1,).  Sums and products follow
    Henrici: a product cross-cancels gcd(N1, D2) and gcd(N2, D1), and a sum
    over g = gcd(D1, D2) cancels its numerator only against g.  The gcds are
    GCDHEU's, with Euclid (``poly_gcd``) behind them.

    ``numer`` and ``denom`` give the form with a monic denominator as
    ``Poly`` values over Q; that is the form ``scalar_to_json`` writes.
    """

    __slots__ = ("var", "c", "N", "D")

    def __init__(self, var, numer, denom=None):
        c, N = _zz_split(numer)
        cd, D = _zz_split(1 if denom is None else denom)
        if not D:
            raise KernelError("rational function with zero denominator")
        _, N, D = _zz_gcd(N, D) if N else ((), (), (1,))
        self.var, self.c, self.N, self.D = var, c / cd, N, D

    @classmethod
    def variable(cls, var):
        return _ratfun(var, Fraction(1), (0, 1), (1,))

    @classmethod
    def const(cls, var, c):
        c = Fraction(c)
        return _ratfun(var, c, (1,) if c else (), (1,))

    @property
    def numer(self):
        s = self.c / self.D[-1]
        return Poly(self.var, [s * a for a in self.N])

    @property
    def denom(self):
        return Poly(self.var, [Fraction(a, self.D[-1]) for a in self.D])

    def is_zero(self):
        return not self.c

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
        if isinstance(other, RatFun):
            return (other.var == self.var and self.c == other.c
                    and self.N == other.N and self.D == other.D)
        if isinstance(other, (int, Fraction)):
            return len(self.N) <= 1 and len(self.D) == 1 and self.c == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its rational, so it hashes like it; no RatFun
        # equals a Poly, so the canonical fields suffice for the rest
        if len(self.N) <= 1 and len(self.D) == 1:
            return hash(self.c)
        return hash((self.var, self.c, self.N, self.D))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.c:
            return self
        if not self.c:
            return o
        # over l, the lcm of the contents' denominators, the sum is
        # (a N1 D2' + b N2 D1') / (l g D1' D2'), and only g can share a
        # factor with the numerator
        q1, q2 = self.c.denominator, o.c.denominator
        l = q1 * q2 // math.gcd(q1, q2)
        if self.D == o.D:
            g, d1, d2 = self.D, (1,), (1,)
        else:
            g, d1, d2 = _zz_gcd(self.D, o.D)
        m = _zz_combine(self.c.numerator * (l // q1), _zz_mul(self.N, d2),
                        o.c.numerator * (l // q2), _zz_mul(o.N, d1))
        if not m:
            return _ratfun(self.var, Fraction(0), (), (1,))
        k, m = _zz_primitive(m)
        _, m, g = _zz_gcd(m, g)
        return _ratfun(self.var, Fraction(k, l), m, _zz_mul(_zz_mul(g, d1), d2))

    __radd__ = __add__

    def __neg__(self):
        return _ratfun(self.var, -self.c, self.N, self.D)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.c or not o.c:
            return _ratfun(self.var, Fraction(0), (), (1,))
        _, n1, d2 = _zz_gcd(self.N, o.D)
        _, n2, d1 = _zz_gcd(o.N, self.D)
        return _ratfun(self.var, self.c * o.c, _zz_mul(n1, n2), _zz_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.c:
            raise KernelError("division by zero rational function")
        return self * _ratfun(self.var, 1 / o.c, o.D, o.N)

    def __call__(self, x):
        """self at x, a scalar.  At a RatFun x = P / Q, with P and Q integer
        polynomials, N and D are evaluated homogeneously, Q^deg N N(P / Q)
        in Z[var], and the quotient is canonicalised by one gcd."""
        if not isinstance(x, RatFun):
            num = den = x * 0
            for a in reversed(self.N):
                num = num * x + a
            for a in reversed(self.D):
                den = den * x + a
            if is_zero(den):
                raise KernelError("evaluation at a pole of the denominator")
            return self.c * num / den
        P, Q = _zz_mul((x.c.numerator,), x.N), _zz_mul((x.c.denominator,), x.D)
        Qpow = [(1,)]
        for _ in range(max(len(self.N), len(self.D))):
            Qpow.append(_zz_mul(Qpow[-1], Q))

        def homogeneous(f):
            acc = f[-1:]
            for k, a in enumerate(reversed(f[:-1]), 1):
                acc = _zz_combine(1, _zz_mul(acc, P), a, Qpow[k])
            return acc

        num, den = homogeneous(self.N), homogeneous(self.D)
        if not den:
            raise KernelError("evaluation at a pole of the denominator")
        if not num:
            return _ratfun(x.var, Fraction(0), (), (1,))
        # N(x) / D(x) = Q^(deg D - deg N) num / den
        shift = len(self.D) - len(self.N)
        if shift > 0:
            num = _zz_mul(num, Qpow[shift])
        else:
            den = _zz_mul(den, Qpow[-shift])
        (kn, num), (kd, den) = _zz_primitive(num), _zz_primitive(den)
        _, num, den = _zz_gcd(num, den)
        return _ratfun(x.var, self.c * Fraction(kn, kd), num, den)

    def __repr__(self):
        numer, denom = self.numer, self.denom
        if denom.degree() == 0:
            return "(%r)" % numer
        return "(%r)/(%r)" % (numer, denom)


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

    def _coerce(self, other):
        if isinstance(other, Sqrt2Ext):
            return other
        if isinstance(other, (int, Fraction, RatFun, Poly)):
            return Sqrt2Ext(self.a * 0 + other, self.b * 0)
        return None

    def __eq__(self, other):
        if isinstance(other, Sqrt2Ext):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction, RatFun, Poly)):
            # a base element; compared, not coerced, so another variable is unequal
            return self.a == other and is_zero(self.b)
        return NotImplemented

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
    def _of(cls, coeffs, order):
        """The jet of exactly order + 1 coefficients, taken as they are:
        the arithmetic's own results need no padding or truncation."""
        jet = object.__new__(cls)
        jet.coeffs = tuple(coeffs)
        jet.order = order
        return jet

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
        if k < 0 or k > self.order:
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
        if isinstance(other, (int, Fraction, RatFun)):
            # a constant jet; compared, not coerced, so another variable is unequal
            return self.coeffs[0] == other and all(is_zero(c) for c in self.coeffs[1:])
        if not isinstance(other, Jet):
            return NotImplemented
        k = min(self.order, other.order)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(k + 1))

    def __hash__(self):
        # __eq__ ignores the orders beyond the lower of the two, and a
        # constant equals its jet, so only the constant term may enter the hash
        return hash(self.coeffs[0])

    def __add__(self, other):
        # a scalar only moves the constant term
        if isinstance(other, Jet):
            return Jet._of([a + b for a, b in zip(self.coeffs, other.coeffs)],
                           min(self.order, other.order))
        if isinstance(other, (int, Fraction, RatFun)):
            return Jet._of((self.coeffs[0] + other,) + self.coeffs[1:], self.order)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet._of([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        # a scalar scales each coefficient; between jets, out[n] = sum a_i b_{n-i}
        # starts from its first product, not from a zero of the field
        if isinstance(other, Jet):
            a, b = self.coeffs, other.coeffs
            k = min(self.order, other.order)
            out = []
            for n in range(k + 1):
                acc = a[0] * b[n]
                for i in range(1, n + 1):
                    acc = acc + a[i] * b[n - i]
                out.append(acc)
            return Jet._of(out, k)
        if isinstance(other, (int, Fraction, RatFun)):
            return Jet._of([c * other for c in self.coeffs], self.order)
        return NotImplemented

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
    """Canonical JSON form of a rational, a RatFun or a Sqrt2Ext, rationals
    as {num, den} with string payloads; any other scalar raises KernelError."""
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
    raise KernelError("cannot serialize %r" % (x,))
