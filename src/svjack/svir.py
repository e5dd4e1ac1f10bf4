"""The Neveu-Schwarz N=1 super Virasoro algebra: Verma modules over an exact
field, generator actions by normal ordering, contravariant Gram matrices,
Kac-determinant factorization checks, and singular vectors as kernels.

Generators are encoded as ('L', n) with integer n and ('G', k) with
half-odd Fraction k; the central element acts as the scalar c.  A basis
monomial applied to the highest-weight vector is stored as a word of
negative-index generators in canonical order: the L block with magnitudes
ascending left to right, then the G block with magnitudes ascending;
equivalently L_{-a_l} ... L_{-a_1} G_{-b_m} ... G_{-b_1}
for the bosonic partition (a_1 >= ... >= a_l) and the strict half-odd
fermionic partition (b_1 > ... > b_m).

The whole theory is parametrized by one symbol t: with rho = (t - 1/t)/2 the
central charge is c = 3/2 - 3 (t - 1/t)^2 and every derived weight is a
rational function of t.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .kernel import KernelError, Poly, RatFun, VerificationFailure, as_scalar, is_zero
from .linalg import det, nullspace, operator_matrix, poly_interpolate
from .symfunc import partitions


HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# superpartitions
# ---------------------------------------------------------------------------

class SuperPartition(namedtuple("SuperPartition", "bosonic fermionic")):
    """A pair (bosonic partition, strict half-odd fermionic partition); a
    named tuple, so it hashes, orders and equals as the plain pair, and ``*``
    repeats it."""

    __slots__ = ()

    def __new__(cls, bosonic, fermionic):
        b, f = bosonic, fermionic
        if any(b[i] < b[i + 1] for i in range(len(b) - 1)) or any(p < 1 for p in b):
            raise ValueError("bosonic part must be a partition: %r" % (b,))
        if any(f[i] <= f[i + 1] for i in range(len(f) - 1)):
            raise ValueError("fermionic parts must strictly decrease: %r" % (f,))
        if any((2 * p) % 2 != 1 or p < 0 for p in f):
            raise ValueError("fermionic parts must be positive half-odd: %r" % (f,))
        return super().__new__(cls, b, f)

    def size(self):
        return sum(self.bosonic, Fraction(0)) + sum(self.fermionic, Fraction(0))

    def sort_key(self):
        # reverse-lexicographic with larger parts first; the trailing
        # sentinel makes a proper prefix sort before its extensions' absence
        # (so L_{-1} G_{-1/2} precedes G_{-3/2} at level 3/2)
        return (self.size(),
                tuple(-p for p in self.bosonic) + (1,),
                tuple(-p for p in self.fermionic) + (1,))


def _fermionic_sets(level):
    """Strictly decreasing half-odd tuples with sum <= level and integer
    complement."""
    out = []

    def rec(smallest, acc, total):
        if (level - total).denominator == 1:
            out.append(tuple(sorted(acc, reverse=True)))
        k = smallest
        while total + k <= level:
            rec(k + 1, acc + [k], total + k)
            k += 1

    rec(HALF, [], Fraction(0))
    return out


@lru_cache(maxsize=None)
def superpartitions(level2):
    """All superpartitions of size level2/2, canonically ordered.

    The argument is twice the level so the cache key stays an integer.
    """
    level = Fraction(level2, 2)
    if level < 0:
        return ()
    out = []
    for ferm in _fermionic_sets(level):
        rest = level - sum(ferm, Fraction(0))
        for lam in partitions(int(rest)):
            out.append(SuperPartition(bosonic=lam, fermionic=ferm))
    out.sort(key=SuperPartition.sort_key)
    return tuple(out)


def pns(level):
    """Number of superpartitions of the given (half-integer) level."""
    level = Fraction(level)
    if (2 * level).denominator != 1:
        raise ValueError("level must be a half-integer")
    return len(superpartitions(int(2 * level)))


# ---------------------------------------------------------------------------
# highest-weight data
# ---------------------------------------------------------------------------

# the weights of one module, a named tuple: it equals the plain tuple of its
# fields, and ``*`` repeats it
HighestWeightData = namedtuple("HighestWeightData", "t rho c h alpha_plus")


def _rho_and_c(tv):
    """rho = (t - 1/t)/2 and the central charge c = 3/2 - 12 rho^2, in the
    field of t."""
    one = tv * 0 + 1
    rho = (tv - one / tv) * HALF
    return rho, one * Fraction(3, 2) - 12 * rho * rho


def hw_data(t, r, s):
    """All derived weights of the (r, s) module as exact functions of t."""
    if r < 1 or s < 1 or (r - s) % 2 != 0:
        raise ValueError("need r, s >= 1 with r = s (mod 2); got (%s, %s)" % (r, s))
    tv = as_scalar(t, "t")
    if is_zero(tv):
        raise ValueError("t must be nonzero")
    rho, c = _rho_and_c(tv)
    t_minus = -1 / tv
    h = (r * tv + s * t_minus) ** 2 * Fraction(1, 8) - rho * rho * HALF
    alpha_plus = tv * Fraction(r + 1, 2) + t_minus * Fraction(s + 1, 2)
    return HighestWeightData(t=tv, rho=rho, c=c, h=h, alpha_plus=alpha_plus)


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------

def _gen_key(gen):
    """Total order used for PBW straightening: negative modes first (L block
    before G block, magnitudes ascending), then zero modes, then positive."""
    kind, idx = gen
    cls = 0 if idx < 0 else (1 if idx == 0 else 2)
    block = 0 if kind == "L" else 1
    return (cls, block, abs(idx))


def _vacuum(gen, h):
    idx = gen[1]
    if idx > 0:
        return {}
    if idx == 0:
        return {(): h}
    return {(gen,): h * 0 + 1}


def _swap(x, y, c, one):
    """x y = sign * y x + brackets; brackets is a list of (scalar, gen or None)."""
    kx, ky = x[0], y[0]
    if kx == "L" and ky == "L":
        m, n = x[1], y[1]
        br = []
        if m != n:
            br.append((Fraction(m - n) * one, ("L", m + n)))
        if m + n == 0:
            br.append((Fraction(m ** 3 - m, 12) * c, None))
        return 1, br
    if kx == "L" and ky == "G":
        n, k = x[1], y[1]
        return 1, [((Fraction(n) * HALF - k) * one, ("G", n + k))]
    if kx == "G" and ky == "L":
        k, n = x[1], y[1]
        return 1, [((k - Fraction(n) * HALF) * one, ("G", n + k))]
    # G G: anticommutator
    k, l = x[1], y[1]
    br = [(2 * one, ("L", int(k + l)))] if k + l != 0 else [(2 * one, ("L", 0))]
    if k + l == 0:
        br.append((Fraction(1, 3) * (k * k - Fraction(1, 4)) * c, None))
    return -1, br


# typed: equal h of different fields (Fraction(3) == RatFun.const("t", 3))
# must not share entries, because the coefficients carry the field of h
@lru_cache(maxsize=None, typed=True)
def _push(gen, word, h, c):
    """Normal-order gen * (word |h, c>) into canonical monomials, with
    coefficients in the field of h."""
    if not word:
        return _vacuum(gen, h)
    y = word[0]
    rest = word[1:]
    if gen[0] == "G" and y[0] == "G" and gen[1] == y[1]:
        # G_k G_k = L_{2k}  (the central term needs k + k = 0, impossible)
        return _push(("L", int(2 * gen[1])), rest, h, c)
    one = h * 0 + 1
    if _gen_key(gen) <= _gen_key(y) and _gen_key(gen)[0] == 0:
        return {(gen,) + word: one}
    sign, brackets = _swap(gen, y, c, one)
    out = {}

    def add(w, coeff):
        if w in out:
            out[w] = out[w] + coeff
        else:
            out[w] = coeff

    for w1, c1 in _push(gen, rest, h, c).items():
        c1s = c1 if sign == 1 else -c1
        for w2, c2 in _push(y, w1, h, c).items():
            add(w2, c1s * c2)
    for coeff, g in brackets:
        if g is None:
            add(rest, coeff)
        else:
            for w2, c2 in _push(g, rest, h, c).items():
                add(w2, coeff * c2)
    return {w: x for w, x in out.items() if not is_zero(x)}


def _word_of(sp):
    word = tuple(("L", -a) for a in reversed(sp.bosonic))
    word += tuple(("G", -b) for b in reversed(sp.fermionic))
    return word


def _sp_of(word):
    bos = tuple(sorted((-g[1] for g in word if g[0] == "L"), reverse=True))
    ferm = tuple(sorted((-g[1] for g in word if g[0] == "G"), reverse=True))
    return SuperPartition(bosonic=bos, fermionic=ferm)


# ---------------------------------------------------------------------------
# Verma vectors and generator action
# ---------------------------------------------------------------------------

class VermaVector(namedtuple("VermaVector", "level terms weight h c")):
    """terms maps SuperPartition -> scalar; weight is a HighestWeightData or
    None.  A named tuple with its own + and -: it equals the plain tuple of
    its fields, and ``*`` repeats that tuple (scale multiplies by a scalar)."""

    __slots__ = ()

    def is_zero(self):
        return not self.terms

    def scale(self, x):
        return VermaVector(self.level, {k: v * x for k, v in self.terms.items()},
                           self.weight, self.h, self.c)

    def __add__(self, other):
        if other.level != self.level:
            raise KernelError("level mismatch in Verma addition")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        out = {k: v for k, v in out.items() if not is_zero(v)}
        return VermaVector(self.level, out, self.weight, self.h, self.c)

    def __sub__(self, other):
        return self + other.scale(-1)


def monomial_vector(sp, hw=None, h=None, c=None):
    """The basis monomial of ``sp`` on |h, c>, with coefficient one in the
    field of h; ``hw`` supplies h and c when given."""
    if hw is not None:
        h, c = hw.h, hw.c
    h, c = as_scalar(h, "h"), as_scalar(c, "c")
    return VermaVector(sp.size(), {sp: h * 0 + 1}, hw, h, c)


def act(gen, v):
    """Apply a single generator, re-expressing the result in the PBW basis."""
    kind = gen[0]
    if kind == "G":
        gen = ("G", Fraction(gen[1]))
        shift = -gen[1]
    elif kind == "L":
        gen = ("L", int(gen[1]))
        shift = Fraction(-gen[1])
    else:
        raise ValueError("unsupported generator %r" % (gen,))
    out = {}
    for sp, coeff in v.terms.items():
        for word, scal in _push(gen, _word_of(sp), v.h, v.c).items():
            key = _sp_of(word)
            term = coeff * scal
            out[key] = out[key] + term if key in out else term
    out = {k: x for k, x in out.items() if not is_zero(x)}
    return VermaVector(v.level + shift, out, v.weight, v.h, v.c)


def apply_word(gens, v):
    """Apply a product of generators, rightmost factor first."""
    for gen in reversed(list(gens)):
        v = act(gen, v)
    return v


# ---------------------------------------------------------------------------
# Gram matrices and the Kac determinant
# ---------------------------------------------------------------------------

def _dual_word(sp):
    """Adjoint of the basis monomial: G_{b_1} ... G_{b_m} L_{a_1} ... L_{a_l}."""
    word = tuple(("G", b) for b in sp.fermionic)
    word += tuple(("L", a) for a in sp.bosonic)
    return word


def gram_matrix(level, h, c):
    """Contravariant form on the level subspace, rows and columns in the
    canonical superpartition order.  h may be symbolic (a Poly in 'h') or a
    scalar; c likewise.  The entries lie in the field of h.
    """
    level = Fraction(level)
    basis = superpartitions(int(2 * level))
    vac = SuperPartition((), ())
    mat = []
    for row_sp in basis:
        row = []
        for col_sp in basis:
            v = monomial_vector(col_sp, h=h, c=c)
            w = apply_word(_dual_word(row_sp), v)
            row.append(w.terms[vac] if vac in w.terms else v.h * 0)
        mat.append(row)
    return mat


def gram_matrix_symbolic_h(level, t="sym"):
    """Gram matrix with h a polynomial variable and c = c(t)."""
    tv = as_scalar(t, "t")
    one_t = tv * 0 + 1
    _, c_val = _rho_and_c(tv)
    h_poly = Poly("h", [one_t * 0, one_t])
    return gram_matrix(level, h_poly, Poly.const("h", c_val))


def kac_factor_exponents(level):
    """The predicted factor list: {(r, s): multiplicity} with multiplicity
    pns(level - rs/2), over r = s (mod 2), rs <= 2*level."""
    level = Fraction(level)
    out = {}
    bound = int(2 * level)
    for r in range(1, bound + 1):
        for s in range(1, bound + 1):
            if r * s <= bound and (r - s) % 2 == 0:
                mult = pns(level - Fraction(r * s, 2))
                if mult:
                    out[(r, s)] = mult
    return out


def kac_constant(level):
    """The h-independent constant of det K_level once every predicted factor
    (h - h_{r,s})^{pns(level - rs/2)} is divided out: the product, over the
    superpartitions (lambda, mu) of the level, of
    prod_r (2r)^{m_r} m_r! * 2^{l(mu)}, with m_r the multiplicity of r in
    lambda and l(mu) the number of fermionic parts.

    The diagonal entry <x, x> of x = L_{-lambda} G_{-mu} |h> has top h-power
    h^{l(lambda) + l(mu)} with that coefficient, and every product in the
    expansion of the determinant that leaves the diagonal has lower h-degree
    (Meurman and Rocha-Caridi, Commun. Math. Phys. 107 (1986) 263-294).  The
    top degrees sum to the Kac degree and the factored form is monic in h, so
    its constant is the product of the diagonal top coefficients, an integer
    that does not depend on t.
    """
    out = 1
    for sp in superpartitions(int(2 * Fraction(level))):
        for r, m in Counter(sp.bosonic).items():
            out *= (2 * r) ** m * math.factorial(m)
        out *= 2 ** len(sp.fermionic)
    return out


def kac_det_check(level, t="sym"):
    """Interpolate det K_level as a polynomial in h from its values at
    h = 0, 1, ..., degree + 1, read off the one symbolic-h Gram matrix,
    divide out the predicted singular factors, and require the quotient to
    be ``kac_constant(level)``.

    The Gram entries are polynomials in h and c alone, so at symbolic t the
    matrix, its determinants and the interpolation stay in Q[c], with c a
    formal variable, and the interpolated coefficients are mapped to Q(t) by
    c -> c(t) once; at rational t, c is rational and they are computed in Q.

    Returns a report with the quotient constant; raises VerificationFailure
    when a factor fails to divide or the quotient is not the constant.
    """
    level = Fraction(level)
    if (2 * level).denominator != 1 or level < 0:
        raise ValueError("level must be a nonnegative half-integer, got %s" % level)
    tv = as_scalar(t, "t")
    one_t = tv * 0 + 1
    _, c_t = _rho_and_c(tv)
    c = RatFun.variable("c") if isinstance(c_t, RatFun) else c_t
    one = c * 0 + 1
    factors = kac_factor_exponents(level)
    degree = sum(factors.values())
    # evaluating at h = i is a ring homomorphism, so each evaluated entry is
    # the entry of gram_matrix(level, one * i, c)
    gram = gram_matrix(level, Poly("h", [one * 0, one]), Poly.const("h", c))
    points = []
    for i in range(degree + 2):
        hval = one * Fraction(i)
        points.append((Fraction(i), det([[x(hval) for x in row] for row in gram])))
    quotient = poly_interpolate(points, degree, var="h")
    if quotient.degree() != degree:
        raise VerificationFailure("determinant degree %s, expected %s"
                             % (quotient.degree(), degree))
    if c is not c_t:
        # c -> c(t) is injective on Q[c], so the degree survives the map
        quotient = Poly("h", [x(c_t) for x in quotient.coeffs])
    for (r, s), mult in sorted(factors.items()):
        hrs = hw_data(tv, r, s).h
        lin = Poly("h", [-hrs, one_t])
        for _ in range(mult):
            q, rem = quotient.divmod(lin)
            if not rem.is_zero():
                raise VerificationFailure(
                    "factor (h - h_{%d,%d}) does not divide the determinant" % (r, s))
            quotient = q
    if quotient.degree() > 0:
        raise VerificationFailure("quotient still depends on h: %r" % quotient)
    const, expected = quotient.coeffs[0], kac_constant(level)
    if const != expected:
        raise VerificationFailure("determinant constant %s, expected %d"
                                  % (const, expected))
    return {
        "level": str(level),
        "factors": {"%d,%d" % k: v for k, v in sorted(factors.items())},
        "degree": degree,
        "constant": const,
    }


# ---------------------------------------------------------------------------
# singular vectors
# ---------------------------------------------------------------------------

def singular_vector(r, s, t="sym"):
    """The level rs/2 vector annihilated by G_{1/2} and G_{3/2} (hence by the
    whole positive half), normalized so the first canonical coordinate is 1.

    Raises VerificationFailure unless the kernel is exactly one-dimensional.
    """
    hw = hw_data(t, r, s)
    level = Fraction(r * s, 2)
    basis = superpartitions(int(2 * level))
    rows = []
    for k in (HALF, Fraction(3, 2)):
        if level - k >= 0:
            rows += operator_matrix(
                lambda sp: act(("G", k), monomial_vector(sp, hw=hw)).terms,
                basis, superpartitions(int(2 * (level - k))), zero=hw.t * 0)
    kernel = nullspace(rows)
    if len(kernel) != 1:
        raise VerificationFailure(
            "singular space at (r, s) = (%d, %d) has dimension %d"
            % (r, s, len(kernel)))
    vec = kernel[0]
    pivot = next(x for x in vec if not is_zero(x))
    vec = [x / pivot for x in vec]
    terms = {sp: x for sp, x in zip(basis, vec) if not is_zero(x)}
    return VermaVector(level, terms, hw, hw.h, hw.c)
