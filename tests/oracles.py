"""Independent brute-force evaluators used as oracles by the test suite.

The production code extracts vertex-operator modes by enumerating
creation/derivative partition pairs.  Here the same operators are built a
completely different way: multiplication by p_a and d/dp_a are materialized
as dense matrices on the full graded space of degree <= D, the exponentials
are summed as (nilpotent) matrix series, and the mode is read off from the
degree-shift block structure.  Agreement between the two routes validates
both.  The next section holds the per-degree m-basis matrices of the
C^0 and C^1 modes, a second representation of operators the package
applies as functions.

The helpers after the finite-N oracles are reference forms that only the
tests call: generic field operations, the jet product and sum on a
scalar coerced into a jet, a matrix-vector product, the Bareiss loop
over the fields (the reference for the integer one, with either its
first-nonzero or its smallest pivot), a determinant by Gaussian
elimination over the fields, the Kac determinant check over the
field of t with a Gram matrix hook that perturbs one diagonal entry, the
superpartition generating function, the corrected finite-N operators and the
Selberg-side closed forms and estimators.  The next section holds the
constructors, restrictions and independent solvers the tests cross-check
the package against, among them the Macdonald (q,t) inner product, the
eigen route to the gamma-family and the verify certificate by expansion
of each m_mu in power sums.  The last one keeps the checks verify runs
after the image as they ran over Q or Q(t), on Fraction p -> m and C^1
rows: the reference for their one-denominator form.  Beside it, monic_image
divides an image by its m_lam coefficient, for the tests that compare an
image with a monic gamma-family member.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np
from scipy.special import gammaln

from svjack.finiten import (
    c0n_apply,
    c1n_apply,
    mp_const,
    mp_div_linear,
    mp_mul,
    mp_to_orbits,
)
from svjack import fock
from svjack.fock import _ff_terms, fermion_act, odd_sign_involution
from svjack.kernel import (
    Jet,
    KernelError,
    Poly,
    RatFun,
    Sqrt2Ext,
    VerificationFailure,
    as_scalar,
    is_zero,
    poly_gcd,
    scalar_to_json,
)
from svjack.linalg import bareiss_echelon, det, nullspace, operator_matrix, poly_interpolate
from svjack.selberg import _log_gamma_signed
from svjack.svir import (
    SuperPartition,
    _word_of,
    gram_matrix_symbolic_h,
    hw_data,
    kac_factor_exponents,
    monomial_vector,
)
from svjack.symfunc import (
    SymFunc,
    _back_substitute,
    convert,
    diagonal_form,
    dominance_leq,
    merge_partitions,
    multiplicities,
    multiply,
    partitions,
    sorted_partitions,
    to_p,
)
from svjack.uglov import (
    _check_generic_qt,
    _nonzero_gamma,
    _triangular_eigenvector,
    uglov_inner,
)
from svjack.vertexops import (
    _C0,
    VertexOperator,
    _annihilations,
    _create,
    _jet_coeff,
    _submultisets,
    apply_vertex_mode,
    c0_apply,
    c1_apply,
    dvir_jet,
    dvir_rational,
    eps0,
    eps1,
)


def graded_basis(dmax):
    basis = []
    for d in range(dmax + 1):
        basis.extend(partitions(d))
    return basis


def _mult_matrix(a, basis, index):
    """Matrix of multiplication by p_a on the degree-truncated space."""
    n = len(basis)
    m = [[Fraction(0)] * n for _ in range(n)]
    for j, lam in enumerate(basis):
        mu = tuple(sorted(lam + (a,), reverse=True))
        if mu in index:
            m[index[mu]][j] = Fraction(1)
    return m


def _deriv_matrix(a, basis, index):
    n = len(basis)
    m = [[Fraction(0)] * n for _ in range(n)]
    for j, lam in enumerate(basis):
        k = lam.count(a)
        if k:
            mu = list(lam)
            mu.remove(a)
            m[index[tuple(mu)]][j] = Fraction(k)
    return m


def _matmul(a, b):
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k] == 0:
                continue
            aik = a[i][k]
            for j in range(n):
                if b[k][j] != 0:
                    out[i][j] = out[i][j] + aik * b[k][j]
    return out


def _madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mscale(a, c):
    return [[x * c for x in row] for row in a]


def _mexp(a, nilpotency):
    """exp of a graded (nilpotent on the truncation) matrix by plain series."""
    n = len(a)
    out = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    term = [row[:] for row in out]
    for k in range(1, nilpotency + 1):
        term = _mscale(_matmul(term, a), Fraction(1, k))
        out = _madd(out, term)
        if all(all(x == 0 for x in row) for row in term):
            break
    return out


def vertex_mode_matrix(creation, annihilation, n, dmax):
    """Dense oracle for [z^{-n}] exp(sum creation(a) p_a z^a) exp(sum annihilation(b) dp_b z^{-b}).

    Because every series term carries z-power equal to its degree shift, the
    mode-n operator is exactly the "shift by -n" block of exp(C) exp(A).
    Returns a dict (row partition, col partition) -> coefficient.
    """
    basis = graded_basis(dmax)
    index = {lam: i for i, lam in enumerate(basis)}
    nmat = len(basis)
    cmat = [[Fraction(0)] * nmat for _ in range(nmat)]
    amat = [[Fraction(0)] * nmat for _ in range(nmat)]
    for a in range(1, dmax + 1):
        ca = creation(a)
        if ca is not None and ca != 0:
            cmat = _madd(cmat, _mscale(_mult_matrix(a, basis, index), ca))
        da = annihilation(a)
        if da is not None and da != 0:
            amat = _madd(amat, _mscale(_deriv_matrix(a, basis, index), da))
    full = _matmul(_mexp(cmat, dmax), _mexp(amat, dmax))
    out = {}
    for i, mu in enumerate(basis):
        for j, lam in enumerate(basis):
            if full[i][j] != 0 and sum(mu) == sum(lam) - n:
                out[(mu, lam)] = full[i][j]
    return out


def vertex_mode_apply_oracle(creation, annihilation, n, f, dmax):
    fp = to_p(f)
    table = vertex_mode_matrix(creation, annihilation, n, dmax)
    out = {}
    for (mu, lam), c in table.items():
        if lam in fp.terms:
            out[mu] = out.get(mu, Fraction(0)) + c * fp.terms[lam]
    return SymFunc("p", out)


def vertex_mode_per_call(creation, annihilation, n, f, parity="any"):
    """One mode of an operator built for this application alone, so its
    coefficient and series caches start empty: the reference a reused
    VertexOperator must equal exactly."""
    return apply_vertex_mode(VertexOperator(creation, annihilation, parity), n, f)


def p_derivative(f, j):
    """d/dp_j on the power-sum basis."""
    fp = to_p(f)
    out = {}
    for lam, coeff in fp.terms.items():
        m = multiplicities(lam).get(j, 0)
        if not m:
            continue
        rest = list(lam)
        rest.remove(j)
        key = tuple(rest)
        term = coeff * m
        out[key] = out[key] + term if key in out else term
    return SymFunc("p", out)


def c1_apply_reference(gamma, n, f):
    """Mode C^1_n(gamma) assembled from whole C^0 modes, one power-sum
    multiplication or one derivative inserted:
      -gamma p_j C^0_{n+j}   (j odd)      +gamma p_j C^0_{n+j}   (j even)
      -j C^0_{n-j} dp_j      (j odd)      +j C^0_{n-j} dp_j      (j even)
    the reference the one-pass vertexops.c1_apply must equal exactly."""
    fp = to_p(f)
    if not fp.terms:
        return SymFunc("p", {})
    degmax = max(sum(lam) for lam in fp.terms)
    out = SymFunc("p", {})
    for j in range(1, degmax - n + 1):
        g = c0_apply(n + j, fp)
        if g.is_zero():
            continue
        sign = Fraction(-1) if j % 2 == 1 else Fraction(1)
        pj = SymFunc("p", {(j,): sign})
        out = out + multiply(pj, g).scale(gamma)
    present = sorted({p for lam in fp.terms for p in lam})
    for j in present:
        dj = p_derivative(fp, j)
        if dj.is_zero():
            continue
        sign = Fraction(-j) if j % 2 == 1 else Fraction(j)
        out = out + c0_apply(n - j, dj).scale(sign)
    return out


def dvir_per_call(cur):
    """(t_apply, psi_apply) of the DVirCurrent cur, each application on fresh
    operators whose coefficients follow the formulas of its docstring."""
    q, t, p_sqrt, kappa = cur.q, cur.t, cur.p_sqrt, cur.kappa
    t_inv, p, ps_inv = 1 / t, p_sqrt * p_sqrt, 1 / p_sqrt

    def phi(a):
        return (1 - t_inv ** a) * (ps_inv ** a) / ((1 + p ** a) * a)

    def psi(a):
        return (1 - t_inv ** a) * (p_sqrt ** a) / ((1 + p ** a) * a)

    def t_apply(n, f):
        b1 = vertex_mode_per_call(phi, lambda b: -(1 - q ** b) * p_sqrt ** b, n, f)
        b2 = vertex_mode_per_call(lambda a: -psi(a), lambda b: (1 - q ** b) * ps_inv ** b,
                                  n, f)
        return b1 + b2.scale(kappa)

    def psi_apply(n, f):
        return vertex_mode_per_call(psi, lambda b: None, -n, f)

    return t_apply, psi_apply


def uniform_beta_reference(doubles, count):
    """The first count values of rng.beta(1.0, 1.0) drawn from the stream of
    doubles, by numpy's Johnk loop one trial at a time: the pair (U, V) is
    accepted when 0 < U + V <= 1 and gives U / (U + V)."""
    out = []
    pairs = iter(doubles)
    while len(out) < count:
        u, v = float(next(pairs)), float(next(pairs))
        total = u + v
        if 0.0 < total <= 1.0:
            out.append(u / total)
    return np.array(out)


# ---------------------------------------------------------------------------
# operators as per-degree matrices in the m basis
# ---------------------------------------------------------------------------
#
# The package applies every operator as a function on symmetric functions;
# these matrices are a second representation the tests compare it with.

def m_block(apply_fn, cols, rows):
    """Row-major matrix of apply_fn from the m basis on the partitions
    ``cols`` to the m basis on the partitions ``rows``."""
    return operator_matrix(
        lambda lam: convert(apply_fn(SymFunc("m", {lam: Fraction(1)})), "m").terms,
        cols, rows)


@dataclass(frozen=True)
class GradedOperator:
    """Per-degree matrices of a degree-shifting operator in the m basis.

    ``blocks[d]`` maps the degree-d component (columns: partitions of d in
    canonical order) to degree d + shift (rows: partitions of d + shift).
    """

    shift: int
    blocks: dict
    max_degree: int

    @classmethod
    def build(cls, apply_fn, n, dmax):
        shift = -n
        blocks = {d: m_block(apply_fn, partitions(d), partitions(d + shift))
                  for d in range(0, dmax + 1) if 0 <= d + shift <= dmax}
        return cls(shift=shift, blocks=blocks, max_degree=dmax)

    def block(self, d):
        return self.blocks[d]


def c0_mode(n, dmax):
    return GradedOperator.build(lambda f: c0_apply(n, f), n, dmax)


def c1_mode(gamma, n, dmax):
    return GradedOperator.build(lambda f: c1_apply(gamma, n, f), n, dmax)


# ---------------------------------------------------------------------------
# finite-variable shift operators, rebuilt per basis vector over Fraction
# ---------------------------------------------------------------------------
#
# These are the direct implementations the production operators replaced:
# every factor of every summand is rebuilt for each input, all arithmetic is
# in Fraction, and symmetry is checked by enumerating every orbit member.

def _mp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
        if out[e] == 0:
            del out[e]
    return out


def _mp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _mp_scale(a, c):
    return {e: x * c for e, x in a.items()} if c != 0 else {}


def _mp_linear(n, i, j, sign_j=-1):
    """x_i + sign_j * x_j."""
    ei = [0] * n
    ei[i] = 1
    ej = [0] * n
    ej[j] = 1
    return {tuple(ei): Fraction(1), tuple(ej): Fraction(sign_j)}


def _mp_flip(a, i):
    return {e: (-c if e[i] % 2 == 1 else c) for e, c in a.items()}


def _mp_euler(a, i):
    return {e: c * e[i] for e, c in a.items() if e[i] != 0}


def _orbit_to_mp(lam, n):
    if len(lam) > n:
        return {}
    exps = list(lam) + [0] * (n - len(lam))
    return {perm: Fraction(1) for perm in set(permutations(exps))}


def _mp_to_orbits(a, n):
    seen = {}
    for e, c in a.items():
        lam = tuple(p for p in sorted(e, reverse=True) if p != 0)
        if seen.setdefault(lam, c) != c:
            raise AssertionError("polynomial is not symmetric")
    for lam, c in seen.items():
        for e in _orbit_to_mp(lam, n):
            if a.get(e, Fraction(0)) != c:
                raise AssertionError("polynomial is not symmetric")
    return seen


def _sub_vandermonde(n, skip):
    out = {tuple([0] * n): Fraction(1)}
    for a in range(n):
        for b in range(a + 1, n):
            if a == skip or b == skip:
                continue
            out = _mp_mul(out, _mp_linear(n, a, b, -1))
    return out


def _divide_by_vandermonde(num, n):
    out = num
    for a in range(n):
        for b in range(a + 1, n):
            out = mp_div_linear(out, a, b)
    return out


def _orbits_to_mp(orbits, n):
    f = {}
    for lam, c in orbits.items():
        f = _mp_add(f, _mp_scale(_orbit_to_mp(lam, n), c))
    return f


def c0n_apply_oracle(orbits, n):
    """2 (-1)^{n-1} sum_i prod_{j != i} ( -(x_i + x_j)/(x_i - x_j) ) T_{-1,i}."""
    f = _orbits_to_mp(orbits, n)
    num = {}
    for i in range(n):
        term = _mp_flip(f, i)
        for j in range(n):
            if j != i:
                term = _mp_mul(term, _mp_scale(_mp_linear(n, i, j, +1), Fraction(-1)))
        term = _mp_mul(term, _sub_vandermonde(n, i))
        num = _mp_add(num, _mp_scale(term, Fraction((-1) ** i)))
    quot = _mp_scale(_divide_by_vandermonde(num, n), Fraction(2 * (-1) ** (n - 1)))
    return _mp_to_orbits(quot, n)


def c1n_apply_oracle(orbits, n, gamma):
    """(1/2) (-1)^{n-1} sum_i prod_{j != i} ( -(x_i + x_j)/(x_i - x_j) )
    ( D_i + gamma sum_{k != i} x_i/(x_i + x_k) ) T_{-1,i}."""
    gamma = Fraction(gamma)
    f = _orbits_to_mp(orbits, n)
    num = {}
    for i in range(n):
        inner = _mp_euler(_mp_flip(f, i), i)
        for j in range(n):
            if j != i:
                inner = _mp_mul(inner, _mp_scale(_mp_linear(n, i, j, +1), Fraction(-1)))
        if gamma != 0:
            xi = [0] * n
            xi[i] = 1
            xi = {tuple(xi): Fraction(1)}
            for k in range(n):
                if k == i:
                    continue
                piece = _mp_scale(_mp_mul(xi, _mp_flip(f, i)), -gamma)
                for j in range(n):
                    if j != i and j != k:
                        piece = _mp_mul(piece, _mp_scale(_mp_linear(n, i, j, +1), Fraction(-1)))
                inner = _mp_add(inner, piece)
        term = _mp_mul(inner, _sub_vandermonde(n, i))
        num = _mp_add(num, _mp_scale(term, Fraction((-1) ** i)))
    quot = _mp_scale(_divide_by_vandermonde(num, n), Fraction((-1) ** (n - 1), 2))
    return _mp_to_orbits(quot, n)


# ---------------------------------------------------------------------------
# helpers only the tests call
# ---------------------------------------------------------------------------

def field_ops(x, y, op):
    """Apply one of {add, sub, mul, div} to two scalars of the same field."""
    try:
        if op == "add":
            r = x + y
        elif op == "sub":
            r = x - y
        elif op == "mul":
            r = x * y
        elif op == "div":
            if is_zero(y):
                raise KernelError("division by zero")
            r = x / y
        else:
            raise ValueError("unknown op %r" % (op,))
    except TypeError as exc:
        raise KernelError(str(exc)) from None
    if r is NotImplemented:
        raise KernelError("incompatible scalars %r and %r" % (x, y))
    return r


def _jet_operands(x, y):
    """(jet, jet) for the operands of a jet operation with a jet on at least
    one side: a scalar becomes the constant jet of the other's order, the
    field's zero (the jet's c0 * 0) plus the scalar, then zeros."""
    if not isinstance(x, Jet):
        x, y = y, x
    if not isinstance(y, Jet):
        zero = x.coeffs[0] * 0
        y = Jet([zero + y] + [zero] * x.order, x.order)
    return x, y


def jet_mul_reference(x, y):
    """x * y by convolution into zero-initialised accumulators, a scalar
    first coerced into a jet, skipping the zero coefficients of the first
    operand (the Jet product before it scaled scalars and summed each
    coefficient from its first product)."""
    x, y = _jet_operands(x, y)
    k = min(x.order, y.order)
    zero = x.coeffs[0] * 0
    out = [zero] * (k + 1)
    for i in range(k + 1):
        a = x.coeffs[i]
        if is_zero(a):
            continue
        for j in range(k + 1 - i):
            out[i + j] = out[i + j] + a * y.coeffs[j]
    return Jet(out, k)


def jet_add_reference(x, y):
    """x + y coefficientwise, a scalar first coerced into a jet."""
    x, y = _jet_operands(x, y)
    k = min(x.order, y.order)
    return Jet([x.coeffs[i] + y.coeffs[i] for i in range(k + 1)], k)


def exact_div(a, b):
    """a / b for polynomials when b divides a; KernelError otherwise."""
    q, r = a.divmod(b)
    if not r.is_zero():
        raise KernelError("inexact polynomial division")
    return q


def ratfun_reference(numer, denom):
    """numer/denom in the canonical form by Euclid over Q: the two Polys
    cancelled by their monic gcd and scaled to a monic denominator."""
    g = poly_gcd(numer, denom)
    if not g.is_zero() and g.degree() > 0:
        numer, denom = exact_div(numer, g), exact_div(denom, g)
    inv = Fraction(1) / denom.coeffs[-1]
    return (Poly(numer.var, [c * inv for c in numer.coeffs]),
            Poly(denom.var, [c * inv for c in denom.coeffs]))


def ratfun_call_reference(f, x):
    """f(x) for a RatFun f at a RatFun x by Horner in RatFun arithmetic,
    each step canonicalised: the reference for the homogeneous evaluation
    over Z of RatFun.__call__."""
    num = den = x * 0
    for a in reversed(f.N):
        num = num * x + a
    for a in reversed(f.D):
        den = den * x + a
    if is_zero(den):
        raise KernelError("evaluation at a pole of the denominator")
    return f.c * num / den


def _clear_denominators(mat, distinct=False):
    """The rows of ``mat``, each multiplied in RatFun arithmetic by the
    product of the denominators of its RatFun entries (with ``distinct``,
    of each distinct one once), the factor ``linalg._integer_rows`` clears
    before the rational lcm; rows with no denominator are copied unscaled."""
    rows = []
    for row in mat:
        scale, seen = 1, set()
        for x in row:
            if isinstance(x, RatFun) and x.D != (1,) and not (distinct and x.D in seen):
                seen.add(x.D)
                scale = scale * RatFun(x.var, Poly(x.var, x.D))
        rows.append(list(row) if scale == 1 else [x * scale for x in row])
    return rows


def _coefficients(x):
    """The rational coefficients of a rational number or of a RatFun that
    is a polynomial, low degree first; none for zero."""
    if isinstance(x, RatFun):
        assert x.D == (1,)
        return x.numer.coeffs
    return [x] if x else []


def bareiss_echelon_reference(mat, distinct=False, smallest=False):
    """The Bareiss loop over the fields themselves: the rows scaled by
    ``_clear_denominators`` are eliminated with Fraction or RatFun arithmetic,
    each division ``num / prev`` taking the field's gcds.  Returns (echelon
    matrix, pivot column list, row permutation sign), like
    ``linalg.bareiss_echelon``, whose integer loop it cross-checks.

    The pivot of a column is the first nonzero entry below the pivots so
    far, or with ``smallest`` the smallest one, the earliest of equal ones,
    measured on its integer form: the entry times the lcm of the
    coefficient denominators of its cleared row and of every pivot row so
    far, which is the entry of the integer loop (a minor of the rows cleared
    to Z or Z[t]).  Its size is the bit length of that integer, or, when
    ``mat`` has a RatFun entry and the integer loop runs in Z[t], the number
    of coefficients and then the bit length of the largest one."""
    m = _clear_denominators(mat, distinct)
    if not m:
        return m, [], 1
    over_zt = any(isinstance(x, RatFun) for row in mat for x in row)
    scales = [math.lcm(*(a.denominator for x in row for a in _coefficients(x)))
              for row in m]

    def size(i, c, p):
        ks = [a * p * scales[i] for a in _coefficients(m[i][c])]
        assert all(k.denominator == 1 for k in ks)
        top = max(abs(k) for k in ks).numerator.bit_length()
        return (len(ks), top) if over_zt else top

    rows, cols = len(m), len(m[0])
    piv_cols = []
    prev = 1
    p = 1  # the product of the scales of the pivot rows so far
    r = 0
    sign = 1
    for c in range(cols):
        candidates = [i for i in range(r, rows) if not is_zero(m[i][c])]
        if not candidates:
            continue
        pivot_row = (min(candidates, key=lambda i: size(i, c, p)) if smallest
                     else candidates[0])
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
            sign = -sign
        piv = m[r][c]
        for i in range(r + 1, rows):
            for j in range(cols):
                if j == c:
                    continue
                num = m[i][j] * piv - m[i][c] * m[r][j]
                m[i][j] = num / prev if prev != 1 else num
            m[i][c] = m[i][c] * 0
        prev = piv
        p *= scales[r]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return m, piv_cols, sign


def det_reference(mat):
    """The determinant by Gaussian elimination over the field itself: the
    signed product of the pivots, each row reduced by a multiple of the
    pivot row.  No row is cleared of its denominators, so it checks the
    denominators ``linalg.det`` divides out."""
    m = [list(row) for row in mat]
    d = m[0][0] * 0 + 1
    for c in range(len(m)):
        pivot_row = next((i for i in range(c, len(m)) if not is_zero(m[i][c])), None)
        if pivot_row is None:
            return d * 0
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            d = -d
        d = d * m[c][c]
        for row in m[c + 1:]:
            f = row[c] / m[c][c]
            row[c:] = [x - f * y for x, y in zip(row[c:], m[c][c:])]
    return d


def kac_det_check_reference(level, t="sym"):
    """svir.kac_det_check with the Gram matrix, its determinants and the
    interpolation all over the field of t, Q(t) at symbolic t, and only a
    nonzero h-independent quotient required, whatever its value."""
    level = Fraction(level)
    tv = as_scalar(t, "t")
    one = tv * 0 + 1
    factors = kac_factor_exponents(level)
    degree = sum(factors.values())
    gram = gram_matrix_symbolic_h(level, tv)
    points = []
    for i in range(degree + 2):
        hval = one * Fraction(i)
        points.append((Fraction(i), det([[x(hval) for x in row] for row in gram])))
    poly = poly_interpolate(points, degree, var="h")
    if poly.degree() != degree:
        raise VerificationFailure("determinant degree %s, expected %s"
                                  % (poly.degree(), degree))
    quotient = poly
    for (r, s), mult in sorted(factors.items()):
        hrs = hw_data(tv, r, s).h
        lin = Poly("h", [-hrs, one])
        for _ in range(mult):
            q, rem = quotient.divmod(lin)
            if not rem.is_zero():
                raise VerificationFailure(
                    "factor (h - h_{%d,%d}) does not divide the determinant" % (r, s))
            quotient = q
    if quotient.degree() > 0:
        raise VerificationFailure("quotient still depends on h: %r" % quotient)
    const = quotient.coeffs[0] if quotient.coeffs else one * 0
    if is_zero(const):
        raise VerificationFailure("determinant vanished identically")
    return {
        "level": str(level),
        "factors": {"%d,%d" % k: v for k, v in sorted(factors.items())},
        "degree": degree,
        "constant": const,
    }


def top_diagonal_perturbed(gram_matrix, index):
    """gram_matrix with the top h-coefficient of diagonal entry ``index``
    raised by one, for a test to put in svir's place: the product of the
    diagonal top coefficients is then no longer kac_constant."""
    def perturbed(level, h, c):
        mat = gram_matrix(level, h, c)
        entry = mat[index][index]
        coeffs = list(entry.coeffs)
        coeffs[-1] = coeffs[-1] + 1
        mat[index][index] = Poly(entry.var, coeffs)
        return mat
    return perturbed


def graded_to_json(op):
    """A GradedOperator's blocks as JSON, rows and columns in canonical
    partition order."""
    return {
        "shift": op.shift,
        "basis": "m",
        "max_degree": op.max_degree,
        "blocks": {
            str(d): [[scalar_to_json(x) for x in row] for row in mat]
            for d, mat in sorted(op.blocks.items())
        },
    }


def homogeneous_degree(f):
    """The one degree of f's terms (None for zero); KernelError if several."""
    degs = {sum(lam) for lam in f.terms}
    if len(degs) > 1:
        raise KernelError("not homogeneous: degrees %s" % sorted(degs))
    return degs.pop() if degs else None


def map_coeffs(f, fn):
    return SymFunc(f.basis, {lam: fn(c) for lam, c in f.terms.items()})


def mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * 0
        for x, y in zip(row, v):
            if not is_zero(x) and not is_zero(y):
                acc = acc + x * y
        out.append(acc)
    return out


def fermion_act_reference(k, f):
    """The rescaled fermion mode by its literal definition, both halves of
    the raw vertex extracted:
    b~_k = (1/2) [z^{-2k}] (e^{phi_-} e^{2 phi_+} - e^{-phi_-} e^{-2 phi_+}) o J."""
    g = odd_sign_involution(f)
    k2 = int(2 * Fraction(k))

    def half(sign):
        return vertex_mode_per_call(lambda a: Fraction(-sign, a),
                                    lambda b: Fraction(2 * sign), k2, g, "odd")

    return (half(+1) - half(-1)).scale(Fraction(1, 2))


def boson_act(n, f, t):
    """The Heisenberg mode a_n (nonzero integer n) at parameter t on a
    symmetric function: a_n -> -2 t n d/dp_{2n}, a_{-n} -> -(1/2t) p_{2n}."""
    if n == 0:
        raise ValueError("a_0 acts as the scalar weight; use the alpha argument")
    if n > 0:
        return p_derivative(f, 2 * n).scale(-2 * t * n)
    one = t * 0 + 1
    return multiply(SymFunc("p", {(-2 * n,): one}), to_p(f)).scale(-1 / (2 * t))


def ff_act_reference(gen, f, alpha, rho, t):
    """fock.ff_act on a symmetric function rather than an exterior state:
    every fermion mode of every term is a vertex extraction on the
    intermediate state, every boson mode a p-basis derivative or product."""
    fp = to_p(f)
    if fp.is_zero():
        return fp
    out = SymFunc("p", {})
    for c, left, right in _ff_terms(gen, max(sum(lam) for lam in fp.terms), rho):
        g = fp
        for kind, idx in filter(None, (right, left)):
            if kind == "b":  # idx is the doubled index 2k
                g = fermion_act(Fraction(idx, 2), g)
            else:
                g = boson_act(idx, g, t) if idx else g.scale(alpha)
            if g.is_zero():
                break
        else:
            out = out + (g if c == 1 else g.scale(c))
    return out


def verma_to_lambda_reference(v):
    """fock.verma_to_lambda by ff_act_reference, state by state on
    symmetric functions."""
    hw = v.weight
    one = hw.t * 0 + 1
    total = SymFunc("p", {})
    for sp, coeff in v.terms.items():
        state = SymFunc("p", {(): one})
        for gen in reversed(_word_of(sp)):
            state = ff_act_reference(gen, state, hw.alpha_plus, hw.rho, hw.t)
        total = total + state.scale(coeff * Fraction(1, 2 ** (len(sp.fermionic) // 2)))
    return total


def pns_generating_function(max_level2):
    """Coefficients of prod_k (1 + x^k) / prod_m (1 - x^m), k half-odd,
    m a positive integer, as a list indexed by twice the exponent."""
    n = max_level2
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[0] = Fraction(1)

    def mul_series(a, b):
        out = [Fraction(0)] * (n + 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if i + j > n:
                    break
                out[i + j] += x * y
        return out

    for k2 in range(1, n + 1, 2):         # fermionic factors (1 + y^{2k}), y = x^{1/2}
        factor = [Fraction(0)] * (n + 1)
        factor[0] = Fraction(1)
        if k2 <= n:
            factor[k2] = Fraction(1)
        coeffs = mul_series(coeffs, factor)
    for m2 in range(2, n + 1, 2):         # bosonic factors 1/(1 - y^{2m})
        geo = [Fraction(0)] * (n + 1)
        for j in range(0, n + 1, m2):
            geo[j] = Fraction(1)
        coeffs = mul_series(coeffs, geo)
    return coeffs


def c0n_corrected_apply(orbits, n):
    """The restriction-compatible form of the level-zero operator.

    Matching eigenvalues through the n-variable shift-operator dictionary
    forces an extra scalar: the operator compatible with the infinite-
    variable zero mode is  C0_(n) + (-1)^n.  (The alternating scalar is why
    averaging two consecutive n restores agreement for the raw operator.)
    """
    out = dict(c0n_apply(orbits, n))
    sign = Fraction((-1) ** n)
    for lam, c in orbits.items():
        out[lam] = out.get(lam, Fraction(0)) + sign * c
    return {k: v for k, v in out.items() if v != 0}


def c1n_corrected_apply(orbits, n, gamma):
    """The restriction-compatible first-order operator:

        4 C1_(n) + (gamma (1-2n)/2) C0_(n) - (-1)^n n gamma.

    Derived from the same eigenvalue dictionary at first order; exact on
    every cell the diagnostic computes.
    """
    gamma = Fraction(gamma)
    out = {}
    for lam, c in c1n_apply(orbits, n, gamma).items():
        out[lam] = out.get(lam, Fraction(0)) + 4 * c
    coef = gamma * Fraction(1 - 2 * n, 2)
    for lam, c in c0n_apply(orbits, n).items():
        out[lam] = out.get(lam, Fraction(0)) + coef * c
    scal = -Fraction((-1) ** n) * n * gamma
    for lam, c in orbits.items():
        out[lam] = out.get(lam, Fraction(0)) + scal * c
    return {k: v for k, v in out.items() if v != 0}


def i0_closed(r, t):
    """Gamma-product form of the normalization I(0) = S_r((1-r)t, 1, t)."""
    t = float(t)
    log = 0.0
    sign = 1.0
    for j in range(1, r):
        for x, s in (((j - r) * t, +1), (1 + (j + 1) * t, +1), (1 + t, -1)):
            lg, sg = _log_gamma_signed(x)
            log += s * lg
            sign *= sg
    return sign * math.exp(log)


def selberg_montecarlo_reference(n, alpha, beta, gamma, samples, seed):
    """The Selberg Monte Carlo on whole arrays: one (samples, n) Beta draw
    and np.std, the form selberg_montecarlo reproduces bit for bit in
    bounded memory.  The parameters are taken as valid."""
    alpha_f, beta_f, gamma_f = float(alpha), float(beta), float(gamma)
    log_b = (gammaln(alpha_f) + gammaln(beta_f) - gammaln(alpha_f + beta_f))
    weight = math.exp(log_b) ** n
    rng = np.random.default_rng(seed)
    x = rng.beta(alpha_f, beta_f, size=(samples, n))
    vals = np.full(samples, weight)
    tmp = np.empty(samples)
    for i in range(n):
        for j in range(i + 1, n):
            np.subtract(x[:, i], x[:, j], out=tmp)
            np.abs(tmp, out=tmp)
            tmp **= 2 * gamma_f
            vals *= tmp
    mean = float(np.mean(vals))
    err = float(np.std(vals) / math.sqrt(samples))
    return mean, err


def montecarlo_symmetrized_moment(n, alpha, beta, gamma, moment, samples=10 ** 6,
                                  seed=0):
    """Self-normalized estimate of E_w[x^m] for permutation-symmetry checks."""
    rng = np.random.default_rng(seed)
    x = rng.beta(float(alpha), float(beta), size=(samples, n))
    w = np.ones(samples)
    for i in range(n):
        for j in range(i + 1, n):
            w = w * np.abs(x[:, i] - x[:, j]) ** (2 * float(gamma))
    num = w.copy()
    for i, mi in enumerate(moment):
        if mi:
            num = num * x[:, i] ** mi
    ratio = float(np.sum(num) / np.sum(w))
    resid = num - ratio * w
    err = float(np.sqrt(np.sum(resid ** 2)) / np.sum(w))
    return ratio, err


# ---------------------------------------------------------------------------
# constructors, restrictions and solvers only the tests call
# ---------------------------------------------------------------------------

def num_partitions(n):
    return len(partitions(n))


def p_gen(lam, coeff=Fraction(1)):
    return SymFunc.gen("p", lam, coeff)


def m_gen(lam, coeff=Fraction(1)):
    return SymFunc.gen("m", lam, coeff)


def mat_mul(a, b):
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    zero = a[0][0] * 0
    out = [[zero for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if is_zero(aik):
                continue
            for j in range(cols):
                out[i][j] = out[i][j] + aik * b[k][j]
    return out


def rank(mat):
    return len(bareiss_echelon(mat)[1])


def highest_weight_vector(hw=None, h=None, c=None):
    return monomial_vector(SuperPartition((), ()), hw, h, c)


def graded_apply(op, f):
    """Apply a GradedOperator to f block by block, in the m basis."""
    f = convert(f, "m")
    out = {}
    for d in sorted({sum(lam) for lam in f.terms}):
        comp = SymFunc("m", {lam: c for lam, c in f.terms.items() if sum(lam) == d})
        if d not in op.blocks:
            raise KernelError("degree %d outside operator range" % d)
        cols = partitions(d)
        rows = partitions(d + op.shift)
        vec = [comp.terms.get(lam, Fraction(0)) for lam in cols]
        mat = op.blocks[d]
        for i, mu in enumerate(rows):
            acc = None
            for j, x in enumerate(vec):
                if is_zero(x):
                    continue
                term = mat[i][j] * x
                acc = term if acc is None else acc + term
            if acc is not None and not is_zero(acc):
                out[mu] = out.get(mu, Fraction(0)) + acc
    return SymFunc("m", out)


def dvir_modes(q, t, alpha_two, n, dmax):
    """(T_n, psi_{-n}) as GradedOperators at exact rational (q, t) with
    2*alpha = alpha_two."""
    cur = dvir_rational(q, t, alpha_two)
    return (GradedOperator.build(lambda f: cur.t_apply(n, f), n, dmax),
            GradedOperator.build(lambda f: cur.psi_apply(n, f), -n, dmax))


def commuting_family_check(gamma, dmax):
    """[C0_0, C1_0(gamma)] = 0 on each degree block up to dmax."""
    c00 = c0_mode(0, dmax)
    c10 = c1_mode(gamma, 0, dmax)
    for d in range(dmax + 1):
        a, b = c00.block(d), c10.block(d)
        ab = mat_mul(a, b)
        ba = mat_mul(b, a)
        for i in range(len(ab)):
            for j in range(len(ab[i])):
                if not is_zero(ab[i][j] - ba[i][j]):
                    raise VerificationFailure("C0_0 and C1_0 fail to commute at degree %d" % d)
    return True


def solve_t1_alpha(r, s):
    """Independently solve the annihilation conditions for 2*alpha.

    Runs the current at alpha = 0, isolates the alpha-dependence (linear,
    through kappa only) and returns the unique consistent value as an exact
    rational function of t, or raises if no single value works.
    """
    from svjack.fock import verma_to_lambda
    from svjack.svir import singular_vector

    raw = verma_to_lambda(singular_vector(r, s, "sym"))
    _, v = monic_image(raw, convert(raw, "m"), (r,) * s)
    tvar = RatFun.variable("t")
    gamma = 1 / (tvar * tvar)
    zero = gamma * 0
    cur0 = dvir_jet(gamma, zero, 1)
    solved = None
    for n in range(1, r * s + 1):
        base = cur0.t_apply(n, v)
        # the B2 term of T_n without its factor kappa
        b2 = apply_vertex_mode(cur0._b2, n, v)
        for mu in set(base.terms) | set(b2.terms):
            c1 = _jet_coeff(base.terms.get(mu, zero), 1)
            y0 = _jet_coeff(b2.terms.get(mu, zero), 0)
            if is_zero(y0):
                if not is_zero(c1):
                    raise VerificationFailure("no alpha can cancel mode %d at %r" % (n, mu))
                continue
            cand = c1 / (2 * y0)
            if solved is None:
                solved = cand
            elif not is_zero(solved - cand):
                raise VerificationFailure("inconsistent alpha between components")
    if solved is None:
        raise VerificationFailure("alpha is unconstrained (no coupled component found)")
    return solved  # this is alpha itself (coefficient of -2*alpha is -2*y0)


def pr_n(f, n):
    """Restriction to n variables: p_r -> x_1^r + ... + x_n^r, collected into
    monomial orbits {partition: coefficient}."""
    fp = to_p(f)
    out = {}
    for lam, c in fp.terms.items():
        term = mp_const(n, Fraction(1))
        for part in lam:
            power = {}
            for i in range(n):
                e = [0] * n
                e[i] = part
                power[tuple(e)] = Fraction(1)
            term = mp_mul(term, power)
        for e, x in term.items():
            out[e] = out.get(e, Fraction(0)) + c * x
    out = {e: c for e, c in out.items() if c != 0}
    return mp_to_orbits(out, n)


def pr_n_exponential(f, n):
    """Restriction through the shift-operator identity: expand
    exp(sum_a P_a d/dp_a), with P_a the a-th power sum of x_1..x_n, over all
    derivative multisets nu and project the leftover power sums to zero.
    Only nu equal to the full index multiset survives, and the exponential's
    1/m! cancels the derivative's falling factorial; computing the whole sum
    this way exercises that identity independently of pr_n."""
    fp = to_p(f)
    out = {}
    for lam, c in fp.terms.items():
        mult = multiplicities(lam)
        for nu in _submultisets(mult):  # same enumeration the modes use
            # derivative of p_lam by prod_a (d/dp_a)^{nu_a}, then p -> 0
            if sum(nu.values()) != len(lam):
                continue  # a power sum survives and dies under the projection
            weight = Fraction(1)
            for a, m in nu.items():
                fall = 1
                for u in range(m):
                    fall *= (mult[a] - u)
                weight *= Fraction(fall, math.factorial(m))
            term = mp_const(n, weight * c)
            for a, m in nu.items():
                power = {}
                for i in range(n):
                    e = [0] * n
                    e[i] = a
                    power[tuple(e)] = Fraction(1)
                for _ in range(m):
                    term = mp_mul(term, power)
            for e, x in term.items():
                out[e] = out.get(e, Fraction(0)) + x
    out = {e: c for e, c in out.items() if c != 0}
    return mp_to_orbits(out, n)


def inner_qt(f, g, q, t):
    """Macdonald (q,t) inner product, bilinear with
    <p_lam, p_mu> = delta z_lam prod (1-q^{lam_i})/(1-t^{lam_i})."""
    q, t = as_scalar(q, "q"), as_scalar(t, "t")

    def weight(part):
        den = 1 - t ** part
        if is_zero(den):
            raise KernelError("inner product pole: 1 - t^%d = 0" % part)
        return (1 - q ** part) / den

    return diagonal_form(f, g, weight, q * 0)


def gram_schmidt_reference(lam, member, inner):
    """Modified Gram-Schmidt: the monic dominance-triangular expansion with
    leading term m_lam that is orthogonal under ``inner`` to member(mu) for
    every mu strictly below lam, subtracting one projection at a time from
    the running vector.

    The members must be monic, triangular and mutually orthogonal, so this
    gives the unique such expansion.  Raises KernelError on a null member.
    """
    lower = [mu for mu in partitions(sum(lam)) if mu != lam and dominance_leq(mu, lam)]
    f = SymFunc("m", {lam: Fraction(1)})
    for mu in reversed(lower):
        p_mu = member(mu)
        den = inner(p_mu, p_mu)
        if is_zero(den):
            raise KernelError("vanishing norm in the Gram-Schmidt ladder at %r" % (mu,))
        num = inner(f, p_mu)
        if not is_zero(num):
            f = f - p_mu.scale(num / den)
    return f


def macdonald_gram_schmidt(lam, q, t):
    """Independent construction: monic triangular expansion orthogonal to all
    lower P_mu under the (q, t) inner product."""
    lam = tuple(lam)
    q, t = _check_generic_qt(q, t, sum(lam))
    return _macdonald_ladder(lam, q, t)


@lru_cache(maxsize=None)
def _macdonald_ladder(lam, q, t):
    return gram_schmidt_reference(lam, lambda mu: _macdonald_ladder(mu, q, t),
                                  lambda f, g: inner_qt(f, g, q, t))


def uglov2_gram_schmidt(lam, gamma="sym"):
    """The gamma-family by the reference ladder under uglov_inner, each
    inner product converting both arguments to power sums."""
    return _uglov_ladder(tuple(lam), _nonzero_gamma(gamma))


@lru_cache(maxsize=None, typed=True)  # the coefficients carry the field of g
def _uglov_ladder(lam, g):
    return gram_schmidt_reference(lam, lambda mu: _uglov_ladder(mu, g),
                                  lambda f, h: uglov_inner(f, h, g))


def first_unorthogonal_reference(image_p, lam, gamma):
    """The certificate fock._first_unorthogonal solves for, by expansion:
    the first mu strictly below lam in dominance, in partitions() order,
    with <image, m_mu>_gamma != 0, pairing the image weighed by
    <p_nu, p_nu>_gamma with the p-expansion of each m_mu, or None."""
    weighed = {nu: uglov_inner(SymFunc("p", {nu: c}), SymFunc("p", {nu: Fraction(1)}), gamma)
               for nu, c in image_p.terms.items()}
    zero = gamma * 0
    for mu in partitions(sum(lam)):
        if mu == lam or not dominance_leq(mu, lam):
            continue
        acc = zero
        for nu, x in to_p(SymFunc("m", {mu: Fraction(1)})).terms.items():
            w = weighed.get(nu)
            if w is not None:
                acc = acc + w * x
        if not is_zero(acc):
            return mu
    return None


def uglov2_kernel_dimension(lam, gamma="sym"):
    """Dimension of ker(C^1_0(gamma) - eps1(lam, gamma)) on the full degree
    block; the characterization demands exactly 1."""
    lam = tuple(lam)
    g = as_scalar(gamma, "g")
    parts = partitions(sum(lam))
    block = m_block(lambda f: c1_apply(g, 0, f), parts, parts)
    e = eps1(lam, g)
    mat = [[x - (e if i == j else 0) for j, x in enumerate(row)]
           for i, row in enumerate(block)]
    return len(nullspace(mat))


@dataclass(frozen=True)
class UglovFunction:
    lam: tuple
    gamma: object
    expansion: SymFunc       # monic, m basis
    eigenvalue0: Fraction
    eigenvalue1: object


def uglov2(lam, gamma="sym"):
    """The eigen route to the gamma-family: the monic dominance-triangular
    eigenfunction of C^1_0(gamma) with eigenvalue eps1(lam, gamma); the C^0_0
    eigenrelation with eps0(lam) is verified as a post-check.

    gamma may be "sym" (the symbolic variable), a rational, or any exact
    field element (e.g. a rational function of t).
    """
    lam = tuple(lam)
    g = as_scalar(gamma, "g")
    vec = _triangular_eigenvector(
        lambda f: c1_apply(g, 0, f), lam,
        lambda mu: eps1(mu, g))
    e0 = eps0(lam)
    image0 = convert(c0_apply(0, vec), "m")
    if not (image0 - vec.scale(e0)).is_zero():
        raise VerificationFailure("C0_0 eigenrelation fails for %r" % (lam,))
    return UglovFunction(lam=lam, gamma=g, expansion=vec,
                         eigenvalue0=e0, eigenvalue1=eps1(lam, g))


# ---------------------------------------------------------------------------
# the verify path over the fields, before its one-denominator form
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def p_to_m_row_reference(lam):
    """m-expansion of p_lam as a dict partition -> Fraction, with a
    multiplicities dict per term: the rows symfunc._p_to_m_row builds in
    ints."""
    out = {(): Fraction(1)}
    for r in lam:
        nxt = {}
        for mu, c in out.items():
            # new part r
            nu = merge_partitions(mu, (r,))
            coeff = Fraction(multiplicities(nu)[r])
            nxt[nu] = nxt.get(nu, Fraction(0)) + c * coeff
            # add r to one existing distinct part value k
            for k in set(mu):
                nu2 = list(mu)
                nu2.remove(k)
                nu2 = merge_partitions(tuple(nu2), (k + r,))
                coeff2 = Fraction(multiplicities(nu2)[k + r])
                nxt[nu2] = nxt.get(nu2, Fraction(0)) + c * coeff2
        out = {mu: c for mu, c in nxt.items() if c != 0}
    return out


def to_m_reference(f):
    """f in the m basis through the Fraction rows p_to_m_row_reference."""
    out = {}
    for lam, c in to_p(f).terms.items():
        for mu, r in p_to_m_row_reference(lam).items():
            out[mu] = out.get(mu, 0) + c * r
    return SymFunc("m", out)


@lru_cache(maxsize=None)
def m_to_p_reference(mu):
    """m_mu in the p basis by back-substitution over the Fraction rows."""
    return _back_substitute(p_to_m_row_reference(mu), mu, m_to_p_reference)


def to_p_reference(f):
    """An m-basis f in the p basis over the Fraction m -> p rows."""
    out = {}
    for lam, c in f.terms.items():
        for mu, r in m_to_p_reference(lam).items():
            out[mu] = out.get(mu, 0) + c * r
    return SymFunc("p", out)


def c1_rows_reference(n, lam):
    """(A_n p_lam, B_n p_lam) over Q as p-coefficient dicts, with the C^0
    creation series in Fractions: the rows vertexops._c1_rows builds in ints
    times (|lam| - n)!."""
    mult = multiplicities(lam)
    a_row, b_row = {}, {}
    for stripped, size, w in _annihilations(_C0, mult, n + 1):
        for j in range(1, size - n + 1):
            _create(_C0.series(size - n - j), stripped + (j,), -w if j % 2 else w, a_row)
    for j, m in mult.items():
        rest = dict(mult)
        rest[j] -= 1
        w_j = -j * m if j % 2 else j * m
        for stripped, size, w in _annihilations(_C0, rest, n - j):
            _create(_C0.series(size - n + j), stripped, w_j * w, b_row)
    return a_row, b_row


def c1_apply_rows_reference(gamma, n, f):
    """C^1_n(gamma) = gamma A_n + B_n in one pass over the Fraction rows
    c1_rows_reference: vertexops.c1_apply before its rows were ints."""
    a_part, b_part = {}, {}
    for lam, coeff in to_p(f).terms.items():
        for part, row in zip((a_part, b_part), c1_rows_reference(n, lam)):
            for key, x in row.items():
                if x:
                    term = coeff * x
                    part[key] = part[key] + term if key in part else term
    out = {key: gamma * a for key, a in a_part.items() if not is_zero(a)}
    for key, b in b_part.items():
        out[key] = out[key] + b if key in out else b
    return SymFunc("p", out)


def first_unorthogonal_solve_reference(image_p, lam, gamma):
    """fock._first_unorthogonal's forward solve L x = w over the fields of
    the image and gamma, on the Fraction rows p_to_m_row_reference."""
    order = partitions(sum(lam))
    if lam == order[-1]:
        return None
    zero = gamma * 0
    x = {}
    for nu in order:
        c = image_p.terms.get(nu)
        acc = zero if c is None else uglov_inner(
            SymFunc("p", {nu: c}), SymFunc("p", {nu: Fraction(1)}), gamma)
        row = p_to_m_row_reference(nu)
        for rho, a in row.items():
            if rho != nu:
                acc = acc - x[rho] * a
        x[nu] = acc / row[nu]
        if nu != lam and not is_zero(x[nu]) and dominance_leq(nu, lam):
            return nu
    return None


def monic_image(image_p, image_m, lam):
    """(c, image_p / c) for the coefficient c of m_lam in image_m, the m-basis
    expansion of the p-basis image image_p of a singular vector.  A missing
    m_lam is a failed identity."""
    lead = image_m.terms.get(lam)
    if lead is None or is_zero(lead):
        raise VerificationFailure("image lacks the leading monomial m_%s" % (list(lam),))
    return lead, image_p.scale(1 / lead)


def verify_conjecture_reference(r, s, t="sym"):
    """fock.verify_conjecture with its checks after the image run over the
    fields of t: the m-expansion through p_to_m_row_reference, the forward
    solve of the certificate, and the eigencheck on image / lead through
    c1_apply_rows_reference.  The singular vector, the image and eps1 are
    looked up in fock at each call, so a test that replaces one there
    changes both paths alike."""
    chi = fock.singular_vector(r, s, t)
    hw = chi.weight
    lam = (r,) * s
    raw_p = fock.verma_to_lambda(chi)
    raw_m = to_m_reference(raw_p)
    if raw_m.is_zero():
        raise VerificationFailure(
            "the image of the (%d, %d) singular vector vanishes" % (r, s))
    above = [mu for mu in sorted_partitions(raw_m.terms) if not dominance_leq(mu, lam)]
    if above:
        raise VerificationFailure(
            "image is not dominance-triangular below m_%s; first monomial outside "
            "at m_%s" % (list(lam), list(above[0])))
    one = hw.t * 0 + 1
    gamma = one / (hw.t * hw.t)
    lead, monic = monic_image(raw_p, raw_m, lam)
    mismatch = first_unorthogonal_solve_reference(raw_p, lam, gamma)
    if mismatch is not None:
        raise VerificationFailure(
            "image is not proportional to the shape-%s family member; first "
            "mismatch at m_%s" % (list(lam), list(mismatch)))
    image = c1_apply_rows_reference(gamma, 0, monic)
    eigencheck = (image - monic.scale(fock.eps1(lam, gamma))).is_zero()
    scalar = Sqrt2Ext(lead, lead * 0) if r * s % 2 == 0 else Sqrt2Ext(lead * 0, lead / 2)
    return {
        "rs": [r, s],
        "proportional": True,
        "scalar": scalar_to_json(scalar),
        "eigencheck": eigencheck,
        "triangular": True,
    }
