"""Independent brute-force evaluators used as oracles by the test suite.

The production code extracts vertex-operator modes by enumerating
creation/derivative partition pairs.  Here the same operators are built a
completely different way: multiplication by p_a and d/dp_a are materialized
as dense matrices on the full graded space of degree <= D, the exponentials
are summed as (nilpotent) matrix series, and the mode is read off from the
degree-shift block structure.  Agreement between the two routes validates
both.

The helpers after the finite-N oracles are reference forms that only the
tests call: generic field operations, a matrix-vector product, the
superpartition generating function, the corrected finite-N operators and
the Selberg-side closed forms and estimators.
"""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np

from svjack.finiten import c0n_apply, c1n_apply, mp_div_linear
from svjack.kernel import DivisionByZero, MixedFieldError, is_zero
from svjack.selberg import _log_gamma_signed
from svjack.symfunc import SymFunc, partitions, to_p


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
                raise DivisionByZero("division by zero")
            r = x / y
        else:
            raise ValueError("unknown op %r" % (op,))
    except TypeError as exc:
        raise MixedFieldError(str(exc)) from None
    if r is NotImplemented:
        raise MixedFieldError("incompatible scalars %r and %r" % (x, y))
    return r


def mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * 0
        for x, y in zip(row, v):
            if not is_zero(x) and not is_zero(y):
                acc = acc + x * y
        out.append(acc)
    return out


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


def check_selberg_domain(n, alpha, beta, gamma):
    if alpha <= 0 or beta <= 0:
        return False
    bound = min(1.0 / n,
                alpha / (n - 1) if n > 1 else math.inf,
                beta / (n - 1) if n > 1 else math.inf)
    return gamma > -bound


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
