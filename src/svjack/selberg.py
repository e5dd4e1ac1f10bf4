"""Selberg and Aomoto integrals: closed forms, quadrature and Monte Carlo
cross-checks, the Aomoto recursion, and the vanishing of the screening
moments.

This is the only floating-point module in the package; gamma functions and
the integrals are transcendental.  Every stochastic routine takes an
explicit seed and reports a standard error; acceptance thresholds are three
standard errors.

One structural note on the moment integrals I(m).  With the screening
specialization (alpha, beta, gamma) = ((1-r)t, 1, t) the real-cube Selberg
weight never satisfies the convergence conditions (the corner where all
variables vanish is exactly borderline), and for nonnegative integrands the
moments could not vanish anyway.  What does vanish is the closed-cycle
version: on a torus around the origin the integrand of I(m) is homogeneous
of total degree |m| - r, so every |m| != 0 moment is exactly zero.  The
vanishing checks therefore run on the torus (where 2t is a nonnegative
integer, making the integrand single-valued after the square-root
substitution), both exactly as a constant-term computation and by Monte
Carlo over angles.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from fractions import Fraction

import numpy as np


# bounds the memory of one Monte Carlo run: about 8 bytes a sample for the
# Selberg integral, whose draws come in chunks of _CHUNK_ROWS rows (at
# alpha = beta = 1 from blocks of _BLOCK_PAIRS uniform pairs, see
# _uniform_beta), and the whole (samples, r) angle array and its complex
# temporaries for the torus
MAX_SAMPLES = 5 * 10 ** 7
_CHUNK_ROWS = 1 << 16  # a power of two keeps SIMD tails as in one pass
# 256 kB of (U, V) trials: few enough Python steps a draw, and a block that
# stays in cache (2^14 to 2^16 time alike, 2^12 is slower)
_BLOCK_PAIRS = 1 << 14
QUADRATURE_DEGREE = 64
RECURSION_RTOL = 1e-10


# Bad parameters rather than failed checks raise ValueError, which the
# command line reports as a usage error (exit 2).
def _require_samples(samples):
    if samples < 1:
        raise ValueError("samples must be at least 1, got %d" % samples)
    if samples > MAX_SAMPLES:
        raise ValueError("sample budget %d exceeds the cap %d" % (samples, MAX_SAMPLES))


def _require_seed(seed):
    # checked here, as numpy's own message does not name the argument
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError("seed must be a nonnegative integer, got %r" % (seed,))


def _require_parameters(n, alpha, beta, gamma):
    if n < 1:
        raise ValueError("n must be at least 1, got %d" % n)
    if not all(map(math.isfinite, (alpha, beta, gamma))):
        raise ValueError("alpha, beta, gamma must be finite, got %r, %r, %r"
                         % (alpha, beta, gamma))


def check_selberg_domain(n, alpha, beta, gamma):
    """Whether the cube integral converges: alpha, beta > 0 and
    gamma > -min(1/n, alpha/(n-1), beta/(n-1))."""
    if alpha <= 0 or beta <= 0:
        return False
    bound = min(1.0 / n,
                alpha / (n - 1) if n > 1 else math.inf,
                beta / (n - 1) if n > 1 else math.inf)
    return gamma > -bound


def _require_convergent(n, alpha, beta, gamma):
    """The entry check of the numeric integrations, which need the integral
    itself; the closed form continues it analytically beyond that domain."""
    _require_parameters(n, alpha, beta, gamma)
    if not check_selberg_domain(n, alpha, beta, gamma):
        raise ValueError("the integral diverges unless alpha, beta > 0 and gamma > "
                         "-min(1/n, alpha/(n-1), beta/(n-1)); got %r, %r, %r"
                         % (alpha, beta, gamma))


# the coefficients of cephes lgam (Moshier, Methods and Programs for
# Mathematical Functions, 1989): A for the Stirling correction in 1/x^2,
# B/C the rational approximation of log Gamma on [2, 3]; C carries cephes'
# implicit leading 1 (its p1evl)
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
           -3.31612992738871184744E5, -1.16237097492762307383E6,
           -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (1.0, -3.51815701436523470549E2, -1.70642106651881159223E4,
           -2.20528590553854454839E5, -1.13933444367982507207E6,
           -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178  # log sqrt(2 pi)
_LOGPI = 1.14472988584940017414
_MAXLGM = 2.556348e305


def _horner(x, coef):
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def _log_gamma_signed(x):
    """(log |Gamma(x)|, sign of Gamma(x)) as cephes lgam and gammasgn
    compute them, step for step in Python floats: the same doubles as the
    compiled routines, bit for bit, without loading them.  Below -2^31 the
    compiled gammasgn casts floor(x) to a C int, which reads every such
    floor as even; the sign here follows its true parity."""
    x = float(x)
    if x <= 0 and x.is_integer():
        raise ValueError("gamma pole at %s" % x)
    if not math.isfinite(x):
        return x, 1.0 if x > 0 else math.nan
    sign = 1.0 if x > 0 or math.floor(x) % 2 == 0 else -1.0
    if x < -34.0:
        # reflection: |Gamma(x)| = pi / (q |sin(pi z)| Gamma(q)), q = -x
        q = -x
        p = float(math.floor(q))
        z = q - p
        if z > 0.5:
            z = p + 1.0 - q
        lg = _LOGPI - math.log(q * math.sin(math.pi * z)) - _log_gamma_signed(q)[0]
        return lg, sign
    if x < 13.0:
        # shift into [2, 3), collecting the factors in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        z = abs(z)
        if u == 2.0:
            return math.log(z), sign
        x += p - 2.0
        return math.log(z) + x * _horner(x, _LGAM_B) / _horner(x, _LGAM_C), sign
    if x > _MAXLGM:
        return math.inf, sign
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q, sign
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _horner(p, _LGAM_A) / x
    return q, sign


def selberg_closed(n, alpha, beta, gamma):
    """prod_{j=1}^n G(a+(j-1)g) G(b+(j-1)g) G(1+jg) / (G(a+b+(n+j-2)g) G(1+g))."""
    _require_parameters(n, alpha, beta, gamma)
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    log = 0.0
    sign = 1.0
    for j in range(1, n + 1):
        for x in (alpha + (j - 1) * gamma, beta + (j - 1) * gamma, 1 + j * gamma):
            lg, sg = _log_gamma_signed(x)
            log += lg
            sign *= sg
        for x in (alpha + beta + (n + j - 2) * gamma, 1 + gamma):
            lg, sg = _log_gamma_signed(x)
            log -= lg
            sign *= sg
    if not math.log(sys.float_info.min) <= log <= math.log(sys.float_info.max):
        raise ValueError("the closed form leaves the float range (log %g)" % log)
    return sign * math.exp(log)


def aomoto_closed(n, k, alpha, beta, gamma):
    """S_n with k inserted coordinates: S_n * prod_{j=1}^k
    (alpha + (n-j) gamma) / (alpha + beta + (2n-j-1) gamma).

    A product outside the normal float range is a ValueError, as in
    selberg_closed.  No factor is 0 or infinite: its numerator and
    denominator are arguments of the gamma product, whose poles
    selberg_closed rejects."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    value = selberg_closed(n, alpha, beta, gamma)
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    for j in range(1, k + 1):
        factor = (alpha + (n - j) * gamma) / (alpha + beta + (2 * n - j - 1) * gamma)
        if not sys.float_info.min <= abs(value * factor) <= sys.float_info.max:
            raise ValueError("S(%d) of the Aomoto integral leaves the float range "
                             "(%g)" % (j, value * factor))
        value *= factor
    return value


def aomoto_ratio_exact(r, t, k):
    """The exact rational ratio I(1^k)/I(0) at the screening specialization
    (alpha, beta, gamma) = ((1-r)t, 1, t): prod_{j=1}^k (1-j)t / (1+(r-j)t).

    The j = 1 factor carries (1-1) t = 0, so the ratio vanishes for k >= 1.
    """
    t = Fraction(t)
    out = Fraction(1)
    for j in range(1, k + 1):
        den = 1 + (r - j) * t
        if den == 0:
            raise ValueError("vanishing denominator at j = %d" % j)
        out *= Fraction(1 - j) * t / den
    return out


# ---------------------------------------------------------------------------
# numeric integration of the cube integrals
# ---------------------------------------------------------------------------

def _legendre_pair(n, x):
    """(P_{n-1}(x), P_n(x)) for n >= 2 by the recurrence of scipy's
    eval_legendre, whose doubles it gives wherever that routine recurses
    (|x| >= 1e-5)."""
    xm1 = x - 1
    d, p = xm1, x
    for k in range(1, n):
        prev = p
        d = ((2 * k + 1) / (k + 1)) * xm1 * p + (k / (k + 1)) * d
        p = d + p
    return prev, p


def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights of degree n on [-1, 1], step for
    step as scipy's roots_legendre computes them (Golub & Welsch, Math.
    Comp. 23, 1969): the eigenvalues of the Jacobi matrix, one Newton step,
    weights from log-normalised P_{n-1} and P_n', then symmetrised and
    scaled to sum 2.  At even n these are scipy's doubles bit for bit; at
    odd n scipy evaluates the Legendre polynomials at the zero node by a
    power series, and the weights differ from its own by a few ulps."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k * np.sqrt(1.0 / (4 * k * k - 1)), -1))
    prev, y = _legendre_pair(n, x)
    dy = (-n * x * y + n * prev) / (1 - x ** 2)
    x = x - y / dy
    # P_{n-1} and P_n' span many decades: scale each by the geometric
    # middle of its range before the product
    fm, _ = _legendre_pair(n, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm = fm / np.exp((log_fm.max() + log_fm.min()) / 2.)
    dy = dy / np.exp((log_dy.max() + log_dy.min()) / 2.)
    w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _jacobi_nodes_01(deg, alpha, beta):
    """Nodes/weights for int_0^1 x^{alpha-1} (1-x)^{beta-1} f(x) dx."""
    # map to the Jacobi weight (1-u)^{beta-1} (1+u)^{alpha-1} on [-1, 1];
    # at alpha = beta = 1 that is the Legendre weight, which scipy's
    # roots_jacobi sends to roots_legendre
    if alpha == beta == 1:
        x, w = _gauss_legendre(deg)
    else:
        # deferred: these nodes are the one use of the special-function
        # library, so every check at alpha = beta = 1 starts without it
        from scipy.special import roots_jacobi
        x, w = roots_jacobi(deg, beta - 1, alpha - 1)
    nodes = (x + 1) / 2
    weights = w * 0.5 ** (alpha + beta - 1)
    return nodes, weights


def selberg_quadrature(n, alpha, beta, gamma):
    """Tensor Gauss-Jacobi quadrature for n <= 2, absorbing the endpoint
    weight into the nodes; returns (value, error_estimate).  The tensor
    nodes include the diagonal x_1 = x_2, so n = 2 needs gamma >= 0."""
    _require_convergent(n, alpha, beta, gamma)
    if n > 2:
        raise ValueError("quadrature supports n <= 2")
    if n == 2 and gamma < 0:
        raise ValueError("quadrature needs gamma >= 0 (its nodes include the "
                         "diagonal), got %r" % gamma)
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)

    def compute(deg):
        x, w = _jacobi_nodes_01(deg, alpha, beta)
        if n == 1:
            return float(np.sum(w))
        diff = np.abs(x[:, None] - x[None, :]) ** (2 * gamma)
        return float(w @ diff @ w)

    coarse = compute(QUADRATURE_DEGREE // 2)
    fine = compute(QUADRATURE_DEGREE)
    return fine, abs(fine - coarse)


def _uniform_beta(rng):
    """Return draw(size), which gives the doubles of rng.beta(1.0, 1.0, size)
    from the same stream, in bulk; successive calls continue it as
    successive rng.beta calls do.

    At a, b <= 1 numpy draws Beta by Johnk's rejection: each trial takes
    the next two doubles U, V of the stream, the ones Generator.random
    gives, is accepted when 0 < X + Y <= 1 for X = U^(1/a), Y = V^(1/b),
    and then returns X / (X + Y).  At a = b = 1 the powers are U and V
    themselves, and a sum and a quotient are correctly rounded in IEEE
    arithmetic, so numpy's vector add and divide give the doubles of its
    element loop.  A block of _BLOCK_PAIRS trials is divided whole and its
    accepted quotients are compressed straight into the output; only the
    block that ends a draw keeps its unused ones for the next draw."""
    pairs = np.empty(2 * _BLOCK_PAIRS)
    u, v = pairs[0::2], pairs[1::2]
    total = np.empty(_BLOCK_PAIRS)
    ratio = np.empty(_BLOCK_PAIRS)
    spare = np.empty(0)

    def draw(size):
        nonlocal spare
        out = np.empty(size)
        flat = out.reshape(-1)
        filled = min(len(spare), len(flat))
        flat[:filled] = spare[:filled]
        spare = spare[filled:]
        while filled < len(flat):
            rng.random(out=pairs)
            np.add(u, v, out=total)
            keep = total <= 1.0
            if not total.all():
                # a U = V = 0 trial (probability 2^-106) is rejected; a
                # total of 1 spares its quotient a 0/0
                zero = total == 0.0
                keep &= ~zero
                total[zero] = 1.0
            np.divide(u, total, out=ratio)
            k = np.count_nonzero(keep)
            if k <= len(flat) - filled:
                np.compress(keep, ratio, out=flat[filled:filled + k])
                filled += k
            else:
                accepted = np.compress(keep, ratio)
                flat[filled:] = accepted[:len(flat) - filled]
                spare = accepted[len(flat) - filled:]
                filled = len(flat)
        return out

    return draw


def selberg_montecarlo(n, alpha, beta, gamma, samples=10 ** 6, seed=0):
    """Plain Monte Carlo over the unit cube with per-variable Beta importance
    sampling for the endpoint factors; returns (value, standard_error).

    The draws are those of one rng.beta(alpha, beta, (samples, n)) with
    rng = np.random.default_rng(seed), taken in row chunks.  At alpha =
    beta = 1, the uniform density and the paper's S_3(1, 1, 1) check,
    _uniform_beta makes the same doubles from rng.random in bulk: numpy's
    Johnk rejection with its element loop vectorised, in about a fifth of
    the time of rng.beta."""
    _require_convergent(n, alpha, beta, gamma)
    if not check_selberg_domain(n, alpha, beta, 2 * gamma):
        raise ValueError("the Monte Carlo variance diverges unless gamma > "
                         "-min(1/n, alpha/(n-1), beta/(n-1))/2; got %r" % (gamma,))
    _require_samples(samples)
    _require_seed(seed)
    alpha_f, beta_f, gamma_f = float(alpha), float(beta), float(gamma)
    # Beta(alpha, beta) density absorbs x^{a-1}(1-x)^{b-1}/B(a,b)
    log_b = (_log_gamma_signed(alpha_f)[0] + _log_gamma_signed(beta_f)[0]
             - _log_gamma_signed(alpha_f + beta_f)[0])
    try:
        weight = math.exp(log_b) ** n
    except OverflowError:
        weight = math.inf
    if not sys.float_info.min <= weight < math.inf:
        raise ValueError("B(alpha, beta)^n leaves the float range (log %g)" % (n * log_b))
    rng = np.random.default_rng(seed)
    if alpha_f == beta_f == 1.0:
        draw = _uniform_beta(rng)
    else:
        draw = functools.partial(rng.beta, alpha_f, beta_f)
    vals = np.full(samples, weight)
    scratch = np.empty(min(samples, _CHUNK_ROWS))
    # Generator.beta fills row-major and draws in sequence, so row chunks
    # reproduce one (samples, n) draw; the elementwise operations are those
    # of vals * np.abs(x_i - x_j) ** (2 gamma)
    for lo in range(0, samples, _CHUNK_ROWS):
        part = vals[lo:lo + _CHUNK_ROWS]
        x = draw(size=(len(part), n))
        tmp = scratch[:len(part)]
        for i in range(n):
            for j in range(i + 1, n):
                np.subtract(x[:, i], x[:, j], out=tmp)
                np.abs(tmp, out=tmp)
                tmp **= 2 * gamma_f
                part *= tmp
    # vals stays whole: the pairwise sums over all of it fix the bits of
    # the mean (np.mean's, reused as the centre) and of the standard error,
    # which follows np.std's own steps in place, with no full-length temporary
    centre = np.add.reduce(vals, keepdims=True)
    np.true_divide(centre, samples, out=centre)
    vals -= centre
    np.square(vals, out=vals)
    err = float(np.sqrt(np.add.reduce(vals) / samples) / math.sqrt(samples))
    return float(centre[0]), err


# ---------------------------------------------------------------------------
# the Aomoto recursion
# ---------------------------------------------------------------------------

def aomoto_recursion_check(n, alpha, beta, gamma):
    """Evaluate the contiguous recursion between S(k-1) and S(k) in both the
    transcribed form

        0 = alpha S(k-1) - (alpha+beta) S(k-1) + gamma (n-k) S(k-1)
            - gamma (2n-k-1) S(k)

    and the corrected form in which the (alpha+beta) term multiplies S(k),

        0 = (alpha + gamma (n-k)) S(k-1) - (alpha + beta + gamma (2n-k-1)) S(k),

    reporting relative residuals for every k.  The corrected form is the one
    consistent with the closed product; the transcribed one is reported, not
    asserted.
    """
    _require_parameters(n, alpha, beta, gamma)
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    rows = []
    for k in range(1, n + 1):
        s_prev = aomoto_closed(n, k - 1, alpha, beta, gamma)
        s_k = aomoto_closed(n, k, alpha, beta, gamma)
        scale = max(abs(s_prev), abs(s_k))
        transcribed = (alpha * s_prev - (alpha + beta) * s_prev
                       + gamma * (n - k) * s_prev - gamma * (2 * n - k - 1) * s_k)
        corrected = ((alpha + gamma * (n - k)) * s_prev
                     - (alpha + beta + gamma * (2 * n - k - 1)) * s_k)
        rows.append({
            "k": k,
            "transcribed_residual": transcribed / scale,
            "corrected_residual": corrected / scale,
            "corrected_ok": bool(abs(corrected / scale) < RECURSION_RTOL),
        })
    return {
        "n": n, "alpha": alpha, "beta": beta, "gamma": gamma,
        "rows": rows,
        "corrected_all_ok": all(r["corrected_ok"] for r in rows),
        "transcribed_all_ok": all(abs(r["transcribed_residual"]) < RECURSION_RTOL
                                  for r in rows),
    }


# ---------------------------------------------------------------------------
# vanishing of the screening moments (torus form)
# ---------------------------------------------------------------------------

def _require_torus_exponents(r, t):
    if r < 1:
        raise ValueError("r must be at least 1, got %d" % r)
    t = Fraction(t)
    two_t = 2 * t
    if two_t.denominator != 1 or two_t < 0:
        raise ValueError("the torus integrand needs 2t a nonnegative integer")
    return t, int(two_t)


def vanishing_moment_exact(r, t, moment):
    """Exact constant-term evaluation of the torus moment

        I(m) = CT[ prod_i w_i^{2 m_i + 2(1-r) t} prod_{i<j} (w_i^2 - w_j^2)^{2t} ]

    (the square-root substitution z = w^2 doubles every exponent).  By
    homogeneity this vanishes whenever |m| != 0.
    """
    t, two_t = _require_torus_exponents(r, t)
    # expand prod (w_i^2 - w_j^2)^{2t} over exponent vectors
    poly = {tuple([0] * r): Fraction(1)}
    for i in range(r):
        for j in range(i + 1, r):
            factor = {}
            for a in range(two_t + 1):
                e = [0] * r
                e[i] = 2 * a
                e[j] = 2 * (two_t - a)
                coeff = Fraction(math.comb(two_t, a) * (-1) ** (two_t - a))
                factor[tuple(e)] = coeff
            out = {}
            for e1, c1 in poly.items():
                for e2, c2 in factor.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            poly = out
    shift = [2 * mi + int(2 * (1 - r) * t) for mi in moment]
    target = tuple(-s for s in shift)
    return poly.get(target, Fraction(0))


def vanishing_check(r, t, moment, samples=10 ** 5, seed=7):
    """Monte Carlo over torus angles for I(m)/I(0), plus the exact constant
    term; asserts nothing, reports estimates, errors and the 3-sigma verdict.
    """
    t, two_t = _require_torus_exponents(r, t)
    if len(moment) != r:
        raise ValueError("moment must have %d entries" % r)
    _require_samples(samples)
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=(samples, r))
    w = np.exp(1j * theta)
    base = np.ones(samples, dtype=complex)
    for i in range(r):
        for j in range(i + 1, r):
            base = base * (w[:, i] ** 2 - w[:, j] ** 2) ** two_t
    expo = int(2 * (1 - r) * t)
    for i in range(r):
        base = base * w[:, i] ** expo
    num = base.copy()
    for i, mi in enumerate(moment):
        if mi:
            num = num * w[:, i] ** (2 * mi)
    i0_mean = np.mean(base)
    im_mean = np.mean(num)
    im_err = float(np.std(num.real) / math.sqrt(samples)) + \
        1j * float(np.std(num.imag) / math.sqrt(samples))
    exact_m = vanishing_moment_exact(r, t, moment)
    exact_0 = vanishing_moment_exact(r, t, [0] * r)
    scale = abs(complex(i0_mean)) or 1.0
    consistent = (abs(im_mean.real) < 3 * max(im_err.real, 1e-300)
                  and abs(im_mean.imag) < 3 * max(im_err.imag, 1e-300))
    inconclusive = max(im_err.real, im_err.imag) > max(scale, 1.0)
    return {
        "r": r,
        "t": str(t),
        "moment": list(moment),
        "samples": samples,
        "seed": seed,
        "mc_moment": [im_mean.real, im_mean.imag],
        "mc_moment_stderr": [im_err.real, im_err.imag],
        "mc_normalizer": [float(i0_mean.real), float(i0_mean.imag)],
        "exact_moment": str(exact_m),
        "exact_normalizer": str(exact_0),
        "consistent_with_zero": bool(consistent) if sum(moment) != 0 else None,
        "inconclusive": bool(inconclusive),
    }
