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

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, gammasgn, roots_jacobi


MAX_SAMPLES = 5 * 10 ** 7  # bounds the memory of one Monte Carlo run
QUADRATURE_DEGREE = 64
RECURSION_RTOL = 1e-10


# Bad parameters rather than failed checks raise ValueError, which the
# command line reports as a usage error (exit 2).
def _require_samples(samples):
    if samples < 1:
        raise ValueError("samples must be at least 1, got %d" % samples)
    if samples > MAX_SAMPLES:
        raise ValueError("sample budget %d exceeds the cap %d" % (samples, MAX_SAMPLES))


def _log_gamma_signed(x):
    if x <= 0 and float(x).is_integer():
        raise ValueError("gamma pole at %s" % x)
    return gammaln(x), gammasgn(x)


def selberg_closed(n, alpha, beta, gamma):
    """prod_{j=1}^n G(a+(j-1)g) G(b+(j-1)g) G(1+jg) / (G(a+b+(n+j-2)g) G(1+g))."""
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
    return sign * math.exp(log)


def aomoto_closed(n, k, alpha, beta, gamma):
    """S_n with k inserted coordinates: S_n * prod_{j=1}^k
    (alpha + (n-j) gamma) / (alpha + beta + (2n-j-1) gamma)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    value = selberg_closed(n, alpha, beta, gamma)
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    for j in range(1, k + 1):
        value *= (alpha + (n - j) * gamma) / (alpha + beta + (2 * n - j - 1) * gamma)
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

def _jacobi_nodes_01(deg, alpha, beta):
    """Nodes/weights for int_0^1 x^{alpha-1} (1-x)^{beta-1} f(x) dx."""
    # map to the Jacobi weight (1-u)^{beta-1} (1+u)^{alpha-1} on [-1, 1]
    x, w = roots_jacobi(deg, beta - 1, alpha - 1)
    nodes = (x + 1) / 2
    weights = w * 0.5 ** (alpha + beta - 1)
    return nodes, weights


def selberg_quadrature(n, alpha, beta, gamma):
    """Tensor Gauss-Jacobi quadrature for n <= 2, absorbing the endpoint
    weight into the nodes; returns (value, error_estimate)."""
    if n not in (1, 2):
        raise ValueError("quadrature supports n <= 2")
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


def selberg_montecarlo(n, alpha, beta, gamma, samples=10 ** 6, seed=0):
    """Plain Monte Carlo over the unit cube with per-variable Beta importance
    sampling for the endpoint factors; returns (value, standard_error)."""
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    alpha_f, beta_f, gamma_f = float(alpha), float(beta), float(gamma)
    x = rng.beta(alpha_f, beta_f, size=(samples, n))
    # Beta(alpha, beta) density absorbs x^{a-1}(1-x)^{b-1}/B(a,b)
    log_b = (gammaln(alpha_f) + gammaln(beta_f) - gammaln(alpha_f + beta_f))
    vals = np.full(samples, math.exp(log_b) ** n)
    # pairwise factors go through one scratch buffer; the elementwise
    # operations are those of vals * np.abs(x_i - x_j) ** (2 gamma)
    tmp = np.empty(samples)
    for i in range(n):
        for j in range(i + 1, n):
            np.subtract(x[:, i], x[:, j], out=tmp)
            np.abs(tmp, out=tmp)
            tmp **= 2 * gamma_f
            vals *= tmp
    del tmp  # before np.std takes its own temporaries
    mean = float(np.mean(vals))
    err = float(np.std(vals) / math.sqrt(samples))
    return mean, err


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
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    rows = []
    for k in range(1, n + 1):
        s_prev = aomoto_closed(n, k - 1, alpha, beta, gamma)
        s_k = aomoto_closed(n, k, alpha, beta, gamma)
        scale = max(abs(s_prev), abs(s_k), 1e-300)
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
