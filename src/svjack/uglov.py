"""Macdonald symmetric functions at exact parameter samples, Jack functions,
and the two-parameter-degeneration family P^{(gamma,2)} over Q(gamma).

All three families are computed the same way: as the unique monic,
dominance-triangular eigenvector of a graded eigenoperator (eta_0 for
Macdonald, C^1_0(gamma) for the gamma-family), by back-substitution along
a linear extension of the dominance order.  After the solve, the full
degree block is re-checked, so a hypothetical triangularity failure of the
operator would be detected rather than silently accepted.

The q -> 1 limits that *define* the degenerate families are verified
independently through truncated hbar-jets (uglov_limit_check, jack), never
used as the production algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import Jet, KernelError, VerificationFailure, as_scalar, is_zero
from .symfunc import SymFunc, convert, diagonal_form, dominance_leq, partitions
from .vertexops import (
    _jet_coeff,
    c0_apply,
    c1_apply,
    eps0,
    eps1,
    eps_macdonald,
    eta_apply,
    hbar_parameters,
    m_block,
)


def _gram_schmidt(lam, member, inner):
    """Monic dominance-triangular expansion with leading term m_lam that is
    orthogonal under ``inner`` to member(mu) for every mu strictly below lam.

    The members must be monic, triangular and mutually orthogonal, so
    subtracting each one's projection once gives the unique such expansion.
    Raises KernelError on a null member.
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


def _triangular_eigenvector(apply_fn, lam, eig_of):
    """Monic dominance-triangular eigenvector with leading term m_lam.

    Solves (A - eig(lam)) f = 0 by back-substitution over the partitions
    mu <= lam in dominance order, processed in the canonical reverse-lex
    order (a linear extension of dominance).  Raises KernelError when a
    coupled eigenvalue difference vanishes, and VerificationFailure when the
    eigenrelation fails on the whole degree block afterwards.
    """
    parts = partitions(sum(lam))
    mat = m_block(apply_fn, parts, parts)
    index = {p: i for i, p in enumerate(parts)}
    lower = [p for p in parts if dominance_leq(p, lam)]
    eig_lam = eig_of(lam)
    zero = eig_lam * 0
    coeffs = {lam: zero + 1}
    for mu in lower:
        if mu == lam:
            continue
        i = index[mu]
        acc = zero
        for kappa, c in coeffs.items():
            a = mat[i][index[kappa]]
            if not is_zero(a):
                acc = acc + a * c
        diff = eig_lam - eig_of(mu)
        if is_zero(diff):
            if is_zero(acc):
                raise KernelError(
                    "eigenvalue tie between %r and %r leaves the expansion underdetermined"
                    % (lam, mu))
            raise KernelError(
                "eigenvalue tie between %r and %r is inconsistent" % (lam, mu))
        val = acc / diff
        if not is_zero(val):
            coeffs[mu] = val
    vec = SymFunc("m", dict(coeffs))
    # verify the eigenrelation on the full block (catches any triangularity
    # failure of the operator, which would invalidate the back-substitution)
    image = convert(apply_fn(vec), "m")
    if not (image - vec.scale(eig_lam)).is_zero():
        raise VerificationFailure(
            "back-substituted vector fails the eigenrelation at %r" % (lam,))
    return vec


# ---------------------------------------------------------------------------
# Macdonald functions at exact rational (q, t)
# ---------------------------------------------------------------------------

def _check_generic_qt(q, t, n):
    q, t = Fraction(q), Fraction(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    if t == 1:
        raise ValueError("t = 1 is excluded")
    for k in range(1, n + 1):
        if q ** k == 1 or t ** k == 1:
            raise ValueError("(q, t) must avoid roots of unity up to |lambda|")
    return q, t


def macdonald(lam, q, t):
    """Monic Macdonald function P_lambda(q, t) at an exact rational sample,
    via the eta_0 eigenproblem."""
    lam = tuple(lam)
    q, t = _check_generic_qt(q, t, sum(lam))
    return _triangular_eigenvector(
        lambda f: eta_apply(q, t, 0, f), lam,
        lambda mu: eps_macdonald(mu, q, t))


# ---------------------------------------------------------------------------
# the p = 2 degeneration over Q(gamma)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UglovFunction:
    lam: tuple
    gamma: object
    expansion: SymFunc       # monic, m basis
    eigenvalue0: Fraction
    eigenvalue1: object


def uglov2(lam, gamma="sym"):
    """The monic dominance-triangular eigenfunction of C^1_0(gamma) with
    eigenvalue eps1(lam, gamma); the C^0_0 eigenrelation with eps0(lam) is
    verified as a post-check.

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


def uglov_inner(f, g, gamma):
    """The degenerate limit of the Macdonald inner product along
    (q, t) = (-e^h, -e^{gamma h}): diagonal on power sums with
    <p_lam, p_lam> = z_lam * gamma^{-(# even parts of lam)}.

    Odd parts contribute (1+e^{l h})/(1+e^{gamma l h}) -> 1, even parts
    (1-e^{l h})/(1-e^{gamma l h}) -> 1/gamma.
    """
    g_ = _nonzero_gamma(gamma)
    inv = 1 / g_
    return diagonal_form(f, g, lambda part: None if part % 2 else inv, g_ * 0)


def _nonzero_gamma(gamma):
    """gamma as a field element; the form weighs even parts by 1/gamma."""
    g = as_scalar(gamma, "g")
    if is_zero(g):
        raise ValueError("gamma must be nonzero")
    return g


_ORTH_CACHE = {}


def uglov2_orth(lam, gamma="sym"):
    """Total construction of the gamma-family: the monic dominance-triangular
    expansion orthogonal to all lower family members under uglov_inner.

    This route has no eigenvalue-tie failure modes: the form is diagonal and
    nondegenerate on power sums, so the Gram-Schmidt ladder always produces
    the unique monic triangular orthogonal vector.  Where the eigenvalue
    characterization of uglov2 is unambiguous the two constructions agree
    (cross-checked in the test suite); at tied eigenvalues only this one
    determines the coefficients left free by the eigenproblem.
    """
    lam = tuple(lam)
    g = _nonzero_gamma(gamma)
    # typed: a constant RatFun equals and hashes like its Fraction, but the
    # coefficients carry the field of gamma
    key = (lam, type(g), g)
    if key not in _ORTH_CACHE:
        _ORTH_CACHE[key] = _gram_schmidt(lam, lambda mu: uglov2_orth(mu, g),
                                         lambda f, h: uglov_inner(f, h, g))
    return _ORTH_CACHE[key]


# ---------------------------------------------------------------------------
# limit checks through hbar-jets
# ---------------------------------------------------------------------------

def _jet_triangular_limit(lam, q, t):
    """Triangular eigenproblem for eta_0 over jets; the constant jet
    coefficient of the result is the q -> 1 limit of P_lambda."""
    lam = tuple(lam)
    vec = _triangular_eigenvector(
        lambda f: eta_apply(q, t, 0, f), lam,
        lambda mu: eps_macdonald(mu, q, t))
    out = {}
    for mu, c in vec.terms.items():
        c0 = _jet_coeff(c, 0)
        if not is_zero(c0):
            out[mu] = c0
    return SymFunc("m", out)


def uglov_limit_check(lam, gamma):
    """Verify that the jet limit of Macdonald at (q, t) = (-e^h, -e^{gamma h})
    agrees at jet order zero with the directly constructed family member.

    The comparison target is the total (orthogonality) construction, which
    coincides with the eigenproblem solution wherever the latter is
    unambiguous; on eigenvalue-tied shapes this check is what certifies the
    coefficients the eigenproblem leaves free.
    """
    lam = tuple(lam)
    gamma = Fraction(gamma)
    # jets of order 1, padded: eigenvalue ties cost jet precision (one order
    # per tied division along a dominance chain, two at the deeper h^2
    # ties); pad generously, the blocks are small
    pad = 2 * len(partitions(sum(lam))) + 2
    q, t = hbar_parameters(gamma, 1 + pad)
    limit = _jet_triangular_limit(lam, q, t)
    direct = uglov2_orth(lam, gamma)
    if not (limit - direct).is_zero():
        raise VerificationFailure(
            "jet limit of Macdonald disagrees with the direct construction at %r" % (lam,))
    return {"partition": list(lam), "gamma": str(gamma), "verified": True}


def jack(lam, alpha):
    """Monic Jack function P_lambda^{(alpha)}, computed as the q -> 1 jet
    limit of Macdonald at (q, t) = (e^h, e^{h/alpha}).

    Used only as a sanity oracle for the limit machinery; the eigenvalue
    spacing degenerates to order h^3, so the jets carry extra precision.
    """
    lam = tuple(lam)
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    gamma_j = 1 / alpha
    order = 3 * len(partitions(sum(lam))) + 4
    q = Jet.exp_linear(Fraction(1), order)
    t = Jet.exp_linear(gamma_j, order)
    return _jet_triangular_limit(lam, q, t)
