"""Macdonald symmetric functions at exact parameter samples, Jack functions,
and the two-parameter-degeneration family P^{(gamma,2)} over Q(gamma).

Macdonald functions are the unique monic, dominance-triangular eigenvectors
of eta_0, found by back-substitution along a linear extension of the
dominance order and re-checked against the full eigenrelation afterwards,
so a hypothetical triangularity failure of the operator would be detected
rather than silently accepted.  The gamma-family is built by orthogonal
projection onto the lower members under the degenerate limit of the (q, t)
inner product, a construction that has no eigenvalue-tie failure modes.

The q -> 1 limits that *define* the degenerate families are verified
independently through truncated hbar-jets (uglov_limit_check, jack), never
used as the production algorithm.
"""

from __future__ import annotations

from fractions import Fraction

from .kernel import Jet, KernelError, VerificationFailure, as_scalar, is_zero
from .symfunc import SymFunc, _back_substitute, convert, diagonal_form, dominance_leq, partitions
from .vertexops import (_jet_part, apply_vertex_mode, eps_macdonald, eta_operator,
                        hbar_parameters)


def _triangular_eigenvector(apply_fn, lam, eig_of):
    """Monic dominance-triangular eigenvector with leading term m_lam.

    Solves (A - eig(lam)) f = 0 by back-substitution over the partitions
    mu <= lam in dominance order, processed in the canonical reverse-lex
    order (a linear extension of dominance).  A[mu][kappa] is read off the
    m-expansion of A m_kappa, computed once for each kappa that gets a
    coefficient.  Raises KernelError when a coupled eigenvalue difference
    vanishes, and VerificationFailure when the eigenrelation fails on the
    result afterwards.
    """
    lower = [p for p in partitions(sum(lam)) if dominance_leq(p, lam)]
    eig_lam = eig_of(lam)
    zero = eig_lam * 0
    coeffs = {lam: zero + 1}
    images = {}
    for mu in lower:
        if mu == lam:
            continue
        acc = zero
        for kappa, c in coeffs.items():
            if kappa not in images:
                m_kappa = SymFunc("m", {kappa: Fraction(1)})
                images[kappa] = convert(apply_fn(m_kappa), "m").terms
            a = images[kappa].get(mu)
            if a is not None:
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
    # verify the eigenrelation on the result (catches any triangularity
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
    eta = eta_operator(q, t)
    return _triangular_eigenvector(
        lambda f: apply_vertex_mode(eta, 0, f), lam,
        lambda mu: eps_macdonald(mu, q, t))


# ---------------------------------------------------------------------------
# the p = 2 degeneration over Q(gamma)
# ---------------------------------------------------------------------------

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
    nondegenerate on power sums, so the ladder always produces the unique
    monic triangular orthogonal vector.  Where the C^1_0(gamma) eigenproblem
    is unambiguous the two characterizations agree (the test suite
    cross-checks them); at tied eigenvalues only this one determines the
    coefficients the eigenproblem leaves free.
    """
    return _ladder(tuple(lam), _nonzero_gamma(gamma))[0]


def _ladder(lam, g):
    """(P_lam, its p-expansion, its norm), cached.

    The lower members P_mu are monic, triangular and mutually orthogonal, so
    P_lam = m_lam - sum_{mu < lam} <m_lam, P_mu> / <P_mu, P_mu> P_mu, which is
    row lam of a triangular inversion.  Raises KernelError on a null lower
    member.
    """
    # typed: a constant RatFun equals and hashes like its Fraction, but the
    # coefficients carry the field of gamma
    key = (lam, type(g), g)
    if key not in _ORTH_CACHE:
        m_lam = convert(SymFunc("m", {lam: Fraction(1)}), "p")
        lower = [mu for mu in partitions(sum(lam)) if mu != lam and dominance_leq(mu, lam)]
        row = {lam: Fraction(1)}
        for mu in reversed(lower):
            _, p_mu, norm = _ladder(mu, g)
            if is_zero(norm):
                raise KernelError("vanishing norm in the Gram-Schmidt ladder at %r" % (mu,))
            row[mu] = uglov_inner(m_lam, p_mu, g) / norm
        f = SymFunc("m", _back_substitute(row, lam, lambda mu: _ladder(mu, g)[0].terms))
        p = convert(f, "p")
        _ORTH_CACHE[key] = (f, p, uglov_inner(p, p, g))
    return _ORTH_CACHE[key]


# ---------------------------------------------------------------------------
# limit checks through hbar-jets
# ---------------------------------------------------------------------------

def _jet_triangular_limit(lam, q, t):
    """Triangular eigenproblem for eta_0 over jets; the constant jet
    coefficient of the result is the q -> 1 limit of P_lambda."""
    lam = tuple(lam)
    eta = eta_operator(q, t)
    vec = _triangular_eigenvector(
        lambda f: apply_vertex_mode(eta, 0, f), lam,
        lambda mu: eps_macdonald(mu, q, t))
    return _jet_part(vec, 0)


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
