"""Vertex-operator modes on symmetric functions, applied as functions from a
SymFunc to a SymFunc.

An operator of the shape  exp(sum_a c(a) p_a z^a) * exp(sum_b d(b) dp_b z^{-b})
acts on the power-sum basis by pairing a creation partition kappa (from the
first exponential) with a derivative partition nu (from the second).  Mode
extraction [z^{-n}] couples the two total z-degrees, so every application
to a fixed element is a finite exact sum; no truncation parameter is
involved beyond the degree of the input.  One weight rule, a product of
coefficient powers times a count, prices both sides (see apply_vertex_mode).

An operator is a VertexOperator, built once and applied mode by mode: it
caches its coefficients creation(a), annihilation(b) and its creation
series [z^a], so the caches live exactly as long as the operator.  The
constant operators (C0 here, the fermion mode and the screening series in
fock) are built at import; a DVirCurrent builds its three in __init__, and
each check at fixed (q, t) builds one eta.

The operators provided here:

* eta_operator  -- the Macdonald eigenoperator family eta_n(q, t)
* c0_apply      -- the odd-sector operator obtained from eta at (q, t) = (-1, -1)
* c1_apply      -- its first-order deformation in gamma, gamma A + B, where
                   A sums -+ p_j C0_{n+j} and B sums -+ j C0_{n-j} dp_j;
                   both are accumulated in one pass, not from C0 modes
* DVirCurrent   -- the two-term deformed Virasoro current and its dressing
                   factor psi, normalized so that psi(z) T(z) reproduces
                   eta_0 plus a scalar in the zero mode

together with the eigenvalue formulas eps (Macdonald), eps0 and eps1.  The
identities between them (the hbar expansion of eta_0 and the zero-mode
identity of the current) are checked on the images of the power sums p_lam,
a basis, never through operator matrices.

Convention note: the creation series of eta carries (1 - t^{-a}); this is the
form whose zero mode has eigenvalue 1 + (t-1)(q-1)/t on p_1 and whose
expansion at (q, t) = (-e^h, -e^{gamma h}) produces exactly c0 + h*c1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .kernel import Jet, KernelError, VerificationFailure, as_scalar, is_zero
from .symfunc import (
    SymFunc,
    merge_partitions,
    multiplicities,
    partitions,
    to_p,
)


# ---------------------------------------------------------------------------
# generic mode application
# ---------------------------------------------------------------------------

_KEEP = {"any": (0, 1), "odd": (1,), "even": (0,)}  # p % 2 of the parts kept


@lru_cache(maxsize=None)
def _partitions_with_parity(n, parity):
    """Partitions of n restricted to odd/even/any part sizes."""
    return tuple(lam for lam in partitions(n) if all(p % 2 in _KEEP[parity] for p in lam))


def _submultisets(mult):
    """All sub-multiplicity dicts of a multiplicity dict."""
    items = sorted(mult.items())
    for takes in product(*(range(m + 1) for _, m in items)):
        yield {p: k for (p, _), k in zip(items, takes) if k}


def _weight(coeff, mult, count):
    """prod_p coeff(p)^m count(p, m) over the parts p of multiplicity m in
    mult (1 when mult is empty), or None when some coeff(p) is None or 0.
    The power is a run of products starting at coeff(p) itself and the
    rational counts multiply once at the end: for a Jet, 1 * c and c * c
    beyond the needed power each cost a full jet product."""
    w, k = None, 1
    for p, m in mult.items():
        c = coeff(p)
        if c is None or is_zero(c):
            return None
        for _ in range(m):
            w = c if w is None else w * c
        k *= count(p, m)
    if w is None:
        return k
    return w if k == 1 else w * k


class VertexOperator:
    """exp(sum_a creation(a) p_a z^a) exp(sum_b annihilation(b) dp_b z^{-b}),
    both series restricted to the part sizes ``parity`` keeps.

    ``creation(a)`` / ``annihilation(b)`` return exact scalars (or 0 / None
    for absent indices).  Each coefficient is computed once, and so is the
    creation series [z^a]; both caches belong to the operator and are freed
    with it.
    """

    def __init__(self, creation, annihilation, parity="any"):
        self.creation = lru_cache(maxsize=None)(creation)
        self.annihilation = lru_cache(maxsize=None)(annihilation)
        self.parity = parity
        self._series = {}

    def series(self, a):
        """{kappa: prod_p creation(p)^m / m!} over the partitions kappa of a
        with kept parts, the [z^a] coefficient of the creation series."""
        out = self._series.get(a)
        if out is None:
            out = {}
            for kappa in _partitions_with_parity(a, self.parity):
                w = _weight(self.creation, multiplicities(kappa),
                            lambda p, m: Fraction(1, math.factorial(m)))
                if w is not None:
                    out[kappa] = w
            self._series[a] = out
        return out


def _annihilations(op, mult, least):
    """(stripped, size, weight) for each sub-multiset nu of the parts op's
    parity keeps in p_lam, mult = multiplicities(lam), of size |nu| >= least:
    stripped is lam without nu (a tuple, not sorted) and weight is
    prod_p annihilation(p)^m C(m_p(lam), m).  A nu whose weight vanishes is
    skipped; the size test comes first, so no weight is priced in vain."""
    keep = _KEEP[op.parity]
    for nu in _submultisets({p: m for p, m in mult.items() if p % 2 in keep}):
        size = sum(p * m for p, m in nu.items())
        if size < least:
            continue
        w = _weight(op.annihilation, nu, lambda p, m: math.comb(mult[p], m))
        if w is not None:
            yield (tuple(p for p, m in mult.items() for _ in range(m - nu.get(p, 0))),
                   size, w)


def _create(series, stripped, w, out):
    """Add w p_stripped times the creation series {kappa: weight} of one
    degree into the p-coefficient dict out."""
    for kappa, wk in series.items():
        key = merge_partitions(stripped, kappa)
        term = w * wk
        out[key] = out[key] + term if key in out else term


def apply_vertex_mode(op, n, f):
    """[z^{-n}] of the VertexOperator op applied to a SymFunc (converted to
    the p basis).

    On p_lam, removing the parts nu weighs prod_p annihilation(p)^m C(m_p(lam), m)
    and creating kappa weighs the op.series entry of kappa: _annihilations,
    then _create.
    """
    out = {}
    for lam, coeff in to_p(f).terms.items():
        for stripped, size, w in _annihilations(op, multiplicities(lam), n):
            _create(op.series(size - n), stripped, coeff * w, out)
    return SymFunc("p", out)


# ---------------------------------------------------------------------------
# eta, c0, c1
# ---------------------------------------------------------------------------

def eta_operator(q, t):
    """The eta family at parameters (q, t); its mode n is
    apply_vertex_mode(eta_operator(q, t), n, f)."""
    q, t = as_scalar(q, "q"), as_scalar(t, "t")
    t_inv = 1 / t

    def cre(a):
        return (1 - t_inv ** a) * Fraction(1, a)

    def ann(b):
        return -(1 - q ** b)

    return VertexOperator(cre, ann)


# the odd-sector operator, over Q whatever field it acts on
_C0 = VertexOperator(lambda a: Fraction(2, a), lambda b: -2, "odd")


def c0_apply(n, f):
    return apply_vertex_mode(_C0, n, f)


@lru_cache(maxsize=None)
def _c0_series_times(a, scale):
    """The [z^a] creation series of C^0 times scale, as ints: its weights are
    2^l(kappa) / z_kappa, and z_kappa divides a!, which divides scale."""
    return {kappa: int(w * scale) for kappa, w in _C0.series(a).items()}


@lru_cache(maxsize=None)
def _c1_rows(n, lam):
    """(A_n p_lam, B_n p_lam) times N! = (|lam| - n)!, as int p-coefficient
    dicts; see c1_apply.  The annihilation weights of C^0 are ints and every
    creation series it reads has degree at most N, so the rows are built in
    ints.  Both rows are empty when n > |lam|."""
    if n > sum(lam):
        return {}, {}
    scale = math.factorial(sum(lam) - n)
    mult = multiplicities(lam)
    a_row, b_row = {}, {}
    for stripped, size, w in _annihilations(_C0, mult, n + 1):
        for j in range(1, size - n + 1):
            series = _c0_series_times(size - n - j, scale)
            _create(series, stripped + (j,), -w if j % 2 else w, a_row)
    for j, m in mult.items():
        rest = dict(mult)
        rest[j] -= 1
        w_j = -j * m if j % 2 else j * m
        for stripped, size, w in _annihilations(_C0, rest, n - j):
            _create(_c0_series_times(size - n + j, scale), stripped, w_j * w, b_row)
    return ({key: x for key, x in a_row.items() if x},
            {key: x for key, x in b_row.items() if x})


def c1_apply(gamma, n, f):
    """Mode C^1_n(gamma) = gamma A_n + B_n: the first-order gamma-deformation
    of C^0_n, with

      A_n = sum_{j >= 1} -+ p_j C^0_{n+j}          (- for odd j, + for even j)
      B_n = sum_{j >= 1} -+ j C^0_{n-j} dp_j

    One walk over f's p-terms accumulates A and B: _c1_rows builds A_n p_lam
    and B_n p_lam in integers, times (|lam| - n)!, through the strip, weigh
    and create steps of apply_vertex_mode, pricing each removable nu of lam
    once for every j, and f's coefficient multiplies each row entry once.
    gamma multiplies A once, and each output entry p_kappa, |kappa| =
    |lam| - n, is divided by |kappa|! once, at the end.
    """
    a_part, b_part = {}, {}
    for lam, coeff in to_p(f).terms.items():
        for part, row in zip((a_part, b_part), _c1_rows(n, lam)):
            for key, x in row.items():
                term = coeff * x
                part[key] = part[key] + term if key in part else term
    out = {key: gamma * a for key, a in a_part.items() if not is_zero(a)}
    for key, b in b_part.items():
        out[key] = out[key] + b if key in out else b
    return SymFunc("p", {key: x * Fraction(1, math.factorial(sum(key)))
                         for key, x in out.items()})


def eps_macdonald(lam, q, t):
    """Eigenvalue of eta_0 on the Macdonald function: 1 + (t-1) sum (q^l_i - 1) t^{-i}."""
    q, t = as_scalar(q, "q"), as_scalar(t, "t")
    acc = q * 0 + 1
    t_inv = 1 / t
    for i, part in enumerate(lam, start=1):
        acc = acc + (t - 1) * (q ** part - 1) * t_inv ** i
    return acc


def eps0(lam):
    """1 - 2 sum_i (-1)^i ((-1)^{lam_i} - 1)."""
    acc = Fraction(1)
    for i, part in enumerate(lam, start=1):
        acc -= 2 * Fraction((-1) ** i) * (((-1) ** part) - 1)
    return acc


def eps1(lam, gamma):
    """- sum_i (-1)^i { 2 (-1)^{lam_i} lam_i + gamma (1 - 2i) ((-1)^{lam_i} - 1) }."""
    gamma = as_scalar(gamma, "g")
    acc = gamma * 0
    for i, part in enumerate(lam, start=1):
        sgn = (-1) ** i
        term = Fraction(2 * ((-1) ** part) * part) + gamma * Fraction((1 - 2 * i) * (((-1) ** part) - 1))
        acc = acc - sgn * term
    return acc


# ---------------------------------------------------------------------------
# hbar expansion checks
# ---------------------------------------------------------------------------

def hbar_parameters(gamma, order):
    """The specialization q = -e^h, t = -e^{gamma h} as jets over the field
    of gamma."""
    gamma = as_scalar(gamma, "g")
    q = Jet.exp_linear(gamma * 0 + 1, order)
    q = Jet([-c for c in q.coeffs], order)
    tg = Jet.exp_linear(gamma, order)
    t = Jet([-c for c in tg.coeffs], order)
    return q, t


def _power_sums(dmax):
    """Yield (lam, p_lam) for every partition of degree at most dmax.

    The checks below compare linear operators (eta_0, C^0_0, C^1_0, T_n,
    psi_{-n}, the h^k coefficient and the scalars), and these p_lam are a
    basis over Q of the space the m_lam with |lam| <= dmax span.  So an
    identity holds on every m_lam exactly when it holds on every p_lam, and
    a p_lam is one term for the vertex modes to price, where m_lam expands
    into up to p(|lam|) of them."""
    for d in range(dmax + 1):
        for lam in partitions(d):
            yield lam, SymFunc("p", {lam: Fraction(1)})


def eta_hbar_check(gamma, dmax):
    """Assert eta_0 at (q,t) = (-e^h, -e^{gamma h}) equals C0_0 + h C1_0(gamma)
    on symmetric functions of degree at most dmax, through jet order 1;
    returns the verified report.  gamma is a field element (or "sym", the
    variable of Q(g)).  The operators are compared on each p_lam, which is
    the check on each m_lam (see _power_sums); a failure names the lam of
    the first p_lam that differs."""
    gamma = as_scalar(gamma, "g")
    eta = eta_operator(*hbar_parameters(gamma, 1))
    for lam, f in _power_sums(dmax):
        image = apply_vertex_mode(eta, 0, f)
        if not (_jet_part(image, 0) - c0_apply(0, f)).is_zero():
            raise VerificationFailure("h^0 mismatch at %r" % (lam,))
        if not (_jet_part(image, 1) - c1_apply(gamma, 0, f)).is_zero():
            raise VerificationFailure("h^1 mismatch at %r" % (lam,))
    return {"gamma": str(gamma), "dmax": dmax, "order": 1, "verified": True}


def eps_hbar_check(maxdeg, gamma):
    """Jet expansion of the Macdonald eigenvalue against eps0 + h eps1."""
    gamma = Fraction(gamma)
    q, t = hbar_parameters(gamma, 1)
    for n in range(maxdeg + 1):
        for lam in partitions(n):
            jet = eps_macdonald(lam, q, t)
            if _jet_coeff(jet, 0) != eps0(lam) or _jet_coeff(jet, 1) != eps1(lam, gamma):
                raise VerificationFailure("eigenvalue jet mismatch at %r" % (lam,))
    return True


# ---------------------------------------------------------------------------
# deformed Virasoro current
# ---------------------------------------------------------------------------

def exact_sqrt(x):
    x = Fraction(x)
    if x < 0:
        raise KernelError("negative value has no rational square root")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise KernelError("%s is not a perfect rational square" % x)
    return Fraction(rn, rd)


class DVirCurrent:
    """Normalized two-term free-field current T(z) = B1(z) + B2(z) and its
    creation-only dressing psi(z), with

      B1 = exp( sum (1-t^{-a}) p^{-a/2}/(1+p^a) p_a z^a / a )
           exp( -sum (1-q^b) p^{b/2} dp_b z^{-b} )
      B2 = exp( -sum (1-t^{-a}) p^{a/2}/(1+p^a) p_a z^a / a )
           exp( +sum (1-q^b) p^{-b/2} dp_b z^{-b} ) * kappa
      psi = exp( +sum (1-t^{-a}) p^{a/2}/(1+p^a) p_a z^a / a )

    where p = q/t and kappa = p^{-1} q^{-2 alpha}.  These satisfy
    psi(z) T(z) = eta(z p^{-1/2}) + (annihilation-only series) * kappa, so the
    zero modes obey  sum_{n>=0} psi_{-n} T_n = eta_0 + kappa.
    """

    def __init__(self, q, t, p_sqrt, kappa):
        self.q = q
        self.t = t
        self.p_sqrt = p_sqrt
        self.kappa = kappa
        t_inv, p, ps_inv = 1 / t, p_sqrt * p_sqrt, 1 / p_sqrt

        # creation / annihilation coefficient functions; they close over the
        # parameters, not self, so the operators hold no reference cycle
        def phi(a):
            return (1 - t_inv ** a) * (ps_inv ** a) / ((1 + p ** a) * a)

        def psi(a):
            return (1 - t_inv ** a) * (p_sqrt ** a) / ((1 + p ** a) * a)

        def h1(b):
            return -(1 - q ** b) * p_sqrt ** b

        def h2(b):
            return (1 - q ** b) * ps_inv ** b

        self._b1 = VertexOperator(phi, h1)
        self._b2 = VertexOperator(lambda a: -psi(a), h2)
        self._psi = VertexOperator(psi, lambda b: None)

    def t_apply(self, n, f):
        """T_n = [z^{-n}] (B1(z) + B2(z)) applied to f."""
        b1 = apply_vertex_mode(self._b1, n, f)
        b2 = apply_vertex_mode(self._b2, n, f)
        return b1 + b2.scale(self.kappa)

    def psi_apply(self, n, f):
        """psi_{-n} = [z^n] psi(z) applied to f (n >= 0)."""
        return apply_vertex_mode(self._psi, -n, f)


def dvir_rational(q, t, two_alpha):
    """Current at exact rational parameters; q/t must be a rational square
    and 2*alpha an integer so that all scalars stay rational."""
    q, t = Fraction(q), Fraction(t)
    p_sqrt = exact_sqrt(q / t)
    kappa = (t / q) * q ** (-int(two_alpha))
    return DVirCurrent(q, t, p_sqrt, kappa)


def dvir_jet(gamma, alpha, order):
    """Current over hbar-jets at q = -e^h, t = -e^{gamma h}.

    gamma and alpha may live in any base field containing the rationals;
    p^{1/2} = e^{(1-gamma)h/2} and kappa = e^{(gamma-1-2 alpha)h} stay exact.
    """
    gamma = as_scalar(gamma, "g")
    q, t = hbar_parameters(gamma, order)
    p_sqrt = Jet.exp_linear((1 - gamma) * Fraction(1, 2), order)
    kappa = Jet.exp_linear(gamma - 1 - 2 * alpha, order)
    return DVirCurrent(q, t, p_sqrt, kappa)


def _zero_mode_sums(cur, dmax):
    """Yield (lam, p_lam, sum_{n>=0} psi_{-n} T_n p_lam) for every partition
    of degree at most dmax; T_n p_lam = 0 for n > |lam|."""
    for lam, f in _power_sums(dmax):
        out = SymFunc("p", {})
        for n in range(sum(lam) + 1):
            tn = cur.t_apply(n, f)
            if not tn.is_zero():
                out = out + cur.psi_apply(n, tn)
        yield lam, f, out


def pt_eta_check(cur, dmax):
    """Verify sum_{n=0..d} psi_{-n} T_n = eta_0 + kappa blockwise up to dmax,
    with eta_0 at the (q, t) of the DVirCurrent ``cur``, on each p_lam (see
    _power_sums); a failure names the lam of the first p_lam that differs.

    Returns a report dict; raises VerificationFailure on failure.
    """
    eta = eta_operator(cur.q, cur.t)
    for lam, f, lhs in _zero_mode_sums(cur, dmax):
        diff = lhs - (apply_vertex_mode(eta, 0, f) + to_p(f).scale(cur.kappa))
        if not diff.is_zero():
            raise VerificationFailure("zero-mode identity fails at %r: %r" % (lam, diff))
    return {"dmax": dmax, "verified": True}


def pt_c10_check(gamma, alpha, dmax):
    """First-order part of the zero-mode identity: the h^1 coefficient of
    sum psi_{-n} T_n  equals  C1_0(gamma) + (gamma - 1 - 2 alpha) * id,
    checked on each p_lam with |lam| <= dmax (see _power_sums); a failure
    names the lam of the first p_lam that differs.  gamma is a field
    element (or "sym", the variable of Q(g)), alpha a rational."""
    gamma, alpha = as_scalar(gamma, "g"), Fraction(alpha)
    cur = dvir_jet(gamma, alpha, 1)
    shift = gamma - 1 - 2 * alpha
    for lam, f, lhs in _zero_mode_sums(cur, dmax):
        rhs = c1_apply(gamma, 0, f) + to_p(f).scale(shift)
        if not (_jet_part(lhs, 1) - rhs).is_zero():
            raise VerificationFailure("h^1 zero-mode identity fails at %r" % (lam,))
    return {"gamma": str(gamma), "alpha": str(alpha), "dmax": dmax, "verified": True}


def _jet_coeff(x, k):
    if isinstance(x, Jet):
        return x.coeff(k)
    return x * 0 if k > 0 else x


def _jet_part(f, k):
    """The SymFunc of the h^k coefficients of f's coefficients."""
    return SymFunc(f.basis, {mu: _jet_coeff(c, k) for mu, c in f.terms.items()})
