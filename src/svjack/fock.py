"""The Heisenberg-Clifford Fock module realized on symmetric functions, the
free-field form of the super Virasoro generators, the Verma -> symmetric
function pipeline for singular vectors, the one-screening residue
computation, and the checks on singular-vector images: the identification
with the gamma family and the annihilation by positive current modes.  Each
check is linear and homogeneous in the image, so each runs on the image as
verma_to_lambda computes it, a nonzero multiple of the true one, and none
divides it by a leading coefficient.

Conventions.  The Fock module is realized on power-sum symmetric functions;
the boson modes act as  a_n -> -2 t n d/dp_{2n},  a_{-n} -> -(1/2t) p_{2n}
(n > 0), with a_0 the scalar alpha.  The fermion current lives in the odd
power sums: with

    phi_-(z) = - sum p_{2n-1} z^{2n-1} / (2n-1),
    phi_+(z) =   sum (d/dp_{2n-1}) z^{-(2n-1)},

the raw vertex combination  e^{phi_-} e^{2 phi_+} - e^{-phi_-} e^{-2 phi_+}
has modes (coefficient of z^{-2k}) whose anticommutator closes on MINUS
the canonical pairing.  Composing each mode with the parity involution
J: p_odd -> -p_odd (a standard cocycle factor) flips the sign of every
contraction, so the rescaled fermion

    b~_k := (1/2) [z^{-2k}] (raw vertex) o J  =  sqrt2 b_k

satisfies b~_k b~_l + b~_l b~_k = 2 delta_{k+l,0} and has rational images
(b~_{-1/2} 1 = -p_1).  The two halves of the raw vertex give opposite
modes (see fermion_act), so b~_k is the one extraction
[z^{-2k}] e^{phi_-} e^{2 phi_+} o J.  All computation uses b~ over the
base field (Q or Q(t)); sqrt(2) enters only the scalar that
verify_conjecture reports.

The exterior basis.  Bosons act only on the even power sums and fermions
only on the odd ones, and the b~ generate a Clifford module from the
vacuum, so the Fock module is Q[p_2, p_4, ...] (x) Lambda(b~_{-1/2},
b~_{-3/2}, ...).  The image is computed there: a state is a dict from
(even, ferm) to coefficients, where even is a partition into even parts
(the monomial p_even) and ferm = (2k_1 > ... > 2k_l) a strictly decreasing
tuple of positive odd integers, twice the half-odd indices k_i, standing for

    p_even b~_{-k_1} ... b~_{-k_l} 1.

Inside this module a fermion index k is always carried as the odd integer
2k, and a generator as svir's ("L", 2n) or ("G", 2k), so states and words
hash and compare plain ints; fermion_act keeps its half-odd Fraction
argument.  The sign rule: b~_{-k} inserts 2k with (-1)^(number of
larger indices), or gives 0 if 2k is there; b~_k (k > 0) removes 2k with
2 (-1)^(number of larger indices), or gives 0 if 2k is absent.  a_n acts on
even alone: -2 t n m_{2n}(even) on removing a part 2n, -1/(2t) on inserting
one, alpha at n = 0.  The degree rule: a state has degree |even| + 2k_1 +
... + 2k_l = sum(even) + sum(ferm), the degree of the symmetric function it
stands for.  Only at the end of verma_to_lambda is each fermion monomial
b~_{-k_1} ... b~_{-k_l} 1 taken to the odd power sums by fermion_act, once
per tuple and over Q, so the fermion keeps its one definition.

A generator is data: _ff_terms lists its normal-ordered terms as
(coefficient, mode, mode) triples, and ff_act applies them to exterior
states through one mode dispatch (b~_k -> _fermion_mode, a_m ->
_boson_mode, a_0 included).  verma_to_lambda evaluates a Verma vector by
Horner's rule over the trie of its PBW words: words that share a left
factor share its ff_act, so ff_act runs once per distinct word prefix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .kernel import (Poly, RatFun, Sqrt2Ext, VerificationFailure, _one_denominator, _zz_combine,
                     _zz_mul, as_scalar, is_zero, scalar_to_json)
from .svir import _word_of, singular_vector
from .symfunc import (
    SymFunc,
    _p_to_m_row,
    dominance_leq,
    merge_partitions,
    multiply,
    partitions,
    sorted_partitions,
    to_p,
)
from .uglov import uglov_inner
from .vertexops import VertexOperator, _c1_rows, _jet_part, apply_vertex_mode, dvir_jet, eps1


HALF = Fraction(1, 2)


def odd_sign_involution(f):
    """The algebra automorphism p_{2n-1} -> -p_{2n-1}."""
    fp = to_p(f)
    out = {}
    for lam, c in fp.terms.items():
        odd = sum(1 for p in lam if p % 2 == 1)
        out[lam] = -c if odd % 2 == 1 else c
    return SymFunc("p", out)


# e^{phi_-} e^{2 phi_+}, whose modes give fermion_act
_FERMION = VertexOperator(lambda a: Fraction(-1, a), lambda b: Fraction(2), "odd")


def fermion_act(k, f):
    """The rescaled fermion mode b~_k = sqrt2 b_k (k half-odd) on a symmetric
    function, with b~_k b~_l + b~_l b~_k = 2 delta_{k+l,0}.

    b~_k is (1/2) [z^{-2k}] (e^{phi_-} e^{2 phi_+} - e^{-phi_-} e^{-2 phi_+}) o J.
    Each term of either extraction pairs odd creation parts kappa with odd
    annihilation parts nu, |nu| - |kappa| = 2k, so l(kappa) + l(nu) is odd:
    flipping the sign of both exponents multiplies every term by -1.  The
    second half is minus the first, and b~_k = [z^{-2k}] e^{phi_-} e^{2 phi_+} o J.
    """
    k = Fraction(k)
    if (2 * k) % 2 != 1:
        raise ValueError("fermion modes carry half-odd indices")
    return apply_vertex_mode(_FERMION, int(2 * k), odd_sign_involution(f))


def _degree(key):
    """The degree of the exterior basis state (even, ferm): |even| + sum(ferm),
    as ferm holds the doubled indices 2k."""
    even, ferm = key
    return sum(even) + sum(ferm)


def _fermion_mode(k, state):
    """b~_{k/2} on an exterior state, k the odd integer twice the half-odd
    mode index, by the sign rule of the module docstring.  Distinct states
    go to distinct states, so no two terms are summed."""
    out = {}
    if k < 0:
        k = -k
        for (even, ferm), c in state.items():
            if k not in ferm:
                i = sum(1 for j in ferm if j > k)
                out[even, ferm[:i] + (k,) + ferm[i:]] = -c if i % 2 else c
    else:
        for (even, ferm), c in state.items():
            if k in ferm:
                i = ferm.index(k)
                out[even, ferm[:i] + ferm[i + 1:]] = c * (-2 if i % 2 else 2)
    return out


def _boson_mode(n, state, alpha, t):
    """a_n on an exterior state, through its even partition:
    a_n -> -2 t n d/dp_{2n} and a_{-n} -> -(1/2t) p_{2n} for n > 0, a_0 -> alpha.
    As for _fermion_mode, no two terms are summed."""
    if n == 0:
        return {} if is_zero(alpha) else {key: c * alpha for key, c in state.items()}
    out = {}
    if n > 0:
        w = -2 * t * n
        for (even, ferm), c in state.items():
            m = even.count(2 * n)
            if m:
                i = even.index(2 * n)
                out[even[:i] + even[i + 1:], ferm] = c * w * m
    else:
        w = -1 / (2 * t)
        for (even, ferm), c in state.items():
            out[merge_partitions(even, (-2 * n,)), ferm] = c * w
    return out


def _ff_terms(gen, d, rho):
    """The terms of ff_act's formulas that can act on states of degree <= d,
    as (coefficient, left mode, right mode): the right mode acts first, None
    is the identity, and a mode is ("a", m) or ("b", 2k) for b~_k, its
    half-odd index doubled to an odd integer.  gen is doubled the same way."""
    hi = d // 2 + 2
    if gen[0] == "L":
        n = gen[1] // 2
        lo = n - d // 2 - 2
        for m in range(lo, hi + 1):
            yield HALF, ("a", min(m, n - m)), ("a", max(m, n - m))
        yield -rho * Fraction(n + 1), ("a", n), None
        for m in range(lo, hi + 1):
            k, l = 2 * m + 1, 2 * (n - m) - 1  # 2k and 2(n-k) for k = m + 1/2
            # -1/4 (k+1/2) = -(2k+1)/8, signed when b~_k is swapped to the right
            yield (Fraction(-(k + 1) if k <= l else k + 1, 8),
                   ("b", min(k, l)), ("b", max(k, l)))
    elif gen[0] == "G":
        k2 = gen[1]
        # b~_{k-m} a_m vanishes unless 2(k - m) <= d, that is m >= ceil((2k - d)/2)
        for m in range(-((d - k2) // 2) - 2, hi + 1):
            yield 1, ("b", k2 - 2 * m), ("a", m)
        yield -rho * (k2 + 1), ("b", k2), None
    else:
        raise ValueError("unsupported generator %r" % (gen,))


def ff_act(gen, state, alpha, rho, t):
    """The free-field form of a super Virasoro generator on an exterior state
    with a_0-weight alpha.  gen is ("L", 2n) or ("G", 2k), on the doubled
    index of svir's words, and ("G", 2k) gives G~_k = sqrt2 G_k:

      L_n  = 1/2 sum_m :a_m a_{n-m}: - rho (n+1) a_n - 1/4 sum_k (k+1/2) :b~_k b~_{n-k}:
      G~_k = sum_m b~_{k-m} a_m - 2 rho (k+1/2) b~_k
    """
    if not state:
        return {}
    out = {}
    for c, left, right in _ff_terms(gen, max(map(_degree, state)), rho):
        g = state
        for kind, idx in filter(None, (right, left)):
            g = _fermion_mode(idx, g) if kind == "b" else _boson_mode(idx, g, alpha, t)
            if not g:
                break
        else:
            for key, x in g.items():
                if c != 1:
                    x = x * c
                out[key] = out[key] + x if key in out else x
    return {key: x for key, x in out.items() if not is_zero(x)}


# ---------------------------------------------------------------------------
# Verma -> symmetric functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fermion_monomial(ferm):
    """b~_{-k_1} ... b~_{-k_l} 1 for ferm = (2k_1 > ... > 2k_l), in the odd
    power sums and over Q: built from Fraction(1) whatever field the caller
    works in, so one cache serves every t."""
    f = SymFunc.one("p")
    for k2 in reversed(ferm):
        f = fermion_act(Fraction(-k2, 2), f)
    return f


def verma_to_lambda(v):
    """Image of a Verma vector under the free-field substitution followed by
    the boson-fermion dictionary, as a symmetric function of degree 2*level.
    A word with m fermionic factors maps by the rescaled generators, times
    2^(-floor(m/2)); as m = 2*level (mod 2), the sum is sqrt2^(2*level mod 2)
    times the true image and lies in the base field of t.

    The words are evaluated by Horner's rule over their trie, outermost
    generator at the root: a node applies its generator once, by ff_act, to
    the sum of the states below it, and a word's weighted vacuum sits at the
    node where it ends.  The words of a singular vector have one level, so
    the states at a node are homogeneous; ff_act's terms cover every degree
    up to the largest, so a vector mixing levels maps correctly too.  Each
    fermion monomial goes to the odd power sums once, at the end, and
    multiplies its even part.
    """
    if v.weight is None:
        raise ValueError("verma_to_lambda needs weight data on the vector")
    hw = v.weight
    alpha, rho, t = hw.alpha_plus, hw.rho, hw.t
    one = t * 0 + 1
    trie = {}  # generator -> subtrie; the key None holds the weighted vacuum
    for sp, coeff in v.terms.items():
        node = trie
        for gen in _word_of(sp):
            node = node.setdefault(gen, {})
        node[None] = one * coeff * Fraction(1, 2 ** (len(sp.fermionic) // 2))

    def evaluate(node):
        state = {}
        for gen, below in node.items():
            if gen is None:
                part = {((), ()): below}
            else:
                part = ff_act(gen, evaluate(below), alpha, rho, t)
            for key, x in part.items():
                state[key] = state[key] + x if key in state else x
        return state

    out = {}
    for (even, ferm), c in evaluate(trie).items():
        for mu, a in _fermion_monomial(ferm).terms.items():
            key = merge_partitions(even, mu)
            term = c * a
            out[key] = out[key] + term if key in out else term
    return SymFunc("p", out)


# ---------------------------------------------------------------------------
# the r = 1 screening residue
# ---------------------------------------------------------------------------

# E1(w) = exp(sum_{a odd} p_a w^a / a) and E0(w) = exp(-sum_{a even} p_a w^a / a)
_SCREENING_SERIES = {
    "E1": VertexOperator(lambda a: Fraction(1, a), lambda b: None, "odd"),
    "E0": VertexOperator(lambda a: Fraction(-1, a), lambda b: None, "even"),
}


def _exp_series(j, name):
    """[w^j] of the series E1 or E0 as a p-basis SymFunc."""
    return apply_vertex_mode(_SCREENING_SERIES[name], -j, SymFunc.one("p"))


def screening_r1(s, t="sym"):
    """The one-screening residue for the (1, s) singular vector, s odd: t/2
    times the w^s coefficient of (E1(-w) - E1(w)) E0(-w), where
    E1(w) = exp(sum p_{2n-1} w^{2n-1}/(2n-1)) and
    E0(w) = exp(-sum p_{2n} w^{2n}/(2n)).  Only odd powers survive and
    [w^{2n-1}] equals -2 e_{2n-1}, so the residue evaluates to -t e_s.  E0 has
    only even powers, so the w^s coefficient is the sum of
    multiply(-2 [w^i] E1, [w^(s-i)] E0) over odd i <= s."""
    if s < 1 or s % 2 == 0:
        raise ValueError("s must be a positive odd integer")
    t = as_scalar(t, "t")
    acc = SymFunc("p", {})
    for i in range(1, s + 1, 2):
        acc = acc + multiply(_exp_series(i, "E1").scale(Fraction(-2)), _exp_series(s - i, "E0"))
    return acc.scale(t * HALF)


# ---------------------------------------------------------------------------
# the main identification
# ---------------------------------------------------------------------------

def _apply_rows(nums, row_of):
    """sum_nu nums[nu] row_of(nu) for integer polynomial coefficients nums
    and int rows row_of(nu) = {key: int}; zero sums are dropped."""
    out = {}
    for nu, f in nums.items():
        for key, c in row_of(nu).items():
            out[key] = _zz_combine(1, out[key], c, f) if key in out else _zz_mul((c,), f)
    return {key: x for key, x in out.items() if x}


def _first_unorthogonal(nums, lam, gamma):
    """The first mu strictly below lam in dominance, in partitions() order,
    with x_mu = <f, m_mu>_gamma != 0 under uglov_inner, or None; nums holds
    f's p-coefficients times one nonzero scalar, as integer polynomials.

    p_nu = sum_rho L[nu][rho] m_rho over the int rows _p_to_m_row, so
    w_nu = <f, p_nu>_gamma = (L x)_nu.  Every rho != nu in row nu comes
    earlier in partitions() order, so one forward pass solves
    x_nu = (w_nu - sum_{rho != nu} L[nu][rho] x_rho) / L[nu][nu].  The norms
    <p_nu, p_nu>_gamma are put on one denominator as well, so each w_nu is
    an integer polynomial and each x_nu is the true value times one nonzero
    scalar, held as an integer polynomial over a positive int: only the
    int diagonal L[nu][nu] divides."""
    order = partitions(sum(lam))
    if lam == order[-1]:  # nothing lies below (1^n)
        return None
    units = {nu: SymFunc("p", {nu: Fraction(1)}) for nu in nums}
    norms = _one_denominator({nu: uglov_inner(p, p, gamma) for nu, p in units.items()})[1]
    x = {}
    for nu in order:
        acc, den = (_zz_mul(nums[nu], norms[nu]) if nu in nums else ()), 1
        row = _p_to_m_row(nu)
        for rho, a in row.items():
            if rho != nu:
                y, e = x[rho]
                if y:
                    l = den * e // math.gcd(den, e)
                    acc, den = _zz_combine(l // den, acc, -a * (l // e), y), l
        den *= row[nu]
        g = math.gcd(den, *acc)
        x[nu] = tuple(c // g for c in acc), den // g
        if nu != lam and acc and dominance_leq(nu, lam):
            return nu
    return None


def _is_c1_eigenfunction(nums, lam, t):
    """Whether f, whose p-coefficients times one nonzero scalar are the
    integer polynomials nums, has C^1_0(gamma) f = eps1(lam, gamma) f at
    gamma = 1/t^2.

    With C^1_0 = gamma A + B and eps1 = a + b gamma, a and b integers, t^2
    times the equation is (A + t^2 B) f = (a t^2 + b) f.  Over one
    denominator t^2 = v / u, and _c1_rows(0, nu) holds A p_nu and B p_nu
    times n! = |lam|!, so the test is (u A + v B) n! f = n! (a v + b u) f in
    Z[t], on each p-coefficient."""
    u, v = _one_denominator({0: t * 0 + 1, 1: t * t})[1].values()
    a = int(eps1(lam, 0))
    b = int(eps1(lam, 1)) - a
    scale = math.factorial(sum(lam))
    eigen = _zz_combine(a * scale, v, b * scale, u)
    a_part = _apply_rows(nums, lambda nu: _c1_rows(0, nu)[0])
    b_part = _apply_rows(nums, lambda nu: _c1_rows(0, nu)[1])
    for key in a_part.keys() | b_part.keys() | nums.keys():
        lhs = _zz_combine(1, _zz_mul(u, a_part.get(key, ())), 1, _zz_mul(v, b_part.get(key, ())))
        if _zz_combine(1, lhs, -1, _zz_mul(eigen, nums.get(key, ()))):
            return False
    return True


def verify_conjecture(r, s, t="sym"):
    """Check that the image of the (r, s) singular vector is proportional to
    the gamma-family member P_(r^s) at gamma = 1/t^2, that it is an exact
    C^1_0 eigenfunction, and that its monomial expansion is
    dominance-triangular.  Returns the verification report.

    The proportionality is certified without building P_(r^s): with lam =
    (r^s), the image f is c P_lam exactly when

      1. every monomial m_mu of f has mu <= lam in dominance;
      2. the coefficient c of m_lam is nonzero;
      3. <f, m_mu>_gamma = 0 for every mu < lam.

    The span of the P_mu with mu < lam is the span of those m_mu, and the
    form is nondegenerate on it (positive definite for gamma > 0, so its
    Gram determinant over Q(t) is a nonzero rational function), so f - c P_lam
    lies in that span, is orthogonal to it, and vanishes (Macdonald,
    Symmetric Functions and Hall Polynomials, 2nd ed., VI.4; README's "The
    proof that `verify` cites" spells the proof out).  A failure names the first monomial,
    in partitions() order, that breaks check 1 or 3.

    Every check is linear and homogeneous in f, so all three run on
    f = F / (k D) put on one denominator once: F in Z[t] (in Z at rational
    t), k an int and D an integer polynomial.  Only c is lifted back, as
    [m_lam] F / (k D).
    """
    chi = singular_vector(r, s, t)
    hw = chi.weight
    lam = (r,) * s
    var, nums, k, den = _one_denominator(verma_to_lambda(chi).terms)
    image_m = _apply_rows(nums, _p_to_m_row)
    if not image_m:
        raise VerificationFailure(
            "the image of the (%d, %d) singular vector vanishes" % (r, s))
    above = [mu for mu in sorted_partitions(image_m) if not dominance_leq(mu, lam)]
    if above:
        raise VerificationFailure(
            "image is not dominance-triangular below m_%s; first monomial outside "
            "at m_%s" % (list(lam), list(above[0])))
    if lam not in image_m:
        raise VerificationFailure("image lacks the leading monomial m_%s" % (list(lam),))
    one = hw.t * 0 + 1
    gamma = one / (hw.t * hw.t)
    mismatch = _first_unorthogonal(nums, lam, gamma)
    if mismatch is not None:
        raise VerificationFailure(
            "image is not proportional to the shape-%s family member; first "
            "mismatch at m_%s" % (list(lam), list(mismatch)))
    eigencheck = _is_c1_eigenfunction(nums, lam, hw.t)
    top = image_m[lam]
    lead = (Fraction(top[0], k) if var is None else
            RatFun(var, Poly(var, top), Poly(var, [k * c for c in den])))
    # at odd rs, the image is sqrt2 times the true one: its scalar is (lead / 2) sqrt2
    scalar = Sqrt2Ext(lead, lead * 0) if r * s % 2 == 0 else Sqrt2Ext(lead * 0, lead / 2)
    return {
        "rs": [r, s],
        "proportional": True,
        "scalar": scalar_to_json(scalar),
        "eigencheck": eigencheck,
        "triangular": True,
    }


# ---------------------------------------------------------------------------
# annihilation of singular-vector images by positive current modes
# ---------------------------------------------------------------------------

def dvir_alpha_for_singular(r, s, gamma):
    """The current weight whose positive modes annihilate the image of the
    (r, s) singular vector: 2*alpha = (s+1)*gamma - (r+1).

    Determined by solving the annihilation conditions exactly for small
    (r, s) and verified for every case exercised by the test-suite solver.
    """
    return (gamma * (s + 1) - (r + 1)) * Fraction(1, 2)


def t1_annihilation_check(r, s):
    """Apply T^0_n and T^1_n(1/t^2) for 1 <= n <= rs to the singular-vector
    image and assert both vanish; t is carried symbolically.  The operators
    are linear, so the image is checked as computed, at whatever scalar
    multiple of the true one; a mode beyond its degree rs gives zero."""
    v = verma_to_lambda(singular_vector(r, s, "sym"))
    if v.is_zero():
        raise VerificationFailure(
            "the image of the (%d, %d) singular vector vanishes" % (r, s))
    tvar = RatFun.variable("t")
    gamma = 1 / (tvar * tvar)
    alpha = dvir_alpha_for_singular(r, s, gamma)
    cur = dvir_jet(gamma, alpha, 1)
    checked = []
    for n in range(1, r * s + 1):
        image = cur.t_apply(n, v)
        for k in (0, 1):
            part = _jet_part(image, k)
            if not part.is_zero():
                raise VerificationFailure(
                    "T^%d_%d fails to annihilate the (%d,%d) image at %r"
                    % (k, n, r, s, next(iter(part.terms))))
        checked.append(n)
    return {"rs": [r, s], "modes_checked": checked, "annihilated": True}
