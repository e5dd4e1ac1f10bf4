"""Finite-variable realizations of the graded eigenoperators: the projection
pr_N from symmetric functions to N-variable symmetric polynomials, the
shift-difference operators acting there, and the diagnostic comparing them
with the infinite-variable modes.

The N-variable operators divide by the Vandermonde; the implementation forms
the common-denominator numerator, applies the sign shifts x_i -> -x_i, and
performs exact multivariate division, so a nonpolynomial result (which would
signal an implementation error) is detected rather than approximated.

Desk computation shows the literal restriction claim fails on constants
(the N = 1 and N = 2 images of 1 are 2 and 0 against 1 upstairs), while the
average of two consecutive N values matches every computed cell; the
diagnostic therefore records per-cell comparisons and the two-point average
instead of asserting a limit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .kernel import KernelError
from .linalg import operator_matrix
from .symfunc import SymFunc, convert, partitions, to_p


class NonpolynomialResult(KernelError):
    pass


# ---------------------------------------------------------------------------
# dense multivariate polynomials over Q (exponent-tuple keyed)
# ---------------------------------------------------------------------------

def mp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
        if out[e] == 0:
            del out[e]
    return out


def mp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def mp_scale(a, c):
    return {e: x * c for e, x in a.items()} if c != 0 else {}


def mp_const(n, c=Fraction(1)):
    return {tuple([0] * n): Fraction(c)} if c != 0 else {}


def mp_linear(n, i, j, sign_j=-1):
    """x_i + sign_j * x_j."""
    ei = [0] * n
    ei[i] = 1
    ej = [0] * n
    ej[j] = 1
    return {tuple(ei): Fraction(1), tuple(ej): Fraction(sign_j)}


def mp_flip(a, i):
    """Substitute x_i -> -x_i."""
    return {e: (-c if e[i] % 2 == 1 else c) for e, c in a.items()}


def mp_euler(a, i):
    """x_i d/dx_i."""
    return {e: c * e[i] for e, c in a.items() if e[i] != 0}


def mp_div_linear(a, i, j):
    """Exact division by (x_i - x_j); raises NonpolynomialResult on remainder.

    Uses the monomial telescoping (x_i^p x_j^q - x_j^{p+q}) / (x_i - x_j)
    = sum_{u=0}^{p-1} x_i^u x_j^{p+q-1-u}; the collected remainder is the
    substitution x_i -> x_j, which must cancel.
    """
    quot = {}
    rem = {}
    for e, c in a.items():
        p, q = e[i], e[j]
        for u in range(p):
            key = list(e)
            key[i] = u
            key[j] = p + q - 1 - u
            key = tuple(key)
            quot[key] = quot.get(key, Fraction(0)) + c
        rkey = list(e)
        rkey[i] = 0
        rkey[j] = p + q
        rkey = tuple(rkey)
        rem[rkey] = rem.get(rkey, Fraction(0)) + c
    if any(c != 0 for c in rem.values()):
        raise NonpolynomialResult("division by (x_%d - x_%d) leaves a remainder" % (i, j))
    return {e: c for e, c in quot.items() if c != 0}


# ---------------------------------------------------------------------------
# N-variable symmetric polynomials by monomial orbit
# ---------------------------------------------------------------------------

def orbit_to_mp(lam, n):
    """The monomial symmetric polynomial m_lam(x_1..x_n) as an exponent dict."""
    if len(lam) > n:
        return {}
    exps = list(lam) + [0] * (n - len(lam))
    out = {}
    for perm in set(permutations(exps)):
        out[tuple(perm)] = Fraction(1)
    return out


def mp_to_orbits(a, n):
    """Collect a symmetric exponent dict into {partition: coefficient};
    raises if the polynomial is not symmetric."""
    seen = {}
    for e, c in a.items():
        lam = tuple(sorted(e, reverse=True))
        lam = tuple(p for p in lam if p != 0)
        if lam in seen:
            if seen[lam] != c:
                raise KernelError("polynomial is not symmetric")
        else:
            seen[lam] = c
    # verify every orbit member carries the same coefficient
    for lam, c in seen.items():
        for e in orbit_to_mp(lam, n):
            if a.get(e, Fraction(0)) != c:
                raise KernelError("polynomial is not symmetric")
    return seen


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
    import math as _math

    from .symfunc import multiplicities
    from .vertexops import _submultisets  # same enumeration the modes use
    fp = to_p(f)
    out = {}
    for lam, c in fp.terms.items():
        mult = multiplicities(lam)
        for nu in _submultisets(mult):
            # derivative of p_lam by prod_a (d/dp_a)^{nu_a}, then p -> 0
            if sum(nu.values()) != len(lam):
                continue  # a power sum survives and dies under the projection
            weight = Fraction(1)
            for a, m in nu.items():
                fall = 1
                for u in range(m):
                    fall *= (mult[a] - u)
                weight *= Fraction(fall, _math.factorial(m))
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


def _sub_vandermonde(n, skip):
    out = mp_const(n, Fraction(1))
    for a in range(n):
        for b in range(a + 1, n):
            if a == skip or b == skip:
                continue
            out = mp_mul(out, mp_linear(n, a, b, -1))
    return out


def _divide_by_vandermonde(num, n):
    out = num
    for a in range(n):
        for b in range(a + 1, n):
            out = mp_div_linear(out, a, b)
    return out


def c0n_apply(orbits, n):
    """The degree-preserving shift operator at level zero on n variables:

      2 (-1)^{n-1} sum_i prod_{j != i} ( -(x_i + x_j)/(x_i - x_j) ) T_{-1,i}
    """
    f = {}
    for lam, c in orbits.items():
        f = mp_add(f, mp_scale(orbit_to_mp(lam, n), c))
    num = {}
    for i in range(n):
        term = mp_flip(f, i)
        for j in range(n):
            if j != i:
                term = mp_mul(term, mp_scale(mp_linear(n, i, j, +1), Fraction(-1)))
        term = mp_mul(term, _sub_vandermonde(n, i))
        sign = Fraction((-1) ** i)  # V = (-1)^i W_i prod_{j != i} (x_i - x_j)
        num = mp_add(num, mp_scale(term, sign))
    quot = _divide_by_vandermonde(num, n)
    quot = mp_scale(quot, Fraction(2 * (-1) ** (n - 1)))
    return mp_to_orbits(quot, n)


def c1n_apply(orbits, n, gamma):
    """The first-order companion operator:

      (1/2) (-1)^{n-1} sum_i prod_{j != i} ( -(x_i + x_j)/(x_i - x_j) )
            ( D_i + gamma sum_{k != i} x_i/(x_i + x_k) ) T_{-1,i}

    The x_i/(x_i + x_k) factor cancels one (x_i + x_k) of the prefactor, so
    only the Vandermonde denominator remains.
    """
    gamma = Fraction(gamma)
    f = {}
    for lam, c in orbits.items():
        f = mp_add(f, mp_scale(orbit_to_mp(lam, n), c))
    num = {}
    for i in range(n):
        flipped = mp_flip(f, i)
        inner = mp_euler(flipped, i)
        for j in range(n):
            if j != i:
                inner = mp_mul(inner, mp_scale(mp_linear(n, i, j, +1), Fraction(-1)))
        if gamma != 0:
            xi = [0] * n
            xi[i] = 1
            xi = {tuple(xi): Fraction(1)}
            for k in range(n):
                if k == i:
                    continue
                piece = mp_mul(xi, mp_flip(f, i))
                piece = mp_scale(piece, -gamma)  # -x_i from the cancelled factor's sign
                for j in range(n):
                    if j != i and j != k:
                        piece = mp_mul(piece, mp_scale(mp_linear(n, i, j, +1), Fraction(-1)))
                inner = mp_add(inner, piece)
        term = mp_mul(inner, _sub_vandermonde(n, i))
        sign = Fraction((-1) ** i)
        num = mp_add(num, mp_scale(term, sign))
    quot = _divide_by_vandermonde(num, n)
    quot = mp_scale(quot, Fraction((-1) ** (n - 1), 2))
    return mp_to_orbits(quot, n)


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


# ---------------------------------------------------------------------------
# the restriction diagnostic
# ---------------------------------------------------------------------------

def _projected_infinite_image(which, gamma, n):
    """Image function of the infinite-variable mode followed by pr_n, which
    drops every m_mu with more than n parts."""
    from .vertexops import c0_apply, c1_apply

    def image_of(lam):
        f = SymFunc("m", {lam: Fraction(1)})
        image = c0_apply(0, f) if which == "c0" else c1_apply(Fraction(gamma), 0, f)
        return {mu: c for mu, c in convert(image, "m").terms.items() if len(mu) <= n}
    return image_of


def limit_diagnostic(dmax, n_range, which="c0", gamma=Fraction(1)):
    """Compare the n-variable operator with the restriction of the
    infinite-variable mode, per (n, degree) cell, and record the two-point
    average over consecutive n.  Reporting only; nothing is asserted.
    """
    which = which.lower()
    if which not in ("c0", "c1"):
        raise ValueError("which must be c0 or c1")
    n_range = sorted(set(n_range))
    cells = {}
    for n in n_range:
        for degree in range(dmax + 1):
            if which == "c0":
                apply_fn = lambda lam: c0n_apply({lam: Fraction(1)}, n)
                corr_fn = lambda lam: c0n_corrected_apply({lam: Fraction(1)}, n)
            else:
                apply_fn = lambda lam: c1n_apply({lam: Fraction(1)}, n, gamma)
                corr_fn = lambda lam: c1n_corrected_apply({lam: Fraction(1)}, n, gamma)
            cols = [lam for lam in partitions(degree) if len(lam) <= n]
            finite_mat = operator_matrix(apply_fn, cols, cols)
            corrected_mat = operator_matrix(corr_fn, cols, cols)
            proj_mat = operator_matrix(_projected_infinite_image(which, gamma, n), cols, cols)
            cells[(n, degree)] = {
                "partitions": cols,
                "finite": finite_mat,
                "corrected": corrected_mat,
                "projected": proj_mat,
                "literal_match": finite_mat == proj_mat,
                "corrected_match": corrected_mat == proj_mat,
            }
    averages = {}
    for n in n_range:
        if n + 1 not in n_range:
            continue
        for degree in range(dmax + 1):
            a = cells[(n, degree)]
            b = cells[(n + 1, degree)]
            cols = a["partitions"]
            avg = [[(a["finite"][i][j] + _entry(b, cols, i, j)) / 2
                    for j in range(len(cols))] for i in range(len(cols))]
            averages[(n, degree)] = {
                "partitions": cols,
                "average": avg,
                "matches_projected": avg == a["projected"],
            }
    return {"which": which, "gamma": Fraction(gamma), "dmax": dmax,
            "n_range": n_range, "cells": cells, "averages": averages}


def _entry(cell_b, cols_a, i, j):
    """Entry of the larger-n matrix at the partition pair indexed in the
    smaller-n basis (the smaller basis is a prefix-subset of the larger)."""
    cols_b = cell_b["partitions"]
    bi = cols_b.index(cols_a[i])
    bj = cols_b.index(cols_a[j])
    return cell_b["finite"][bi][bj]


def limit_diagnostic_report(dmax, n_range, which="c0", gamma=Fraction(1)):
    """JSON-friendly summary of limit_diagnostic."""
    diag = limit_diagnostic(dmax, n_range, which, gamma)
    out = {
        "which": diag["which"],
        "gamma": str(diag["gamma"]),
        "dmax": dmax,
        "n_range": list(diag["n_range"]),
        "status": "diagnostic",
        "cells": [],
        "averages": [],
    }
    for (n, degree), cell in sorted(diag["cells"].items()):
        out["cells"].append({
            "N": n, "degree": degree,
            "literal_match": cell["literal_match"],
            "corrected_match": cell["corrected_match"],
        })
    for (n, degree), cell in sorted(diag["averages"].items()):
        out["averages"].append({
            "N_pair": [n, n + 1], "degree": degree,
            "matches_projected": cell["matches_projected"],
        })
    return out
