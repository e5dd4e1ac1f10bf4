"""Finite-variable realizations of the graded eigenoperators: the projection
pr_N from symmetric functions to N-variable symmetric polynomials, the
shift-difference operators acting there, and the diagnostic comparing them
with the infinite-variable modes.

The N-variable operators divide by the Vandermonde; the implementation forms
the common-denominator numerator, applies the sign shifts x_i -> -x_i, and
reads the quotient off the numerator's coefficients at the exponents
mu + delta, since an alternating polynomial over the Vandermonde is a sum
of Schur functions.

Desk computation shows the literal restriction claim fails on constants
(the N = 1 and N = 2 images of 1 are 2 and 0 against 1 upstairs), while the
average of two consecutive N values matches every computed cell; the
diagnostic therefore records per-cell comparisons and the two-point average
instead of asserting a limit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import lcm
from operator import add

from .linalg import identity, operator_matrix
from .symfunc import SymFunc, convert, kostka, partitions
from .vertexops import c0_apply, c1_apply


# ---------------------------------------------------------------------------
# dense multivariate polynomials (exponent-tuple keyed)
# ---------------------------------------------------------------------------
#
# Coefficients are Python ints inside the shift operators; every helper
# works for Fractions as well.

def mp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def mp_const(n, c):
    return {tuple([0] * n): c} if c != 0 else {}


def _mp_linear(n, i, j, ci, cj):
    """ci x_i + cj x_j."""
    ei = [0] * n
    ei[i] = 1
    ej = [0] * n
    ej[j] = 1
    return {tuple(ei): ci, tuple(ej): cj}


def mp_flip(a, i):
    """Substitute x_i -> -x_i."""
    return {e: (-c if e[i] % 2 == 1 else c) for e, c in a.items()}


def mp_euler(a, i):
    """x_i d/dx_i."""
    return {e: c * e[i] for e, c in a.items() if e[i] != 0}


def _mp_accumulate(out, a, c=1):
    """out += c * a, in place."""
    for e, x in a.items():
        out[e] = out.get(e, 0) + c * x


# ---------------------------------------------------------------------------
# N-variable symmetric polynomials by monomial orbit
# ---------------------------------------------------------------------------

def orbit_to_mp(lam, n):
    """The monomial symmetric polynomial m_lam(x_1..x_n) as an exponent dict."""
    if len(lam) > n:
        return {}
    exps = list(lam) + [0] * (n - len(lam))
    return {perm: 1 for perm in set(permutations(exps))}


# ---------------------------------------------------------------------------
# the n-variable shift operators
# ---------------------------------------------------------------------------
#
# Over the common denominator V = prod_{a<b} (x_a - x_b) the i = 0 summand of
# either operator is a product of flip_0(f), or of its derivatives in x_0,
# with the kernel K = W P: here W = V / prod_{j >= 1} (x_0 - x_j) is the
# Vandermonde of x_1..x_{n-1} and P = prod_{j >= 1} -(x_0 + x_j).  Since f is
# symmetric and V alternating, the i-th summand is minus the 0th with x_0 and
# x_i swapped.  So K is built once per n, each image costs one product per
# part, and the numerator keeps integer coefficients until the orbits are
# read off; the rational scale is applied last.

@lru_cache(maxsize=None)
def _kernel(n):
    """prod_{j >= 1} -(x_0 + x_j) * prod_{1 <= a < b < n} (x_a - x_b)."""
    out = mp_const(n, 1)
    for j in range(1, n):
        out = mp_mul(out, _mp_linear(n, 0, j, -1, -1))
    for a in range(1, n):
        for b in range(a + 1, n):
            out = mp_mul(out, _mp_linear(n, a, b, 1, -1))
    return out


def _integer_poly(orbits, n):
    """(den * sum_lam c_lam m_lam(x_1..x_n), den) with den the least common
    denominator of the coefficients, so the polynomial has int coefficients."""
    den = lcm(*(Fraction(c).denominator for c in orbits.values()))
    f = {}
    for lam, c in orbits.items():
        _mp_accumulate(f, orbit_to_mp(lam, n), int(Fraction(c) * den))
    return f, den


def _collect(first, n, scale):
    """Orbits of scale * num / V, where num = first - sum_{i >= 1}
    swap_{0i}(first) is the numerator whose i = 0 summand is ``first``.

    A permutation of the variables permutes the operator's summands, so its
    image is symmetric and num, V times it, alternates.  An alternating
    polynomial is sum_mu a_mu a_{mu+delta}, delta = (n-1, ..., 0), with a_mu
    its coefficient at x^{mu+delta}.  Then num / V = sum_mu a_mu s_mu, and
    s_mu = sum_nu K_{mu nu} m_nu (Macdonald, I.3 and I.6), so no division is
    made; mu runs over the partitions of each degree first carries with at
    most n parts, and m_nu vanishes in n variables unless l(nu) <= n."""
    shift = n * (n - 1) // 2
    out = {}
    for degree in {sum(e) - shift for e in first}:
        shapes = [mu for mu in partitions(degree) if len(mu) <= n]
        for mu in shapes:
            e = [p + n - 1 - k for k, p in enumerate(mu + (0,) * (n - len(mu)))]
            a = first.get(tuple(e), 0)
            for i in range(1, n):
                e[0], e[i] = e[i], e[0]
                a -= first.get(tuple(e), 0)
                e[0], e[i] = e[i], e[0]
            if a:
                for nu in shapes:
                    out[nu] = out.get(nu, 0) + a * kostka(mu, nu)
    return {nu: c * scale for nu, c in out.items() if c}


def c0n_apply(orbits, n):
    """The degree-preserving shift operator at level zero on n variables:

      2 (-1)^{n-1} sum_i prod_{j != i} ( -(x_i + x_j)/(x_i - x_j) ) T_{-1,i}
    """
    if n == 0:
        return {}  # an empty sum
    f, den = _integer_poly(orbits, n)
    first = mp_mul(mp_flip(f, 0), _kernel(n))
    return _collect(first, n, Fraction(2 * (-1) ** (n - 1), den))


def c1n_apply(orbits, n, gamma):
    """The first-order companion operator:

      (1/2) (-1)^{n-1} sum_i prod_{j != i} ( -(x_i + x_j)/(x_i - x_j) )
            ( D_i + gamma sum_{k != i} x_i/(x_i + x_k) ) T_{-1,i}

    The x_i/(x_i + x_k) factor cancels one (x_i + x_k) of the prefactor, so
    only the Vandermonde denominator remains, and the gamma part of the
    numerator is  T_{-1,i} f  times  D_i  of the prefactor, D_i = x_i d/dx_i.
    With gamma = p/q the integer numerator is q (Euler part) + p (gamma part).
    """
    if n == 0:
        return {}  # an empty sum
    gamma = Fraction(gamma)
    f, den = _integer_poly(orbits, n)
    flipped = mp_flip(f, 0)
    first = {}
    _mp_accumulate(first, mp_mul(mp_euler(flipped, 0), _kernel(n)), gamma.denominator)
    if gamma != 0:
        _mp_accumulate(first, mp_mul(flipped, mp_euler(_kernel(n), 0)), gamma.numerator)
    return _collect(first, n, Fraction((-1) ** (n - 1), 2 * den * gamma.denominator))


# ---------------------------------------------------------------------------
# the restriction diagnostic
# ---------------------------------------------------------------------------

def _projected_infinite_image(which, gamma, n):
    """Image function of the infinite-variable mode followed by pr_n, which
    drops every m_mu with more than n parts."""
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
    gamma = Fraction(gamma)
    n_range = sorted(set(n_range))
    cells = {}
    for n in n_range:
        for degree in range(dmax + 1):
            cols = [lam for lam in partitions(degree) if len(lam) <= n]
            c0_mat = operator_matrix(lambda lam: c0n_apply({lam: Fraction(1)}, n), cols, cols)
            eye = identity(len(cols))
            # the restriction-compatible operators C0_(n) + (-1)^n and
            # 4 C1_(n) + gamma (1-2n)/2 C0_(n) - (-1)^n n gamma, the extra
            # scalars forced by matching eigenvalues through the n-variable
            # shift-operator dictionary; combined from matrices already built
            if which == "c0":
                finite_mat = c0_mat
                corrected_mat = _combine((1, c0_mat), ((-1) ** n, eye))
            else:
                finite_mat = operator_matrix(
                    lambda lam: c1n_apply({lam: Fraction(1)}, n, gamma), cols, cols)
                corrected_mat = _combine((4, finite_mat),
                                         (gamma * Fraction(1 - 2 * n, 2), c0_mat),
                                         (-(-1) ** n * n * gamma, eye))
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
    return {"which": which, "gamma": gamma, "dmax": dmax,
            "n_range": n_range, "cells": cells, "averages": averages}


def _combine(*terms):
    """sum of c * M over the (c, M) pairs, entrywise."""
    size = len(terms[0][1])
    return [[sum(c * mat[i][j] for c, mat in terms) for j in range(size)]
            for i in range(size)]


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
