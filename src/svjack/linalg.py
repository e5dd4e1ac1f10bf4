"""Exact dense linear algebra over the kernel scalar fields.

Elimination follows the Bareiss fraction-free recurrence, which keeps
intermediate entries equal to minors of the original matrix, so divisions
are exact and coefficient growth stays polynomial for matrices whose
entries are polynomials or rational functions.  Matrices are plain lists
of rows; all routines leave their inputs untouched.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import KernelError, Poly, RatFun, VerificationFailure, is_zero


def _clear_denominators(mat):
    """The rows of ``mat``, each multiplied by the product of the
    denominators of its RatFun entries, and the list of those products
    (rows whose entries are all polynomials already are copied unscaled).

    Scaling a row by a nonzero factor changes neither the kernel nor the
    rank, and clearing the denominators makes the Bareiss divisions exact on
    the polynomial level.  Rows may mix plain rationals with rational
    functions.
    """
    rows, scales = [], []
    for row in mat:
        scale = None
        for x in row:
            if isinstance(x, RatFun) and x.denom.degree() > 0:
                d = RatFun(x.var, x.denom, None, _canonical=True)
                scale = d if scale is None else scale * d
        if scale is None:
            rows.append(list(row))
        else:
            rows.append([x * scale for x in row])
            scales.append(scale)
    return rows, scales


def bareiss_echelon(mat):
    """Fraction-free forward elimination of the rows scaled by
    ``_clear_denominators``.

    Returns (echelon matrix, pivot column list, row permutation sign).
    """
    m, _ = _clear_denominators(mat)
    if not m:
        return m, [], 1
    rows, cols = len(m), len(m[0])
    piv_cols = []
    prev = 1
    r = 0
    sign = 1
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if not is_zero(m[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
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
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return m, piv_cols, sign


def det(mat):
    """Determinant of a square matrix: the last Bareiss pivot, which is the
    determinant of the row-swapped and row-scaled matrix, divided by the
    row scales and signed by the swaps."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in mat):
        raise KernelError("determinant of a non-square matrix")
    # the cleared rows have no denominators left, so bareiss_echelon
    # copies them unscaled
    rows, scales = _clear_denominators(mat)
    ech, piv_cols, sign = bareiss_echelon(rows)
    if len(piv_cols) < n:
        return mat[0][0] * 0
    d = ech[n - 1][n - 1]
    if scales:
        d = d / math.prod(scales)
    return -d if sign < 0 else d


def nullspace(mat):
    """Exact basis of the right kernel of a rectangular matrix.

    Returns a list of column vectors (lists); empty when the kernel is 0.
    """
    if not mat:
        return []
    cols = len(mat[0])
    ech, piv_cols, _ = bareiss_echelon(mat)
    free_cols = [c for c in range(cols) if c not in piv_cols]
    basis = []
    zero = mat[0][0] * 0
    one = zero + 1
    for fc in free_cols:
        v = [zero] * cols
        v[fc] = one
        # back-substitute over the pivot rows, bottom-up
        for r in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[r]
            acc = zero
            for j in range(pc + 1, cols):
                if not is_zero(v[j]):
                    acc = acc + ech[r][j] * v[j]
            v[pc] = -acc / ech[r][pc]
        basis.append(v)
    return basis


def operator_matrix(image_of, cols, rows):
    """Row-major matrix of a linear operator between two finite bases.

    Column j holds the coordinates of ``image_of(cols[j])``, a mapping from
    row keys to coefficients; absent keys are Fraction(0).  Raises
    KernelError when an image has a key outside ``rows``.
    """
    index = {key: i for i, key in enumerate(rows)}
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for j, key in enumerate(cols):
        for mu, c in image_of(key).items():
            if mu not in index:
                raise KernelError("operator image leaves the row basis at %r" % (mu,))
            mat[index[mu]][j] = c
    return mat


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def poly_interpolate(points, degree_bound, var="h"):
    """Unique polynomial of degree <= degree_bound through the given points.

    ``points`` is a list of (x, y) with rational abscissas x and values y in
    any kernel field.  Extra points beyond degree_bound + 1 must agree with
    the interpolant, otherwise VerificationFailure is raised.  Newton's divided
    differences keep the computation exact.
    """
    xs = [Fraction(p[0]) for p in points]
    if len(set(xs)) != len(xs):
        raise KernelError("repeated abscissa in interpolation data")
    if len(points) < degree_bound + 1:
        raise KernelError("need at least degree_bound + 1 points")
    base = points[: degree_bound + 1]
    bxs = xs[: degree_bound + 1]
    coefs = [p[1] for p in base]
    # divided-difference table, in place
    for level in range(1, len(base)):
        for i in range(len(base) - 1, level - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (bxs[i] - bxs[i - level])
    poly = Poly.const(var, coefs[-1])
    for i in range(len(base) - 2, -1, -1):
        poly = poly * (Poly.x(var) - Poly.const(var, bxs[i])) + Poly.const(var, coefs[i])
    for x, y in points[degree_bound + 1:]:
        if not is_zero(poly(Fraction(x)) - y):
            raise VerificationFailure("extra interpolation point disagrees")
    return poly
