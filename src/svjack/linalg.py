"""Exact dense linear algebra over the kernel scalar fields.

Elimination follows the Bareiss fraction-free recurrence on integers.  A
matrix over Q or Q(t) has each row's denominators cleared, first the
rational-function ones and then the integer ones, so its entries lie in Z
or in Z[t] (integer polynomial tuples, as in the kernel).  There every
intermediate entry is a minor of that integer matrix, and Sylvester's
identity makes each division by the previous pivot exact: a quotient, not
a gcd, so an inexact one can only be a bug and raises ``KernelError``.
The echelon rows are lifted back to Fractions or canonical RatFuns, and
the nullspace and the determinant are read from them.  Matrices are plain
lists of rows; all routines leave their inputs untouched.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import (KernelError, Poly, RatFun, VerificationFailure, _ratfun, _zz_combine,
                     _zz_exact_quotient, _zz_mul, _zz_primitive, is_zero)


def _clear_denominators(mat):
    """(var, rows, scales): the rows of ``mat``, each multiplied by the
    product of the denominators of its RatFun entries, and the list of those
    products (rows whose entries are all polynomials already are copied
    unscaled); var is the variable of the RatFun entries, None if there are
    none.

    Scaling a row by a nonzero factor changes neither the kernel nor the
    rank, and clearing the denominators makes the Bareiss divisions exact on
    the polynomial level.  Rows may mix plain rationals with rational
    functions; RatFuns in two variables, or an entry that is not an int, a
    Fraction or a RatFun, raise KernelError.
    """
    var = None
    for row in mat:
        for x in row:
            if isinstance(x, RatFun):
                if var is not None and x.var != var:
                    raise KernelError("rational functions in %r and %r cannot be "
                                      "combined" % (var, x.var))
                var = x.var
            elif not isinstance(x, (int, Fraction)):
                raise KernelError("no exact elimination over %r" % (x,))
    rows, scales = [], []
    for row in mat:
        scale = None
        for x in row:
            d = x.denominator() if isinstance(x, RatFun) else 1
            if d != 1:
                scale = d if scale is None else scale * d
        if scale is None:
            rows.append(list(row))
        else:
            rows.append([x * scale for x in row])
            scales.append(scale)
    return var, rows, scales


def _int_step(x, piv, a, y, prev):
    """(x piv - a y) / prev in Z."""
    q, r = divmod(x * piv - a * y, prev)
    if r:
        raise KernelError("inexact Bareiss division")
    return q


def _zz_step(x, piv, a, y, prev):
    """(x piv - a y) / prev in Z[t], on integer polynomial tuples."""
    num = _zz_mul(x, piv) if x else ()
    if a and y:
        num = _zz_combine(1, num, -1, _zz_mul(a, y))
    if not num or prev == (1,):
        return num
    q = _zz_exact_quotient(num, prev)
    if q is None:
        raise KernelError("inexact Bareiss division")
    return q


def _integer_rows(var, rows):
    """(integer rows, scales): each row of ``rows`` times the lcm of its
    entries' rational denominators, that lcm in ``scales``.  The entries are
    ints when var is None and integer polynomial tuples otherwise; RatFun
    entries must be polynomials, as ``_clear_denominators`` leaves them.
    """
    out, scales = [], []
    for row in rows:
        # each entry as a rational content times an integer polynomial
        split = [(x.c, x.N) if isinstance(x, RatFun) else (Fraction(x), (1,))
                 for x in row]
        s = math.lcm(*(c.denominator for c, _ in split))
        ks = [c.numerator * (s // c.denominator) for c, _ in split]
        if var is not None:
            ks = [tuple(k * a for a in p) if k else () for k, (_, p) in zip(ks, split)]
        out.append(ks)
        scales.append(s)
    return out, scales


def _lift(var, x, p):
    """x / p for an int or integer polynomial x and a positive int p, as a
    Fraction or a canonical RatFun in var."""
    if var is None:
        return Fraction(x, p)
    if not x:
        return _ratfun(var, Fraction(0), (), (1,))
    k, prim = _zz_primitive(x)
    return _ratfun(var, Fraction(k, p), prim, (1,))


def bareiss_echelon(mat):
    """Fraction-free forward elimination of the rows scaled by
    ``_clear_denominators``.

    The one Bareiss loop runs on the integer rows of ``_integer_rows``, in Z
    or Z[t], where every division by the previous pivot is exact (Sylvester's
    identity), so an inexact one raises KernelError.  Echelon row r is then
    the cleared row times P_r, the product of the integer scales of the rows
    at positions 0..r, and it is lifted back divided by P_r.  Pivots are
    chosen by zero tests alone, so the pivots, the sign and the echelon form
    are those of the same elimination over Q or Q(t).

    Returns (echelon matrix, pivot column list, row permutation sign).
    """
    var, cleared, _ = _clear_denominators(mat)
    if not cleared:
        return cleared, [], 1
    m, scales = _integer_rows(var, cleared)
    zero, prev, step = (0, 1, _int_step) if var is None else ((), (1,), _zz_step)
    rows, cols = len(m), len(m[0])
    piv_cols = []
    r = 0
    sign = 1
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
            sign = -sign
        top = m[r]
        piv = top[c]
        for row in m[r + 1:]:
            a = row[c]
            for j in range(c + 1, cols):
                x, y = row[j], top[j]
                if x or (a and y):
                    row[j] = step(x, piv, a, y, prev)
            row[c] = zero
        prev = piv
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    ech, p = [], 1
    for row, s in zip(m, scales):
        p *= s  # past the rank the rows are zero, whatever p is
        ech.append([_lift(var, x, p) for x in row])
    return ech, piv_cols, sign


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
    _, rows, scales = _clear_denominators(mat)
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


def operator_matrix(image_of, cols, rows, zero=Fraction(0)):
    """Row-major matrix of a linear operator between two finite bases.

    Column j holds the coordinates of ``image_of(cols[j])``, a mapping from
    row keys to coefficients; absent keys are ``zero``, which names the
    field of an all-zero matrix.  Raises KernelError when an image has a
    key outside ``rows``.
    """
    index = {key: i for i, key in enumerate(rows)}
    mat = [[zero] * len(cols) for _ in rows]
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
