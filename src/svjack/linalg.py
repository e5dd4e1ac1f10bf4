"""Exact dense linear algebra over the kernel scalar fields.

Elimination follows the Bareiss fraction-free recurrence on integers.  A
matrix over Q or Q(t) has each row's denominators cleared in one step, by
the product of the rational-function ones (of each distinct one once, for
the determinant) and then the lcm of the integer ones, so its entries lie
in Z or in Z[t] (integer polynomial tuples, as in the kernel) without any
RatFun arithmetic on the way.  There every intermediate entry is a minor
of the row-permuted integer matrix, and Sylvester's identity makes each
division by the previous pivot exact: a quotient, not a gcd, so an inexact
one can only be a bug and raises ``KernelError``.  Each pivot is the
smallest nonzero entry left in its column, so no early pivot of high
degree inflates every minor after it.  The echelon rows are lifted back to
Fractions or canonical RatFuns, and the nullspace and the determinant are
read from them.  Matrices are plain lists of rows; all routines leave
their inputs untouched.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import (KernelError, Poly, RatFun, VerificationFailure, _ratfun, _zz_combine,
                     _zz_exact_quotient, _zz_mul, _zz_primitive, is_zero)


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


def _zz_size(p):
    """The pivot size of a nonzero integer polynomial: its length, then the
    bit length of its largest coefficient."""
    return len(p), max(max(p), -min(p)).bit_length()


def _denominator(row, distinct=False):
    """The product of the denominators of the RatFun entries of ``row``, an
    integer polynomial; with ``distinct``, of each distinct denominator
    once."""
    dens = [x.D for x in row if isinstance(x, RatFun)]
    den = (1,)
    for d in set(dens) if distinct else dens:
        den = _zz_mul(den, d)
    return den


def _integer_rows(mat, distinct=False):
    """(var, integer rows, scales): each row of ``mat`` in Z or Z[t], times
    D = ``_denominator(row, distinct)`` and then the lcm of the rational
    denominators left, that lcm in ``scales``.

    A RatFun entry c N / d becomes c N (D / d) and a rational entry x becomes
    x D, so no RatFun arithmetic is done.  Scaling a row by a nonzero factor
    changes neither the kernel nor the rank.  The entries are ints when var,
    the variable of the RatFun entries, is None and integer polynomial tuples
    otherwise.  A row whose length is not row 0's, RatFuns in two variables,
    or an entry that is not an int, a Fraction or a RatFun, raise
    KernelError.
    """
    var, cols = None, len(mat[0]) if mat else 0
    for i, row in enumerate(mat):
        if len(row) != cols:
            raise KernelError("ragged matrix: row %d has %d entries where row 0 has %d"
                              % (i, len(row), cols))
        for x in row:
            if isinstance(x, RatFun):
                if var is not None and x.var != var:
                    raise KernelError("rational functions in %r and %r cannot be "
                                      "combined" % (var, x.var))
                var = x.var
            elif not isinstance(x, (int, Fraction)):
                raise KernelError("no exact elimination over %r" % (x,))
    out, scales = [], []
    for row in mat:
        den = _denominator(row, distinct)
        # each entry as a rational content times an integer polynomial
        split = [(x.c, _zz_mul(x.N, den if x.D == (1,) else _zz_exact_quotient(den, x.D)))
                 if isinstance(x, RatFun) else (Fraction(x), den) for x in row]
        s = math.lcm(*(c.denominator for c, _ in split))
        ks = [c.numerator * (s // c.denominator) for c, _ in split]
        if var is not None:
            ks = [tuple(k * a for a in p) if k else () for k, (_, p) in zip(ks, split)]
        out.append(ks)
        scales.append(s)
    return var, out, scales


def _lift(var, x, p):
    """x / p for an int or integer polynomial x and a positive int p, as a
    Fraction or a canonical RatFun in var."""
    if var is None:
        return Fraction(x, p)
    if not x:
        return _ratfun(var, Fraction(0), (), (1,))
    k, prim = _zz_primitive(x)
    return _ratfun(var, Fraction(k, p), prim, (1,))


def bareiss_echelon(mat, distinct=False):
    """Fraction-free forward elimination of the rows of ``mat``.

    The one Bareiss loop runs on the integer rows of
    ``_integer_rows(mat, distinct)``, in Z or Z[t], where every division by
    the previous pivot is exact (Sylvester's identity), so an inexact one
    raises KernelError.  The pivot of column c is the smallest nonzero entry
    among rows r.. (bit length in Z; length, then the bit length of the
    largest coefficient, in Z[t]), the earliest of equal ones; each swap
    flips the sign.  Echelon row r is then the row cleared of its RatFun
    denominators times P_r, the product of the integer scales of the rows at
    positions 0..r, and it is lifted back divided by P_r.  The pivot columns
    do not depend on the order of the rows, so they are those of any
    elimination over Q or Q(t); the sign and the echelon form are those of
    the same elimination over the fields with the same pivot rule.

    Returns (echelon matrix, pivot column list, row permutation sign).
    """
    var, m, scales = _integer_rows(mat, distinct)
    if not m:
        return [], [], 1
    if var is None:
        zero, prev, step, size = 0, 1, _int_step, int.bit_length
    else:
        zero, prev, step, size = (), (1,), _zz_step, _zz_size
    rows, cols = len(m), len(m[0])
    piv_cols = []
    r = 0
    sign = 1
    for c in range(cols):
        pivot_row = min((i for i in range(r, rows) if m[i][c]),
                        key=lambda i: size(m[i][c]), default=None)
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
    determinant of the row-swapped matrix with each row cleared of its
    distinct RatFun denominators, divided by their product and signed by the
    swaps.  A singular matrix gives the zero of the field the pivots are
    lifted to, from its last echelon row, which lies past the rank."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in mat):
        raise KernelError("determinant of a non-square matrix")
    ech, piv_cols, sign = bareiss_echelon(mat, distinct=True)
    d = ech[n - 1][n - 1]
    if len(piv_cols) < n:
        return d
    den = (1,)
    for row in mat:
        den = _zz_mul(den, _denominator(row, distinct=True))
    if den != (1,):
        d = d / _ratfun(d.var, Fraction(1), den, (1,))
    return -d if sign < 0 else d


def nullspace(mat):
    """Exact basis of the right kernel of a rectangular matrix.

    Returns a list of column vectors (lists); empty when the kernel is 0,
    as for a matrix with no columns.  The entries lie in the field the
    echelon rows are lifted to, Q or Q(t), whatever types the matrix mixes.
    """
    if not mat:
        return []
    cols = len(mat[0])
    ech, piv_cols, _ = bareiss_echelon(mat)
    free_cols = [c for c in range(cols) if c not in piv_cols]
    if not free_cols:
        return []
    basis = []
    zero = ech[0][0] * 0
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
