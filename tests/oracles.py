"""Independent brute-force evaluators used as oracles by the test suite.

The production code extracts vertex-operator modes by enumerating
creation/derivative partition pairs.  Here the same operators are built a
completely different way: multiplication by p_a and d/dp_a are materialized
as dense matrices on the full graded space of degree <= D, the exponentials
are summed as (nilpotent) matrix series, and the mode is read off from the
degree-shift block structure.  Agreement between the two routes validates
both.
"""

from fractions import Fraction
from itertools import permutations

from svjack.finiten import mp_div_linear
from svjack.symfunc import SymFunc, partitions, to_p


def graded_basis(dmax):
    basis = []
    for d in range(dmax + 1):
        basis.extend(partitions(d))
    return basis


def _mult_matrix(a, basis, index):
    """Matrix of multiplication by p_a on the degree-truncated space."""
    n = len(basis)
    m = [[Fraction(0)] * n for _ in range(n)]
    for j, lam in enumerate(basis):
        mu = tuple(sorted(lam + (a,), reverse=True))
        if mu in index:
            m[index[mu]][j] = Fraction(1)
    return m


def _deriv_matrix(a, basis, index):
    n = len(basis)
    m = [[Fraction(0)] * n for _ in range(n)]
    for j, lam in enumerate(basis):
        k = lam.count(a)
        if k:
            mu = list(lam)
            mu.remove(a)
            m[index[tuple(mu)]][j] = Fraction(k)
    return m


def _matmul(a, b):
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k] == 0:
                continue
            aik = a[i][k]
            for j in range(n):
                if b[k][j] != 0:
                    out[i][j] = out[i][j] + aik * b[k][j]
    return out


def _madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mscale(a, c):
    return [[x * c for x in row] for row in a]


def _mexp(a, nilpotency):
    """exp of a graded (nilpotent on the truncation) matrix by plain series."""
    n = len(a)
    out = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    term = [row[:] for row in out]
    for k in range(1, nilpotency + 1):
        term = _mscale(_matmul(term, a), Fraction(1, k))
        out = _madd(out, term)
        if all(all(x == 0 for x in row) for row in term):
            break
    return out


def vertex_mode_matrix(creation, annihilation, n, dmax):
    """Dense oracle for [z^{-n}] exp(sum creation(a) p_a z^a) exp(sum annihilation(b) dp_b z^{-b}).

    Because every series term carries z-power equal to its degree shift, the
    mode-n operator is exactly the "shift by -n" block of exp(C) exp(A).
    Returns a dict (row partition, col partition) -> coefficient.
    """
    basis = graded_basis(dmax)
    index = {lam: i for i, lam in enumerate(basis)}
    nmat = len(basis)
    cmat = [[Fraction(0)] * nmat for _ in range(nmat)]
    amat = [[Fraction(0)] * nmat for _ in range(nmat)]
    for a in range(1, dmax + 1):
        ca = creation(a)
        if ca is not None and ca != 0:
            cmat = _madd(cmat, _mscale(_mult_matrix(a, basis, index), ca))
        da = annihilation(a)
        if da is not None and da != 0:
            amat = _madd(amat, _mscale(_deriv_matrix(a, basis, index), da))
    full = _matmul(_mexp(cmat, dmax), _mexp(amat, dmax))
    out = {}
    for i, mu in enumerate(basis):
        for j, lam in enumerate(basis):
            if full[i][j] != 0 and sum(mu) == sum(lam) - n:
                out[(mu, lam)] = full[i][j]
    return out


def vertex_mode_apply_oracle(creation, annihilation, n, f, dmax):
    fp = to_p(f)
    table = vertex_mode_matrix(creation, annihilation, n, dmax)
    out = {}
    for (mu, lam), c in table.items():
        if lam in fp.terms:
            out[mu] = out.get(mu, Fraction(0)) + c * fp.terms[lam]
    return SymFunc("p", out)


# ---------------------------------------------------------------------------
# finite-variable shift operators, rebuilt per basis vector over Fraction
# ---------------------------------------------------------------------------
#
# These are the direct implementations the production operators replaced:
# every factor of every summand is rebuilt for each input, all arithmetic is
# in Fraction, and symmetry is checked by enumerating every orbit member.

def _mp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
        if out[e] == 0:
            del out[e]
    return out


def _mp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _mp_scale(a, c):
    return {e: x * c for e, x in a.items()} if c != 0 else {}


def _mp_linear(n, i, j, sign_j=-1):
    """x_i + sign_j * x_j."""
    ei = [0] * n
    ei[i] = 1
    ej = [0] * n
    ej[j] = 1
    return {tuple(ei): Fraction(1), tuple(ej): Fraction(sign_j)}


def _mp_flip(a, i):
    return {e: (-c if e[i] % 2 == 1 else c) for e, c in a.items()}


def _mp_euler(a, i):
    return {e: c * e[i] for e, c in a.items() if e[i] != 0}


def _orbit_to_mp(lam, n):
    if len(lam) > n:
        return {}
    exps = list(lam) + [0] * (n - len(lam))
    return {perm: Fraction(1) for perm in set(permutations(exps))}


def _mp_to_orbits(a, n):
    seen = {}
    for e, c in a.items():
        lam = tuple(p for p in sorted(e, reverse=True) if p != 0)
        if seen.setdefault(lam, c) != c:
            raise AssertionError("polynomial is not symmetric")
    for lam, c in seen.items():
        for e in _orbit_to_mp(lam, n):
            if a.get(e, Fraction(0)) != c:
                raise AssertionError("polynomial is not symmetric")
    return seen


def _sub_vandermonde(n, skip):
    out = {tuple([0] * n): Fraction(1)}
    for a in range(n):
        for b in range(a + 1, n):
            if a == skip or b == skip:
                continue
            out = _mp_mul(out, _mp_linear(n, a, b, -1))
    return out


def _divide_by_vandermonde(num, n):
    out = num
    for a in range(n):
        for b in range(a + 1, n):
            out = mp_div_linear(out, a, b)
    return out


def _orbits_to_mp(orbits, n):
    f = {}
    for lam, c in orbits.items():
        f = _mp_add(f, _mp_scale(_orbit_to_mp(lam, n), c))
    return f


def c0n_apply_oracle(orbits, n):
    """2 (-1)^{n-1} sum_i prod_{j != i} ( -(x_i + x_j)/(x_i - x_j) ) T_{-1,i}."""
    f = _orbits_to_mp(orbits, n)
    num = {}
    for i in range(n):
        term = _mp_flip(f, i)
        for j in range(n):
            if j != i:
                term = _mp_mul(term, _mp_scale(_mp_linear(n, i, j, +1), Fraction(-1)))
        term = _mp_mul(term, _sub_vandermonde(n, i))
        num = _mp_add(num, _mp_scale(term, Fraction((-1) ** i)))
    quot = _mp_scale(_divide_by_vandermonde(num, n), Fraction(2 * (-1) ** (n - 1)))
    return _mp_to_orbits(quot, n)


def c1n_apply_oracle(orbits, n, gamma):
    """(1/2) (-1)^{n-1} sum_i prod_{j != i} ( -(x_i + x_j)/(x_i - x_j) )
    ( D_i + gamma sum_{k != i} x_i/(x_i + x_k) ) T_{-1,i}."""
    gamma = Fraction(gamma)
    f = _orbits_to_mp(orbits, n)
    num = {}
    for i in range(n):
        inner = _mp_euler(_mp_flip(f, i), i)
        for j in range(n):
            if j != i:
                inner = _mp_mul(inner, _mp_scale(_mp_linear(n, i, j, +1), Fraction(-1)))
        if gamma != 0:
            xi = [0] * n
            xi[i] = 1
            xi = {tuple(xi): Fraction(1)}
            for k in range(n):
                if k == i:
                    continue
                piece = _mp_scale(_mp_mul(xi, _mp_flip(f, i)), -gamma)
                for j in range(n):
                    if j != i and j != k:
                        piece = _mp_mul(piece, _mp_scale(_mp_linear(n, i, j, +1), Fraction(-1)))
                inner = _mp_add(inner, piece)
        term = _mp_mul(inner, _sub_vandermonde(n, i))
        num = _mp_add(num, _mp_scale(term, Fraction((-1) ** i)))
    quot = _mp_scale(_divide_by_vandermonde(num, n), Fraction((-1) ** (n - 1), 2))
    return _mp_to_orbits(quot, n)
