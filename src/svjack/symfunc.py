"""Partitions, dominance order, and symmetric functions in the power-sum,
monomial and elementary bases with exact basis transitions.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  The canonical ordering used for
matrices and serialization is by degree, then reverse-lexicographic
(largest first within a degree), which refines dominance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product

from .kernel import is_zero, scalar_to_json


def check_partition(lam):
    lam = tuple(int(p) for p in lam)
    if any(p < 1 for p in lam):
        raise ValueError("partition parts must be positive: %r" % (lam,))
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("partition parts must be weakly decreasing: %r" % (lam,))
    return lam


@lru_cache(maxsize=None)
def partitions(n):
    """All partitions of n, reverse-lexicographically (largest part first)."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return tuple(out)


def multiplicities(lam):
    mult = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    return mult


def z_lambda(lam):
    """The symmetrizer order prod_i i^{m_i} m_i! with m_i the multiplicity of i."""
    z = 1
    for part, m in multiplicities(lam).items():
        z *= part ** m
        for j in range(1, m + 1):
            z *= j
    return Fraction(z)


def dominance_leq(mu, lam):
    """True iff mu <= lam in dominance (partial sums); False across degrees."""
    if sum(mu) != sum(lam):
        return False
    acc_mu = 0
    acc_lam = 0
    for k in range(max(len(mu), len(lam))):
        acc_mu += mu[k] if k < len(mu) else 0
        acc_lam += lam[k] if k < len(lam) else 0
        if acc_mu > acc_lam:
            return False
    return True


@lru_cache(maxsize=None)
def kostka(mu, nu):
    """The Kostka number K_{mu nu}, the m_nu coefficient of the Schur
    function s_mu: the number of semistandard tableaux of shape mu and
    content nu.  The boxes holding the largest entry, len(nu), form a
    horizontal strip mu / lam of nu[-1] boxes, lam_i in [mu_{i+1}, mu_i],
    so K_{mu nu} = sum over those lam of K_{lam, nu[:-1]} (Macdonald, I.6)."""
    if not nu:
        return int(not mu)
    if sum(mu) != sum(nu):
        return 0
    total = 0
    for lam in product(*(range(low, part + 1) for part, low in zip(mu, mu[1:] + (0,)))):
        if sum(lam) == sum(mu) - nu[-1]:
            total += kostka(tuple(p for p in lam if p), nu[:-1])
    return total


def merge_partitions(a, b):
    return tuple(sorted(a + b, reverse=True))


BASES = ("p", "m", "e")


class SymFunc:
    """A symmetric function: basis tag plus a sparse partition -> coefficient map.

    Zero coefficients are never stored.  Coefficients may live in any kernel
    field; basic arithmetic and basis conversion are coefficient-agnostic.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        clean = {}
        for lam, c in terms.items():
            if not is_zero(c):
                clean[tuple(lam)] = c
        self.basis = basis
        self.terms = clean

    @classmethod
    def one(cls, basis="p"):
        return cls(basis, {(): Fraction(1)})

    @classmethod
    def gen(cls, basis, lam, coeff=Fraction(1)):
        return cls(basis, {check_partition(lam): coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("SymFunc is unhashable")

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if other.basis != self.basis:
            other = convert(other, self.basis)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out[lam] + c if lam in out else c
        return SymFunc(self.basis, out)

    def __neg__(self):
        return SymFunc(self.basis, {lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        return SymFunc(self.basis, {lam: v * c for lam, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam in sorted(self.terms, key=canonical_key):
            bits.append("%r*%s%s" % (self.terms[lam], self.basis, list(lam)))
        return " + ".join(bits)


def canonical_key(lam):
    """Sort key: by degree, then reverse-lexicographic (larger parts first)."""
    return (sum(lam), tuple(-p for p in lam))


def sorted_partitions(terms):
    return sorted(terms, key=canonical_key)


# ---------------------------------------------------------------------------
# basis transitions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _p_to_m_row(lam):
    """m-expansion of p_lam as a dict partition -> int: multiplying by p_r
    adds r to a part of each m_mu or appends it, and the coefficient of the
    m_nu reached is the multiplicity in nu of the part that was made."""
    out = {(): 1}
    for r in lam:
        nxt = {}
        for mu, c in out.items():
            # new part r
            nu = merge_partitions(mu, (r,))
            nxt[nu] = nxt.get(nu, 0) + c * nu.count(r)
            # add r to one existing distinct part value k
            for k in set(mu):
                nu2 = list(mu)
                nu2.remove(k)
                nu2 = merge_partitions(tuple(nu2), (k + r,))
                nxt[nu2] = nxt.get(nu2, 0) + c * nu2.count(k + r)
        out = nxt
    return out


def _back_substitute(row, lam, inverse):
    """Row lam of the inverse of a triangular transition.

    ``row`` is {nu: T_{lam nu}} with b_lam = sum_nu T_{lam nu} c_nu,
    T_{lam lam} != 0 and every other nu strictly on one side of lam in
    dominance; ``inverse(nu)`` is c_nu in the b basis for each such nu.
    Returns c_lam = (b_lam - sum_{nu != lam} T_{lam nu} c_nu) / T_{lam lam}
    in the b basis.
    """
    acc = {lam: Fraction(1)}
    for nu, c in row.items():
        if nu != lam:
            for mu, x in inverse(nu).items():
                acc[mu] = acc.get(mu, 0) - c * x
    return {mu: x / row[lam] for mu, x in acc.items() if x}


_M_TO_P_CACHE = {}


def _m_to_p_matrix(n):
    """Per-degree transition: {mu: m_mu in the p basis as {lam: coeff}}.

    p_mu = sum over nu >= mu (dominance) of L_{mu nu} m_nu with L_{mu mu} != 0
    (Macdonald I.6), and the canonical order of partitions(n) refines
    dominance, so one pass of back-substitution inverts the transition.
    """
    if n in _M_TO_P_CACHE:
        return _M_TO_P_CACHE[n]
    rows = {}
    for mu in partitions(n):
        rows[mu] = _back_substitute(_p_to_m_row(mu), mu, rows.__getitem__)
    _M_TO_P_CACHE[n] = rows
    return rows


@lru_cache(maxsize=None)
def _e_to_p_single(n):
    """e_n in the p basis via Newton's identities: n e_n = sum (-1)^{k-1} e_{n-k} p_k."""
    if n == 0:
        return {(): Fraction(1)}
    acc = {}
    for k in range(1, n + 1):
        rest = _e_to_p_single(n - k)
        sign = Fraction((-1) ** (k - 1), n)
        for mu, c in rest.items():
            nu = merge_partitions(mu, (k,))
            acc[nu] = acc.get(nu, Fraction(0)) + sign * c
    return {mu: c for mu, c in acc.items() if c != 0}


@lru_cache(maxsize=None)
def _e_lam_to_p(lam):
    return reduce(multiply, (SymFunc("p", _e_to_p_single(r)) for r in lam), SymFunc.one()).terms


@lru_cache(maxsize=None)
def _p_to_e_row(lam):
    """p_lam in the e basis: e_lam is prod (-1)^{lam_i - 1} / lam_i times p_lam
    plus strictly finer p_mu, so back-substitution inverts it."""
    return _back_substitute(_e_lam_to_p(lam), lam, _p_to_e_row)


_ZERO = Fraction(0)


def _change_basis(f, basis, row_of):
    """Expand every term f_lam * b_lam through row_of(lam) = {mu: coeff}.
    The sums start from Fraction(0), so int coefficients over the int
    p -> m rows still give rationals."""
    out = {}
    for lam, c in f.terms.items():
        for mu, r in row_of(lam).items():
            out[mu] = out.get(mu, _ZERO) + c * r
    return SymFunc(basis, out)


def to_p(f):
    if f.basis == "p":
        return f
    if f.basis == "e":
        return _change_basis(f, "p", _e_lam_to_p)
    return _change_basis(f, "p", lambda lam: _m_to_p_matrix(sum(lam))[lam])


def from_p(f, target):
    if target == "p":
        return f
    if target == "m":
        return _change_basis(f, "m", _p_to_m_row)
    if target == "e":
        return _change_basis(f, "e", _p_to_e_row)
    raise ValueError("unknown basis %r" % (target,))


def convert(f, target):
    if f.basis == target:
        return f
    return from_p(to_p(f), target)


def multiply(f, g):
    """Product in the ring of symmetric functions.

    Both factors are routed through the power-sum basis, where the product
    is concatenation of partition multisets; the result is returned in the
    common basis of the inputs (or p when they differ).
    """
    target = f.basis if f.basis == g.basis else "p"
    fp, gp = to_p(f), to_p(g)
    out = {}
    for mu, a in fp.terms.items():
        for nu, b in gp.terms.items():
            key = merge_partitions(mu, nu)
            out[key] = out[key] + a * b if key in out else a * b
    return convert(SymFunc("p", out), target)


def e_gen(lam, coeff=Fraction(1)):
    return SymFunc.gen("e", lam, coeff)


def diagonal_form(f, g, weight, zero):
    """The bilinear form diagonal on power sums with
    <p_lam, p_lam> = z_lam prod_i weight(lam_i), where weight returns None
    for a part of weight one; ``zero`` is the value of an empty sum."""
    fp, gp = to_p(f), to_p(g)
    acc = None
    for lam, a in fp.terms.items():
        b = gp.terms.get(lam)
        if b is None:
            continue
        w = a * b * z_lambda(lam)
        for part in lam:
            x = weight(part)
            if x is not None:
                w = w * x
        acc = w if acc is None else acc + w
    return zero if acc is None else acc


def symfunc_to_json(f):
    return {
        "basis": f.basis,
        "terms": [
            {"partition": list(lam), "coeff": scalar_to_json(f.terms[lam])}
            for lam in sorted_partitions(f.terms)
        ],
    }
