import random
from fractions import Fraction

import pytest

from svjack.kernel import KernelError, RatFun
from svjack.symfunc import (
    SymFunc,
    _m_to_p_matrix,
    _p_to_m_row,
    convert,
    dominance_leq,
    e_gen,
    multiply,
    partitions,
    symfunc_to_json,
    to_p,
    z_lambda,
)

from oracles import (inner_qt, m_gen, num_partitions, p_gen, p_to_m_row_reference,
                     to_m_reference, to_p_reference)

# reference values: number of partitions of n for n = 0..12
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_partition_counts_reference_table():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert num_partitions(n) == expected


def test_partitions_canonical_order():
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions(0) == ((),)


def test_z_lambda_values():
    assert z_lambda(()) == 1
    assert z_lambda((1, 1)) == 2
    assert z_lambda((2, 1)) == 2
    assert z_lambda((3, 3, 1)) == 3 ** 2 * 2 * 1


def test_dominance():
    assert dominance_leq((1, 1), (2,))
    assert dominance_leq((2, 1), (2, 1))
    # incomparable pair: both directions false
    assert not dominance_leq((3, 1, 1, 1), (2, 2, 2))
    assert not dominance_leq((2, 2, 2), (3, 1, 1, 1))
    # different sizes compare false
    assert not dominance_leq((1,), (2,))


def test_p1_squared_in_monomials():
    f = multiply(p_gen((1,)), p_gen((1,)))
    assert f.terms == {(1, 1): Fraction(1)}
    m = convert(f, "m")
    assert m.terms == {(2,): Fraction(1), (1, 1): Fraction(2)}


def test_e3_in_powersums():
    f = convert(e_gen((3,)), "p")
    assert f.terms == {
        (1, 1, 1): Fraction(1, 6),
        (2, 1): Fraction(-1, 2),
        (3,): Fraction(1, 3),
    }


def test_m1_is_p1():
    assert convert(m_gen((1,)), "p").terms == {(1,): Fraction(1)}


def test_product_in_p_concatenates():
    f = multiply(p_gen((2,)), p_gen((1,)))
    assert f.terms == {(2, 1): Fraction(1)}
    one = SymFunc.one("p")
    g = p_gen((3, 2), Fraction(5, 7))
    assert multiply(g, one) == g


def _compose(first, then, lam):
    out = {}
    for mu, c in first(lam).items():
        for nu, r in then(mu).items():
            out[nu] = out.get(nu, 0) + c * r
    return {nu: c for nu, c in out.items() if c}


@pytest.mark.parametrize("n", range(13))
def test_p_to_m_rows_are_the_fraction_rows_in_ints(n):
    """The int rows equal the Fraction rows entry by entry."""
    for lam in partitions(n):
        row = _p_to_m_row(lam)
        assert row == p_to_m_row_reference(lam), lam
        assert all(type(x) is int for x in row.values()), lam


_T = RatFun.variable("t")


@pytest.mark.parametrize("coeffs", [(Fraction(3, 2), Fraction(-1, 3), Fraction(5)), (3, -1, 2),
                                    (_T / 2, 1 / (_T + 1), _T * _T - 3)],
                         ids=["Fraction", "int", "RatFun"])
def test_transitions_keep_the_coefficient_types(coeffs):
    """convert(f, "m") and to_p give the values and the coefficient types
    they gave over the Fraction rows, whatever the input coefficients."""
    lams = ((2, 1, 1), (3, 1), (1, 1, 1, 1))
    for basis, fn, ref in (("p", lambda f: convert(f, "m"), to_m_reference),
                           ("m", to_p, to_p_reference)):
        f = SymFunc(basis, dict(zip(lams, coeffs)))
        got, want = fn(f), ref(f)
        assert got == want
        assert ({mu: type(c) for mu, c in got.terms.items()}
                == {mu: type(c) for mu, c in want.terms.items()})


@pytest.mark.parametrize("n", range(11))
def test_m_to_p_inverts_p_to_m(n):
    m_to_p = _m_to_p_matrix(n)
    assert set(m_to_p) == set(partitions(n))
    for lam in partitions(n):
        assert _compose(m_to_p.__getitem__, _p_to_m_row, lam) == {lam: 1}
        assert _compose(_p_to_m_row, m_to_p.__getitem__, lam) == {lam: 1}


def _random_symfunc(rng, basis, max_deg=6, nterms=3):
    terms = {}
    for _ in range(nterms):
        n = rng.randint(0, max_deg)
        lam = rng.choice(partitions(n))
        terms[lam] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return SymFunc(basis, terms)


@pytest.mark.parametrize("basis_pair", [("p", "m"), ("m", "p"), ("p", "e"),
                                        ("e", "p"), ("m", "e"), ("e", "m")])
def test_convert_roundtrip_randomized(basis_pair):
    src, dst = basis_pair
    rng = random.Random("".join(basis_pair))
    for _ in range(12):
        f = _random_symfunc(rng, src, max_deg=8)
        g = convert(convert(f, dst), src)
        assert g == f


def test_inner_qt_examples():
    q = RatFun.variable("q")
    # symbolic q with rational t sample keeps the check univariate
    t = Fraction(3, 5)
    v = inner_qt(p_gen((1,)), p_gen((1,)), q, t)
    assert v == (1 - q) / (1 - t)
    assert inner_qt(p_gen((2,)), p_gen((1, 1)), q, t) == 0
    v2 = inner_qt(p_gen((1, 1)), p_gen((1, 1)), q, t)
    assert v2 == 2 * (1 - q) * (1 - q) / ((1 - t) * (1 - t))


def test_inner_qt_pole():
    with pytest.raises(KernelError, match="inner product pole"):
        inner_qt(p_gen((1,)), p_gen((1,)), Fraction(1, 2), Fraction(1))


def test_inner_qt_symmetric_bilinear_random():
    rng = random.Random(42)
    q, t = Fraction(2, 3), Fraction(3, 5)
    for _ in range(10):
        n = rng.randint(1, 5)
        f = SymFunc("p", {lam: Fraction(rng.randint(-5, 5)) for lam in partitions(n)})
        g = SymFunc("p", {lam: Fraction(rng.randint(-5, 5)) for lam in partitions(n)})
        h = SymFunc("p", {lam: Fraction(rng.randint(-5, 5)) for lam in partitions(n)})
        assert inner_qt(f, g, q, t) == inner_qt(g, f, q, t)
        fg = SymFunc("p", dict(f.terms))
        fg = fg + g
        assert inner_qt(fg, h, q, t) == inner_qt(f, h, q, t) + inner_qt(g, h, q, t)


def test_mixed_degree_inner_product_vanishes():
    assert inner_qt(p_gen((2,)), p_gen((1,)), Fraction(1, 2), Fraction(1, 3)) == 0


def test_json_serialization_sorted():
    f = SymFunc("m", {(1, 1): Fraction(2), (2,): Fraction(1)})
    j = symfunc_to_json(f)
    assert j["basis"] == "m"
    assert [t["partition"] for t in j["terms"]] == [[2], [1, 1]]
