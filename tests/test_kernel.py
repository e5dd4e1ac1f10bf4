from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svjack.kernel import (
    Jet,
    KernelError,
    Poly,
    RatFun,
    Sqrt2Ext,
    VerificationFailure,
    as_scalar,
    poly_gcd,
    scalar_to_json,
)
from svjack.linalg import (
    det,
    identity,
    nullspace,
    operator_matrix,
    poly_interpolate,
)

from oracles import field_ops, mat_vec, rank

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))
nonzero_rationals = rationals.filter(lambda x: x != 0)


def test_rational_basics():
    assert field_ops(Fraction(1, 2), Fraction(1, 3), "add") == Fraction(5, 6)
    with pytest.raises(KernelError, match="division by zero"):
        field_ops(Fraction(1), Fraction(0), "div")


@given(rationals, nonzero_rationals)
@settings(max_examples=1000)
def test_rational_mul_div_roundtrip(a, b):
    assert (a * b) / b == a


@given(rationals, rationals)
def test_rational_canonical_form(a, b):
    # equal values have identical reduced representations
    if a == b:
        assert (a.numerator, a.denominator) == (b.numerator, b.denominator)
    assert a.denominator >= 1


def test_ratfun_normalizes_common_factors():
    t = RatFun.variable("t")
    f = (t * t - 1) / (t - 1)
    assert f == t + 1
    assert f.denom.degree() == 0 and f.denom.coeffs[0] == 1


def test_ratfun_mixed_vars_rejected():
    t = RatFun.variable("t")
    g = RatFun.variable("g")
    with pytest.raises(KernelError, match="cannot be combined"):
        field_ops(t, g, "add")


def test_equality_across_variables_is_false():
    # constants in different variables hash alike, so they meet in a dict
    assert {RatFun.const("t", 2): 1}.get(RatFun.const("g", 2)) is None
    assert RatFun.variable("t") != RatFun.variable("g")
    assert Poly.const("h", 2) != Poly.const("x", 2)
    assert RatFun.const("t", 2) == 2 and Poly.const("h", 2) == 2
    assert Sqrt2Ext(RatFun.variable("t")) != Sqrt2Ext(RatFun.variable("g"))
    assert Jet([RatFun.variable("t")], 0) != Jet([RatFun.variable("g")], 0)


def test_poly_keeps_its_coefficient_field_at_zero():
    one_t = RatFun.const("t", 1)
    p = Poly("h", [0 * one_t, one_t])
    for zero in (p * 0, p - p, -(p - p), Poly("h", [0 * one_t]),
                 (p * 0).scale(2), p * 0 + p * 0, (p * 0).divmod(p)[0]):
        assert zero.is_zero() and zero == 0 and hash(zero) == hash(0)
        one = zero + 1
        assert one == 1 and [type(c) for c in one.coeffs] == [RatFun]
    assert [type(c) for c in (p * 0 + 1).coeffs] == [RatFun]
    assert p ** 3 == p * p * p and p ** 0 == 1


@given(st.lists(rationals, min_size=1, max_size=4),
       st.lists(rationals, min_size=1, max_size=4),
       st.lists(rationals, min_size=1, max_size=4))
@settings(max_examples=60)
def test_ratfun_field_axioms(ca, cb, cc):
    t = RatFun.variable("t")
    mk = lambda cs: sum((c * t ** i for i, c in enumerate(cs)), RatFun.const("t", 0))
    a, b, c = mk(ca), mk(cb), mk(cc)
    assert (a + b) - b == a
    assert a * (b + c) == a * b + a * c
    if not b.is_zero():
        assert (a * b) / b == a


def test_sqrt2_norm_identity():
    x = Sqrt2Ext(Fraction(1), Fraction(1))
    y = Sqrt2Ext(Fraction(1), Fraction(-1))
    assert x * y == Fraction(-1)
    assert x.norm() == Fraction(-1)


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=100)
def test_sqrt2_norm_multiplicative(a, b, c, d):
    x = Sqrt2Ext(a, b)
    y = Sqrt2Ext(c, d)
    assert (x * y).norm() == x.norm() * y.norm()


def test_sqrt2_div():
    x = Sqrt2Ext(Fraction(3), Fraction(2))
    y = Sqrt2Ext(Fraction(1), Fraction(1))
    assert (x / y) * y == x


def test_jet_arithmetic_and_truncation():
    h = Jet([Fraction(0), Fraction(1)], 4)
    f = (1 + h) * (1 + h)
    assert f.coeffs == (Fraction(1), Fraction(2), Fraction(1), Fraction(0), Fraction(0))
    g = f / (1 + h)
    assert g == 1 + h


@given(rationals, rationals, st.lists(rationals, max_size=3),
       st.lists(rationals, max_size=3))
@settings(max_examples=200)
def test_equal_scalars_hash_equal(a, b, tail1, tail2):
    pairs = [
        # jets that agree up to the lower of their two orders
        (Jet([a] + tail1), Jet([a] + tail1 + tail2)),
        # a constant jet and a Sqrt2Ext with no sqrt(2) part equal their base
        (Jet([a] + [Fraction(0)] * len(tail2)), a),
        (Sqrt2Ext(a, 0), a),
        (Sqrt2Ext(a, Fraction(0)), Sqrt2Ext(a)),
        (Sqrt2Ext(a, b), Sqrt2Ext(a, b) + 0),
        # constant rational functions and polynomials equal their rational
        (RatFun.const("t", a), a),
        (RatFun("t", Poly("t", [a, a]), Poly("t", [Fraction(1), Fraction(1)])), a),
        (Poly.const("t", a), a),
        (Poly.const("h", RatFun.const("t", a)), a),
        (Jet([RatFun.const("t", a)] + tail1), Jet([a] + tail1)),
    ]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)


def test_jet_valuation_division():
    h = Jet([Fraction(0), Fraction(1)], 5)
    num = h * 2 + h * h
    den = h
    q = num / den
    assert q.order == 4
    assert q.coeffs[0] == 2 and q.coeffs[1] == 1


def test_jet_exp_linear():
    j = Jet.exp_linear(Fraction(2), 4)
    assert j.coeffs == (1, 2, 2, Fraction(4, 3), Fraction(2, 3))


def test_poly_gcd_and_exact_div():
    t = "t"
    a = Poly(t, [Fraction(-1), Fraction(0), Fraction(1)])   # t^2 - 1
    b = Poly(t, [Fraction(1), Fraction(1)])                 # t + 1
    g = poly_gcd(a, b)
    assert g == b.monic()
    assert a.exact_div(b) == Poly(t, [Fraction(-1), Fraction(1)])
    # a ring: /, reflected / and negative powers raise at the call
    for divide in (lambda: a / b, lambda: a / 2, lambda: 1 / b, lambda: b ** -1):
        with pytest.raises(KernelError, match="ring"):
            divide()


# --- linear algebra -------------------------------------------------------

def test_nullspace_rank_one():
    m = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert all(x == 0 for x in mat_vec(m, v))
    # spans (1, -1)
    assert v[0] * Fraction(-1) == v[1]


def test_nullspace_identity_trivial():
    assert nullspace(identity(3)) == []


def test_rank_nullity():
    import random
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        r = rank(m)
        basis = nullspace(m)
        assert r + len(basis) == cols
        for v in basis:
            assert all(x == 0 for x in mat_vec(m, v))


def test_nullspace_over_ratfun():
    t = RatFun.variable("t")
    one = RatFun.const("t", 1)
    m = [[t, t * t], [one, t]]
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert all(x.is_zero() for x in mat_vec(m, v))


def test_operator_matrix_layout_and_row_basis_check():
    images = {"a": {"x": Fraction(2)}, "b": {"y": Fraction(-1), "x": Fraction(1, 3)}}
    mat = operator_matrix(images.get, ["a", "b"], ["x", "y"])
    assert mat == [[Fraction(2), Fraction(1, 3)], [Fraction(0), Fraction(-1)]]
    assert all(type(x) is Fraction for row in mat for x in row)
    with pytest.raises(KernelError):
        operator_matrix(images.get, ["a", "b"], ["x"])


def test_det_values():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert det(m) == Fraction(-2)
    t = RatFun.variable("t")
    one = RatFun.const("t", 1)
    m2 = [[t, one], [one, t]]
    assert det(m2) == t * t - 1


def test_poly_interpolate_quadratic():
    pts = [(0, Fraction(1)), (1, Fraction(2)), (2, Fraction(5))]
    p = poly_interpolate(pts, 2, var="x")
    assert p == Poly("x", [Fraction(1), Fraction(0), Fraction(1)])


def test_poly_interpolate_constant_and_errors():
    p = poly_interpolate([(0, Fraction(3)), (1, Fraction(3))], 1, var="x")
    assert p.degree() <= 0 and p(Fraction(17)) == 3
    with pytest.raises(KernelError, match="repeated abscissa"):
        poly_interpolate([(0, Fraction(1)), (0, Fraction(2))], 1)
    with pytest.raises(VerificationFailure, match="extra interpolation point disagrees"):
        poly_interpolate([(0, Fraction(0)), (1, Fraction(1)), (2, Fraction(3))], 1)


def test_scalar_json_shapes():
    assert scalar_to_json(Fraction(3, 4)) == {"num": "3", "den": "4"}
    t = RatFun.variable("t")
    j = scalar_to_json(t + 1)
    assert j["var"] == "t"
    assert j["numer"] == [{"num": "1", "den": "1"}, {"num": "1", "den": "1"}]
    assert j["denom"] == [{"num": "1", "den": "1"}]


# --- the field is read off the parameters ------------------------------------

def test_as_scalar_embeds_parameters():
    assert as_scalar("sym", "g") == RatFun.variable("g")
    assert as_scalar(None, "t").var == "t"
    x = as_scalar(3, "t")
    assert x == 3 and type(x) is Fraction
    t = RatFun.variable("t")
    assert as_scalar(t, "g") is t


def _scalars(x):
    from svjack.svir import HighestWeightData
    from svjack.symfunc import SymFunc
    if isinstance(x, SymFunc):
        return [x.terms[lam] for lam in sorted(x.terms)]
    if isinstance(x, HighestWeightData):
        return [x.t, x.rho, x.c, x.t_minus, x.h, x.alpha_plus]
    return [x]


def _embedding_cases():
    from svjack.fock import screening_r1
    from svjack.svir import hw_data
    from svjack.symfunc import SymFunc, inner_qt
    from svjack.uglov import uglov2_orth
    from svjack.vertexops import eps1, eps_macdonald, eta_apply
    f = SymFunc("p", {(2, 1): Fraction(1), (3,): Fraction(1, 2)})
    return {
        "eps_macdonald": lambda k: eps_macdonald((2, 1), 2 * k, 3 * k),
        "eps1": lambda k: eps1((2, 1), 3 * k),
        "inner_qt": lambda k: inner_qt(f, f, 2 * k, 3 * k),
        "eta_apply": lambda k: eta_apply(2 * k, 3 * k, 0, f),
        "hw_data": lambda k: hw_data(2 * k, 3, 1),
        "uglov2_orth": lambda k: uglov2_orth((2, 1), 3 * k),
        "screening_r1": lambda k: screening_r1(3, 2 * k),
    }


@pytest.mark.parametrize("name", ["eps_macdonald", "eps1", "inner_qt", "eta_apply",
                                  "hw_data", "uglov2_orth", "screening_r1"])
def test_int_parameter_gives_the_fraction_result(name):
    """An int parameter is the rational it names: same value, same scalar
    types, as the equal Fraction."""
    call = _embedding_cases()[name]
    from_int, from_fraction = _scalars(call(1)), _scalars(call(Fraction(1)))
    assert from_int == from_fraction, name
    assert [type(x) for x in from_int] == [type(x) for x in from_fraction], name
    assert all(type(x) is Fraction for x in from_int), name


def test_gram_matrix_entries_follow_the_field_of_h():
    """One process, equal h over Q and over Q(t): the shared normal-ordering
    memo must keep the two apart, since each matrix lies in its own field."""
    from svjack.svir import gram_matrix
    level = Fraction(3, 2)
    over_q = gram_matrix(level, Fraction(3), Fraction(7))
    over_qt = gram_matrix(level, RatFun.const("t", 3), RatFun.const("t", 7))
    from_int = gram_matrix(level, 3, 7)
    assert over_q == over_qt == from_int
    assert len(over_q) == 2
    assert all(type(x) is Fraction for row in over_q + from_int for x in row)
    assert all(type(x) is RatFun for row in over_qt for x in row)


def test_orth_entries_follow_the_field_of_gamma():
    """One process, equal gamma over Q and over Q(g): the cache of the
    orthogonal ladder must keep the two apart, like the normal-ordering memo."""
    from svjack.uglov import uglov2_orth
    lam = (2, 1)
    over_q = uglov2_orth(lam, Fraction(3))
    over_qg = uglov2_orth(lam, RatFun.const("g", 3))
    assert over_q == over_qg
    lower = [mu for mu in over_q.terms if mu != lam]
    assert lower and all(type(over_q.terms[mu]) is Fraction for mu in lower)
    assert all(type(over_qg.terms[mu]) is RatFun for mu in lower)
