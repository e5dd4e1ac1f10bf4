import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svjack.linalg
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
    bareiss_echelon,
    det,
    identity,
    nullspace,
    operator_matrix,
    poly_interpolate,
)

from oracles import (
    bareiss_echelon_reference,
    det_reference,
    exact_div,
    field_ops,
    inner_qt,
    jet_add_reference,
    jet_mul_reference,
    mat_vec,
    rank,
    ratfun_call_reference,
    ratfun_reference,
)

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
    # a sum cancels against the gcd of its denominators, equal or not
    assert t / (t - 1) - 1 / (t - 1) == 1
    assert 1 / (t * (t - 1)) + 1 / (t * (t + 1)) == 2 / (t * t - 1)


# integer polynomials with small roots, so that products share factors; the
# large ones carry coefficients above 2**64
small_ints = st.integers(-3, 3)
int_polys = st.lists(st.one_of(small_ints, st.integers(-2 ** 70, 2 ** 70)),
                     min_size=1, max_size=5)
factor_polys = st.lists(st.lists(small_ints, min_size=2, max_size=3)
                        .filter(lambda cs: cs[-1] != 0), max_size=3)


def _poly(*factors, scale=Fraction(1)):
    p = Poly("t", [scale])
    for cs in factors:
        p = p * Poly("t", [Fraction(c) for c in cs])
    return p


def _same_as_reference(x, numer, denom):
    ref_numer, ref_denom = ratfun_reference(numer, denom)
    assert x.numer.coeffs == ref_numer.coeffs
    assert x.denom.coeffs == ref_denom.coeffs
    # equal values hash alike, however they were built
    ref = RatFun("t", ref_numer, ref_denom)
    assert x == ref and hash(x) == hash(ref)


@given(int_polys, int_polys.filter(any), factor_polys, factor_polys,
       rationals, nonzero_rationals)
@settings(max_examples=150, deadline=None)
def test_ratfun_matches_euclid_reference(n, d, fn, fd, cn, cd):
    """Common factors, coefficients above 2**64, degrees up to 12: the
    integer form gives the Euclid form's coefficients and hashes like the
    value built from that form."""
    common = fn[:1]
    numer = _poly(n, *fn, *common, scale=cn)
    denom = _poly(d, *fd, *common, scale=cd)
    assert numer.degree() <= 12 and denom.degree() <= 12
    x = RatFun("t", numer, denom)
    _same_as_reference(x, numer, denom)
    y = RatFun("t", denom, _poly(*fn))
    # x + w = n * r / denom: the sum cancels r, a factor of both denominators
    r = _poly(*fd[:1], *common)
    w_numer = _poly(n) * r - numer
    w = RatFun("t", w_numer, denom)
    for value, (a, b) in ((x * y, (numer * denom, denom * _poly(*fn))),
                          (x + y, (numer * _poly(*fn) + denom * denom,
                                   denom * _poly(*fn))),
                          (x + w, (numer + w_numer, denom))):
        _same_as_reference(value, a, b)


def _ratfuns(var):
    return st.builds(lambda c, n, d: RatFun(var, _poly(n, scale=c), _poly(d)),
                     rationals, st.lists(small_ints, max_size=4),
                     st.lists(small_ints, min_size=1, max_size=4).filter(any))


@given(_ratfuns("c"), st.one_of(_ratfuns("t"), rationals.map(lambda a: RatFun.const("t", a))))
@settings(max_examples=300, deadline=None)
def test_ratfun_at_a_ratfun_matches_horner(f, x):
    """f(x), N and D evaluated homogeneously over Z and canonicalised once,
    is Horner's value in RatFun arithmetic, field for field, and both fail
    alike at a pole; x ranges over constants (0 among them) too."""
    try:
        expected = ratfun_call_reference(f, x)
    except KernelError as exc:
        with pytest.raises(KernelError, match=str(exc)):
            f(x)
        return
    got = f(x)
    assert (got.var, got.c, got.N, got.D) == (expected.var, expected.c, expected.N, expected.D)


def test_ratfun_at_c_of_t_matches_horner():
    """The c -> c(t) map of kac_det_check, c = 3/2 - 3 (t - 1/t)^2, on
    numerators and denominators up to degree 4 in c, large coefficients
    among them."""
    t, c = RatFun.variable("t"), RatFun.variable("c")
    c_t = Fraction(3, 2) - 3 * (t - 1 / t) ** 2
    for f in (c, c ** 4 - 2 ** 70 * c + 5, (c * c - 1) / (2 * c + 3), 1 / c ** 3,
              RatFun.const("c", Fraction(-7, 3)), c * 0, (c - Fraction(3, 2)) / (c + 6)):
        got, expected = f(c_t), ratfun_call_reference(f, c_t)
        assert (got.var, got.c, got.N, got.D) == ("t", expected.c, expected.N, expected.D)


def test_gcd_falls_back_to_euclid(monkeypatch):
    """With no GCDHEU evaluation point every gcd comes from Euclid over Q,
    and the results are the same."""
    from svjack import kernel
    t = RatFun.variable("t")
    cases = [lambda: (t * t - 1) / (t - 1),
             lambda: (t ** 3 + 2 ** 70 * t) / (t * t + 2 ** 70) + 1 / (t + 3),
             lambda: (3 * t + 6) ** 4 / ((t + 2) ** 2 * (t - 5)),
             lambda: 1 / (t * t - 4) - 1 / (t - 2)]
    expected = [case() for case in cases]
    calls = []
    monkeypatch.setattr(kernel, "_GCDHEU_TRIES", 0)
    monkeypatch.setattr(kernel, "poly_gcd",
                        lambda a, b: calls.append(1) or poly_gcd(a, b))
    for case, value in zip(cases, expected):
        got = case()
        assert got == value and hash(got) == hash(value)
        assert got.numer.coeffs == value.numer.coeffs
        assert got.denom.coeffs == value.denom.coeffs
    assert calls


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
    # an extension element against a base element in another variable
    assert Sqrt2Ext(RatFun.variable("t")) != RatFun.variable("g")
    assert Jet([RatFun.variable("t")], 0) != RatFun.variable("g")
    assert Sqrt2Ext(RatFun.variable("t")) == RatFun.variable("t")
    assert Jet([RatFun.variable("t")], 0) == RatFun.variable("t")


def test_poly_keeps_its_coefficient_field_at_zero():
    one_t = RatFun.const("t", 1)
    p = Poly("h", [0 * one_t, one_t])
    for zero in (p * 0, p - p, -(p - p), Poly("h", [0 * one_t]),
                 (p * 0) * 2, p * 0 + p * 0, (p * 0).divmod(p)[0]):
        assert zero.is_zero() and zero == 0 and hash(zero) == hash(0)
        one = zero + 1
        assert one == 1 and [type(c) for c in one.coeffs] == [RatFun]
    assert [type(c) for c in (p * 0 + 1).coeffs] == [RatFun]
    # coefficients no term reaches are the field's zero too
    for poly in (p * 2, p + Poly("h", [one_t * 0, one_t * 0, one_t]),
                 (p * p).divmod(Poly("h", [one_t * 0, one_t * 0, one_t]))[0]):
        assert all(type(c) is RatFun for c in poly.coeffs), poly
    assert p ** 3 == p * p * p and p ** 0 == 1


def test_zero_poly_evaluates_to_its_field_zero():
    one_t = RatFun.const("t", 1)
    p = Poly("h", [0 * one_t, one_t])
    for x in (Fraction(3), 3, RatFun.variable("t")):
        value = (p * 0)(x)
        assert isinstance(value, RatFun) and value.is_zero()
        assert type(p(x)) is RatFun
    assert (Poly.x("h") * 0)(Fraction(3)) == 0


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
    assert f.coeff(4) == 0
    # a negative index does not count from the top coefficient
    for k in (-1, 5):
        with pytest.raises(KernelError, match="truncated at order 4"):
            f.coeff(k)


_T = RatFun.variable("t")
_JET_FIELDS = {
    "Fraction": rationals,
    "RatFun": st.builds(lambda a, b, c: (a * _T + b) / (_T - c),
                        rationals, rationals, st.integers(-2, 2)),
}
_JET_SCALARS = {"int": st.integers(-3, 3), **_JET_FIELDS}


def _jets(field):
    """Jets of order 0 to 3 over one field, zero coefficients included."""
    coeffs = st.one_of(st.just(Fraction(0) if field == "Fraction" else 0 * _T),
                       _JET_FIELDS[field])
    return st.integers(0, 3).flatmap(
        lambda k: st.lists(coeffs, min_size=k + 1, max_size=k + 1).map(lambda cs: Jet(cs, k)))


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_jet_product_and_sum_equal_the_coercing_reference(data):
    """Jet * and + equal the convolution on coerced operands: for a jet
    over Q or Q(t) against a jet of either field and any order up to 3, or
    an int, a rational or a rational function on either side, the same
    coefficients and order; where the jets share one field and the scalar
    lies in it, each coefficient also has the reference's type."""
    field = data.draw(st.sampled_from(sorted(_JET_FIELDS)))
    x = data.draw(_jets(field))
    other = data.draw(st.sampled_from(["jet " + f for f in sorted(_JET_FIELDS)]
                                      + sorted(_JET_SCALARS)))
    if other.startswith("jet "):
        y = data.draw(_jets(other[4:]))
        one_field = other[4:] == field
    else:
        y = data.draw(_JET_SCALARS[other])
        one_field = field == "RatFun" or other != "RatFun"
    if data.draw(st.booleans()):
        x, y = y, x
    for got, want in ((x * y, jet_mul_reference(x, y)), (x + y, jet_add_reference(x, y))):
        assert isinstance(got, Jet)
        assert (got.order, got.coeffs) == (want.order, want.coeffs)
        if one_field:
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


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
    assert exact_div(a, b) == Poly(t, [Fraction(-1), Fraction(1)])
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


def test_nullspace_vectors_lie_in_one_field():
    """The kernel vectors take their field from the echelon rows, not from
    the type of mat[0][0]: a matrix mixing Fractions and RatFuns gives
    RatFun vectors whichever comes first, and an int matrix Fractions."""
    t = RatFun.variable("t")
    for m in ([[Fraction(1), t, Fraction(0)]], [[t, Fraction(1), Fraction(0)]]):
        basis = nullspace(m)
        assert len(basis) == 2
        for v in basis:
            assert all(type(x) is RatFun for x in v), v
            assert all(x == 0 for x in mat_vec(m, v))
    assert [[type(x) for x in v] for v in nullspace([[1, 2, 3]])] == [[Fraction] * 3] * 2


def test_nullspace_of_a_matrix_with_no_columns():
    """A matrix of empty rows has the zero kernel, and a ragged one still
    raises."""
    assert nullspace([[]]) == []
    assert nullspace([[], []]) == []
    with pytest.raises(KernelError, match="row 1 has 1 entries where row 0 has 0"):
        nullspace([[], [1]])


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


# --- the integer Bareiss loop against the loop over the fields ---------------

_DENOMINATORS = [1, _T, _T * _T, _T + 1, 2 * _T - 3, _T * _T + _T + 5]
_small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _entries(field):
    """Entries over Q, over Q(t), or over both mixed; zero is frequent so
    that columns and pivots vanish."""
    over_q = st.one_of(st.just(Fraction(0)), _small)
    ratfun = st.builds(lambda coeffs, den: sum((c * _T ** i for i, c in enumerate(coeffs)),
                                               _T * 0) / den,
                       st.lists(_small, min_size=1, max_size=3),
                       st.sampled_from(_DENOMINATORS))
    over_qt = st.one_of(over_q.map(lambda x: x + _T * 0), ratfun)
    return {"Q": over_q, "Qt": over_qt, "mixed": st.one_of(over_q, over_qt)}[field]


@st.composite
def _matrices(draw, field, square=False, min_rows=1):
    """Rectangular (or square) matrices, made rank-deficient, given a zero
    column or a zero first entry (a row swap at the first pivot) at random."""
    rows = draw(st.integers(min_rows, 5))
    cols = rows if square else draw(st.integers(1, 5))
    entry = _entries(field)
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    zero = m[0][0] * 0
    if rows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(rows)))[:3]
        a, b = draw(_small), draw(_small)
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    if draw(st.booleans()):
        c = draw(st.integers(0, cols - 1))
        for row in m:
            row[c] = zero
    if draw(st.booleans()):
        m[0][0] = zero
    return m


def _with_reference_loop(fn, mat):
    """fn(mat) with linalg's Bareiss loop replaced by the loop over the
    fields, so nullspace and det run the back-substitution and the
    determinant read-off of the reference elimination."""
    with unittest.mock.patch.object(svjack.linalg, "bareiss_echelon",
                                    bareiss_echelon_reference):
        return fn(mat)


def _same(mat, got, want):
    """Equal values, and equal types unless mat mixes Fractions and RatFuns
    (the loop over the fields then leaves some of each)."""
    assert got == want
    if len({type(x) for row in mat for x in row}) == 1:
        assert [type(x) for x in got] == [type(x) for x in want]


def _check_against_the_field_loops(mat):
    """The pivot columns and the nullspace, which do not depend on the order
    of the rows, are those of the first-nonzero loop over the fields; the
    sign and the echelon form are those of the loop over the fields with the
    same smallest-pivot rule."""
    before = [list(row) for row in mat]
    first_piv_cols = bareiss_echelon_reference(mat)[1]
    ech, piv_cols, sign = bareiss_echelon(mat)
    ref_ech, ref_piv_cols, ref_sign = bareiss_echelon_reference(mat, smallest=True)
    assert piv_cols == ref_piv_cols == first_piv_cols
    assert sign == ref_sign
    assert len(ech) == len(ref_ech)
    for row, ref_row in zip(ech, ref_ech):
        _same(mat, row, ref_row)
    basis, ref_basis = nullspace(mat), _with_reference_loop(nullspace, mat)
    assert len(basis) == len(ref_basis)
    for v, ref_v in zip(basis, ref_basis):
        _same(mat, v, ref_v)
    assert mat == before


@pytest.mark.parametrize("field", ["Q", "Qt", "mixed"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_integer_bareiss_matches_the_field_loop(field, data):
    """The integer loop against the loops over Q or Q(t): the integer row
    scales are divided out when the rows are lifted back."""
    _check_against_the_field_loops(data.draw(_matrices(field)))


@pytest.mark.parametrize("field", ["Q", "Qt", "mixed"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_integer_bareiss_determinant_matches_the_field_loop(field, data):
    _check_determinant(data.draw(_matrices(field, square=True)))


def _check_determinant(mat):
    """det, whose rows are cleared by the product of their denominators, is the
    determinant read from the first-nonzero loop over the fields, and the
    one Gaussian elimination over the fields finds."""
    _same(mat, [det(mat)], [_with_reference_loop(det, mat)])
    _same(mat, [det(mat)], [det_reference(mat)])


def _polynomials(field):
    """Entries with no denominator: integers over Q, integer polynomials
    in t over Q(t)."""
    over_q = st.integers(-6, 6).map(Fraction)
    over_qt = st.lists(st.integers(-6, 6), min_size=1, max_size=3).map(
        lambda coeffs: sum((c * _T ** i for i, c in enumerate(coeffs)), _T * 0))
    return {"Q": over_q, "Qt": over_qt, "mixed": st.one_of(over_q, over_qt)}[field]


def _large(field):
    """Entries whose cleared integer form is longer than one coefficient, or
    an integer of two bits or more."""
    over_q = st.integers(2, 10 ** 6).map(Fraction) | st.integers(-10 ** 6, -2).map(Fraction)
    # no denominator divides the numerator to a constant
    over_qt = st.builds(lambda a, b, den: (a * _T * _T + b * _T + 1) / den,
                        _small.filter(bool), _small, st.sampled_from(_DENOMINATORS))
    return {"Q": over_q, "Qt": over_qt, "mixed": st.one_of(over_q, over_qt)}[field]


@pytest.mark.parametrize("field", ["Q", "Qt", "mixed"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_smallest_pivot_is_not_the_first_nonzero_one(field, data):
    """Where column 0 holds a large entry in row 0 and a unit in row 1, a
    row with no denominator, the integer loop takes row 1 as its first
    pivot row, and still finds the pivot columns, the nullspace and the
    determinant of the first-nonzero loop over the fields."""
    square = data.draw(st.booleans())
    mat = data.draw(_matrices(field, square=square, min_rows=2))
    mat[1] = [data.draw(_polynomials(field)) for _ in mat[1]]
    mat[1][0] = mat[1][0] * 0 + 1
    mat[0][0] = data.draw(_large(field))
    assert bareiss_echelon(mat)[0][0] == mat[1]
    _check_against_the_field_loops(mat)
    if square:
        _check_determinant(mat)


def test_det_of_a_singular_matrix_is_the_zero_of_its_field():
    """A singular matrix's determinant is 0 in the field of its nonsingular
    neighbours: Q for ints, Q(t) once any entry is a RatFun."""
    t = RatFun.variable("t")
    cases = [([[1, 2], [2, 4]], [[1, 2], [3, 4]]),
             ([[Fraction(1), t], [Fraction(2), 2 * t]], [[Fraction(1), t], [Fraction(2), t]]),
             ([[t, 1 / t], [t * t, Fraction(1)]], [[t, 1 / t], [t, Fraction(1)]])]
    for singular, nonsingular in cases:
        zero, value = det(singular), det(nonsingular)
        assert zero == 0 and value != 0
        assert type(zero) is type(value), singular


def test_ragged_rows_raise_kernel_error():
    """A row whose length is not row 0's is named in a KernelError, not an
    IndexError from inside the loop."""
    with pytest.raises(KernelError, match="row 1 has 1 entries where row 0 has 2"):
        bareiss_echelon([[1, 2], [3]])
    with pytest.raises(KernelError, match="row 1 has 2 entries where row 0 has 3"):
        nullspace([[1, 2, 3], [4, 5]])
    with pytest.raises(KernelError, match="row 2 has 2 entries where row 0 has 1"):
        nullspace([[1], [2], [3, 4]])


def test_bareiss_reads_int_entries_as_rationals():
    """An int entry is the rational it names (the loop over the fields
    divided ints into floats here)."""
    ints = [[2, 1, 1], [1, 3, 2], [1, 0, 0]]
    fractions = [[Fraction(x) for x in row] for row in ints]
    assert det(ints) == det(fractions) == -1
    assert bareiss_echelon(ints) == bareiss_echelon(fractions)
    assert nullspace([[1, 2, 3], [4, 5, 6]]) == [[1, -2, 1]]


def test_inexact_bareiss_division_raises():
    """Sylvester's identity makes every division exact, so an inexact one
    is a bug, never a silent fallback."""
    from svjack.linalg import _int_step, _zz_step
    assert _int_step(3, 4, 2, 3, 3) == 2
    assert _zz_step((1, 1), (0, 1), (), (), (0, 1)) == (1, 1)
    with pytest.raises(KernelError, match="inexact Bareiss division"):
        _int_step(1, 1, 0, 0, 2)
    with pytest.raises(KernelError, match="inexact Bareiss division"):
        _zz_step((1, 1), (1,), (), (), (0, 1))


def test_bareiss_rejects_two_variables_and_other_scalars():
    t, g = RatFun.variable("t"), RatFun.variable("g")
    for mat in ([[t, g]], [[t], [g]], [[1 / t, g]]):
        with pytest.raises(KernelError, match="cannot be combined"):
            nullspace(mat)
        with pytest.raises(KernelError, match="cannot be combined"):
            bareiss_echelon(mat)
    with pytest.raises(KernelError, match="cannot be combined"):
        det([[t, g], [g, t]])
    for x in (Poly.x("h"), Sqrt2Ext(Fraction(1), Fraction(1)), 1.5):
        for mat in ([[x, Fraction(1)]], [[1 / t, x]]):
            with pytest.raises(KernelError, match="no exact elimination"):
                nullspace(mat)
        with pytest.raises(KernelError, match="no exact elimination"):
            det([[x, Fraction(0)], [Fraction(0), Fraction(1)]])


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
    # jets and polynomials are arithmetic intermediates: no document holds one
    for x in (Jet([Fraction(1), Fraction(2)], 1), Poly("t", [Fraction(1), Fraction(2)])):
        with pytest.raises(KernelError, match="cannot serialize"):
            scalar_to_json(x)


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
        return [x.t, x.rho, x.c, x.h, x.alpha_plus]
    return [x]


def _embedding_cases():
    from svjack.fock import screening_r1
    from svjack.svir import hw_data
    from svjack.symfunc import SymFunc
    from svjack.uglov import uglov2_orth
    from svjack.vertexops import apply_vertex_mode, eps1, eps_macdonald, eta_operator
    f = SymFunc("p", {(2, 1): Fraction(1), (3,): Fraction(1, 2)})
    return {
        "eps_macdonald": lambda k: eps_macdonald((2, 1), 2 * k, 3 * k),
        "eps1": lambda k: eps1((2, 1), 3 * k),
        "inner_qt": lambda k: inner_qt(f, f, 2 * k, 3 * k),
        "eta_operator": lambda k: apply_vertex_mode(eta_operator(2 * k, 3 * k), 0, f),
        "hw_data": lambda k: hw_data(2 * k, 3, 1),
        "uglov2_orth": lambda k: uglov2_orth((2, 1), 3 * k),
        "screening_r1": lambda k: screening_r1(3, 2 * k),
    }


@pytest.mark.parametrize("name", ["eps_macdonald", "eps1", "inner_qt", "eta_operator",
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
