"""Field axioms for the exact scalar types, as hypothesis properties.

Jets are truncated power series, so only those with a nonzero constant
term are invertible; every other axiom holds for them as for a field.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svjack.kernel import Jet, Poly, RatFun, Sqrt2Ext, is_zero

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
polys = st.lists(rationals, min_size=1, max_size=3).map(lambda cs: Poly("t", cs))
ratfuns = st.builds(lambda n, d: RatFun("t", n, d), polys,
                    polys.filter(lambda p: not p.is_zero()))
jets = st.lists(rationals, min_size=3, max_size=3).map(lambda cs: Jet(cs, 2))
sqrt2 = st.builds(Sqrt2Ext, rationals, rationals)

FIELDS = {"Fraction": rationals, "RatFun": ratfuns, "Jet": jets, "Sqrt2Ext": sqrt2}


def _invertible(x):
    return not is_zero(x.coeffs[0]) if isinstance(x, Jet) else not is_zero(x)


@pytest.mark.parametrize("field", sorted(FIELDS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_field_axioms(field, data):
    x, y, z = (data.draw(FIELDS[field]) for _ in range(3))
    zero = x * 0
    one = x * 0 + 1
    # x * 0 + 1 is the one of x's own field
    assert type(one) is type(x) and one == 1
    if isinstance(x, RatFun):
        assert one.var == x.var
    if isinstance(x, Jet):
        assert one.order == x.order
    assert one * y == y and zero + y == y
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == zero and x - y == x + (-y)
    if _invertible(x):
        assert x * (1 / x) == one
        assert (y / x) * x == y


@given(ratfuns, ratfuns)
@settings(max_examples=20, deadline=None)
def test_ratfun_arithmetic_matches_sympy(x, y):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def as_sympy(r):
        def poly(p):
            return sum(sympy.Rational(c.numerator, c.denominator) * t ** i
                       for i, c in enumerate(p.coeffs))
        return poly(r.numer) / poly(r.denom)

    ops = [operator.add, operator.sub, operator.mul]
    if not is_zero(y):
        ops.append(operator.truediv)
    for op in ops:
        assert sympy.cancel(as_sympy(op(x, y)) - op(as_sympy(x), as_sympy(y))) == 0
