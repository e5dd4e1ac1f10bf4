import random
from fractions import Fraction

import pytest

from svjack.fock import (
    HALF,
    boson_act,
    fermion_act,
    ff_act,
    monic_image,
    odd_sign_involution,
    screening_r1,
    screening_series,
    verify_conjecture,
    verma_to_lambda,
)
from svjack.kernel import RatFun, Sqrt2Ext, is_zero
from svjack.svir import act, hw_data, monomial_vector, superpartitions
from svjack.symfunc import SymFunc, convert, e_gen, partitions, to_p

from oracles import fermion_act_reference, homogeneous_degree, p_gen

T = RatFun.variable("t")
ONE = RatFun.const("t", 1)


def graded_basis(dmax):
    out = []
    for d in range(dmax + 1):
        out.extend(partitions(d))
    return out


# --- boson modes -------------------------------------------------------------

def test_boson_annihilates_vacuum():
    one = SymFunc.one("p")
    assert boson_act(1, one, T).is_zero()


def test_boson_creation_on_vacuum():
    one = SymFunc.one("p")
    f = boson_act(-1, one, T)
    assert f == SymFunc("p", {(2,): -1 / (2 * T)})


def test_boson_commutator_is_canonical():
    rng = random.Random(3)
    t = Fraction(2, 3)
    for _ in range(12):
        d = rng.randint(0, 6)
        lam = rng.choice(partitions(d))
        f = p_gen(lam)
        m = rng.randint(1, 3)
        lhs = boson_act(m, boson_act(-m, f, t), t) - boson_act(-m, boson_act(m, f, t), t)
        assert lhs == f.scale(Fraction(m))


# --- fermion modes -----------------------------------------------------------

def test_fermion_annihilates_vacuum():
    assert fermion_act(HALF, SymFunc.one("p")).is_zero()


def test_fermion_creation_on_vacuum():
    """The rescaled mode b~ = sqrt2 b: b~_{-1/2} 1 = -p_1."""
    f = fermion_act(-HALF, SymFunc.one("p"))
    assert f == SymFunc("p", {(1,): Fraction(-1)})


def test_fermion_rejects_integer_modes():
    with pytest.raises(ValueError):
        fermion_act(1, SymFunc.one("p"))


@pytest.mark.parametrize("pair", [(HALF, -HALF), (Fraction(3, 2), Fraction(-3, 2)),
                                  (HALF, Fraction(-3, 2)), (Fraction(5, 2), -HALF),
                                  (-HALF, Fraction(-3, 2))])
def test_fermion_anticommutator_canonical(pair):
    """b~_k b~_l + b~_l b~_k = 2 delta_{k+l,0}: the canonical relation of
    b = b~ / sqrt2."""
    k, l = pair
    delta = Fraction(2) if k + l == 0 else Fraction(0)
    for lam in graded_basis(4):
        f = p_gen(lam)
        lhs = fermion_act(k, fermion_act(l, f)) + fermion_act(l, fermion_act(k, f))
        assert lhs == f.scale(delta), (k, l, lam)


def test_fermion_act_matches_the_two_half_definition():
    """The one extraction fermion_act makes equals half the difference of the
    two raw vertex halves, coefficient types included, on every p_lam with
    |lam| <= 8 and every half-odd k with |k| <= 9/2."""
    modes = [Fraction(2 * j + 1, 2) for j in range(-5, 5)]
    for lam in graded_basis(8):
        f = p_gen(lam)
        for k in modes:
            got, want = fermion_act(k, f).terms, fermion_act_reference(k, f).terms
            assert got == want, (k, lam)
            assert {mu: type(c) for mu, c in got.items()} == \
                {mu: type(c) for mu, c in want.items()}, (k, lam)


@pytest.mark.parametrize("k", [-HALF, Fraction(-3, 2)])
def test_fermion_exclusion(k):
    for lam in graded_basis(3):
        f = p_gen(lam)
        assert fermion_act(k, fermion_act(k, f)).is_zero()


def test_odd_sign_involution_is_algebra_involution():
    f = SymFunc("p", {(3, 2): Fraction(5), (2, 2): Fraction(-1),
                      (3, 1): Fraction(7)})
    g = odd_sign_involution(f)
    assert g.terms[(3, 2)] == -5          # one odd part
    assert g.terms[(2, 2)] == -1          # none
    assert g.terms[(3, 1)] == 7           # two
    assert odd_sign_involution(g) == f


# --- free-field generators ----------------------------------------------------

def _weights(r, s):
    hw = hw_data("sym", r, s)
    return hw, hw.alpha_plus, hw.rho, hw.t


def test_ff_l0_weight_on_vacuum():
    hw, alpha, rho, t = _weights(3, 1)
    one = SymFunc.one("p")
    f = ff_act(("L", 0), one, alpha, rho, t)
    h = alpha * alpha * HALF - rho * alpha
    assert f == one.scale(h)
    assert h == hw.h  # the weight match that makes the intertwiner exist


def test_ff_g_minus_half_on_vacuum():
    hw, alpha, rho, t = _weights(1, 1)
    one = SymFunc.one("p")
    f = ff_act(("G", -HALF), one, alpha, rho, t)
    assert f == fermion_act(-HALF, one).scale(alpha)


def test_ff_fock_image_display_level_three_halves():
    """L_{-1}G_{-1/2}|hw> maps to alpha^2 a_{-1} b_{-1/2} + alpha b_{-3/2}
    applied to the vacuum."""
    hw, alpha, rho, t = _weights(3, 1)
    one = SymFunc.one("p")
    lhs = ff_act(("L", -1), ff_act(("G", -HALF), one, alpha, rho, t), alpha, rho, t)
    b12 = fermion_act(-HALF, one)
    rhs = boson_act(-1, b12, t).scale(alpha * alpha) + \
        fermion_act(Fraction(-3, 2), one).scale(alpha)
    assert lhs == rhs


def test_ff_g_minus_three_halves_display():
    """G_{-3/2}|hw> maps to a_{-1} b_{-1/2} + (2 rho + alpha) b_{-3/2}."""
    hw, alpha, rho, t = _weights(1, 3)
    one = SymFunc.one("p")
    lhs = ff_act(("G", Fraction(-3, 2)), one, alpha, rho, t)
    rhs = boson_act(-1, fermion_act(-HALF, one), t) + \
        fermion_act(Fraction(-3, 2), one).scale(alpha + 2 * rho)
    assert lhs == rhs


@pytest.mark.parametrize("r, s", [(1, 3), (2, 2)])
def test_l_row_is_the_g_anticommutator(r, s):
    """L_n = (1/4) (G~_{n-1/2} G~_{1/2} + G~_{1/2} G~_{n-1/2}) in the free-field
    forms: {G_r, G_s} = 2 L_{r+s} has no central term at s = 1/2, and
    G~ = sqrt2 G.  So the L terms of ff_act are checked against its G terms."""
    hw, alpha, rho, t = _weights(r, s)
    rng = random.Random(10 * r + s)
    lams = [lam for d in range(5) for lam in partitions(d)]

    def ff(gen, f):
        return ff_act(gen, f, alpha, rho, t)

    for n in range(-3, 4):
        g, g_half = ("G", n - HALF), ("G", HALF)
        for _ in range(3):
            f = SymFunc("p", {lam: T * rng.randint(-3, 3) + rng.randint(1, 4)
                              for lam in rng.sample(lams, 4)})
            anti = ff(g, ff(g_half, f)) + ff(g_half, ff(g, f))
            assert ff(("L", n), f) == anti.scale(Fraction(1, 4)), (n, f)


@pytest.mark.parametrize("gen", [("L", 1), ("L", 2), ("G", HALF), ("G", Fraction(3, 2))])
def test_intertwining_on_random_vectors(gen):
    """The Verma action and the free-field action agree through the map.
    The map drops sqrt2 at odd level2 and ff_act returns G~ = sqrt2 G, so
    L intertwines exactly and G up to 2^(-(level2 mod 2))."""
    hw = hw_data("sym", 2, 2)
    rng = random.Random(str(gen))
    for level2 in (1, 2, 3, 4):
        basis = superpartitions(level2)
        terms = {}
        for sp in basis:
            x = rng.randint(-2, 2)
            if x:
                terms[sp] = ONE * x
        if not terms:
            continue
        from svjack.svir import VermaVector
        v = VermaVector(Fraction(level2, 2), terms, hw, hw.h, hw.c)
        left = verma_to_lambda(act(gen, v))
        right = ff_act(gen, verma_to_lambda(v), hw.alpha_plus, hw.rho, hw.t)
        if gen[0] == "G":
            right = right.scale(Fraction(1, 2 ** (level2 % 2)))
        assert (left - right).is_zero()


def test_image_grading():
    hw = hw_data("sym", 2, 2)
    for level2 in (1, 2, 3, 4):
        for sp in superpartitions(level2):
            v = monomial_vector(sp, hw=hw)
            img = verma_to_lambda(v)
            if img.is_zero():
                continue
            assert homogeneous_degree(img) == level2


# --- singular vector images ----------------------------------------------------

def _image_proportional_to(r, s, expected_p):
    from svjack.svir import singular_vector
    chi = singular_vector(r, s, "sym")
    img = to_p(verma_to_lambda(chi))
    exp = to_p(expected_p)
    # find the ratio on the first common term, then compare exactly
    key = next(iter(exp.terms))
    ratio = img.terms[key] / exp.terms[key]
    assert not is_zero(ratio)
    assert img == exp.scale(ratio)


def test_image_11_is_p1():
    _image_proportional_to(1, 1, p_gen((1,)))


def test_image_31_display():
    expected = SymFunc("p", {(3,): -2 * T * T / 3, (2, 1): -ONE,
                             (1, 1, 1): -T * T / 3})
    _image_proportional_to(3, 1, expected)


def test_image_13_is_e3():
    expected = SymFunc("p", {(3,): ONE / 3, (2, 1): -ONE / 2,
                             (1, 1, 1): ONE / 6})
    _image_proportional_to(1, 3, expected)
    assert convert(expected, "e") == e_gen((3,), ONE)


def test_normalized_image_is_base_field():
    from svjack.svir import singular_vector
    chi = singular_vector(2, 2, "sym")
    _, img = monic_image(convert(verma_to_lambda(chi), "m"), (2, 2))
    for c in img.terms.values():
        assert not isinstance(c, Sqrt2Ext)
    m = convert(img, "m")
    assert m.terms[(2, 2)] == ONE


@pytest.mark.parametrize("rs,t", [((2, 2), "sym"), ((3, 1), "sym"),
                                  ((2, 4), Fraction(3, 2))])
def test_image_is_computed_over_the_base_field(monkeypatch, rs, t):
    """verify_conjecture multiplies no sqrt(2)-extension element, and the
    image it checks has only base-field coefficients."""
    import svjack.fock as fock
    calls = []
    real_mul = Sqrt2Ext.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return real_mul(self, other)

    images = []

    def recording_image(v):
        images.append(verma_to_lambda(v))
        return images[-1]

    monkeypatch.setattr(Sqrt2Ext, "__mul__", counting_mul)
    monkeypatch.setattr(fock, "verma_to_lambda", recording_image)
    rep = verify_conjecture(*rs, t=t)
    assert rep["proportional"] and rep["eigencheck"]
    assert calls == []
    assert len(images) == 1 and images[0].terms
    for c in images[0].terms.values():
        assert type(c) in (RatFun, Fraction), type(c)


# --- screening ----------------------------------------------------------------

def test_screening_series_is_odd_elementary():
    series = screening_series(7)
    for j in range(8):
        if j % 2 == 0:
            assert series[j].is_zero()
        else:
            assert series[j] == convert(e_gen((j,)), "p").scale(Fraction(-2))


@pytest.mark.parametrize("s", [1, 3, 5, 7])
def test_screening_residue(s):
    out = screening_r1(s, "sym")
    expected = convert(e_gen((s,), ONE), "p").scale(-T)
    assert out == expected


def test_screening_rejects_even():
    with pytest.raises(ValueError):
        screening_r1(2)


# --- full identification ---------------------------------------------------------

@pytest.mark.parametrize("rs", [(1, 1), (1, 3), (3, 1), (2, 2)])
def test_verify_conjecture_small(rs):
    rep = verify_conjecture(*rs, t="sym")
    assert rep["proportional"] and rep["eigencheck"] and rep["triangular"]


@pytest.mark.parametrize("rs", [(3, 3), (1, 9), (9, 1)])
def test_verify_conjecture_at_rs_nine(rs):
    rep = verify_conjecture(*rs, t="sym")
    assert rep["proportional"] and rep["eigencheck"] and rep["triangular"]


def test_image_scalars_golden():
    """The package's own exact proportionality scalars, frozen."""
    import json
    import pathlib
    golden = json.loads((pathlib.Path(__file__).parent /
                         "golden" / "image_scalars.json").read_text())
    for key, expected in golden.items():
        r, s = (int(x) for x in key.split(","))
        rep = verify_conjecture(r, s, "sym")
        assert rep["scalar"] == expected, key
