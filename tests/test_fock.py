import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svjack.fock import (
    HALF,
    _boson_mode,
    _first_unorthogonal,
    _degree,
    _fermion_mode,
    _fermion_monomial,
    fermion_act,
    ff_act,
    odd_sign_involution,
    screening_r1,
    verify_conjecture,
    verma_to_lambda,
)
from svjack.kernel import (RatFun, Sqrt2Ext, VerificationFailure, _one_denominator, as_scalar,
                           is_zero)
from svjack.svir import _doubled, act, hw_data, monomial_vector, singular_vector, superpartitions
from svjack.symfunc import (SymFunc, convert, dominance_leq, e_gen, merge_partitions,
                             partitions, to_p)
from svjack.uglov import uglov2_orth, uglov_inner

import svjack.fock as fock
from fresh import run_fresh
from oracles import (
    boson_act,
    fermion_act_reference,
    ff_act_reference,
    first_unorthogonal_reference,
    homogeneous_degree,
    monic_image,
    p_gen,
    to_m_reference,
    verify_conjecture_reference,
    verma_to_lambda_reference,
)

T = RatFun.variable("t")
ONE = RatFun.const("t", 1)
VACUUM = {((), ()): ONE}
MODES = [2 * j + 1 for j in range(-4, 4)]  # b~_{-7/2} .. b~_{7/2}, as the keys 2k


def graded_basis(dmax):
    out = []
    for d in range(dmax + 1):
        out.extend(partitions(d))
    return out


def random_exterior_state(rng, size=4):
    """A few exterior basis states (even partition, decreasing doubled
    half-odd indices 2k) of degree <= 12, with small Q(t) coefficients."""
    state = {}
    for _ in range(size):
        even = tuple(2 * p for p in rng.choice(graded_basis(3)))
        ferm = tuple(sorted(rng.sample(MODES[4:], rng.randint(0, 3)), reverse=True))
        state[even, ferm] = T * rng.randint(-3, 3) + rng.randint(1, 4)
    return state


def exterior_image(state):
    """The symmetric function of an exterior state: each p_even times its
    fermion monomial in the odd power sums."""
    out = SymFunc("p", {})
    for (even, ferm), c in state.items():
        out = out + SymFunc("p", {merge_partitions(even, mu): c * a
                                  for mu, a in _fermion_monomial(ferm).terms.items()})
    return out


def same_state(a, b):
    """Equality of exterior states up to zero coefficients."""
    return all(is_zero(a.get(key, 0) - b.get(key, 0)) for key in set(a) | set(b))


def add_states(*states):
    out = {}
    for state in states:
        for key, c in state.items():
            out[key] = out[key] + c if key in out else c
    return out


def scale_state(state, c):
    return {key: x * c for key, x in state.items()}


# --- boson modes -------------------------------------------------------------

def test_boson_annihilates_vacuum():
    assert _boson_mode(1, VACUUM, ONE, T) == {}


def test_boson_creation_on_vacuum():
    assert _boson_mode(-1, VACUUM, ONE, T) == {((2,), ()): -1 / (2 * T)}


def test_boson_zero_mode_is_alpha():
    assert _boson_mode(0, VACUUM, 3 * T, T) == {((), ()): 3 * T}
    assert _boson_mode(0, VACUUM, 0 * T, T) == {}


def test_boson_commutator_is_canonical():
    """[a_m, a_{-m}] = m on exterior states, whose fermion indices ride along."""
    rng = random.Random(3)
    for _ in range(12):
        f = random_exterior_state(rng)
        m = rng.randint(1, 3)

        def a(n, g):
            return _boson_mode(n, g, ONE, T)

        lhs = add_states(a(m, a(-m, f)), scale_state(a(-m, a(m, f)), -1))
        assert same_state(lhs, scale_state(f, m)), (m, f)


def test_boson_modes_match_the_symmetric_function_reference():
    """a_n on an exterior state, mapped to symmetric functions, is the
    reference p-basis derivative or product on the mapped state."""
    rng = random.Random(4)
    for _ in range(12):
        f = random_exterior_state(rng)
        for n in (-2, -1, 1, 2):
            got = exterior_image(_boson_mode(n, f, ONE, T))
            assert got == boson_act(n, exterior_image(f), T), (n, f)


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


# --- the exterior basis --------------------------------------------------------

def test_exterior_fermion_annihilates_vacuum():
    for k in MODES[4:]:
        assert _fermion_mode(k, VACUUM) == {}


def test_exterior_fermion_sign_rule():
    """b~_{-k} inserts k with (-1)^(number of larger indices); b~_k removes
    it with 2 (-1)^(number of larger indices); a repeat or a missing index
    gives 0."""
    f = {((2,), (5, 1)): ONE}  # p_2 b~_{-5/2} b~_{-1/2} 1, indices held as 2k
    assert _fermion_mode(-3, f) == {((2,), (5, 3, 1)): -ONE}
    assert _fermion_mode(-7, f) == {((2,), (7, 5, 1)): ONE}
    assert _fermion_mode(-1, f) == {}
    assert _fermion_mode(1, f) == {((2,), (5,)): -2 * ONE}
    assert _fermion_mode(5, f) == {((2,), (1,)): 2 * ONE}
    assert _fermion_mode(3, f) == {}


@pytest.mark.parametrize("seed", range(4))
def test_exterior_fermion_anticommutator_canonical(seed):
    """b~_k b~_l + b~_l b~_k = 2 delta_{k+l,0} on random exterior states."""
    rng = random.Random(seed)
    for _ in range(6):
        f = random_exterior_state(rng)
        for k in MODES:
            for l in MODES:
                lhs = add_states(_fermion_mode(k, _fermion_mode(l, f)),
                                 _fermion_mode(l, _fermion_mode(k, f)))
                assert same_state(lhs, scale_state(f, 2 if k + l == 0 else 0)), (k, l, f)


def test_exterior_fermion_is_the_vertex_fermion():
    """b~_k on an exterior state, mapped to symmetric functions, is the
    vertex extraction fermion_act on the mapped state: the exterior basis is
    the Clifford module the vacuum generates."""
    rng = random.Random(5)
    for _ in range(8):
        f = random_exterior_state(rng)
        for k in MODES:
            got = exterior_image(_fermion_mode(k, f))
            assert got == fermion_act(Fraction(k, 2), exterior_image(f)), (k, f)


def test_exterior_degree_rule():
    """A state's degree is |even| + 2 sum(indices), the degree of its image;
    a generator of mode index n, ("L", 2n) or ("G", 2n) on the doubled index,
    changes it by -2n."""
    rng = random.Random(6)
    hw, alpha, rho, t = _weights(2, 2)
    for _ in range(20):
        f = random_exterior_state(rng, size=1)
        (key,) = f
        assert _degree(key) == sum(key[0]) + 2 * sum(Fraction(k, 2) for k in key[1])
        assert homogeneous_degree(exterior_image(f)) == _degree(key)
        for gen in (("L", -2), ("L", 2), ("G", -1), ("G", 3)):
            out = ff_act(gen, f, alpha, rho, t)
            assert {_degree(k) for k in out} <= {_degree(key) - gen[1]}, gen


def test_fermion_monomials_are_cached_over_q():
    """The cached fermion monomials hold rationals, whatever field the image
    that first asked for them was computed in."""
    verma_to_lambda(singular_vector(2, 2, "sym"))
    for ferm in ((1,), (3, 1), (5, 3, 1)):  # (1/2,), (3/2, 1/2), (5/2, 3/2, 1/2)
        assert {type(c) for c in _fermion_monomial(ferm).terms.values()} == {Fraction}
    assert _fermion_monomial((1,)) == SymFunc("p", {(1,): Fraction(-1)})


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
    f = ff_act(("L", 0), VACUUM, alpha, rho, t)
    h = alpha * alpha * HALF - rho * alpha
    assert same_state(f, scale_state(VACUUM, h))
    assert h == hw.h  # the weight match that makes the intertwiner exist


def test_ff_g_minus_half_on_vacuum():
    hw, alpha, rho, t = _weights(1, 1)
    f = ff_act(("G", -1), VACUUM, alpha, rho, t)
    assert same_state(f, {((), (1,)): alpha})
    assert exterior_image(f) == fermion_act(-HALF, SymFunc.one("p")).scale(alpha)


def test_ff_fock_image_display_level_three_halves():
    """L_{-1}G_{-1/2}|hw> maps to alpha^2 a_{-1} b_{-1/2} + alpha b_{-3/2}
    applied to the vacuum."""
    hw, alpha, rho, t = _weights(3, 1)
    lhs = ff_act(("L", -2), ff_act(("G", -1), VACUUM, alpha, rho, t), alpha, rho, t)
    rhs = {((2,), (1,)): alpha * alpha * (-1 / (2 * t)),
           ((), (3,)): alpha}
    assert same_state(lhs, rhs)


def test_ff_g_minus_three_halves_display():
    """G_{-3/2}|hw> maps to a_{-1} b_{-1/2} + (2 rho + alpha) b_{-3/2}."""
    hw, alpha, rho, t = _weights(1, 3)
    lhs = ff_act(("G", -3), VACUUM, alpha, rho, t)
    rhs = {((2,), (1,)): -1 / (2 * t), ((), (3,)): alpha + 2 * rho}
    assert same_state(lhs, rhs)


@pytest.mark.parametrize("r, s", [(1, 3), (2, 2)])
def test_l_row_is_the_g_anticommutator(r, s):
    """L_n = (1/4) (G~_{n-1/2} G~_{1/2} + G~_{1/2} G~_{n-1/2}) in the free-field
    forms: {G_r, G_s} = 2 L_{r+s} has no central term at s = 1/2, and
    G~ = sqrt2 G.  So the L terms of ff_act are checked against its G terms."""
    hw, alpha, rho, t = _weights(r, s)
    rng = random.Random(10 * r + s)

    def ff(gen, f):
        return ff_act(gen, f, alpha, rho, t)

    for n in range(-3, 4):
        g, g_half = ("G", 2 * n - 1), ("G", 1)  # G~_{n-1/2} and G~_{1/2}
        for _ in range(3):
            f = random_exterior_state(rng)
            anti = add_states(ff(g, ff(g_half, f)), ff(g_half, ff(g, f)))
            assert same_state(ff(("L", 2 * n), f), scale_state(anti, Fraction(1, 4))), (n, f)


@pytest.mark.parametrize("gen", [("L", -4), ("L", 2), ("G", -3), ("G", 1)])
def test_ff_act_matches_the_symmetric_function_reference(gen):
    """ff_act on exterior states, mapped to symmetric functions, is the
    reference ff_act that extracts a vertex mode on every intermediate
    symmetric function; gen is on the doubled index: L_{-2}, L_1, G_{-3/2},
    G_{1/2}."""
    hw, alpha, rho, t = _weights(2, 2)
    rng = random.Random(str(gen))
    for _ in range(4):
        f = random_exterior_state(rng)
        got = exterior_image(ff_act(gen, f, alpha, rho, t))
        assert got == ff_act_reference(gen, exterior_image(f), alpha, rho, t)


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
        right = ff_act_reference(_doubled(gen), verma_to_lambda(v), hw.alpha_plus, hw.rho,
                                 hw.t)
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

EQUAL_PARITY_RS_TO_9 = [(r, s) for r in range(1, 10) for s in range(1, 10)
                        if r * s <= 9 and (r - s) % 2 == 0]


@pytest.mark.parametrize("rs, t", [(rs, "sym") for rs in EQUAL_PARITY_RS_TO_9]
                         + [((2, 6), Fraction(3, 2))])
def test_exterior_image_matches_the_vertex_path(rs, t):
    """The exterior-basis image of each singular vector equals, coefficient
    types included, the reference image that extracts a vertex mode on every
    intermediate symmetric function."""
    chi = singular_vector(*rs, t)
    got, want = verma_to_lambda(chi).terms, verma_to_lambda_reference(chi).terms
    assert got == want
    assert {mu: type(c) for mu, c in got.items()} == {mu: type(c) for mu, c in want.items()}


_coeffs = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))


# every PBW word up to level 7/2, the empty word and words that are prefixes
# of others (L_{-1} and L_{-1} L_{-1}, G_{-1/2} and L_{-1} G_{-1/2}) included
_PBW_TO_7_HALVES = [sp for level2 in range(8) for sp in superpartitions(level2)]


@st.composite
def _pbw_vectors(draw):
    """Rational coefficients, zeros included, on a random set of PBW words
    of levels 0 to 7/2: one vector may mix levels, so its word trie has
    words ending at inner nodes."""
    coeffs = draw(st.lists(st.one_of(st.none(), _coeffs), min_size=len(_PBW_TO_7_HALVES),
                           max_size=len(_PBW_TO_7_HALVES)))
    return {sp: c for sp, c in zip(_PBW_TO_7_HALVES, coeffs) if c is not None}


@pytest.mark.parametrize("t", ["sym", Fraction(3, 2)])
@given(terms=_pbw_vectors())
@settings(max_examples=60, deadline=None)
def test_word_trie_image_matches_the_word_by_word_reference(t, terms):
    """The image evaluated over the word trie equals, coefficient types
    included, the reference that applies each word on its own to
    symmetric functions."""
    from svjack.svir import VermaVector
    hw = hw_data(t, 2, 2)
    v = VermaVector(Fraction(7, 2), terms, hw, hw.h, hw.c)
    got, want = verma_to_lambda(v).terms, verma_to_lambda_reference(v).terms
    assert got == want
    assert {mu: type(c) for mu, c in got.items()} == {mu: type(c) for mu, c in want.items()}


def test_image_applies_each_word_prefix_once(monkeypatch):
    """For the (3, 5) singular vector at t = 3/2, verma_to_lambda calls ff_act
    once per distinct nonempty word prefix (117; its 55 words have 217
    letters), and every exterior state it passes holds its fermion indices
    as the integers 2k."""
    import svjack.fock as fock
    from svjack.svir import _word_of
    chi = singular_vector(3, 5, Fraction(3, 2))
    real = fock.ff_act
    states = []

    def counting(gen, state, *rest):
        states.append(state)
        return real(gen, state, *rest)

    monkeypatch.setattr(fock, "ff_act", counting)
    verma_to_lambda(chi)
    words = [_word_of(sp) for sp in chi.terms]
    prefixes = {w[:i] for w in words for i in range(1, len(w) + 1)}
    assert (len(words), sum(map(len, words)), len(prefixes)) == (55, 217, 117)
    assert len(states) == len(prefixes)
    assert all(type(k) is int for state in states for _, ferm in state for k in ferm)


def _image_proportional_to(r, s, expected_p):
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
    raw = verma_to_lambda(singular_vector(2, 2, "sym"))
    _, img = monic_image(raw, convert(raw, "m"), (2, 2))
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

@pytest.mark.parametrize("s", [1, 3, 5, 7, 9])
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


# --- the certificate: triangular, led by m_lam, orthogonal to every lower m_mu ---

def _certificate_case(rs, t):
    """(lam, gamma, raw_p, raw_m) for the (r, s) singular vector at t."""
    chi = singular_vector(*rs, t)
    raw_p = verma_to_lambda(chi)
    tt = chi.weight.t
    return (rs[0],) * rs[1], (tt * 0 + 1) / (tt * tt), raw_p, convert(raw_p, "m")


def _lower(lam):
    return [mu for mu in partitions(sum(lam)) if mu != lam and dominance_leq(mu, lam)]


def _m(mu, c=Fraction(1)):
    return SymFunc("m", {mu: c})


def _solve(image_p, lam, gamma):
    """_first_unorthogonal on image_p put on one denominator."""
    return _first_unorthogonal(_one_denominator(image_p.terms)[1], lam, gamma)


@pytest.mark.parametrize("t", ["sym", Fraction(3, 2)])
@pytest.mark.parametrize("rs", EQUAL_PARITY_RS_TO_9)
def test_certificate_agrees_with_the_ladder(rs, t):
    """Where the certificate holds, the image is its m_lam coefficient times
    the gamma-family member the Gram-Schmidt ladder builds."""
    lam, gamma, raw_p, raw_m = _certificate_case(rs, t)
    lead, monic = monic_image(raw_p, raw_m, lam)
    assert all(dominance_leq(mu, lam) for mu in raw_m.terms)
    assert _solve(raw_p, lam, gamma) is None
    assert raw_m == uglov2_orth(lam, gamma).scale(lead)
    assert monic == to_p(uglov2_orth(lam, gamma))


@pytest.mark.parametrize("rs, t", [((2, 2), "sym"), ((2, 4), "sym"), ((3, 3), "sym"),
                                   ((3, 3), Fraction(3, 2)), ((5, 1), Fraction(3, 2)),
                                   ((4, 2), "sym"), ((2, 4), Fraction(3, 2))])
def test_certificate_catches_every_lower_perturbation(rs, t):
    """Adding eps m_mu for any mu < lam makes <f, m_nu> = eps <m_mu, m_nu>, so
    the certificate names the first nu below lam, in partitions() order, that
    m_mu is not orthogonal to; for the first mu below lam that is mu.  The
    forward solve names the same nu as the expansion of each m_nu in power
    sums."""
    lam, gamma, raw_p, _ = _certificate_case(rs, t)
    lower = _lower(lam)
    assert lower
    for mu in lower:
        first = next(nu for nu in lower
                     if not is_zero(uglov_inner(_m(mu), _m(nu), gamma)))
        perturbed = raw_p + to_p(_m(mu, gamma / 1000))
        assert _solve(perturbed, lam, gamma) == first
        assert first_unorthogonal_reference(perturbed, lam, gamma) == first
    top = lower[0]
    assert _solve(raw_p + to_p(_m(top, gamma / 1000)), lam, gamma) == top


def test_verify_builds_no_m_to_p_table():
    """A fresh verify at symbolic t certifies from the p -> m rows alone:
    the m -> p table cache stays empty."""
    code = ("from svjack import fock, symfunc\n"
            "fock.verify_conjecture(2, 6, 'sym')\n"
            "print(list(symfunc._M_TO_P_CACHE))\n")
    assert run_fresh(code).strip() == "[]"


@st.composite
def _certificate_inputs(draw):
    """A p-expansion over Q of degree <= 7, a partition lam of its degree
    and a nonzero rational gamma."""
    parts = partitions(draw(st.integers(0, 7)))
    coeffs = draw(st.lists(_coeffs, min_size=len(parts), max_size=len(parts)))
    gamma = draw(_coeffs.filter(bool))
    return SymFunc("p", dict(zip(parts, coeffs))), draw(st.sampled_from(parts)), gamma


@given(_certificate_inputs())
@settings(max_examples=200, deadline=None)
def test_certificate_solve_matches_the_expansion(case):
    """On any p-expansion, where several <f, m_mu>_gamma are nonzero at once,
    the forward solve names the mu the expansion of each m_mu does."""
    image_p, lam, gamma = case
    assert (_solve(image_p, lam, gamma)
            == first_unorthogonal_reference(image_p, lam, gamma))


def _perturb_image(monkeypatch, extra):
    """Make verify_conjecture see its image plus extra(t) in the m basis."""
    import svjack.fock as fock
    real = fock.verma_to_lambda
    monkeypatch.setattr(fock, "verma_to_lambda",
                        lambda v: real(v) + to_p(extra(v.weight.t)))


@pytest.mark.parametrize("t", ["sym", Fraction(3, 2)])
@pytest.mark.parametrize("rs", [(2, 2), (3, 1), (2, 4), (3, 3)])
def test_verify_conjecture_rejects_a_lower_perturbation(monkeypatch, rs, t):
    """(t/1000) m_mu added to the image, for the first mu below lam: the
    failure names mu."""
    lam = (rs[0],) * rs[1]
    mu = _lower(lam)[0]
    _perturb_image(monkeypatch, lambda tt: _m(mu, tt / 1000))
    message = ("image is not proportional to the shape-%s family member; first "
               "mismatch at m_%s" % (list(lam), list(mu)))
    with pytest.raises(VerificationFailure, match="^%s$" % re.escape(message)):
        verify_conjecture(*rs, t=t)


@pytest.mark.parametrize("extra, named", [(((3, 1),), (3, 1)), (((3, 1), (4,)), (4,))])
def test_verify_conjecture_rejects_a_non_triangular_image(monkeypatch, extra, named):
    """A monomial that (2, 2) does not dominate fails the triangularity check,
    which names the first such monomial in partitions() order."""
    _perturb_image(monkeypatch,
                   lambda tt: SymFunc("m", {mu: tt / 1000 for mu in extra}))
    message = ("image is not dominance-triangular below m_[2, 2]; first monomial "
               "outside at m_%s" % (list(named),))
    with pytest.raises(VerificationFailure, match="^%s$" % re.escape(message)):
        verify_conjecture(2, 2, t="sym")


# --- verify on one denominator against the path over the fields ---------------

_CASES = {}


@pytest.fixture
def shared_images(monkeypatch):
    """Serve fock.singular_vector and fock.verma_to_lambda from one cache, so
    verify_conjecture and verify_conjecture_reference, which both look them
    up in fock, read the same image, built once per (r, s, t)."""
    images = {}

    def cached_singular_vector(r, s, t="sym"):
        if (r, s, t) not in _CASES:
            chi = singular_vector(r, s, t)
            _CASES[r, s, t] = chi, verma_to_lambda(chi)
        chi, image = _CASES[r, s, t]
        images[id(chi)] = image
        return chi

    monkeypatch.setattr(fock, "singular_vector", cached_singular_vector)
    monkeypatch.setattr(fock, "verma_to_lambda", lambda v: images[id(v)])


def _outcome(check, rs, t):
    """The report, or the message of the VerificationFailure raised."""
    try:
        return check(*rs, t=t)
    except VerificationFailure as exc:
        return "VerificationFailure: %s" % exc


def _both(rs, t):
    """The outcome of verify and of its reference, which must be equal."""
    got = _outcome(verify_conjecture, rs, t)
    assert got == _outcome(verify_conjecture_reference, rs, t)
    return got


@pytest.mark.parametrize("t", ["sym", Fraction(3, 2), Fraction(5, 3)])
@pytest.mark.parametrize("rs", EQUAL_PARITY_RS_TO_9)
def test_verify_equals_the_path_over_the_fields(shared_images, rs, t):
    """The report of the one-denominator checks equals the report of the
    checks over Q or Q(t), scalar included."""
    rep = _both(rs, t)
    assert rep["eigencheck"] is True, rep


_FAILING = [((2, 2), "sym"), ((2, 4), "sym"), ((4, 2), Fraction(3, 2)), ((3, 3), Fraction(5, 3)),
            ((1, 5), "sym")]


@pytest.mark.parametrize("rs, t", _FAILING)
def test_verify_fails_above_lam_as_the_path_over_the_fields(shared_images, monkeypatch, rs, t):
    """(t/1000) m_mu added for each mu that lam does not dominate: both
    name mu, the first monomial outside, in the triangularity message."""
    lam = (rs[0],) * rs[1]
    above = [mu for mu in partitions(sum(lam)) if not dominance_leq(mu, lam)]
    real = fock.verma_to_lambda
    for mu in above:
        monkeypatch.setattr(fock, "verma_to_lambda",
                            lambda v, mu=mu: real(v) + to_p(_m(mu, v.weight.t / 1000)))
        assert _both(rs, t) == (
            "VerificationFailure: image is not dominance-triangular below m_%s; first "
            "monomial outside at m_%s" % (list(lam), list(mu)))


@pytest.mark.parametrize("rs, t", _FAILING)
def test_verify_fails_below_lam_as_the_path_over_the_fields(shared_images, monkeypatch, rs, t):
    """(t/1000) m_mu added for each mu below lam: both name the same first
    mismatch, the first nu below lam, in partitions() order, that m_mu is
    not orthogonal to."""
    lam = (rs[0],) * rs[1]
    tt = as_scalar(t, "t")
    gamma = (tt * 0 + 1) / (tt * tt)
    real = fock.verma_to_lambda
    lower = _lower(lam)
    for mu in lower:
        first = next(nu for nu in lower if not is_zero(uglov_inner(_m(mu), _m(nu), gamma)))
        monkeypatch.setattr(fock, "verma_to_lambda",
                            lambda v, mu=mu: real(v) + to_p(_m(mu, v.weight.t / 1000)))
        assert _both(rs, t) == (
            "VerificationFailure: image is not proportional to the shape-%s family "
            "member; first mismatch at m_%s" % (list(lam), list(first)))


@pytest.mark.parametrize("rs, t", _FAILING)
def test_verify_fails_to_vanish_or_to_lead_as_the_path_over_the_fields(shared_images,
                                                                       monkeypatch, rs, t):
    """An image of 0, or one without its m_lam term, fails alike on both."""
    lam = (rs[0],) * rs[1]
    real = fock.verma_to_lambda
    monkeypatch.setattr(fock, "verma_to_lambda", lambda v: SymFunc("p", {}))
    assert _both(rs, t) == ("VerificationFailure: the image of the (%d, %d) singular "
                            "vector vanishes" % rs)
    if lam == partitions(sum(lam))[-1]:
        return  # the image is c m_lam alone, and without it it vanishes
    monkeypatch.setattr(fock, "verma_to_lambda", lambda v: real(v) - to_p(
        _m(lam, to_m_reference(real(v)).terms[lam])))
    assert _both(rs, t) == ("VerificationFailure: image lacks the leading monomial m_%s"
                            % (list(lam),))


@pytest.mark.parametrize("rs, t", _FAILING)
def test_verify_flags_a_failed_eigencheck_as_the_path_over_the_fields(shared_images,
                                                                      monkeypatch, rs, t):
    """With eps1 shifted by 1 or by gamma, both reports read eigencheck false
    and agree in every other key."""
    real = fock.eps1
    for shift in (lambda g: 1, lambda g: g):
        monkeypatch.setattr(fock, "eps1", lambda lam, g, shift=shift: real(lam, g) + shift(g))
        rep = _both(rs, t)
        assert rep["eigencheck"] is False and rep["proportional"] is True
