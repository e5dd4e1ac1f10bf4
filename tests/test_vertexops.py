import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from svjack.fock import _exp_series, fermion_act, odd_sign_involution, verma_to_lambda
from svjack.kernel import Jet, KernelError, RatFun, VerificationFailure, as_scalar
from svjack.svir import singular_vector
from svjack.symfunc import SymFunc, convert, e_gen, multiply, partitions
from svjack.uglov import uglov2_orth
from svjack.vertexops import (
    VertexOperator,
    _c1_rows,
    apply_vertex_mode,
    c0_apply,
    c1_apply,
    dvir_jet,
    dvir_rational,
    eps0,
    eps1,
    eps_hbar_check,
    eps_macdonald,
    eta_hbar_check,
    eta_operator,
    exact_sqrt,
    hbar_parameters,
    pt_c10_check,
    pt_eta_check,
)

from oracles import (
    GradedOperator,
    c0_mode,
    c1_apply_reference,
    c1_apply_rows_reference,
    c1_rows_reference,
    c1_mode,
    commuting_family_check,
    dvir_modes,
    dvir_per_call,
    graded_apply,
    graded_to_json,
    m_gen,
    monic_image,
    p_gen,
    solve_t1_alpha,
    vertex_mode_apply_oracle,
    vertex_mode_per_call,
)


# --- generic mode extraction against the dense oracle ----------------------

_T = RatFun.variable("t")
# a nonzero rational x as an element of each scalar field the engine meets
_LIFT = {
    "Fraction": lambda x: x,
    "Q(t)": lambda x: (_T + x) / (_T - 2),
    "Jet": lambda x: Jet([x, 1 - x], 1),
}
_KEEP = {"any": (0, 1), "odd": (1,), "even": (0,)}


@pytest.mark.parametrize("n", [-2, -1, 0, 1, 2])
def test_vertex_mode_against_dense_oracle(n):
    """Each parity, over Q, Q(t) and hbar-jets, with the creation series
    absent at a = 4 (None) and the annihilation series at b = 3 (zero), on
    sums of p_lam whose images share monomials.  The oracle has no parity
    argument: it gets the series restricted to the kept indices."""
    rng = random.Random(n + 10)
    for field, lift in _LIFT.items():
        collided = False
        for parity, keep in _KEEP.items():
            def cre(a):
                return None if a == 4 or a % 2 not in keep else lift(Fraction(1, a + 1))

            def ann(b):
                return 0 if b == 3 or b % 2 not in keep else lift(Fraction(-2, b))

            terms = {lam: lift(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                     for d in range(5) for lam in partitions(d)}
            op = VertexOperator(cre, ann, parity)
            images = [apply_vertex_mode(op, n, SymFunc("p", {lam: c}))
                      for lam, c in terms.items()]
            keys = [mu for image in images for mu in image.terms]
            collided = collided or len(set(keys)) < len(keys)
            mine = apply_vertex_mode(op, n, SymFunc("p", terms))
            assert mine == sum(images[1:], images[0]), (field, parity)
            ref = vertex_mode_apply_oracle(cre, ann, n, SymFunc("p", terms), dmax=4 - min(n, 0))
            assert mine == ref, (field, parity)
        assert collided, field  # two images share a monomial


def test_eta_mode_against_dense_oracle():
    q, t = Fraction(2, 3), Fraction(3, 5)
    t_inv = 1 / t

    def cre(a):
        return (1 - t_inv ** a) * Fraction(1, a)

    def ann(b):
        return -(1 - q ** b)

    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1)]:
        f = p_gen(lam)
        assert (apply_vertex_mode(eta_operator(q, t), 0, f)
                == vertex_mode_apply_oracle(cre, ann, 0, f, dmax=6))


# --- reused operators against the per-call path ----------------------------

def _same(a, b):
    """Equal SymFuncs whose coefficients also have the same types."""
    return (a.basis == b.basis and a.terms == b.terms
            and all(type(c) is type(b.terms[mu]) for mu, c in a.terms.items()))


def _sweep(dmax, lift=lambda x: x):
    """m_lam up to degree dmax, down the degrees and up again, so a reused
    operator's caches meet degrees they hold and degrees they do not."""
    lams = [lam for d in range(dmax + 1) for lam in partitions(d)]
    return [m_gen(lam, lift(Fraction(1))) for lam in lams[::-1] + lams]


@pytest.mark.parametrize("cur, dmax", [
    (dvir_jet(Fraction(1, 2), Fraction(3, 2), 1), 4),
    (dvir_jet(1 / (_T * _T), 0 * _T, 1), 3),
    (dvir_rational(Fraction(1, 2), Fraction(2), 1), 4),
], ids=["jet", "jet-symbolic", "rational"])
def test_reused_current_equals_the_per_call_path(cur, dmax):
    t_ref, psi_ref = dvir_per_call(cur)
    for f in _sweep(dmax):
        for n in range(-1, dmax + 1):
            assert _same(cur.t_apply(n, f), t_ref(n, f)), (n, f)
        for n in range(dmax + 1):
            assert _same(cur.psi_apply(n, f), psi_ref(n, f)), (n, f)


@pytest.mark.parametrize("q, t", [hbar_parameters(Fraction(2, 3), 1),
                                  hbar_parameters(RatFun.variable("g"), 1),
                                  (Fraction(2, 3), Fraction(3, 5))],
                         ids=["jet", "jet-symbolic", "rational"])
def test_reused_eta_equals_the_per_call_path(q, t):
    eta = eta_operator(q, t)
    for f in _sweep(4):
        for n in (-2, 0, 1, 3):
            fresh = apply_vertex_mode(eta_operator(q, t), n, f)
            assert _same(apply_vertex_mode(eta, n, f), fresh), (n, f)


@pytest.mark.parametrize("lift", [lambda x: x, lambda x: (_T + x) / (_T - 2)],
                         ids=["Q", "Q(t)"])
def test_module_operators_equal_the_per_call_path(lift):
    for f in _sweep(5, lift):
        for n in (-1, 0, 2):
            assert _same(c0_apply(n, f),
                         vertex_mode_per_call(lambda a: Fraction(2, a), lambda b: Fraction(-2),
                                              n, f, "odd")), (n, f)
        for k in (Fraction(-3, 2), Fraction(1, 2), Fraction(5, 2)):
            assert _same(fermion_act(k, f),
                         vertex_mode_per_call(lambda a: Fraction(-1, a), lambda b: Fraction(2),
                                              int(2 * k), odd_sign_involution(f), "odd")), (k, f)
    for j in (7, 0, 3, 6):
        for name, sign, parity in (("E1", 1, "odd"), ("E0", -1, "even")):
            assert _same(_exp_series(j, name),
                         vertex_mode_per_call(lambda a: Fraction(sign, a), lambda b: None,
                                              -j, SymFunc.one("p"), parity)), (j, name)


def test_a_dropped_operator_frees_its_caches():
    # the caches live as long as their operator: nothing global keeps a
    # current, its three operators or an eta alive
    cur = dvir_jet(Fraction(1, 2), Fraction(3, 2), 1)
    f = m_gen((2, 1))
    cur.psi_apply(1, cur.t_apply(1, f))
    eta = eta_operator(*hbar_parameters(Fraction(2, 3), 1))
    apply_vertex_mode(eta, 0, f)
    refs = [weakref.ref(x) for x in (cur, cur._b1, cur._b2, cur._psi, eta)]
    del cur, eta
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


# --- eigenvalue formulas ----------------------------------------------------

def test_eps_values():
    assert eps0(()) == 1
    assert eps1((), Fraction(1)) == 0
    assert eps1((2,), Fraction(7, 3)) == 4  # independent of gamma
    g = RatFun.variable("g")
    assert eps1((1, 1, 1), g) == 6 * g - 2
    assert eps1((1, 1), g) == -4 * g
    assert eps1((1,), g) == 2 * g - 2
    assert eps0((2,)) == 1
    assert eps0((1,)) == -3


def test_eta_eigen_examples():
    q, t = Fraction(2, 3), Fraction(3, 5)
    eta = eta_operator(q, t)
    one = SymFunc.one("p")
    assert apply_vertex_mode(eta, 0, one) == one  # eps on the empty partition is 1
    # p_1 is the degree-1 Macdonald function
    f = p_gen((1,))
    expected = eps_macdonald((1,), q, t)
    assert expected == 1 + (t - 1) * (q - 1) / t
    assert apply_vertex_mode(eta, 0, f) == f.scale(expected)


def test_c0_on_vacuum_and_p1():
    one = SymFunc.one("p")
    assert c0_apply(0, one) == one
    f = p_gen((1,))
    assert c0_apply(0, f) == f.scale(Fraction(-3))


def test_c0_oracle_cross_check():
    def cre(a):
        return Fraction(2, a) if a % 2 == 1 else None

    def ann(b):
        return Fraction(-2) if b % 2 == 1 else None

    for lam in [(2,), (2, 1), (3,), (2, 2)]:
        f = p_gen(lam)
        assert c0_apply(0, f) == vertex_mode_apply_oracle(cre, ann, 0, f, dmax=6)


def test_c1_on_p1_and_e2_and_vacuum():
    g = RatFun.variable("g")
    f = p_gen((1,))
    assert c1_apply(g, 0, f) == f.scale(2 * g - 2)
    e2 = convert(e_gen((2,)), "p")
    assert c1_apply(g, 0, e2) == e2.scale(-4 * g)
    assert c1_apply(g, 0, SymFunc.one("p")).is_zero()


def _same_coefficients(got, want):
    """Equal keys, and per key the same coefficient repr and type."""
    return ({mu: (repr(c), type(c)) for mu, c in got.terms.items()}
            == {mu: (repr(c), type(c)) for mu, c in want.terms.items()})


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("d", range(13))
def test_c1_rows_are_the_fraction_rows_times_a_factorial(d, n):
    """_c1_rows(n, lam) is (A_n p_lam, B_n p_lam) over Q times (|lam| - n)!,
    in ints, for every partition of d."""
    scale = math.factorial(max(d - n, 0))
    for lam in partitions(d):
        rows = _c1_rows(n, lam)
        want = tuple({key: x * scale for key, x in row.items() if x}
                     for row in c1_rows_reference(n, lam))
        assert rows == want, lam
        assert all(type(x) is int for row in rows for x in row.values()), lam


@pytest.mark.parametrize("coeffs", [(Fraction(3, 2), Fraction(-1, 3), Fraction(5), Fraction(1)),
                                    (3, -1, 2, 1),
                                    (_T / 2, 1 / (_T + 1), _T * _T - 3, _T)],
                         ids=["Fraction", "int", "RatFun"])
@pytest.mark.parametrize("g", [Fraction(2, 3), 3, _T])
def test_c1_apply_keeps_the_coefficient_types(coeffs, g):
    """Dividing each output entry by |kappa|! once gives the values the
    Fraction rows gave, for n = -2..2, and their coefficient types, but for
    one case: on int coefficients the Fraction rows left an int where only
    weight-one terms reach a key (p_kappa from p_(n) p_kappa under B_n, or
    p_kappa p_(-n) under A_n, both present here), and that coefficient is
    now a Fraction."""
    f = SymFunc("p", dict(zip(((2, 1, 1), (3, 1), (1, 1, 1, 1), (2,)), coeffs)))
    for n in range(-2, 3):
        got, want = c1_apply(g, n, f), c1_apply_rows_reference(g, n, f)
        if type(coeffs[0]) is int:
            assert got == want, n
            assert ({mu: type(c) for mu, c in got.terms.items()}
                    == {mu: Fraction if type(c) is int else type(c)
                        for mu, c in want.terms.items()}), n
        else:
            assert _same_coefficients(got, want), n


@pytest.mark.parametrize("g", ["sym", Fraction(2, 3)])
@pytest.mark.parametrize("d", range(8))
def test_c1_apply_equals_the_reference_on_the_gamma_family(g, d):
    """The one-pass gamma A_n + B_n equals C^1_n assembled from whole C^0
    modes, coefficient by coefficient, on every gamma-family member of
    degree d, for n = -2..2."""
    gamma = as_scalar(g, "g")
    for lam in partitions(d):
        f = uglov2_orth(lam, g)
        for n in range(-2, 3):
            assert _same_coefficients(c1_apply(gamma, n, f), c1_apply_reference(gamma, n, f)), \
                (lam, n)


@pytest.mark.parametrize("rs", [(r, s) for r in range(1, 10) for s in range(1, 10)
                                if r * s <= 9 and (r - s) % 2 == 0])
def test_c1_apply_equals_the_reference_on_singular_vector_images(rs):
    """The same on the monic image of each singular vector with rs <= 9, at
    symbolic t and gamma = 1/t^2 (n = 0 is what verify_conjecture applies)."""
    chi = singular_vector(*rs, "sym")
    raw = verma_to_lambda(chi)
    _, f = monic_image(raw, convert(raw, "m"), (rs[0],) * rs[1])
    t = chi.weight.t
    gamma = (t * 0 + 1) / (t * t)
    for n in range(-2, 3):
        assert _same_coefficients(c1_apply(gamma, n, f), c1_apply_reference(gamma, n, f)), n


def test_graded_operator_blocks_and_apply():
    op = c0_mode(0, 4)
    assert op.shift == 0
    f = m_gen((2, 1))
    assert graded_apply(op, f) == convert(c0_apply(0, f), "m")


def test_truncation_stability():
    g = Fraction(1, 2)
    small = c1_mode(g, 0, 3)
    big = c1_mode(g, 0, 6)
    for d in range(4):
        assert small.block(d) == big.block(d)


def test_graded_operator_json_roundtrip_shape():
    op = c0_mode(1, 3)
    j = graded_to_json(op)
    assert j["shift"] == -1
    assert set(j["blocks"]) == {"1", "2", "3"}


# --- hbar expansions --------------------------------------------------------

def test_eps_jet_expansion():
    assert eps_hbar_check(5, Fraction(2, 3))


@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(1, 2)])
def test_eta_hbar_check(gamma):
    assert eta_hbar_check(gamma, 3)["verified"]


def test_eta_hbar_check_degree0_trivial():
    assert eta_hbar_check(Fraction(3), 0)["verified"]


@pytest.mark.parametrize("name,order", [("c0_apply", 0), ("c1_apply", 1)])
def test_eta_hbar_check_catches_a_wrong_operator(monkeypatch, name, order):
    import svjack.vertexops as vertexops
    right = getattr(vertexops, name)
    monkeypatch.setattr(vertexops, name, lambda *args: right(*args).scale(Fraction(2)))
    with pytest.raises(VerificationFailure, match=r"h\^%d mismatch at \(" % order):
        eta_hbar_check(Fraction(1), 2)


def test_pt_c10_check_catches_a_wrong_operator(monkeypatch):
    import svjack.vertexops as vertexops
    right = vertexops.c1_apply
    monkeypatch.setattr(vertexops, "c1_apply",
                        lambda *args: right(*args).scale(Fraction(2)))
    with pytest.raises(VerificationFailure, match=r"h\^1 zero-mode identity fails at \("):
        pt_c10_check(Fraction(1, 2), Fraction(3, 2), 2)


def _plus_on_m21(right):
    """right plus p_3 times the m_(2,1) coordinate of f, its last argument:
    a change confined to the one input m_(2,1)."""
    def wrong(*args):
        out = right(*args)
        coeff = convert(args[-1], "m").terms.get((2, 1), 0)
        return out + SymFunc("p", {(3,): coeff}) if coeff else out
    return wrong


@pytest.mark.parametrize("name,order", [("c0_apply", 0), ("c1_apply", 1)])
def test_hbar_checks_catch_an_operator_wrong_on_one_monomial(monkeypatch, name, order):
    """The checks sweep the p_lam; an operator that differs from the right
    one on m_(2,1) alone still fails them, at the first p_lam with an
    m_(2,1) coordinate, p_(2,1) = m_3 + m_(2,1)."""
    import svjack.vertexops as vertexops
    right = getattr(vertexops, name)
    wrong = _plus_on_m21(right)
    args = (0,) if order == 0 else (Fraction(1), 0)
    for d in range(4):
        for mu in partitions(d):
            assert (wrong(*args, m_gen(mu)) == right(*args, m_gen(mu))) == (mu != (2, 1)), mu
    monkeypatch.setattr(vertexops, name, wrong)
    with pytest.raises(VerificationFailure, match=r"^h\^%d mismatch at \(2, 1\)$" % order):
        eta_hbar_check(Fraction(1), 3)
    if order == 1:
        with pytest.raises(VerificationFailure,
                           match=r"^h\^1 zero-mode identity fails at \(2, 1\)$"):
            pt_c10_check(Fraction(1, 2), Fraction(3, 2), 3)


def test_hbar_identities_hold_over_q_of_gamma():
    """The eta expansion and the first-order zero-mode identity at symbolic
    gamma: the whole gamma-family at once, not samples of it."""
    g = RatFun.variable("g")
    assert eta_hbar_check("sym", 5) == {"gamma": str(g), "dmax": 5, "order": 1,
                                        "verified": True}
    assert pt_c10_check(g, Fraction(1, 2), 4)["verified"]


def test_commuting_family():
    g = RatFun.variable("g")
    assert commuting_family_check(g, 6)


# --- deformed Virasoro current ----------------------------------------------

def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    with pytest.raises(Exception):
        exact_sqrt(Fraction(2))


def test_pt_eta_identity_rational_sample():
    # q/t = 1/4 is a rational square; 2 alpha = 1
    cur = dvir_rational(Fraction(1, 2), Fraction(2), 1)
    assert pt_eta_check(cur, 3)["verified"]


def test_pt_eta_identity_second_sample():
    cur = dvir_rational(Fraction(3, 2), Fraction(2, 3), -2)
    assert pt_eta_check(cur, 3)["verified"]


def test_pt_eta_scalar_identity_on_constants():
    cur = dvir_rational(Fraction(1, 2), Fraction(2), 1)
    assert pt_eta_check(cur, 0)["verified"]


@pytest.mark.parametrize("gamma,alpha", [(Fraction(1), Fraction(0)),
                                         (Fraction(1, 2), Fraction(3, 2))])
def test_pt_c10_identity_jets(gamma, alpha):
    assert pt_c10_check(gamma, alpha, 3)["verified"]


def test_hbar_parameters_shapes():
    q, t = hbar_parameters(Fraction(2), 2)
    assert isinstance(q, Jet) and isinstance(t, Jet)
    assert q.coeff(0) == -1 and q.coeff(1) == -1
    assert t.coeff(0) == -1 and t.coeff(1) == -2


# --- positive current modes annihilate singular images ----------------------

from svjack.fock import dvir_alpha_for_singular, t1_annihilation_check


@pytest.mark.parametrize("rs", [(1, 1), (3, 1), (1, 3), (2, 2)])
def test_t1_annihilation(rs):
    rep = t1_annihilation_check(*rs)
    assert rep["annihilated"]
    assert rep["modes_checked"] == list(range(1, rs[0] * rs[1] + 1))


@pytest.mark.parametrize("rs", [(1, 1), (3, 1), (1, 3), (2, 2)])
def test_t1_weight_rule_matches_solver(rs):
    one = RatFun.const("t", 1)
    t = RatFun.variable("t")
    gamma = one / (t * t)
    assert solve_t1_alpha(*rs) == dvir_alpha_for_singular(rs[0], rs[1], gamma)


def test_t1_annihilation_fails_on_a_perturbed_image(monkeypatch):
    """Adding p_(rs) to the (2,2) image breaks the annihilation: the check
    raises, naming the first mode and the first key it leaves."""
    import svjack.fock as fock
    real = fock.verma_to_lambda
    monkeypatch.setattr(fock, "verma_to_lambda",
                        lambda v: real(v) + SymFunc("p", {(4,): RatFun.const("t", 1)}))
    with pytest.raises(VerificationFailure) as err:
        t1_annihilation_check(2, 2)
    assert str(err.value) == "T^1_1 fails to annihilate the (2,2) image at (3,)"


def test_t1_annihilation_rejects_a_vanishing_image(monkeypatch):
    """A zero image is annihilated by every mode, so the check refuses it
    first, in verify's words."""
    import svjack.fock as fock
    monkeypatch.setattr(fock, "verma_to_lambda", lambda v: SymFunc("p", {}))
    with pytest.raises(VerificationFailure) as err:
        t1_annihilation_check(2, 2)
    assert str(err.value) == "the image of the (2, 2) singular vector vanishes"


def test_t1_modes_beyond_degree_vanish_trivially():
    """A mode T_n with n above the degree rs of the image gives zero, so
    t1_annihilation_check stops at n = rs."""
    v = verma_to_lambda(singular_vector(1, 1, "sym"))
    gamma = 1 / (_T * _T)
    cur = dvir_jet(gamma, dvir_alpha_for_singular(1, 1, gamma), 1)
    for n in range(2, 5):
        assert cur.t_apply(n, v).is_zero(), n


def test_c0_mode_blocks_golden():
    import json
    import pathlib
    golden = json.loads((pathlib.Path(__file__).parent /
                         "golden" / "c0_mode0_blocks.json").read_text())
    assert graded_to_json(c0_mode(0, 3)) == golden


def test_graded_operator_rejects_wrong_degree_shift():
    # multiplication by p_1 raises the degree, so it is no degree-0 operator
    with pytest.raises(KernelError):
        GradedOperator.build(lambda f: multiply(p_gen((1,)), f), 0, 2)


def test_dvir_modes_graded_operators():
    from svjack.vertexops import dvir_rational
    t_op, psi_op = dvir_modes(Fraction(1, 2), Fraction(2), 1, 1, 3)
    assert t_op.shift == -1 and psi_op.shift == 1
    cur = dvir_rational(Fraction(1, 2), Fraction(2), 1)
    f = m_gen((2,))
    assert graded_apply(t_op, f) == convert(cur.t_apply(1, f), "m")
    assert graded_apply(psi_op, f) == convert(cur.psi_apply(1, f), "m")
