import random
from fractions import Fraction
from functools import lru_cache

import pytest

from svjack import svir
from svjack.kernel import Poly, RatFun, VerificationFailure, as_scalar, scalar_to_json
from svjack.svir import (
    HALF,
    SuperPartition,
    _rho_and_c,
    act,
    gram_matrix,
    gram_matrix_symbolic_h,
    hw_data,
    kac_constant,
    kac_det_check,
    kac_factor_exponents,
    monomial_vector,
    pns,
    singular_vector,
    superpartitions,
)

from oracles import (
    act_reference,
    gram_matrix_reference,
    highest_weight_vector,
    kac_det_check_reference,
    pns_generating_function,
    superpartitions_reference,
    top_diagonal_perturbed,
)

T = RatFun.variable("t")
ONE = RatFun.const("t", 1)


# --- counting ---------------------------------------------------------------

def test_pns_small_values():
    assert pns(0) == 1
    assert pns(HALF) == 1
    assert pns(1) == 1
    assert pns(Fraction(3, 2)) == 2
    assert pns(2) == 3
    assert pns(Fraction(5, 2)) == 4
    assert pns(3) == 5
    assert pns(4) == 10


def test_pns_matches_generating_function():
    gf = pns_generating_function(16)
    for level2 in range(17):
        assert gf[level2] == pns(Fraction(level2, 2))


def test_level2_basis_enumeration():
    basis = superpartitions(4)
    shapes = [(sp.bosonic, sp.fermionic) for sp in basis]
    assert shapes == [((2,), ()), ((1, 1), ()), ((), (Fraction(3, 2), HALF))]


def test_superpartition_validation():
    with pytest.raises(ValueError):
        SuperPartition((1, 2), ())
    with pytest.raises(ValueError):
        SuperPartition((), (HALF, HALF))
    with pytest.raises(ValueError):
        SuperPartition((), (Fraction(1),))


# --- highest-weight data -----------------------------------------------------

def test_hw_data_values():
    hw = hw_data("sym", 1, 1)
    assert hw.h == 0 * ONE
    assert hw.alpha_plus == T - 1 / T
    hw31 = hw_data("sym", 3, 1)
    assert hw31.h == T * T - Fraction(1, 2)
    hw13 = hw_data("sym", 1, 3)
    assert hw13.h == 1 / (T * T) - Fraction(1, 2)
    assert hw.c == Fraction(3, 2) - 3 * (T - 1 / T) ** 2


def test_hw_parity_error():
    with pytest.raises(ValueError, match=r"r = s \(mod 2\)"):
        hw_data("sym", 2, 1)


# --- generator action ---------------------------------------------------------

def _hv():
    h = RatFun.variable("h")
    c = RatFun.const("h", 7)  # arbitrary distinct constant for independence
    return highest_weight_vector(h=h, c=c)


def test_act_pairing_examples():
    h = RatFun.variable("h")
    v = _hv()
    vac = SuperPartition((), ())
    w = act(("G", HALF), act(("G", -HALF), v))
    assert w.terms[vac] == 2 * h
    w = act(("L", 1), act(("L", -1), v))
    assert w.terms[vac] == 2 * h
    w = act(("G", Fraction(3, 2)), act(("G", Fraction(-3, 2)), v))
    # 2h + 2c/3 with c = 7
    assert w.terms[vac] == 2 * h + Fraction(14, 3)


@pytest.mark.parametrize("gen", [("C",), ("X", 1), ("L", HALF), ("G", 1)])
def test_act_rejects_other_generators(gen):
    """Only L and G modes act; the central element is the scalar c, not a
    generator, and any other kind is bad input, as are an L mode with a
    non-integer index and a G mode whose index is not half-odd."""
    v = monomial_vector(SuperPartition((1,), ()), hw=hw_data(Fraction(3, 2), 1, 1))
    with pytest.raises(ValueError, match="unsupported generator"):
        act(gen, v)


_ACT_GENS = [("L", n) for n in range(-2, 3)] + [("G", k) for k in (-Fraction(3, 2), -HALF,
                                                                  HALF, Fraction(3, 2))]


@pytest.mark.parametrize("field", ["sym", "3/2", "Q[c]"])
def test_act_matches_the_fraction_indexed_reference(field):
    """The straightening on doubled int indices gives what it gave on
    Fraction indices, term for term and in the same scalar type, for L_n
    (n = -2..2) and G_k (k = +-1/2, +-3/2) on every basis monomial up to
    level 4: at symbolic t, at t = 3/2 and at symbolic h over Q[c]."""
    if field == "Q[c]":
        one = RatFun.const("c", 1)
        module = {"h": Poly("h", [0 * one, one]), "c": Poly.const("h", RatFun.variable("c"))}
    else:
        module = {"hw": hw_data("sym" if field == "sym" else Fraction(3, 2), 3, 3)}
    for level2 in range(9):
        for sp in superpartitions(level2):
            v = monomial_vector(sp, **module)
            for gen in _ACT_GENS:
                got, want = act(gen, v), act_reference(gen, v)
                assert got.level == want.level and got.terms == want.terms, (gen, sp)
                assert ([(k, type(x)) for k, x in got.terms.items()]
                        == [(k, type(x)) for k, x in want.terms.items()]), (gen, sp)


def test_act_keeps_equal_weights_of_different_fields_apart():
    """h = 31/7, c = 43/9 over Q(t) and over Q are equal but do not share
    straightening entries: each action stays in its own field.  Q(t) goes
    first, so a shared entry would carry its field into the Q action."""
    sp = SuperPartition((1,), (HALF,))
    a, b = Fraction(31, 7), Fraction(43, 9)
    for h, c in ((RatFun.const("t", a), RatFun.const("t", b)), (a, b)):
        for gen in (("L", 1), ("G", HALF), ("G", Fraction(3, 2))):
            got = act(gen, monomial_vector(sp, h=h, c=c))
            assert got.terms == act_reference(gen, monomial_vector(sp, h=h, c=c)).terms
            assert {type(x) for x in got.terms.values()} == {type(h)}, (h, gen)


def test_straightening_sees_only_int_mode_indices(monkeypatch):
    """Every generator and word the straightening is asked about while the
    (3, 5) singular vector at t = 3/2 is solved holds its mode indices as
    the ints 2n and 2k."""
    real = svir._push
    seen = []

    def recording(gen, word, *rest):
        seen.append((gen, word))
        return real(gen, word, *rest)

    monkeypatch.setattr(svir, "_push", recording)
    singular_vector(3, 5, Fraction(3, 2))
    assert seen
    assert all(type(i) is int for gen, word in seen for _, i in (gen,) + word)


def test_superpartitions_match_the_fraction_enumeration():
    """The doubled-int enumeration gives the superpartitions the Fraction
    sums gave, in the same order and with Fraction fermionic parts."""
    for level2 in range(17):
        got = superpartitions(level2)
        assert got == superpartitions_reference(level2), level2
        assert all(type(b) is Fraction for sp in got for b in sp.fermionic), level2


def test_l0_grading():
    h = RatFun.variable("h")
    for level2 in range(0, 7):
        for sp in superpartitions(level2):
            v = monomial_vector(sp, h=h, c=RatFun.const("h", 5))
            w = act(("L", 0), v)
            expected = v.scale(h + Fraction(level2, 2))
            assert set(w.terms) == set(expected.terms)
            for key in w.terms:
                assert w.terms[key] == expected.terms[key]


def _random_vector(rng, level2, h, c, one):
    basis = superpartitions(level2)
    terms = {}
    for sp in basis:
        x = rng.randint(-3, 3)
        if x:
            terms[sp] = one * x
    if not terms:
        terms[basis[0]] = one
    from svjack.svir import VermaVector
    return VermaVector(Fraction(level2, 2), terms, None, h, c)


@pytest.mark.parametrize("pair", [
    (("L", 2), ("L", -1)),
    (("L", 1), ("L", -2)),
    (("L", -1), ("L", -2)),
    (("L", 1), ("G", -HALF)),
    (("L", 2), ("G", Fraction(-3, 2))),
])
def test_commutator_relations_on_random_vectors(pair):
    """[L_m, X] acting on random vectors agrees with the defining relations."""
    x, y = pair
    h = RatFun.variable("h")
    c = RatFun.const("h", 11)
    one = RatFun.const("h", 1)
    rng = random.Random(str(pair))
    for level2 in (2, 4, 5):
        v = _random_vector(rng, level2, h, c, one)
        lhs = act(x, act(y, v)) - act(y, act(x, v))
        if x[0] == "L" and y[0] == "L":
            m, n = x[1], y[1]
            rhs = act(("L", m + n), v).scale(Fraction(m - n))
            if m + n == 0:
                rhs = rhs + v.scale(Fraction(m ** 3 - m, 12) * c)
        else:
            n, k = x[1], y[1]
            rhs = act(("G", n + k), v).scale(Fraction(n, 2) - k)
        assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("pair", [
    (("G", HALF), ("G", -HALF)),
    (("G", Fraction(3, 2)), ("G", -HALF)),
    (("G", HALF), ("G", Fraction(-3, 2))),
    (("G", -HALF), ("G", Fraction(-3, 2))),
])
def test_anticommutator_relations_on_random_vectors(pair):
    x, y = pair
    h = RatFun.variable("h")
    c = RatFun.const("h", 11)
    one = RatFun.const("h", 1)
    rng = random.Random(str(pair) + "anti")
    k, l = x[1], y[1]
    for level2 in (2, 3, 5):
        v = _random_vector(rng, level2, h, c, one)
        lhs = act(x, act(y, v)) + act(y, act(x, v))
        rhs = act(("L", int(k + l)), v).scale(Fraction(2))
        if k + l == 0:
            rhs = rhs + v.scale(Fraction(1, 3) * (k * k - Fraction(1, 4)) * c)
        assert (lhs - rhs).is_zero()


# --- Gram matrices ------------------------------------------------------------

def test_gram_level0_and_half_and_one():
    m0 = gram_matrix_symbolic_h(0)
    one_t = RatFun.const("t", 1)
    assert m0 == [[Poly.const("h", one_t)]]
    h = Poly("h", [0 * one_t, one_t])
    assert gram_matrix_symbolic_h(HALF) == [[2 * h]]
    assert gram_matrix_symbolic_h(1) == [[2 * h]]


def test_gram_level_three_halves_matrix():
    """[[4h^2 + 2h, 4h], [4h, 2h + 2c/3]] in the canonical order
    (L_{-1} G_{-1/2} first)."""
    mat = gram_matrix_symbolic_h(Fraction(3, 2))
    one_t = RatFun.const("t", 1)
    h = Poly("h", [0 * one_t, one_t])
    rho2 = ((T - 1 / T) * HALF) ** 2
    c = Fraction(3, 2) - 12 * rho2
    assert mat[0][0] == 4 * h * h + 2 * h
    assert mat[0][1] == 4 * h
    assert mat[1][0] == 4 * h
    assert mat[1][1] == 2 * h + Poly.const("h", c * Fraction(2, 3))


def test_gram_symmetry_low_levels():
    """The Gram matrix with every entry computed is symmetric, and
    gram_matrix, which computes the entries on and above the diagonal and
    mirrors them, equals it: at symbolic h and at (h, c) = (7/3, 5/11), at
    every level up to 7/2."""
    _, c_t = _rho_and_c(T)
    h_poly = Poly("h", [0 * ONE, ONE])
    for level2 in range(8):
        level = Fraction(level2, 2)
        for h, c, got in ((h_poly, Poly.const("h", c_t), gram_matrix_symbolic_h(level)),
                          (Fraction(7, 3), Fraction(5, 11), None)):
            want = gram_matrix_reference(level, h, c)
            n = len(want)
            assert all(want[i][j] == want[j][i] for i in range(n) for j in range(n)), level
            got = gram_matrix(level, h, c) if got is None else got
            assert got == want, level
            assert ([type(x) for row in got for x in row]
                    == [type(x) for row in want for x in row]), level


@pytest.mark.parametrize("t", ["sym", Fraction(3, 2)], ids=["sym", "3/2"])
def test_symbolic_h_gram_evaluates_to_each_kac_point(t):
    """At symbolic t, kac_det_check evaluates one Gram matrix with symbolic h
    over Q[c], c a formal variable, at h = 0, 1, ..., degree + 1.  Each
    entry, mapped by c -> c(t), equals the entry of the Gram matrix built at
    that h and c(t), in the same scalar type, as does each entry of the
    symbolic-h matrix built at c(t) itself."""
    tv = as_scalar(t, "t")
    one = tv * 0 + 1
    _, c = _rho_and_c(tv)
    cvar = RatFun.variable("c")
    one_c = cvar * 0 + 1
    for level2 in range(1, 7):
        level = Fraction(level2, 2)
        gram = gram_matrix_symbolic_h(level, tv)
        gram_c = gram_matrix(level, Poly("h", [0 * one_c, one_c]), Poly.const("h", cvar))
        for i in range(sum(kac_factor_exponents(level).values()) + 2):
            hval = one * i
            direct = gram_matrix(level, hval, c)
            for evaluated in ([[x(hval) for x in row] for row in gram],
                              [[x(one_c * i)(c) for x in row] for row in gram_c]):
                assert evaluated == direct, (level, i)
                assert ([type(x) for row in evaluated for x in row]
                        == [type(x) for row in direct for x in row]), (level, i)
            assert {type(x) for row in direct for x in row} == {type(tv)}


# --- Kac determinant -----------------------------------------------------------

def test_kac_factors_level_three_halves():
    factors = kac_factor_exponents(Fraction(3, 2))
    assert factors == {(1, 1): 1, (1, 3): 1, (3, 1): 1}


def test_kac_det_level_half_and_one():
    rep = kac_det_check(HALF)
    assert rep["constant"] == 2 * ONE
    rep = kac_det_check(1)
    assert rep["constant"] == 2 * ONE


def test_kac_det_level_three_halves():
    rep = kac_det_check(Fraction(3, 2))
    assert rep["constant"] == 8 * ONE
    assert rep["degree"] == 3


def test_kac_det_level_two():
    rep = kac_det_check(2)
    assert rep["degree"] == sum(kac_factor_exponents(2).values()) == 5
    assert not (rep["constant"] * 0 == rep["constant"])  # nonzero


_reference = lru_cache(maxsize=None)(kac_det_check_reference)


def test_kac_constant_values():
    assert [kac_constant(Fraction(k, 2)) for k in range(4)] == [1, 2, 2, 8]
    assert kac_constant(3) == 73728 == 2 ** 13 * 3 ** 2
    assert kac_constant(Fraction(9, 2)) == 182395784908505088
    assert kac_constant(5) == 672383821486713156403200


@pytest.mark.parametrize("t", ["sym", Fraction(3, 2), Fraction(5, 7)],
                         ids=["sym", "3/2", "5/7"])
def test_kac_constant_is_the_quotient_over_the_field_of_t(t):
    """The closed form equals the constant the field-of-t check divides out,
    which requires only that it is nonzero, at every level up to 4."""
    for level2 in range(9):
        level = Fraction(level2, 2)
        assert _reference(level, t)["constant"] == kac_constant(level), level


@pytest.mark.parametrize("t", ["sym", Fraction(3, 2)], ids=["sym", "3/2"])
def test_kac_det_check_matches_the_field_of_t_reference(t):
    """The Q[c] route reports what the Q(t) route reports, up to level 7/2:
    the same factors and degree, and the same constant in the same field."""
    for level2 in range(8):
        level = Fraction(level2, 2)
        rep, ref = kac_det_check(level, t), _reference(level, t)
        assert rep == ref, level
        assert type(rep["constant"]) is type(ref["constant"]) is type(as_scalar(t, "t"))
        assert scalar_to_json(rep["constant"]) == scalar_to_json(ref["constant"])


@pytest.mark.parametrize("t", ["sym", Fraction(3, 2)], ids=["sym", "3/2"])
@pytest.mark.parametrize("level, index", [(HALF, 0), (1, 0), (Fraction(3, 2), 0),
                                          (Fraction(3, 2), 1), (2, 0), (2, 1), (2, 2)])
def test_kac_det_check_fails_on_a_perturbed_top_coefficient(monkeypatch, t, level, index):
    """Raising one diagonal top coefficient by one fails the check.  At
    levels 1/2 and 1 the Gram matrix is [[2h]]; [[3h]] still has the
    predicted factor h - h_{1,1} = h, so only the closed-form constant
    tells it apart."""
    monkeypatch.setattr(svir, "gram_matrix", top_diagonal_perturbed(svir.gram_matrix, index))
    match = r"determinant constant \(?3\)?, expected 2$" if level <= 1 else None
    with pytest.raises(VerificationFailure, match=match):
        kac_det_check(level, t)


# --- singular vectors -----------------------------------------------------------

def test_singular_vector_11():
    chi = singular_vector(1, 1, "sym")
    assert chi.level == HALF
    assert list(chi.terms) == [SuperPartition((), (HALF,))]


def test_singular_vector_31_and_13():
    chi = singular_vector(3, 1, "sym")
    sp_lg = SuperPartition((1,), (HALF,))
    sp_g = SuperPartition((), (Fraction(3, 2),))
    # chi = L_{-1} G_{-1/2} - t^2 G_{-3/2}, normalized to leading coefficient 1
    assert chi.terms[sp_lg] == ONE
    assert chi.terms[sp_g] == -T * T
    chi = singular_vector(1, 3, "sym")
    assert chi.terms[sp_lg] == ONE
    assert chi.terms[sp_g] == -1 / (T * T)


@pytest.mark.parametrize("rs", [(1, 1), (3, 1), (1, 3), (2, 2), (5, 1), (1, 5)])
def test_singular_vectors_annihilated(rs):
    r, s = rs
    chi = singular_vector(r, s, "sym")
    for gen in (("G", HALF), ("G", Fraction(3, 2)), ("L", 1), ("L", 2)):
        assert act(gen, chi).is_zero()


@pytest.mark.parametrize("rs", [(4, 2), (2, 4)])
def test_singular_vectors_level_four_rational_t(rs):
    r, s = rs
    chi = singular_vector(r, s, Fraction(3, 2))
    for gen in (("G", HALF), ("G", Fraction(3, 2)), ("L", 1), ("L", 2)):
        assert act(gen, chi).is_zero()


@pytest.mark.parametrize("rs", [(4, 2), (2, 4)])
def test_singular_vectors_level_four_symbolic(rs):
    r, s = rs
    chi = singular_vector(r, s, "sym")
    for gen in (("G", HALF), ("G", Fraction(3, 2)), ("L", 1), ("L", 2)):
        assert act(gen, chi).is_zero()


def test_singular_vector_gram_kernel_consistency():
    for r, s in [(1, 1), (3, 1), (2, 2)]:
        hw = hw_data("sym", r, s)
        chi = singular_vector(r, s, "sym")
        level = Fraction(r * s, 2)
        basis = superpartitions(r * s)
        mat = gram_matrix(level, hw.h, hw.c)
        vec = [chi.terms.get(sp, 0 * ONE) for sp in basis]
        for i in range(len(basis)):
            acc = 0 * ONE
            for j in range(len(basis)):
                acc = acc + mat[i][j] * vec[j]
            assert acc.is_zero()


def test_singular_vector_wrong_weight_has_no_kernel():
    # at h generic (not h_{r,s}) the constraint system has trivial kernel
    with pytest.raises(VerificationFailure, match="dimension 0"):
        # level 1/2 with the (3,1) weight: G_{1/2} G_{-1/2}|h> = 2h != 0
        _fake_singular(3, 1)


def _fake_singular(r, s):
    """Singular-vector solve with a mismatched level (helper for the test)."""
    from svjack import svir
    hw = svir.hw_data("sym", r, s)
    one = ONE
    basis = svir.superpartitions(1)  # level 1/2, wrong for (3,1)
    rows = []
    for k in (HALF, Fraction(3, 2)):
        target = Fraction(1, 2) - k
        if target < 0:
            continue
        tb = svir.superpartitions(int(2 * target))
        idx = {sp: i for i, sp in enumerate(tb)}
        cols = []
        for sp in basis:
            v = svir.act(("G", k), svir.monomial_vector(sp, hw=hw))
            col = [0 * one] * len(tb)
            for osp, cf in v.terms.items():
                col[idx[osp]] = cf
            cols.append(col)
        for i in range(len(tb)):
            rows.append([cols[j][i] for j in range(len(basis))])
    from svjack.linalg import nullspace
    kernel = nullspace(rows)
    if len(kernel) != 1:
        raise VerificationFailure("singular space has dimension %d" % len(kernel))
    return kernel
