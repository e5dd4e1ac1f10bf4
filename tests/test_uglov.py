import random
from fractions import Fraction

import pytest

from svjack.kernel import KernelError, RatFun, is_zero
from svjack.symfunc import (
    SymFunc,
    convert,
    e_gen,
    partitions,
)
from svjack.uglov import (
    jack,
    macdonald,
    uglov2_orth,
    uglov_inner,
    uglov_limit_check,
)

from oracles import (
    inner_qt,
    m_gen,
    macdonald_gram_schmidt,
    map_coeffs,
    p_gen,
    uglov2,
    uglov2_gram_schmidt,
    uglov2_kernel_dimension,
)

G = RatFun.variable("g")
ONE = RatFun.const("g", 1)


def subs_gamma(f, value):
    """Evaluate RatFun('g') coefficients of a SymFunc at a rational gamma."""
    def ev(c):
        return c(value) if isinstance(c, RatFun) else c
    return map_coeffs(f, ev)


# --- Macdonald at rational samples -----------------------------------------

def test_macdonald_degree_one_trivial():
    f = macdonald((1,), Fraction(2, 3), Fraction(3, 5))
    assert f == m_gen((1,))


@pytest.mark.parametrize("qt", [(Fraction(2, 3), Fraction(3, 5)),
                                (Fraction(1, 2), Fraction(2, 7))])
def test_macdonald_column_is_elementary(qt):
    q, t = qt
    for s in range(2, 5):
        f = macdonald((1,) * s, q, t)
        assert convert(f, "e") == e_gen((s,))


def test_macdonald_gram_schmidt_cross_check():
    q, t = Fraction(2, 3), Fraction(3, 5)
    for lam in [(2,), (1, 1), (2, 1), *partitions(4), *partitions(5)]:
        assert macdonald(lam, q, t) == macdonald_gram_schmidt(lam, q, t)


def test_macdonald_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        macdonald((2, 1), Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        macdonald((2, 1), Fraction(-1), Fraction(1, 3))


def test_macdonald_orthogonality_at_samples():
    samples = [(Fraction(2, 3), Fraction(3, 5)),
               (Fraction(1, 2), Fraction(5, 7)),
               (Fraction(3, 4), Fraction(2, 9))]
    for q, t in samples:
        funcs = {}
        for n in range(0, 6):
            for lam in partitions(n):
                funcs[lam] = macdonald(lam, q, t)
        items = list(funcs.items())
        rng = random.Random(11)
        for _ in range(30):
            (la, fa), (lb, fb) = rng.sample(items, 2)
            if la != lb:
                assert inner_qt(fa, fb, q, t) == 0


# --- the gamma-family -------------------------------------------------------

def test_uglov_row_two():
    u = uglov2((2,), "sym")
    expected = SymFunc("m", {(2,): ONE, (1, 1): 2 * ONE / (G + 1)})
    assert u.expansion == expected
    assert u.eigenvalue1 == 4 * ONE
    # p-basis form (p_2 + alpha p_1^2) / (1 + alpha) with alpha = 1/gamma
    alpha = ONE / G
    p_form = (p_gen((2,)).scale(ONE) + p_gen((1, 1)).scale(alpha)).scale(1 / (1 + alpha))
    assert convert(u.expansion, "p") == p_form


@pytest.mark.parametrize("s", range(1, 7))
def test_uglov_columns_are_elementary(s):
    u = uglov2((1,) * s, "sym")
    assert convert(u.expansion, "e") == e_gen((s,))


def _uglov_p(lam):
    return convert(uglov2(lam, "sym").expansion, "p")


def _p_poly(terms):
    """Build a p-basis SymFunc from {partition: coefficient} over Q(g)."""
    return SymFunc("p", {lam: c * ONE for lam, c in terms.items()})


def test_reference_table_degree_lists():
    """The scaled integral forms of the low-degree family members, with
    alpha = 1/gamma."""
    a = ONE / G
    # degree 1
    assert _uglov_p((1,)) == _p_poly({(1,): 1})
    # -(1+a) P_(2) = -p_2 - a p_1^2
    lhs = _uglov_p((2,)).scale(-(1 + a))
    assert lhs == SymFunc("p", {(2,): -ONE, (1, 1): -a})
    # -2 P_(1,1) = p_2 - p_1^2
    assert _uglov_p((1, 1)).scale(-2 * ONE) == _p_poly({(2,): 1, (1, 1): -1})
    # -(1+a) P_(3) = -(2a/3) p_3 - p_2 p_1 - (a/3) p_1^3
    lhs = _uglov_p((3,)).scale(-(1 + a))
    assert lhs == SymFunc("p", {(3,): -2 * a / 3, (2, 1): -ONE, (1, 1, 1): -a / 3})
    # P_(1^3) = (1/3) p_3 - (1/2) p_2 p_1 + (1/6) p_1^3
    assert _uglov_p((1, 1, 1)) == _p_poly({(3,): Fraction(1, 3),
                                           (2, 1): Fraction(-1, 2),
                                           (1, 1, 1): Fraction(1, 6)})
    # (1+a)(1+3a) P_(4) = 2a p_4 + (8a^2/3) p_3 p_1 + p_2^2 + 2a p_2 p_1^2 + (a^2/3) p_1^4
    lhs = _uglov_p((4,)).scale((1 + a) * (1 + 3 * a))
    assert lhs == SymFunc("p", {(4,): 2 * a, (3, 1): 8 * a * a / 3, (2, 2): ONE,
                                (2, 1, 1): 2 * a, (1, 1, 1, 1): a * a / 3})
    # 2(1+a) P_(2,2) = (a-1) p_4 - (4a/3) p_3 p_1 + p_2^2 + (a/3) p_1^4
    lhs = _uglov_p((2, 2)).scale(2 * (1 + a))
    assert lhs == SymFunc("p", {(4,): a - 1, (3, 1): -4 * a / 3, (2, 2): ONE,
                                (1, 1, 1, 1): a / 3})
    # 8 P_(1^4) = -2 p_4 + (8/3) p_3 p_1 + p_2^2 - 2 p_2 p_1^2 + (1/3) p_1^4
    lhs = _uglov_p((1, 1, 1, 1)).scale(8 * ONE)
    assert lhs == _p_poly({(4,): -2, (3, 1): Fraction(8, 3), (2, 2): 1,
                           (2, 1, 1): -2, (1, 1, 1, 1): Fraction(1, 3)})


def test_uglov_specialization_coherence():
    for lam in [(2,), (2, 1), (3, 2), (2, 2)]:
        sym = uglov2(lam, "sym").expansion
        num = uglov2(lam, Fraction(3, 7)).expansion
        assert subs_gamma(sym, Fraction(3, 7)) == num
    # the orthogonality route specializes coherently on tied shapes too
    sym = uglov2_orth((2, 2, 1), "sym")
    num = uglov2_orth((2, 2, 1), Fraction(3, 7))
    assert subs_gamma(sym, Fraction(3, 7)) == num


def test_uglov_uniqueness_up_to_degree_four():
    for n in range(1, 5):
        for lam in partitions(n):
            assert uglov2_kernel_dimension(lam, "sym") == 1


def test_eigenvalue_ties_at_degree_five():
    """(5,)/(3,2) and (2,2,1)/(1^5) share both eigenvalues, so the
    eigenproblem alone underdetermines those coefficients: the solver
    surfaces this instead of tie-breaking."""
    from svjack.vertexops import eps0, eps1
    for a, b in [((5,), (3, 2)), ((2, 2, 1), (1, 1, 1, 1, 1))]:
        assert eps0(a) == eps0(b)
        assert eps1(a, G) == eps1(b, G)
    assert uglov2_kernel_dimension((2, 2, 1), "sym") == 2
    with pytest.raises(KernelError, match="eigenvalue tie"):
        uglov2((2, 2, 1), "sym")


def test_orthogonality_route_matches_eigen_route():
    for n in range(1, 6):
        for lam in partitions(n):
            orth = uglov2_orth(lam, "sym")
            try:
                eig = uglov2(lam, "sym").expansion
            except KernelError as exc:
                assert str(exc).startswith("eigenvalue tie"), exc
                continue
            assert orth == eig


@pytest.mark.parametrize("gamma", ["sym", Fraction(3, 2)], ids=["sym", "3/2"])
def test_ladder_matches_reference_gram_schmidt(gamma):
    """Every member of degree <= 7, coefficient types included: the leading
    1 stays a Fraction and the rest lie in the field of gamma."""
    for n in range(8):
        for lam in partitions(n):
            ours, ref = uglov2_orth(lam, gamma).terms, uglov2_gram_schmidt(lam, gamma).terms
            assert ours == ref, lam
            assert [type(c) for c in ours.values()] == [type(ref[mu]) for mu in ours], lam


@pytest.mark.parametrize("gamma,degree", [(Fraction(-1), 7), (Fraction(-1, 2), 7),
                                          (Fraction(-3), 8)], ids=["-1", "-1/2", "-3"])
def test_ladder_reports_the_reference_null_member(gamma, degree):
    """At negative gamma some lower members are null; the ladder names the
    same first one as the reference Gram-Schmidt (at gamma = -3 and degree 8
    that depends on the order in which the lower members are visited)."""
    nulls = 0
    for n in range(degree + 1):
        for lam in partitions(n):
            try:
                ref = uglov2_gram_schmidt(lam, gamma)
            except KernelError as exc:
                nulls += 1
                with pytest.raises(KernelError) as got:
                    uglov2_orth(lam, gamma)
                assert str(got.value) == str(exc)
                continue
            assert uglov2_orth(lam, gamma).terms == ref.terms, lam
    assert nulls


def test_members_are_pairwise_orthogonal_at_symbolic_gamma():
    """Incomparable pairs included: the precondition of the ladder's
    projection formula."""
    for n in range(1, 8):
        members = [convert(uglov2_orth(lam, "sym"), "p") for lam in partitions(n)]
        for i, a in enumerate(members):
            for b in members[:i]:
                assert is_zero(uglov_inner(a, b, G))


def test_ladder_converts_each_member_to_power_sums_once(monkeypatch):
    """The (9) ladder at gamma = 1/t^2 from an empty cache: one m-to-p
    conversion of a multi-term expansion per member, not one per inner
    product (1,484 for the modified Gram-Schmidt)."""
    import svjack.symfunc as symfunc
    import svjack.uglov as uglov
    t = RatFun.variable("t")
    real_to_p = symfunc.to_p
    multi_term = []

    def counting_to_p(f):
        if f.basis == "m" and len(f.terms) > 1:
            multi_term.append(f)
        return real_to_p(f)

    monkeypatch.setattr(uglov, "_ORTH_CACHE", {})
    monkeypatch.setattr(symfunc, "to_p", counting_to_p)
    uglov2_orth((9,), RatFun.const("t", 1) / (t * t))
    assert 0 < len(multi_term) <= len(partitions(9))


def test_orthogonality_route_is_eigenfunction_on_ties():
    from svjack.symfunc import convert as conv
    from svjack.vertexops import c0_apply, c1_apply, eps0, eps1
    for lam in [(2, 2, 1), (5,)]:
        f = uglov2_orth(lam, "sym")
        assert conv(c1_apply(G, 0, f), "m") == f.scale(eps1(lam, G))
        assert conv(c0_apply(0, f), "m") == f.scale(eps0(lam))


def test_uglov_inner_diagonal():
    assert uglov_inner(p_gen((2,)), p_gen((2,)), G) == 2 / G
    assert uglov_inner(p_gen((1, 1)), p_gen((1, 1)), G) == 2 * ONE
    assert uglov_inner(p_gen((2,)), p_gen((1, 1)), G) == 0
    assert uglov_inner(p_gen((2, 1)), p_gen((2, 1)), G) == 2 / G


@pytest.mark.parametrize("zero", [Fraction(0), 0, RatFun.const("g", 0)],
                         ids=["Fraction", "int", "RatFun"])
def test_zero_gamma_is_bad_input(zero):
    with pytest.raises(ValueError, match="gamma must be nonzero"):
        uglov2_orth((2,), zero)
    with pytest.raises(ValueError, match="gamma must be nonzero"):
        uglov_inner(p_gen((2,)), p_gen((2,)), zero)


def test_uglov_eigenvalue_fields():
    u = uglov2((2, 1), "sym")
    from svjack.vertexops import eps0, eps1
    assert u.eigenvalue0 == eps0((2, 1)) == 5  # single odd part at i = 2
    assert u.eigenvalue1 == eps1((2, 1), G) == 6 - 6 * G


# --- limit checks -----------------------------------------------------------

def test_uglov_limit_trivial_degree_one():
    assert uglov_limit_check((1,), Fraction(1, 2))["verified"]


@pytest.mark.parametrize("lam,gamma", [((2,), Fraction(1, 2)),
                                       ((2, 1), Fraction(2)),
                                       ((1, 1), Fraction(3, 4))])
def test_uglov_limit_agreement(lam, gamma):
    assert uglov_limit_check(lam, gamma)["verified"]


def test_jack_elementary_column():
    for alpha in [Fraction(1), Fraction(2, 3)]:
        f = jack((1, 1), alpha)
        assert convert(f, "e") == e_gen((2,))


def test_jack_row_two_classical():
    alpha = Fraction(3, 2)
    f = jack((2,), alpha)
    assert f == SymFunc("m", {(2,): Fraction(1), (1, 1): 2 / (1 + alpha)})


def test_jack_alpha_one_is_schur():
    # Kostka numbers: s_(2,1) = m_(2,1) + 2 m_(1,1,1)
    f = jack((2, 1), Fraction(1))
    assert f == SymFunc("m", {(2, 1): Fraction(1), (1, 1, 1): Fraction(2)})


@pytest.mark.parametrize("lam,gamma", [((2, 2, 1), Fraction(3, 7)),
                                       ((5,), Fraction(1, 2)),
                                       ((3, 2), Fraction(2))])
def test_limit_certifies_tied_shapes(lam, gamma):
    """On shapes where the eigenpair collides with a dominated shape, the
    defining jet limit pins the coefficients; the orthogonality construction
    reproduces them."""
    assert uglov_limit_check(lam, gamma)["verified"]
