"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its criterion number when it completes.  Exact-arithmetic criteria
carry zero tolerance; the stochastic ones state their tolerances inline.
"""

import time
from fractions import Fraction

from svjack.kernel import Poly, RatFun, is_zero

HALF = Fraction(1, 2)


def _report(num, label, started):
    print("ACCEPTANCE %2d PASS (%.1fs): %s" % (num, time.time() - started, label))


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_kac_low_levels():
    """Gram matrices at levels 1/2, 1, 3/2 and the cubic determinant
    factorization, symbolic in h and t.  Exact.

    The reference (1,1) entry of the level-3/2 matrix is 4h^2 + 2h: the
    value forced by the algebra and by the displayed determinant
    8(h - h_{1,1})(h - h_{1,3})(h - h_{3,1}); see the README for the note on
    the transcription that shows 4h^2 + 4h, which is inconsistent with its
    own determinant.
    """
    started = time.time()
    from svjack.svir import gram_matrix_symbolic_h, kac_det_check
    one_t = RatFun.const("t", 1)
    t = RatFun.variable("t")
    h = Poly("h", [0 * one_t, one_t])
    c = Fraction(3, 2) - 3 * (t - 1 / t) ** 2
    assert gram_matrix_symbolic_h(HALF) == [[2 * h]]
    assert gram_matrix_symbolic_h(1) == [[2 * h]]
    assert gram_matrix_symbolic_h(Fraction(3, 2)) == [
        [4 * h * h + 2 * h, 4 * h],
        [4 * h, 2 * h + Poly.const("h", c * Fraction(2, 3))],
    ]
    rep = kac_det_check(Fraction(3, 2), "sym")
    assert rep["constant"] == 8 * one_t
    assert rep["factors"] == {"1,1": 1, "1,3": 1, "3,1": 1}
    assert kac_det_check(HALF)["constant"] == 2 * one_t
    assert time.time() - started < 10.0
    _report(1, "Gram matrices and cubic determinant factorization", started)


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_kac_level_two():
    """Level-2 determinant: exactly the predicted factors with multiplicities
    and an h-free quotient, symbolic t.  Exact; < 30 s."""
    started = time.time()
    from svjack.svir import kac_det_check, kac_factor_exponents, pns
    factors = kac_factor_exponents(2)
    assert factors == {(1, 1): pns(Fraction(3, 2)), (1, 3): pns(HALF),
                       (3, 1): pns(HALF), (2, 2): pns(0)}
    assert factors[(1, 1)] == 2
    rep = kac_det_check(2, "sym")
    assert rep["degree"] == 5
    assert not is_zero(rep["constant"])
    assert time.time() - started < 30.0
    _report(2, "level-2 determinant factors with multiplicities", started)


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_explicit_singular_vectors():
    """The level <= 3/2 singular vectors, symbolic t, up to scalar.
    Exact; < 5 s."""
    started = time.time()
    from svjack.svir import SuperPartition, singular_vector
    t = RatFun.variable("t")
    one = RatFun.const("t", 1)
    chi = singular_vector(1, 1, "sym")
    assert list(chi.terms) == [SuperPartition((), (HALF,))]
    sp_lg = SuperPartition((1,), (HALF,))
    sp_g = SuperPartition((), (Fraction(3, 2),))
    chi31 = singular_vector(3, 1, "sym")
    assert chi31.terms[sp_lg] == one and chi31.terms[sp_g] == -t * t
    chi13 = singular_vector(1, 3, "sym")
    assert chi13.terms[sp_lg] == one and chi13.terms[sp_g] == -1 / (t * t)
    assert time.time() - started < 5.0
    _report(3, "explicit singular vectors at levels 1/2 and 3/2", started)


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_image_cross_check():
    """Singular-vector images proportional to the reference power-sum
    expansions, and those proportional to the gamma-family members under
    alpha = t^2 (gamma = 1/t^2).  Exact; < 30 s."""
    started = time.time()
    from svjack.fock import verma_to_lambda
    from svjack.svir import singular_vector
    from svjack.symfunc import SymFunc, convert, to_p
    from svjack.uglov import uglov2_orth
    t = RatFun.variable("t")
    one = RatFun.const("t", 1)
    displays = {
        (1, 1): SymFunc("p", {(1,): one}),
        (3, 1): SymFunc("p", {(3,): -2 * t * t / 3, (2, 1): -one,
                              (1, 1, 1): -t * t / 3}),
        (1, 3): SymFunc("p", {(3,): one / 3, (2, 1): -one / 2,
                              (1, 1, 1): one / 6}),
    }
    gamma = one / (t * t)
    for (r, s), display in displays.items():
        img = to_p(verma_to_lambda(singular_vector(r, s, "sym")))
        key = next(iter(display.terms))
        ratio = img.terms[key] / display.terms[key]
        assert img == display.scale(ratio)
        # and the displays are proportional to the gamma-family members
        member = uglov2_orth((r,) * s, gamma)
        dm = convert(display, "m")
        scale = dm.terms[(r,) * s]
        assert dm == member.scale(scale)
    assert time.time() - started < 30.0
    _report(4, "image displays match the gamma-family lines", started)


# -- 5 -----------------------------------------------------------------------

def test_criterion_5_main_identification():
    """verify_conjecture for every equal-parity (r, s) with rs <= 6 with
    symbolic t, and rs = 8 at three rational t samples.  Exact; < 10 min."""
    started = time.time()
    from svjack.fock import verify_conjecture
    cases = sorted({(r, s) for r in range(1, 7) for s in range(1, 7)
                    if r * s <= 6 and (r - s) % 2 == 0})
    assert cases == [(1, 1), (1, 3), (1, 5), (2, 2), (3, 1), (5, 1)]
    for r, s in cases:
        rep = verify_conjecture(r, s, "sym")
        assert rep["proportional"] and rep["eigencheck"] and rep["triangular"], (r, s)
    for r, s in ((2, 4), (4, 2)):
        for tval in (Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)):
            rep = verify_conjecture(r, s, tval)
            assert rep["proportional"] and rep["eigencheck"] and rep["triangular"], \
                (r, s, tval)
    assert time.time() - started < 600.0
    _report(5, "identification for rs <= 6 symbolic and rs = 8 sampled", started)


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_eigen_suite():
    """Both eigenrelations for every degree <= 6 family member with symbolic
    gamma.  Exact."""
    started = time.time()
    from svjack.symfunc import convert, partitions
    from svjack.uglov import uglov2_orth
    from svjack.vertexops import c0_apply, c1_apply, eps0, eps1
    g = RatFun.variable("g")
    count = 0
    for n in range(0, 7):
        for lam in partitions(n):
            f = uglov2_orth(lam, "sym")
            assert (convert(c0_apply(0, f), "m") - f.scale(eps0(lam))).is_zero(), lam
            assert (convert(c1_apply(g, 0, f), "m") - f.scale(eps1(lam, g))).is_zero(), lam
            count += 1
    assert count == sum(len(partitions(n)) for n in range(7))
    _report(6, "eigen-operator suite through degree 6", started)


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_hbar_expansions():
    """Jet expansion of eta to degree 5, and the zero-mode identity (both
    orders in hbar) blockwise to degree 4 at two (gamma, alpha) samples.
    Exact jets."""
    started = time.time()
    from svjack.vertexops import eta_hbar_check, pt_c10_check
    assert eta_hbar_check(Fraction(1), 5)["verified"]
    assert eta_hbar_check(Fraction(2, 3), 5)["verified"]
    for gamma, alpha in ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(3, 2))):
        assert pt_c10_check(gamma, alpha, 4)["verified"]
    _report(7, "hbar-expansion identities", started)


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_elementary_cases():
    """The single-column family members equal elementary symmetric functions
    for s <= 6, and the screening residues equal -t e_s for odd s <= 7.
    Exact."""
    started = time.time()
    from svjack.fock import screening_r1
    from svjack.symfunc import convert, e_gen
    from svjack.uglov import uglov2_orth
    t = RatFun.variable("t")
    one = RatFun.const("t", 1)
    g_one = RatFun.const("g", 1)
    for s in range(1, 7):
        assert convert(uglov2_orth((1,) * s, "sym"), "e") == e_gen((s,), g_one)
    for s in (1, 3, 5, 7):
        expected = convert(e_gen((s,), one), "p").scale(-t)
        assert screening_r1(s, "sym") == expected
    _report(8, "elementary columns and screening residues", started)


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_selberg_numerics():
    """S_2(1,1,1) = 1/6 within 1e-8 by quadrature; S_3 closed vs Monte Carlo
    within 3 sigma at 10^7 samples; the inserted-coordinate specialization
    vanishes exactly; three nonzero torus moments consistent with zero at
    3 sigma.  < 2 min."""
    started = time.time()
    from svjack.selberg import (aomoto_ratio_exact, selberg_closed,
                                selberg_montecarlo, selberg_quadrature,
                                vanishing_check)
    val, _ = selberg_quadrature(2, 1, 1, 1)
    assert abs(val - 1 / 6) < 1e-8
    closed = selberg_closed(3, 1, 1, 1)
    est, err = selberg_montecarlo(3, 1, 1, 1, samples=10 ** 7, seed=42)
    assert abs(est - closed) < 3 * err
    for r in (2, 3, 4):
        for k in range(1, r + 1):
            assert aomoto_ratio_exact(r, Fraction(-1, 8), k) == 0
    for r, t, m, seed in ((2, Fraction(1), (1, 0), 7),
                          (2, Fraction(1), (2, 1), 8),
                          (3, Fraction(1, 2), (1, 1, 0), 9)):
        rep = vanishing_check(r, t, m, samples=10 ** 5, seed=seed)
        assert rep["consistent_with_zero"] and rep["exact_moment"] == "0"
    assert time.time() - started < 120.0
    _report(9, "Selberg quadrature, Monte Carlo and vanishing moments", started)


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_restriction_diagnostic():
    """The finite-variable diagnostic reproduces the reference cells (2, 0,
    -2, -4 with consecutive averages 1 and -3) and generates the full report
    for degrees <= 3, N <= 6; the literal restriction claim is recorded as a
    finding, never asserted."""
    started = time.time()
    from svjack.finiten import limit_diagnostic, limit_diagnostic_report
    diag = limit_diagnostic(3, [1, 2, 3, 4, 5, 6], which="c0")
    assert diag["cells"][(1, 0)]["finite"] == [[Fraction(2)]]
    assert diag["cells"][(2, 0)]["finite"] == [[Fraction(0)]]
    assert diag["cells"][(1, 1)]["finite"] == [[Fraction(-2)]]
    assert diag["cells"][(2, 1)]["finite"] == [[Fraction(-4)]]
    assert diag["averages"][(1, 0)]["average"] == [[Fraction(1)]]
    assert diag["averages"][(1, 1)]["average"] == [[Fraction(-3)]]
    assert not diag["cells"][(2, 0)]["literal_match"]  # the recorded finding
    rep = limit_diagnostic_report(3, [1, 2, 3, 4, 5, 6], which="c0")
    assert rep["status"] == "diagnostic"
    assert len(rep["cells"]) == 24
    _report(10, "restriction diagnostic cells and report", started)


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_structural_annihilation():
    """Positive modes of both orders of the two-term current annihilate the
    singular-vector images for (1,1), (3,1), (1,3), (2,2).  Exact."""
    started = time.time()
    from svjack.fock import t1_annihilation_check
    for r, s in ((1, 1), (3, 1), (1, 3), (2, 2)):
        rep = t1_annihilation_check(r, s)
        assert rep["annihilated"], (r, s)
    _report(11, "positive current modes annihilate the images", started)
