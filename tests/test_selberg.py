import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from svjack.selberg import (
    _BLOCK_PAIRS,
    _CHUNK_ROWS,
    _MAXLGM,
    MAX_SAMPLES,
    QUADRATURE_DEGREE,
    _gauss_legendre,
    _log_gamma_signed,
    _uniform_beta,
    aomoto_closed,
    aomoto_ratio_exact,
    aomoto_recursion_check,
    check_selberg_domain,
    selberg_closed,
    selberg_montecarlo,
    selberg_quadrature,
    vanishing_check,
    vanishing_moment_exact,
)

from fresh import run_fresh
from oracles import (i0_closed, montecarlo_symmetrized_moment,
                     selberg_montecarlo_reference, uniform_beta_reference)


def test_selberg_n1_is_beta():
    # S_1(a, b, g) = B(a, b); gamma drops out
    for a, b in [(1.0, 1.0), (2.0, 2.0), (0.5, 1.5)]:
        expected = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        assert selberg_closed(1, a, b, 0.7) == pytest.approx(expected, rel=1e-12)


def test_selberg_s2_111_equals_one_sixth():
    # int int (x - y)^2 over the unit square = 1/6
    assert selberg_closed(2, 1, 1, 1) == pytest.approx(1 / 6, rel=1e-12)


def test_selberg_s3_closed_positive():
    v = selberg_closed(3, 1, 1, 0.5)
    assert v > 0 and math.isfinite(v)


def test_selberg_pole_detection():
    with pytest.raises(ValueError, match="gamma pole"):
        selberg_closed(2, 0.25, 1, -0.25)  # alpha + gamma = 0 hits gamma(0)


def _log_gamma_grid():
    """Points in every branch of cephes lgam: the reflection below -34,
    the shift into [2, 3) from (-34, 0), (0, 2), [2, 3) and [3, 13), the
    Stirling series on [13, 1000), its 3-term form on [1000, 1e8], the bare
    Stirling sum above 1e8 and infinity above MAXLGM; each branch edge with
    its neighbouring doubles, and the non-finite inputs."""
    rng = np.random.default_rng(23)
    edges = [-34.0, 2.0, 3.0, 13.0, 1000.0, 1e8, _MAXLGM]
    return np.concatenate([
        np.arange(-60, 40) + 0.5,
        rng.uniform(-1e6, -34, 300), -np.exp(rng.uniform(3.6, 21, 300)),
        rng.uniform(-34, 0, 1000), rng.uniform(0, 2, 500), rng.uniform(2, 3, 300),
        rng.uniform(3, 13, 500), rng.uniform(13, 1000, 500),
        rng.uniform(1000, 1e8, 300), np.exp(rng.uniform(math.log(1e8), 700, 300)),
        np.exp(rng.uniform(-700, 0, 300)), [1e-310, 5e-324, -5e-324],
        np.nextafter(np.arange(-33.0, 14.0), -np.inf), np.nextafter(np.arange(-33.0, 14.0), np.inf),
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
        [1.0, 2.0, 1e306, math.inf, -math.inf, math.nan],
    ])


def test_log_gamma_is_scipy_bit_for_bit():
    # the port against the compiled routines it replaces, on every branch
    from scipy.special import gammaln, gammasgn
    grid = [x for x in _log_gamma_grid().tolist() if not (x <= 0 and x.is_integer())]
    port = [_log_gamma_signed(x) for x in grid]
    assert [lg.hex() for lg, _ in port] == [float(v).hex() for v in gammaln(grid)]
    assert [sg.hex() for _, sg in port] == [float(v).hex() for v in gammasgn(grid)]
    assert all(type(lg) is float and type(sg) is float for lg, sg in port)


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -2, -34.0, -35.0, -1e20])
def test_log_gamma_raises_at_the_poles(x):
    with pytest.raises(ValueError, match="gamma pole at "):
        _log_gamma_signed(x)


def test_log_gamma_sign_below_the_int_range():
    # Gamma(x) < 0 where floor(x) is odd; the compiled gammasgn casts floor(x)
    # to a C int and reads +1 for every x below -2^31
    assert _log_gamma_signed(-2147483648.5)[1] == -1.0
    assert _log_gamma_signed(-2147483647.5)[1] == 1.0
    assert _log_gamma_signed(-3e9 - 0.5)[1] == -1.0


@pytest.mark.parametrize("argv, loads", [
    ("integral --n 3 --alpha 1 --beta 1 --gamma 1 --method montecarlo --samples 1000", False),
    ("integral --n 3 --alpha 0.5 --beta 2 --gamma 1 --method montecarlo --samples 1000", False),
    ("integral --n 3 --alpha 1 --beta 1 --gamma 1 --method closed", False),
    ("recursion --n 3 --alpha 1 --beta 1 --gamma 1", False),
    ("vanish --r 2 --t 1 --m 1,0 --samples 1000", False),
    ("integral --n 2 --alpha 1 --beta 1 --gamma 1 --method quadrature", False),
    ("integral --n 2 --alpha 2 --beta 3 --gamma 1 --method quadrature", True),
])
def test_only_the_quadrature_loads_scipy(argv, loads):
    # in a fresh process: scipy.special costs about 25 MB and 0.2 s of
    # start-up, and only the Gauss-Jacobi nodes away from alpha = beta = 1
    # take it
    code = ("import sys\n"
            "from svjack.cli import main\n"
            "code = main(['--json', 'selberg'] + %r)\n"
            "print('scipy' in sys.modules, code)\n" % argv.split())
    assert run_fresh(code).splitlines()[-1] == "%s 0" % loads


def test_reproduce_selberg_never_loads_scipy():
    # reproduce-paper's integrals are all at alpha = beta = 1: its Monte
    # Carlo and its quadrature both start without scipy.special
    code = ("import sys\n"
            "from svjack import reproduce\n"
            "report = reproduce.run_selberg(mc_samples=1000)\n"
            "print(report['quadrature_s2'], 'scipy' in sys.modules)\n")
    assert run_fresh(code).strip() == "True False"


def test_legendre_nodes_are_scipy_bit_for_bit():
    # the port against roots_jacobi(n, 0, 0), which is roots_legendre; the
    # doubles agree at even degree only, which both quadrature degrees are
    from scipy.special import roots_jacobi
    assert QUADRATURE_DEGREE % 2 == 0 and QUADRATURE_DEGREE // 2 % 2 == 0
    for n in range(2, 129, 2):
        x, w = _gauss_legendre(n)
        ref_x, ref_w = roots_jacobi(n, 0.0, 0.0)
        assert x.tobytes() == ref_x.tobytes(), n
        assert w.tobytes() == ref_w.tobytes(), n


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_bad_input(bad):
    # each entry point, before a gamma value or a sample is computed
    for fn in (selberg_closed, selberg_quadrature, selberg_montecarlo,
               aomoto_recursion_check):
        for args in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                fn(2, *args)


def test_closed_form_beyond_the_float_range_is_bad_input():
    # log S_3(1e-300, 1e-300, 1) is about 1381.6, past the largest float
    with pytest.raises(ValueError, match="leaves the float range"):
        selberg_closed(3, 1e-300, 1e-300, 1)
    with pytest.raises(ValueError, match="leaves the float range"):
        aomoto_recursion_check(3, 1e-300, 1e-300, 1)


def test_domain_predicate():
    assert check_selberg_domain(2, 1, 1, 1)
    assert not check_selberg_domain(2, -1, 1, 1)
    assert not check_selberg_domain(2, 1, 1, -0.6)


def test_numeric_methods_reject_what_they_cannot_integrate():
    # B(1e-300, 1e-300)^3 is past the largest float: bad input, not an OverflowError
    with pytest.raises(ValueError, match="leaves the float range"):
        selberg_montecarlo(3, 1e-300, 1e-300, 1, samples=10)
    # B(400, 400)^2 is below the smallest float: a weight of 0 would read 0 +- 0
    with pytest.raises(ValueError, match="leaves the float range"):
        selberg_montecarlo(2, 400, 400, 1, samples=10)
    for fn in (selberg_quadrature, selberg_montecarlo):
        for args in ((-0.5, 1, 1), (1, 0, 1), (1, 1, -0.6)):
            with pytest.raises(ValueError, match="diverges"):
                fn(2, *args)
    with pytest.raises(ValueError, match="gamma >= 0"):
        selberg_quadrature(2, 1, 1, -0.4)
    # the integral converges at gamma = -0.4, but the estimator's second
    # moment B^n S_n(alpha, beta, 2 gamma) does not: its standard error
    # would mean nothing
    with pytest.raises(ValueError, match="variance diverges"):
        selberg_montecarlo(2, 1, 1, -0.4, samples=10_000, seed=1)
    # where the variance is finite, the Monte Carlo still integrates gamma < 0
    est, err = selberg_montecarlo(2, 1, 1, -0.2, samples=10_000, seed=1)
    assert math.isfinite(est) and math.isfinite(err)
    # the closed form keeps its analytic continuation
    assert math.isfinite(selberg_closed(2, 1, 1, -0.6))


def test_closed_form_below_the_float_range_is_rejected():
    # S_25(1, 1, 1) is about e^-764: a value of 0.0 would make every
    # recursion residual vacuous
    with pytest.raises(ValueError, match="leaves the float range"):
        selberg_closed(25, 1, 1, 1)
    with pytest.raises(ValueError, match="leaves the float range"):
        aomoto_recursion_check(25, 1, 1, 1)
    # S_24 is normal, but S(24) = 1.3e-318 is subnormal: its residuals
    # would rest on a handful of bits
    assert selberg_closed(24, 1, 1, 1) > sys.float_info.min
    with pytest.raises(ValueError, match="leaves the float range"):
        aomoto_closed(24, 24, 1, 1, 1)
    with pytest.raises(ValueError, match="leaves the float range"):
        aomoto_recursion_check(24, 1, 1, 1)
    # at n = 23 every S(k) is normal (the least is 6.8e-292)
    assert aomoto_recursion_check(23, 1, 1, 1)["transcribed_all_ok"] is False


def test_aomoto_k1_shifts_alpha():
    # S_1((1); a, b) = B(a+1, b) = B(a, b) * a/(a+b)
    a, b = 1.5, 2.5
    assert aomoto_closed(1, 1, a, b, 0.3) == pytest.approx(
        selberg_closed(1, a, b, 0.3) * a / (a + b), rel=1e-12)


def test_aomoto_n2_k1_value():
    # int int x (x-y)^2 = 1/12: ratio (a + g)/(a + b + 2g) = 1/2 at a=b=g=1
    assert aomoto_closed(2, 1, 1, 1, 1) == pytest.approx(1 / 12, rel=1e-12)


def test_aomoto_specialization_vanishes_exactly():
    for r in (2, 3, 4):
        for k in range(1, r + 1):
            assert aomoto_ratio_exact(r, Fraction(-1, 8), k) == 0
    assert aomoto_ratio_exact(2, Fraction(-1, 8), 0) == 1


def test_i0_closed_finite():
    v = i0_closed(2, -0.25)
    assert math.isfinite(v) and v != 0


def test_quadrature_beta22():
    val, err = selberg_quadrature(1, 2, 2, 1)
    assert val == pytest.approx(1 / 6, abs=1e-12)
    assert err < 1e-12


def test_quadrature_s2():
    val, err = selberg_quadrature(2, 1, 1, 1)
    assert val == pytest.approx(1 / 6, abs=1e-8)


def test_quadrature_rejects_large_n():
    with pytest.raises(ValueError):
        selberg_quadrature(3, 1, 1, 1)


def test_montecarlo_s3_within_three_sigma():
    closed = selberg_closed(3, 1, 1, 1)
    est, err = selberg_montecarlo(3, 1, 1, 1, samples=200_000, seed=42)
    assert abs(est - closed) < 3 * err
    assert abs(est - closed) / closed < 1e-2


def test_montecarlo_deterministic_given_seed():
    a = selberg_montecarlo(2, 1, 1, 1, samples=10_000, seed=5)
    b = selberg_montecarlo(2, 1, 1, 1, samples=10_000, seed=5)
    assert a == b


@pytest.mark.parametrize("samples", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                     3 * _CHUNK_ROWS + 7])
@pytest.mark.parametrize("n, alpha, beta, gamma", [
    (1, 1, 1, 0.5),
    (2, 1, 1, -0.2),
    (3, 1, 1, 1),
    (3, 0.5, 2.5, -0.1),
    (5, 1, 1, 0.3),
    (5, 2, 3, -0.05),
    (5, 0.5, 2.5, 0.3),
])
def test_montecarlo_matches_the_whole_array_reference(n, alpha, beta, gamma, samples):
    # the row-chunked draws and the in-place standard error give the bits
    # of one (samples, n) draw and np.std
    seed = samples + n
    assert (selberg_montecarlo(n, alpha, beta, gamma, samples=samples, seed=seed)
            == selberg_montecarlo_reference(n, alpha, beta, gamma, samples, seed))


# _uniform_beta draws its trials in blocks of this many (U, V) pairs
BLOCK = _BLOCK_PAIRS


# 4,095 to 4,097 end inside a block, BLOCK - 1 to BLOCK + 1 on its boundary
@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, BLOCK - 1, BLOCK, BLOCK + 1,
                                  3 * _CHUNK_ROWS + 7])
@pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 63 + 5])
def test_uniform_beta_is_generator_beta_bit_for_bit(seed, rows):
    for n in (1, 3):
        expected = np.random.default_rng(seed).beta(1.0, 1.0, size=(rows, n))
        got = _uniform_beta(np.random.default_rng(seed))((rows, n))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [3, 17])
def test_uniform_beta_carries_leftovers_across_draws(seed):
    # sizes that end inside a block, on one draw, and span several blocks;
    # each draw starts from the values the last one left over
    sizes = [(1, 3), (BLOCK - 1, 1), (7, 2), (_CHUNK_ROWS, 3), (BLOCK + 1, 5), (2, 3)]
    draw = _uniform_beta(np.random.default_rng(seed))
    got = np.concatenate([draw(size).reshape(-1) for size in sizes])
    rng = np.random.default_rng(seed)
    expected = np.concatenate([rng.beta(1.0, 1.0, size=size).reshape(-1) for size in sizes])
    assert got.tobytes() == expected.tobytes()


class PlantedZeros:
    """Generator.random(out=) with (U, V) = (0.0, 0.0) planted in the first,
    sixth and last pair of every block and in every pair of the second
    block; it keeps the doubles it gave."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.given = []

    def random(self, out):
        self.rng.random(out=out)
        out[[0, 1, 10, 11, -2, -1]] = 0.0
        if len(self.given) == 1:
            out[:] = 0.0
        self.given.append(out.copy())


@pytest.mark.parametrize("size", [(1, 1), (BLOCK - 5, 1), (3 * BLOCK, 1), (BLOCK + 1, 3)])
def test_uniform_beta_rejects_zero_pairs(size):
    # a U = V = 0 trial, once in 2^106, is rejected as numpy's Johnk loop
    # rejects it, without a 0/0 on the way
    stream = PlantedZeros(5)
    draw = _uniform_beta(stream)
    with np.errstate(all="raise"):
        first = draw(size)
        second = draw((7, 2))
    got = np.concatenate([first.reshape(-1), second.reshape(-1)])
    expected = uniform_beta_reference(np.concatenate(stream.given), len(got))
    assert got.tobytes() == expected.tobytes()


def test_uniform_montecarlo_never_calls_generator_beta(monkeypatch):
    # the alpha = beta = 1 path draws from Generator.random alone; a fall
    # back to Generator.beta would give the same bits at twice the time
    default_rng = np.random.default_rng

    class WithoutBeta:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            assert name != "beta", "Generator.beta called at alpha = beta = 1"
            return getattr(self.rng, name)

    expected = selberg_montecarlo_reference(3, 1, 1, 1, _CHUNK_ROWS + 3, 9)
    monkeypatch.setattr(np.random, "default_rng", WithoutBeta)
    assert selberg_montecarlo(3, 1, 1, 1, samples=_CHUNK_ROWS + 3, seed=9) == expected
    with pytest.raises(AssertionError, match="Generator.beta called"):
        selberg_montecarlo(3, 2, 1, 1, samples=10, seed=9)


def test_negative_seed_is_bad_input():
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        selberg_montecarlo(2, 1, 1, 1, samples=10, seed=-1)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -3"):
        vanishing_check(2, 1, (1, 0), samples=10, seed=-3)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts kilobytes on Linux")
def test_montecarlo_memory_is_about_eight_bytes_a_sample():
    # 10^6 samples at n = 3 keep one 8 MB array of values; the whole
    # (samples, 3) draw and its full-length temporaries grew it by 39 MB
    code = ("import resource\n"
            "from svjack.selberg import selberg_montecarlo\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "selberg_montecarlo(3, 1, 1, 1, samples=10 ** 6, seed=42)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(after - before)\n")
    growth_kb = int(run_fresh(code))  # ru_maxrss is in kilobytes on Linux
    assert growth_kb < 20 * 1024


def test_montecarlo_budget_guard():
    with pytest.raises(ValueError, match="exceeds the cap"):
        selberg_montecarlo(2, 1, 1, 1, samples=10 ** 9)
    # checked before any array is allocated
    with pytest.raises(ValueError, match="exceeds the cap"):
        vanishing_check(2, 1, (1, 0), samples=MAX_SAMPLES + 1)


def test_alpha_beta_symmetry_numeric():
    # S_n is invariant under alpha <-> beta (x -> 1-x)
    v1, e1 = selberg_quadrature(2, 2, 3, 1)
    v2, e2 = selberg_quadrature(2, 3, 2, 1)
    assert v1 == pytest.approx(v2, rel=1e-10)


def test_moment_permutation_symmetry():
    r1, e1 = montecarlo_symmetrized_moment(3, 1, 1, 1, (2, 1, 0),
                                           samples=150_000, seed=9)
    r2, e2 = montecarlo_symmetrized_moment(3, 1, 1, 1, (0, 2, 1),
                                           samples=150_000, seed=10)
    assert abs(r1 - r2) < 3 * (e1 + e2)


def test_recursion_report():
    rep = aomoto_recursion_check(2, 1.0, 1.0, 1.0)
    assert rep["corrected_all_ok"]
    # the transcribed form disagrees with the closed product here
    assert not rep["transcribed_all_ok"]
    ks = [row["k"] for row in rep["rows"]]
    assert ks == [1, 2]


def test_recursion_randomized_domain_sweep():
    import random
    rng = random.Random(4)
    for _ in range(6):
        n = rng.choice([2, 3, 4])
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.5, 3.0)
        g = rng.uniform(0.1, 1.5)
        rep = aomoto_recursion_check(n, a, b, g)
        assert rep["corrected_all_ok"]


# --- torus vanishing ----------------------------------------------------------

def test_exact_constant_term_r2_t1():
    # CT[(z1 - z2)^2 / (z1 z2)] = -2 under the doubled-exponent encoding
    assert vanishing_moment_exact(2, 1, (0, 0)) == -2
    assert vanishing_moment_exact(2, 1, (1, 0)) == 0
    assert vanishing_moment_exact(2, 1, (2, 1)) == 0


def test_exact_constant_term_halfinteger_t():
    # r = 2, t = 1/2: single-valued after the square-root substitution; the
    # vacuum moment vanishes as well here (the integrand is odd under
    # w_1 -> -w_1), while every |m| != 0 moment vanishes by homogeneity
    assert vanishing_moment_exact(2, Fraction(1, 2), (0, 0)) == 0
    assert vanishing_moment_exact(2, Fraction(1, 2), (1, 0)) == 0
    assert vanishing_moment_exact(3, 1, (0, 0, 0)) == -6  # Dyson constant term
    assert vanishing_moment_exact(3, 1, (1, 0, 0)) == 0


@pytest.mark.parametrize("r", [-1, 0])
def test_torus_moments_need_a_variable(r):
    """r < 1 is rejected before the moment's length is read, with its own
    message, as n < 1 is for the cube integral."""
    message = "^r must be at least 1, got %d$" % r
    with pytest.raises(ValueError, match=message):
        vanishing_check(r, 1, (1,))
    with pytest.raises(ValueError, match=message):
        vanishing_moment_exact(r, 1, ())


def test_vanishing_check_reports():
    rep = vanishing_check(2, Fraction(1, 2), (1, 0), samples=40_000, seed=7)
    assert rep["consistent_with_zero"]
    assert rep["exact_moment"] == "0"
    assert not rep["inconclusive"]


def test_vanishing_check_zero_moment_is_normalizer():
    rep = vanishing_check(2, 1, (0, 0), samples=20_000, seed=3)
    assert rep["consistent_with_zero"] is None
    assert rep["exact_moment"] == rep["exact_normalizer"] == "-2"


def test_vanishing_check_multi_index():
    rep = vanishing_check(3, Fraction(1, 2), (2, 1, 0), samples=40_000, seed=11)
    assert rep["consistent_with_zero"]
    assert rep["exact_moment"] == "0"


def test_vanishing_domain_guard():
    with pytest.raises(ValueError, match="2t a nonnegative integer"):
        vanishing_check(2, Fraction(1, 3), (1, 0))
