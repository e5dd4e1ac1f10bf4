"""Batch verification driver: every reference identity the package certifies,
grouped by topic, with machine-readable pass/fail reporting.

Each runner returns a dict with a "status" field ("pass", "fail", or
"diagnostic" for the restriction report, which records findings rather than
asserting a claim).  ``reproduce_all`` assembles them into one document, in
which a runner that raises becomes a "fail" section carrying the error.
"""

from __future__ import annotations

import traceback
from fractions import Fraction

from .kernel import Poly, RatFun, is_zero
from .symfunc import SymFunc, convert, e_gen, partitions, to_p


HALF = Fraction(1, 2)

RS8_SAMPLES = (Fraction(3, 2), Fraction(5, 3), Fraction(7, 4))  # t for rs = 8


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return {"status": "fail", "error": "%s: %s" % (type(exc).__name__, exc),
                "trace": traceback.format_exc(limit=3)}


def run_kac_determinants():
    """Gram matrices at levels <= 3/2 against their reference forms, and the
    determinant factorizations at levels <= 2."""
    from .svir import gram_matrix_symbolic_h, kac_det_check

    one_t = RatFun.const("t", 1)
    t = RatFun.variable("t")
    h = Poly("h", [0 * one_t, one_t])
    c = Fraction(3, 2) - 3 * (t - 1 / t) ** 2
    ok = gram_matrix_symbolic_h(HALF) == [[2 * h]]
    ok = ok and gram_matrix_symbolic_h(1) == [[2 * h]]
    m = gram_matrix_symbolic_h(Fraction(3, 2))
    expected = [[4 * h * h + 2 * h, 4 * h],
                [4 * h, 2 * h + Poly.const("h", c * Fraction(2, 3))]]
    ok = ok and m == expected
    reports = {}
    for level in (HALF, Fraction(1), Fraction(3, 2), Fraction(2)):
        rep = kac_det_check(level)
        reports[str(level)] = {
            "factors": rep["factors"],
            "degree": rep["degree"],
            "constant_nonzero": not is_zero(rep["constant"]),
        }
    consts = (kac_det_check(HALF)["constant"] == 2 * one_t
              and kac_det_check(1)["constant"] == 2 * one_t
              and kac_det_check(Fraction(3, 2))["constant"] == 8 * one_t)
    return {"status": "pass" if ok and consts else "fail",
            "matrices_match": ok, "constants_match": consts,
            "levels": reports}


def run_singular_vectors():
    """The explicit level <= 3/2 singular vectors and their annihilation."""
    from .svir import SuperPartition, act, singular_vector

    t = RatFun.variable("t")
    one = RatFun.const("t", 1)
    chi = singular_vector(1, 1, "sym")
    ok = list(chi.terms) == [SuperPartition((), (HALF,))]
    sp_lg = SuperPartition((1,), (HALF,))
    sp_g = SuperPartition((), (Fraction(3, 2),))
    chi31 = singular_vector(3, 1, "sym")
    ok = ok and chi31.terms[sp_lg] == one and chi31.terms[sp_g] == -t * t
    chi13 = singular_vector(1, 3, "sym")
    ok = ok and chi13.terms[sp_lg] == one and chi13.terms[sp_g] == -1 / (t * t)
    annihilated = True
    for chi in (chi, chi31, chi13):
        for gen in (("G", HALF), ("G", Fraction(3, 2)), ("L", 1), ("L", 2)):
            annihilated = annihilated and act(gen, chi).is_zero()
    return {"status": "pass" if ok and annihilated else "fail",
            "coefficients_match": ok, "annihilated": annihilated}


def run_singular_vector_images():
    """Images of the level <= 3/2 singular vectors against the reference
    power-sum expansions (up to overall scalar), and the equality of the
    (1,3) image with e_3."""
    from .fock import verma_to_lambda
    from .svir import singular_vector

    t = RatFun.variable("t")
    one = RatFun.const("t", 1)
    displays = {
        (1, 1): SymFunc("p", {(1,): one}),
        (3, 1): SymFunc("p", {(3,): -2 * t * t / 3, (2, 1): -one,
                              (1, 1, 1): -t * t / 3}),
        (1, 3): SymFunc("p", {(3,): one / 3, (2, 1): -one / 2,
                              (1, 1, 1): one / 6}),
    }
    ok = True
    for (r, s), expected in displays.items():
        img = to_p(verma_to_lambda(singular_vector(r, s, "sym")))
        key = next(iter(expected.terms))
        ratio = img.terms[key] / expected.terms[key]
        ok = ok and not is_zero(ratio)
        ok = ok and img == expected.map_coeffs(lambda c, ratio=ratio: c * ratio)
    e3 = convert(displays[(1, 3)], "e")
    ok = ok and e3 == e_gen((3,), one)
    return {"status": "pass" if ok else "fail", "images_match": ok}


def run_uglov_table():
    """The scaled low-degree family table and the elementary column, plus the
    one-screening residues."""
    from .fock import screening_r1
    from .uglov import uglov2_orth

    g = RatFun.variable("g")
    one = RatFun.const("g", 1)
    a = one / g

    def up(lam):
        return convert(uglov2_orth(lam, "sym"), "p")

    table = [
        ((1,), one, {(1,): one}),
        ((2,), -(1 + a), {(2,): -one, (1, 1): -a}),
        ((1, 1), -2 * one, {(2,): one, (1, 1): -one}),
        ((3,), -(1 + a), {(3,): -2 * a / 3, (2, 1): -one, (1, 1, 1): -a / 3}),
        ((1, 1, 1), one, {(3,): one / 3, (2, 1): -one / 2, (1, 1, 1): one / 6}),
        ((4,), (1 + a) * (1 + 3 * a),
         {(4,): 2 * a, (3, 1): 8 * a * a / 3, (2, 2): one,
          (2, 1, 1): 2 * a, (1, 1, 1, 1): a * a / 3}),
        ((2, 2), 2 * (1 + a),
         {(4,): a - 1, (3, 1): -4 * a / 3, (2, 2): one,
          (1, 1, 1, 1): a / 3}),
        ((1, 1, 1, 1), 8 * one,
         {(4,): -2 * one, (3, 1): 8 * one / 3, (2, 2): one,
          (2, 1, 1): -2 * one, (1, 1, 1, 1): one / 3}),
    ]
    ok = True
    for lam, scale, expect in table:
        ok = ok and up(lam).map_coeffs(lambda c, s=scale: c * s) == SymFunc("p", expect)
    columns = all(convert(uglov2_orth((1,) * s, "sym"), "e") == e_gen((s,), one)
                  for s in range(1, 7))
    t = RatFun.variable("t")
    one_t = RatFun.const("t", 1)
    screening = all(
        screening_r1(s, "sym") ==
        convert(e_gen((s,), one_t), "p").map_coeffs(lambda c: c * (-t))
        for s in (1, 3, 5, 7))
    status = "pass" if ok and columns and screening else "fail"
    return {"status": status, "table_match": ok,
            "elementary_columns": columns, "screening_residues": screening}


def run_conjecture(bound=6):
    """The singular-vector / symmetric-function identification for every
    (r, s) with equal parity and rs <= bound with symbolic t, plus rs = 8 at
    rational t samples when the bound covers it."""
    from .fock import verify_conjecture

    cases = sorted({(r, s) for r in range(1, bound + 1)
                    for s in range(1, bound + 1)
                    if r * s <= bound and (r - s) % 2 == 0})
    results = {}
    passed = True
    for r, s in cases:
        rep = verify_conjecture(r, s, "sym")
        good = rep["proportional"] and rep["eigencheck"] and rep["triangular"]
        passed = passed and good
        results["%d,%d" % (r, s)] = {
            "proportional": rep["proportional"],
            "eigencheck": rep["eigencheck"],
            "triangular": rep["triangular"],
        }
    rs8 = {}
    if bound >= 8:
        for r, s in ((2, 4), (4, 2)):
            for tval in RS8_SAMPLES:
                rep = verify_conjecture(r, s, tval)
                good = rep["proportional"] and rep["eigencheck"] and rep["triangular"]
                passed = passed and good
                rs8["%d,%d@t=%s" % (r, s, tval)] = good
    return {"status": "pass" if passed else "fail",
            "symbolic_cases": results, "rs8_samples": rs8}


def run_eigen_suite(maxdeg=6):
    """Both eigenrelations for every member of the gamma-family of degree at
    most maxdeg, with symbolic gamma."""
    from .uglov import uglov2_orth
    from .vertexops import c0_apply, c1_apply, eps0, eps1

    g = RatFun.variable("g")
    checked = 0
    for n in range(0, maxdeg + 1):
        for lam in partitions(n):
            f = uglov2_orth(lam, "sym")
            if not (convert(c0_apply(0, f), "m") - f.scale(eps0(lam))).is_zero():
                return {"status": "fail", "failed_at": list(lam), "which": "c0"}
            if not (convert(c1_apply(g, 0, f), "m") - f.scale(eps1(lam, g))).is_zero():
                return {"status": "fail", "failed_at": list(lam), "which": "c1"}
            checked += 1
    return {"status": "pass", "functions_checked": checked}


def run_hbar_expansion():
    """The jet expansion of the eta family and the zero-mode identities of
    the two-term current, at two (gamma, alpha) samples."""
    from .vertexops import (dvir_rational, eps_hbar_check, eta_hbar_check,
                            pt_c10_check, pt_eta_check)

    eta5 = eta_hbar_check(Fraction(1), 5)["verified"]
    eta5b = eta_hbar_check(Fraction(2, 3), 5)["verified"]
    eps = eps_hbar_check(5, Fraction(2, 3))
    samples = [(Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(3, 2))]
    pt = all(pt_c10_check(g, a, 4)["verified"] for g, a in samples)
    rational = pt_eta_check(dvir_rational(Fraction(1, 2), Fraction(2), 1), 4)["verified"]
    ok = eta5 and eta5b and eps and pt and rational
    return {"status": "pass" if ok else "fail",
            "eta_jets_degree5": eta5 and eta5b,
            "eigenvalue_jets": eps,
            "zero_mode_identity_jets": pt,
            "zero_mode_identity_rational": rational}


def run_annihilation():
    """Positive current modes annihilate singular-vector images."""
    from .vertexops import t1_annihilation_check

    results = {}
    passed = True
    for r, s in ((1, 1), (3, 1), (1, 3), (2, 2)):
        rep = t1_annihilation_check(r, s)
        results["%d,%d" % (r, s)] = rep["annihilated"]
        passed = passed and rep["annihilated"]
    return {"status": "pass" if passed else "fail", "cases": results}


def run_selberg(mc_samples=10 ** 7):
    """Quadrature, Monte Carlo and exact checks of the integral identities."""
    from .selberg import (aomoto_ratio_exact, selberg_closed,
                          selberg_montecarlo, selberg_quadrature,
                          vanishing_check)

    q_val, q_err = selberg_quadrature(2, 1, 1, 1)
    quad_ok = abs(q_val - 1 / 6) < 1e-8
    closed3 = selberg_closed(3, 1, 1, 1)
    mc_val, mc_err = selberg_montecarlo(3, 1, 1, 1, samples=mc_samples, seed=42)
    mc_ok = abs(mc_val - closed3) < 3 * mc_err
    exact_ok = all(aomoto_ratio_exact(r, Fraction(-1, 8), k) == 0
                   for r in (2, 3) for k in range(1, r + 1))
    vanish = []
    for r, t, m, seed in ((2, Fraction(1), (1, 0), 7),
                          (2, Fraction(1), (2, 1), 8),
                          (3, Fraction(1, 2), (1, 1, 0), 9)):
        rep = vanishing_check(r, t, m, samples=10 ** 5, seed=seed)
        vanish.append(bool(rep["consistent_with_zero"])
                      and rep["exact_moment"] == "0")
    mc_ok = bool(mc_ok)
    ok = quad_ok and mc_ok and exact_ok and all(vanish)
    return {"status": "pass" if ok else "fail",
            "quadrature_s2": bool(quad_ok), "montecarlo_s3": mc_ok,
            "aomoto_exact_zero": exact_ok,
            "vanishing_moments": vanish}


def run_finite_n(dmax=3, nmax=6):
    """The restriction diagnostic; always reported as findings."""
    from .finiten import limit_diagnostic

    diag = limit_diagnostic(dmax, list(range(1, nmax + 1)), which="c0")
    cell10 = diag["cells"][(1, 0)]["finite"] == [[Fraction(2)]]
    cell20 = diag["cells"][(2, 0)]["finite"] == [[Fraction(0)]]
    cell11 = diag["cells"][(1, 1)]["finite"] == [[Fraction(-2)]]
    cell21 = diag["cells"][(2, 1)]["finite"] == [[Fraction(-4)]]
    avg0 = diag["averages"][(1, 0)]["average"] == [[Fraction(1)]]
    avg1 = diag["averages"][(1, 1)]["average"] == [[Fraction(-3)]]
    literal_all = all(c["literal_match"] for c in diag["cells"].values())
    averages_all = all(a["matches_projected"] for a in diag["averages"].values())
    corrected_all = all(c["corrected_match"] for c in diag["cells"].values())
    return {
        "status": "diagnostic",
        "reference_cells": cell10 and cell20 and cell11 and cell21,
        "reference_averages": avg0 and avg1,
        "literal_restriction_holds": literal_all,
        "two_point_average_holds": averages_all,
        "corrected_identity_holds": corrected_all,
    }


def reproduce_all(bound=6):
    """Run every verification section, scaled by the rs bound: the conjecture
    cases respect it directly, and the heavier sweeps (eigen suite degree,
    restriction table size, Monte Carlo budget) shrink with small bounds so a
    bound-2 smoke run stays fast.  Returns (report, ok)."""
    # the runners are looked up by name here, at each call, so a wrapper
    # rebound to a runner's module-level name (perfbench's tracer) sees it run
    report = {
        "kac-determinants": _guard(run_kac_determinants),
        "singular-vectors": _guard(run_singular_vectors),
        "singular-vector-images": _guard(run_singular_vector_images),
        "uglov-table": _guard(run_uglov_table),
        "conjecture": _guard(run_conjecture, bound),
        "eigen-suite": _guard(run_eigen_suite, maxdeg=max(2, min(6, bound))),
        "hbar-expansion": _guard(run_hbar_expansion),
        "annihilation": _guard(run_annihilation),
        "selberg": _guard(run_selberg, mc_samples=10 ** 7 if bound >= 6 else 10 ** 5),
        "finite-n-limit": _guard(run_finite_n, dmax=max(1, min(3, bound)),
                                 nmax=6 if bound >= 6 else 3),
    }
    ok = all(sec.get("status") in ("pass", "diagnostic") for sec in report.values())
    return report, ok
