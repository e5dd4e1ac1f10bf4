"""Command-line driver: every verification exposed as a subcommand with
deterministic JSON output.

Exit codes: 0 when every requested check passes (or the command only
computes an object), 1 on a failed check, a ``VerificationFailure`` or a
``KernelError`` (arithmetic that cannot go on), 2 on bad input, a
``ValueError``.
Identical invocations produce byte-identical JSON: keys are sorted, scalar
encodings are canonical, and all stochastic subcommands take explicit seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .kernel import KernelError, scalar_to_json

SCHEMA_VERSION = "svjack-report/1"


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("not a rational number: %r" % text)


def _parse_symbolic(text, name):
    """"sym" or a nonzero rational."""
    if text == "sym":
        return "sym"
    value = _parse_rational(text)
    if value == 0:
        raise ValueError("%s must be nonzero" % name)
    return value


def _parse_partition(text):
    if text in ("", "empty"):
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("not a partition: %r" % text)
    if any(p < 1 for p in parts) or any(parts[i] < parts[i + 1]
                                        for i in range(len(parts) - 1)):
        raise ValueError("parts must be weakly decreasing positive integers")
    return parts


def _parse_moment(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("not a comma-separated list of integers: %r" % text)


def _parse_range(text):
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        raise ValueError("not a range lo..hi: %r" % text)
    return lo, hi


def _emit(args, parameters, result, ok=True):
    doc = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "parameters": parameters,
        "ok": bool(ok),
        "result": result,
    }
    if args.json:
        _print_json(doc)
    else:
        _human(doc)
    return 0 if ok else 1


def _emit_error(args, kind, exc):
    _print_json({"schema": SCHEMA_VERSION, "command": args.command, "ok": False,
                 "error": "%s: %s" % (kind, exc)})


def _print_json(doc):
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _human(doc):
    print("[%s] %s" % (doc["command"], "ok" if doc["ok"] else "FAILED"))
    for key, value in sorted(doc["parameters"].items()):
        print("  %s = %s" % (key, value))
    _human_result(doc["result"], indent="  ")


def _human_result(value, indent=""):
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)):
                print("%s%s:" % (indent, key))
                _human_result(sub, indent + "  ")
            else:
                print("%s%s: %s" % (indent, key, sub))
    elif isinstance(value, list):
        for item in value:
            _human_result(item, indent)
    else:
        print("%s%s" % (indent, value))


def _symfunc_json(f):
    from .symfunc import symfunc_to_json
    return symfunc_to_json(f)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_uglov(args):
    from .symfunc import convert
    from .uglov import uglov2_orth
    lam = _parse_partition(args.partition)
    gamma = _parse_symbolic(args.gamma, "gamma")
    f = uglov2_orth(lam, gamma)
    out = convert(f, args.basis)
    return _emit(args,
                 {"partition": list(lam), "gamma": args.gamma, "basis": args.basis},
                 {"expansion": _symfunc_json(out)})


def cmd_macdonald(args):
    from .symfunc import convert
    from .uglov import macdonald
    lam = _parse_partition(args.partition)
    q = _parse_rational(args.q)
    t = _parse_rational(args.t)
    f = macdonald(lam, q, t)
    out = convert(f, args.basis)
    return _emit(args,
                 {"partition": list(lam), "q": str(q), "t": str(t), "basis": args.basis},
                 {"expansion": _symfunc_json(out)})


def cmd_jack(args):
    from .symfunc import convert
    from .uglov import jack
    lam = _parse_partition(args.partition)
    alpha = _parse_rational(args.alpha)
    f = jack(lam, alpha)
    out = convert(f, args.basis)
    return _emit(args,
                 {"partition": list(lam), "alpha": str(alpha), "basis": args.basis},
                 {"expansion": _symfunc_json(out)})


def cmd_singular(args):
    from .svir import singular_vector
    t = _parse_symbolic(args.t, "t")
    chi = singular_vector(args.r, args.s, t)
    terms = []
    for sp in sorted(chi.terms, key=lambda sp: sp.sort_key()):
        terms.append({
            "bosonic": list(sp.bosonic),
            "fermionic": [str(b) for b in sp.fermionic],
            "coeff": scalar_to_json(chi.terms[sp]),
        })
    return _emit(args, {"r": args.r, "s": args.s, "t": args.t},
                 {"level": str(chi.level), "terms": terms})


def cmd_kacdet(args):
    from .svir import kac_det_check
    level = _parse_rational(args.level)
    t = _parse_symbolic(args.t, "t")
    rep = kac_det_check(level, t)
    return _emit(args, {"level": args.level, "t": args.t},
                 {"factors": rep["factors"], "degree": rep["degree"],
                  "constant": scalar_to_json(rep["constant"])})


def cmd_verify(args):
    from .fock import verify_conjecture
    t = _parse_symbolic(args.t, "t")
    rep = verify_conjecture(args.r, args.s, t)
    ok = rep["proportional"] and rep["eigencheck"] and rep["triangular"]
    return _emit(args, {"r": args.r, "s": args.s, "t": args.t},
                 {"rs": rep["rs"], "proportional": rep["proportional"],
                  "scalar": rep["scalar"], "eigencheck": rep["eigencheck"],
                  "triangular": rep["triangular"]},
                 ok=ok)


def cmd_screening(args):
    from .fock import screening_r1
    t = _parse_symbolic(args.t, "t")
    out = screening_r1(args.s, t)
    return _emit(args, {"s": args.s, "t": args.t}, {"residue": _symfunc_json(out)})


def cmd_selberg_integral(args):
    from .selberg import selberg_closed, selberg_montecarlo, selberg_quadrature
    result = {"closed": selberg_closed(args.n, args.alpha, args.beta, args.gamma)}
    if args.method == "quadrature":
        val, err = selberg_quadrature(args.n, args.alpha, args.beta, args.gamma)
        result.update({"value": val, "error_estimate": err})
    elif args.method == "montecarlo":
        val, err = selberg_montecarlo(args.n, args.alpha, args.beta, args.gamma,
                                      samples=args.samples, seed=args.seed)
        result.update({"value": val, "stderr": err})
    ok = True
    if "value" in result:
        tol = 3 * result.get("stderr", max(result.get("error_estimate", 0), 1e-8))
        ok = abs(result["value"] - result["closed"]) <= max(tol, 1e-8)
    return _emit(args, {"n": args.n, "alpha": args.alpha, "beta": args.beta,
                        "gamma": args.gamma, "method": args.method,
                        "samples": args.samples, "seed": args.seed},
                 result, ok=ok)


def cmd_selberg_vanish(args):
    from .selberg import vanishing_check
    t = _parse_rational(args.t)
    moment = _parse_moment(args.m)
    rep = vanishing_check(args.r, t, moment, samples=args.samples, seed=args.seed)
    ok = rep["consistent_with_zero"] is not False and rep["exact_moment"] == "0" \
        if sum(moment) != 0 else True
    return _emit(args, {"r": args.r, "t": args.t, "m": args.m,
                        "samples": args.samples, "seed": args.seed},
                 rep, ok=ok)


def cmd_selberg_recursion(args):
    from .selberg import aomoto_recursion_check
    rep = aomoto_recursion_check(args.n, args.alpha, args.beta, args.gamma)
    return _emit(args, {"n": args.n, "alpha": args.alpha, "beta": args.beta,
                        "gamma": args.gamma},
                 rep, ok=rep["corrected_all_ok"])


def cmd_finite_n(args):
    from .finiten import limit_diagnostic_report
    lo, hi = _parse_range(args.n_range)
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi in --n-range lo..hi, got %r" % args.n_range)
    if args.dmax < 0:
        raise ValueError("--dmax must be nonnegative")
    gamma = _parse_rational(args.gamma)
    rep = limit_diagnostic_report(args.dmax, list(range(lo, hi + 1)),
                                  which=args.op, gamma=gamma)
    return _emit(args, {"dmax": args.dmax, "n_range": args.n_range, "op": args.op,
                        "gamma": args.gamma},
                 rep)


def cmd_reproduce(args):
    from .reproduce import reproduce_all
    report, ok = reproduce_all(bound=args.bound)
    return _emit(args, {"bound": args.bound}, report, ok=ok)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="svjack",
        description="Exact verification suite for super Virasoro singular "
                    "vectors and their symmetric-function images.")
    parser.add_argument("--json", action="store_true",
                        help="emit a canonical JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("uglov", help="gamma-family symmetric function")
    p.add_argument("--partition", required=True)
    p.add_argument("--gamma", default="sym")
    p.add_argument("--basis", choices=("p", "m", "e"), default="m")
    p.set_defaults(fn=cmd_uglov)

    p = sub.add_parser("macdonald", help="Macdonald function at a rational sample")
    p.add_argument("--partition", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--basis", choices=("p", "m", "e"), default="m")
    p.set_defaults(fn=cmd_macdonald)

    p = sub.add_parser("jack", help="Jack function (limit oracle)")
    p.add_argument("--partition", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--basis", choices=("p", "m", "e"), default="m")
    p.set_defaults(fn=cmd_jack)

    p = sub.add_parser("singular", help="singular vector of the Verma module")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", default="sym")
    p.set_defaults(fn=cmd_singular)

    p = sub.add_parser("kacdet", help="determinant factorization at one level")
    p.add_argument("--level", required=True)
    p.add_argument("--t", default="sym")
    p.set_defaults(fn=cmd_kacdet)

    p = sub.add_parser("verify", help="singular vector vs symmetric function")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", default="sym")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("screening", help="one-screening residue (odd s)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", default="sym")
    p.set_defaults(fn=cmd_screening)

    p = sub.add_parser("selberg", help="Selberg/Aomoto integrals")
    ssub = p.add_subparsers(dest="selberg_mode", required=True)
    pi = ssub.add_parser("integral", help="closed form vs numeric")
    pi.add_argument("--n", type=int, required=True)
    pi.add_argument("--alpha", type=float, required=True)
    pi.add_argument("--beta", type=float, required=True)
    pi.add_argument("--gamma", type=float, required=True)
    pi.add_argument("--method", choices=("closed", "quadrature", "montecarlo"),
                    default="quadrature")
    pi.add_argument("--samples", type=int, default=10 ** 6)
    pi.add_argument("--seed", type=int, default=0)
    pi.set_defaults(fn=cmd_selberg_integral)
    pv = ssub.add_parser("vanish", help="vanishing of torus moments")
    pv.add_argument("--r", type=int, required=True)
    pv.add_argument("--t", required=True)
    pv.add_argument("--m", required=True)
    pv.add_argument("--samples", type=int, default=10 ** 5)
    pv.add_argument("--seed", type=int, default=7)
    pv.set_defaults(fn=cmd_selberg_vanish, command="selberg-vanish")
    pr = ssub.add_parser("recursion", help="contiguous recursion report")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--alpha", type=float, required=True)
    pr.add_argument("--beta", type=float, required=True)
    pr.add_argument("--gamma", type=float, required=True)
    pr.set_defaults(fn=cmd_selberg_recursion, command="selberg-recursion")

    p = sub.add_parser("finite-n", help="restriction diagnostic report")
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--n-range", default="1..6")
    p.add_argument("--op", choices=("c0", "c1"), default="c0")
    p.add_argument("--gamma", default="1")
    p.set_defaults(fn=cmd_finite_n)

    p = sub.add_parser("reproduce-paper", help="run the whole verification suite")
    p.add_argument("--bound", type=int, default=6)
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except ValueError as exc:
        # the library raises ValueError only from its argument checks
        print("usage error: %s" % exc, file=sys.stderr)
        if args.json:
            _emit_error(args, "UsageError", exc)
        return 2
    except KernelError as exc:
        _emit_error(args, type(exc).__name__, exc)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
