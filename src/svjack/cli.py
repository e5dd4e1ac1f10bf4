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
import gc
import json
import sys
from fractions import Fraction

from .fock import screening_r1, verify_conjecture
from .kernel import KernelError, scalar_to_json
from .svir import kac_det_check, singular_vector
from .symfunc import check_partition, convert, symfunc_to_json
from .uglov import jack, macdonald, uglov2_orth

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
    return check_partition(parts)


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


# ---------------------------------------------------------------------------
# subcommand handlers; those of finiten, selberg and reproduce import them,
# because `import svjack` does not load them (selberg and reproduce bring in
# numpy, and the quadrature away from alpha = beta = 1 scipy)
# ---------------------------------------------------------------------------

def cmd_uglov(args):
    lam = _parse_partition(args.partition)
    gamma = _parse_symbolic(args.gamma, "gamma")
    f = uglov2_orth(lam, gamma)
    out = convert(f, args.basis)
    return _emit(args,
                 {"partition": list(lam), "gamma": args.gamma, "basis": args.basis},
                 {"expansion": symfunc_to_json(out)})


def cmd_macdonald(args):
    lam = _parse_partition(args.partition)
    q = _parse_rational(args.q)
    t = _parse_rational(args.t)
    f = macdonald(lam, q, t)
    out = convert(f, args.basis)
    return _emit(args,
                 {"partition": list(lam), "q": str(q), "t": str(t), "basis": args.basis},
                 {"expansion": symfunc_to_json(out)})


def cmd_jack(args):
    lam = _parse_partition(args.partition)
    alpha = _parse_rational(args.alpha)
    f = jack(lam, alpha)
    out = convert(f, args.basis)
    return _emit(args,
                 {"partition": list(lam), "alpha": str(alpha), "basis": args.basis},
                 {"expansion": symfunc_to_json(out)})


def cmd_singular(args):
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
    level = _parse_rational(args.level)
    t = _parse_symbolic(args.t, "t")
    rep = kac_det_check(level, t)
    return _emit(args, {"level": args.level, "t": args.t},
                 {"factors": rep["factors"], "degree": rep["degree"],
                  "constant": scalar_to_json(rep["constant"])})


def cmd_verify(args):
    t = _parse_symbolic(args.t, "t")
    rep = verify_conjecture(args.r, args.s, t)
    return _emit(args, {"r": args.r, "s": args.s, "t": args.t}, rep, ok=rep["eigencheck"])


def cmd_screening(args):
    t = _parse_symbolic(args.t, "t")
    out = screening_r1(args.s, t)
    return _emit(args, {"s": args.s, "t": args.t}, {"residue": symfunc_to_json(out)})


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

class _Parser(argparse.ArgumentParser):
    """Bad arguments are bad input: error() raises ValueError, which main
    reports like any other, in place of printing the usage and exiting.  The
    error carries the command that this parser's documents name, if it sets
    one (argparse reads a subcommand's arguments into a namespace of its own)."""

    def error(self, message):
        exc = ValueError(message)
        exc.command = self.get_default("command")
        raise exc


def build_parser(command=None):
    """The svjack parser.  Given the subcommand a process runs, only the
    top-level parser and that subcommand's (for selberg, with its modes) are
    built: a subcommand's help and errors read its own parser alone, under
    the prog prefix ``svjack`` that add_subparsers fixes before any
    add_parser.  Argparse lists the subcommands only in the error for a
    missing or unknown one, so with no command, or a word that names none,
    every subparser is built."""
    def want(name):
        return command in (None, name)

    parser = _Parser(
        prog="svjack",
        description="Exact verification suite for super Virasoro singular "
                    "vectors and their symmetric-function images.")
    parser.add_argument("--json", action="store_true",
                        help="emit a canonical JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    if want("uglov"):
        p = sub.add_parser("uglov", help="gamma-family symmetric function")
        p.add_argument("--partition", required=True)
        p.add_argument("--gamma", default="sym")
        p.add_argument("--basis", choices=("p", "m", "e"), default="m")
        p.set_defaults(fn=cmd_uglov)

    if want("macdonald"):
        p = sub.add_parser("macdonald", help="Macdonald function at a rational sample")
        p.add_argument("--partition", required=True)
        p.add_argument("--q", required=True)
        p.add_argument("--t", required=True)
        p.add_argument("--basis", choices=("p", "m", "e"), default="m")
        p.set_defaults(fn=cmd_macdonald)

    if want("jack"):
        p = sub.add_parser("jack", help="Jack function (limit oracle)")
        p.add_argument("--partition", required=True)
        p.add_argument("--alpha", required=True)
        p.add_argument("--basis", choices=("p", "m", "e"), default="m")
        p.set_defaults(fn=cmd_jack)

    if want("singular"):
        p = sub.add_parser("singular", help="singular vector of the Verma module")
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--t", default="sym")
        p.set_defaults(fn=cmd_singular)

    if want("kacdet"):
        p = sub.add_parser("kacdet", help="determinant factorization at one level")
        p.add_argument("--level", required=True)
        p.add_argument("--t", default="sym")
        p.set_defaults(fn=cmd_kacdet)

    if want("verify"):
        p = sub.add_parser("verify", help="singular vector vs symmetric function")
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--t", default="sym")
        p.set_defaults(fn=cmd_verify)

    if want("screening"):
        p = sub.add_parser("screening", help="one-screening residue (odd s)")
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--t", default="sym")
        p.set_defaults(fn=cmd_screening)

    if want("selberg"):
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

    if want("finite-n"):
        p = sub.add_parser("finite-n", help="restriction diagnostic report")
        p.add_argument("--dmax", type=int, default=3)
        p.add_argument("--n-range", default="1..6")
        p.add_argument("--op", choices=("c0", "c1"), default="c0")
        p.add_argument("--gamma", default="1")
        p.set_defaults(fn=cmd_finite_n)

    if want("reproduce-paper"):
        p = sub.add_parser("reproduce-paper", help="run the whole verification suite")
        p.add_argument("--bound", type=int, default=6)
        p.set_defaults(fn=cmd_reproduce)

    if command is not None and command not in sub.choices:
        return build_parser()
    return parser


def _command_word(argv):
    """The word in the subcommand's place in ``CMD ...`` or ``--json CMD
    ...``, the two shapes a command line takes; None when argv is empty or
    is only ``--json``.  Any other shape (``-h`` first, an abbreviated or
    repeated ``--json``) gives a word that names no subcommand."""
    words = argv[1:] if argv[:1] == ["--json"] else argv
    return words[0] if words else None


def main(argv=None):
    # the objects alive now (interpreter, stdlib, svjack modules) go to the
    # permanent generation, which no later collection, nor those at exit,
    # walks; what the command creates is collected as before
    gc.freeze()
    # the namespace names a command, and says whether to print JSON, even
    # when parsing stops at a bad argument
    args = argparse.Namespace(json=False, command="svjack")
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        build_parser(_command_word(argv)).parse_args(argv, args)
        code = args.fn(args)
    except ValueError as exc:
        # the library raises ValueError only from its argument checks
        args.command = getattr(exc, "command", None) or args.command
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
