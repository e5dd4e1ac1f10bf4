"""Timing and counting wrappers installed into the svjack modules from outside
the package.

Each traced function is replaced, in every ``svjack.*`` namespace that bound it
by name, with a wrapper that records a span (id, name, start, end, parent id)
and adds the span's self time (its duration minus the time covered by its
child spans) to a per-name total.  A few very hot methods only get a call
counter.  Nothing here changes arguments or results.
"""

import functools
import importlib
import resource
import sys
import time

# Functions that get a span, as (module, attribute); recorded as module.attribute.
SPANNED = [
    ("kernel", "poly_gcd"),
    ("linalg", "bareiss_echelon"),
    ("linalg", "nullspace"),
    ("linalg", "det"),
    ("linalg", "poly_interpolate"),
    ("svir", "act"),
    ("svir", "gram_matrix"),
    ("svir", "singular_vector"),
    ("svir", "kac_det_check"),
    ("fock", "verify_conjecture"),
    ("fock", "verma_to_lambda"),
    ("fock", "ff_act"),
    ("uglov", "uglov2_orth"),
    ("vertexops", "apply_vertex_mode"),
    ("vertexops", "c0_apply"),
    ("vertexops", "c1_apply"),
    ("symfunc", "convert"),
    ("symfunc", "to_p"),
    ("symfunc", "_m_to_p_matrix"),
    ("finiten", "limit_diagnostic"),
    ("finiten", "c0n_apply"),
    ("selberg", "selberg_montecarlo"),
    ("selberg", "selberg_quadrature"),
    ("selberg", "vanishing_check"),
    ("cli", "main"),
]

# Sections of reproduce_all, recorded as reproduce.<section>.
SECTIONS = {
    "run_kac_determinants": "kac-determinants",
    "run_singular_vectors": "singular-vectors",
    "run_singular_vector_images": "singular-vector-images",
    "run_uglov_table": "uglov-table",
    "run_conjecture": "conjecture",
    "run_eigen_suite": "eigen-suite",
    "run_hbar_expansion": "hbar-expansion",
    "run_annihilation": "annihilation",
    "run_selberg": "selberg",
    "run_finite_n": "finite-n-limit",
}

# Methods called too often for a span each: counted only.
COUNTED = [
    ("kernel", "RatFun.__init__"),
    ("kernel", "Sqrt2Ext.__mul__"),
]

MODULES = ["kernel", "linalg", "symfunc", "vertexops", "svir", "fock", "uglov",
           "selberg", "finiten", "reproduce", "cli"]


class Tracer:
    """Spans kept in memory for one process; ``report`` returns them with the
    per-name aggregates."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id or None)
        self.stack = []        # [span id, child seconds] of the open spans
        self.calls = {}
        self.self_s = {}
        self.extra = {}        # name -> number (maxima and hit counters)
        self.next_id = 0

    def bump(self, name, value):
        self.extra[name] = self.extra.get(name, 0) + value

    def keep_max(self, name, value):
        self.extra[name] = max(self.extra.get(name, 0), value)

    def span(self, name, fn, before=None, after=None):
        stack = self.stack
        calls, self_s, spans = self.calls, self.self_s, self.spans
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            parent = stack[-1] if stack else None
            frame = [self.next_id, 0.0]
            self.next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                spans.append((frame[0], name, start, end,
                              parent[0] if parent else None))
                if after:
                    after(state)
        return wrapper

    def count(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def report(self):
        return {"calls": self.calls, "self_s": self.self_s,
                "extra": self.extra,
                "spans": [list(s) for s in sorted(self.spans)]}


def _rebind(original, wrapper):
    """Replace ``original`` by ``wrapper`` wherever an svjack module or class
    holds it by name; returns the number of bindings replaced."""
    replaced = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "svjack" or modname.startswith("svjack.")):
            continue
        holders = [module] + [v for v in vars(module).values()
                              if isinstance(v, type) and v.__module__ == modname]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    replaced += 1
    return replaced


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


def install():
    """Import the svjack modules, wrap every traced function and return the
    Tracer.  Raises LookupError if a listed function is missing."""
    mods = {name: importlib.import_module("svjack." + name) for name in MODULES}
    tracer = Tracer()

    def wrap(modname, path, make):
        original = _resolve(mods[modname], path)
        if not _rebind(original, make(original)):
            raise LookupError("svjack.%s.%s is bound nowhere" % (modname, path))

    def cache_hits(name, cache):
        # A call that finds its key in the cache returns without adding one.
        return (lambda *a, **k: len(cache),
                lambda size0: tracer.bump(name, len(cache) == size0))

    def rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    hooks = {
        "bareiss_echelon": (
            lambda mat, *a, **k: tracer.keep_max(
                "linalg.bareiss_echelon.max_cells",
                len(mat) * (len(mat[0]) if mat else 0)),
            None),
        "uglov2_orth": cache_hits("uglov.orth_cache.hits", mods["uglov"]._ORTH_CACHE),
        "_m_to_p_matrix": cache_hits("symfunc.transition.hits",
                                     mods["symfunc"]._M_TO_P_CACHE),
        "selberg_montecarlo": (
            lambda *a, **k: rss_mb(),
            lambda rss0: tracer.keep_max("selberg.selberg_montecarlo.rss_growth_mb",
                                         rss_mb() - rss0)),
    }
    for modname, path in SPANNED:
        before, after = hooks.get(path, (None, None))
        wrap(modname, path, lambda fn, name="%s.%s" % (modname, path), before=before,
             after=after: tracer.span(name, fn, before, after))
    for fname, section in SECTIONS.items():
        wrap("reproduce", fname,
             lambda fn, name="reproduce." + section: tracer.span(name, fn))
    for modname, path in COUNTED:
        wrap(modname, path, lambda fn, name="%s.%s" % (modname, path):
             tracer.count(name, fn))
    return tracer

