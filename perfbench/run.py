#!/usr/bin/env python3
"""svjack benchmark: each workload is a sequence of fresh ``svjack`` CLI
processes whose stdout must match the sha256 digests in digests.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is imported from ./src.  One
pass runs every invocation of the workload once, one at a time, in an order
drawn from the seed.  Passes repeat until the next one would end after
--seconds.  With --trace 0 the last line of stdout carries the end-to-end
metrics (medians over passes, in seconds at the reference speed of
PROBE_CODE); with --trace 1 each pass is run untraced and then traced, and
the last line carries the per-function metrics of tracer.py.  Workloads,
the reason for each and the baseline are in workloads.json; README.md
explains the metrics.
"""

import argparse
import hashlib
import json
import operator
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
from tracer import COUNTED, SECTIONS, SPANNED  # noqa: E402


def load(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def invocations(spec, seed):
    """CLI argument lists of one pass, in the order drawn from the seed.  For
    a workload with t samples the seed also picks the pair of samples; seed 0
    gives the first two of the list."""
    if "t_samples" in spec:
        samples = spec["t_samples"]
        pairs = [(a, b) for a in samples for b in samples if a != b]
        ts = pairs[seed % len(pairs)]
        invs = [["verify", "--r", str(r), "--s", str(s), "--t", t]
                for (r, s), t in zip(spec["cases"], ts)]
    else:
        invs = [list(args) for args in spec["invocations"]]
    random.Random(seed).shuffle(invs)
    return invs


def child_env():
    env = dict(os.environ)
    env.pop("SVJACK_CACHE_DIR", None)
    env["PYTHONPATH"] = SRC
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        env[var] = threads
    return env


def run_invocation(args, trace, env, digests):
    """Spawn one CLI process and wait for it; returns its measurements."""
    report_path = os.path.join(OUT, "launch-report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), report_path,
           "1" if trace else "0", "--json"] + args
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {}
    if os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
    digest = hashlib.sha256(out).hexdigest()
    expected = digests.get(" ".join(args))
    ok = proc.returncode == 0 and digest == expected and "imported" in report
    if not ok:
        print("FAILED %s: exit %d, sha256 %s, expected %s"
              % (" ".join(args), proc.returncode, digest, expected), flush=True)
    return {"args": args, "ok": ok, "wall": end - start,
            "cpu": usage.ru_utime + usage.ru_stime,
            "setup": report.get("imported", end) - start,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "trace": report.get("trace")}


# A fixed piece of dict-heavy exact arithmetic, run as a fresh process before
# and after every invocation.  On a shared host a fresh process runs faster or
# slower by 20% and more for stretches of seconds to minutes, whatever it
# computes; the probe's CPU time tracks that speed (an in-process probe does
# not).  Never edit the code or PROBE_REF_S: they fix the unit of every time
# the benchmark reports.
PROBE_CODE = """
from fractions import Fraction
d = {}
for i in range(1, 20000):
    k = (i % 89, i % 97, i % 7)
    d[k] = d.get(k, Fraction(0)) + Fraction(i % 13 + 1, i % 11 + 1)
l = [tuple(range(i % 10)) for i in range(100000)]
"""
PROBE_REF_S = 0.25    # median probe CPU time where the benchmark was defined


def probe(env):
    """CPU seconds of one fresh probe process."""
    proc = subprocess.Popen([sys.executable, "-c", PROBE_CODE], env=env, cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError("the speed probe exited with %d" % proc.returncode)
    return usage.ru_utime + usage.ru_stime


def run_pass(invs, trace, env, digests):
    """Each invocation once; each result carries ``speed``, the reference
    probe time over the mean of the probes run just before and after it."""
    results = []
    before = probe(env)
    for args in invs:
        result = run_invocation(args, trace, env, digests)
        after = probe(env)
        result["speed"] = 2 * PROBE_REF_S / (before + after)
        results.append(result)
        before = after
    return results


def run_passes(invs, seconds, trace, env, digests):
    """Untraced passes (and, with trace, a traced pass after each) until the
    next would overrun the time budget; at least one."""
    untraced, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        began = time.monotonic()
        untraced.append(run_pass(invs, False, env, digests))
        if trace:
            traced.append(run_pass(invs, True, env, digests))
        now = time.monotonic()
        if now + (now - began) > deadline:
            return untraced, traced


def summary(values):
    return "median %.4f min %.4f max %.4f n %d" % (
        statistics.median(values), min(values), max(values), len(values))


def end_to_end(passes):
    """Times at the reference speed (see PROBE_CODE): each invocation's time
    times its ``speed``.  wall_s and cpu_s sum over the invocations of a pass
    each one's median over passes.  Set-up time is the same for every
    invocation, so setup_s is the number of invocations times the median
    over all of them."""
    def scaled(key):
        for i, first in enumerate(passes[0]):
            print("%s %s: raw %s" % (key, " ".join(first["args"]),
                                     summary([p[i][key] for p in passes])))
        return sum(statistics.median(p[i][key] * p[i]["speed"] for p in passes)
                   for i in range(len(passes[0])))
    speeds = [r["speed"] for p in passes for r in p]
    setups = [r["setup"] * r["speed"] for p in passes for r in p]
    print("speed: " + summary(speeds))
    print("setup at reference speed: " + summary(setups))
    return {
        "wall_s": {"value": scaled("wall"), "unit": "s"},
        "cpu_s": {"value": scaled("cpu"), "unit": "s"},
        "setup_s": {"value": len(passes[0]) * statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(r["rss_mb"] for p in passes for r in p),
                        "unit": "MB"},
    }


# Per-layer metrics that are not a span's calls and self time.
LAYER_EXTRA = [
    ("linalg.bareiss_echelon.max_cells", "count", "lower"),
    ("uglov.orth_cache.hit_ratio", "ratio", "higher"),
    ("symfunc.transition.hit_ratio", "ratio", "higher"),
    ("selberg.selberg_montecarlo.rss_growth_mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
# ratio -> (hits, calls) it divides
RATIOS = {
    "uglov.orth_cache.hit_ratio": ("uglov.orth_cache.hits", "uglov.uglov2_orth.calls"),
    "symfunc.transition.hit_ratio": ("symfunc.transition.hits",
                                     "symfunc._m_to_p_matrix.calls"),
}


def layer_metrics():
    """(name, unit, better) of every per-layer metric."""
    out = []
    for module, func in SPANNED:
        name = "%s.%s" % (module, func)
        out += [(name + ".calls", "count", "lower"), (name + ".self_s", "s", "lower")]
    out += [("%s.%s.calls" % c, "count", "lower") for c in COUNTED]
    out += [("reproduce.%s.s" % s, "s", "lower") for s in SECTIONS.values()]
    return out + LAYER_EXTRA


def layer_values(traces):
    """Per-layer values of one traced pass (a list of per-process traces):
    calls, self time and span time (".s") summed over processes, maxima of
    the ``max_cells`` and ``_mb`` figures, and the hit ratios."""
    values = {}

    def add(key, value, merge=operator.add):
        values[key] = merge(values.get(key, 0), value)
    for tr in traces:
        for name, n in tr["calls"].items():
            add(name + ".calls", n)
        for name, s in tr["self_s"].items():
            add(name + ".self_s", s)
        for name, v in tr["extra"].items():
            add(name, v, max if name.endswith(("max_cells", "_mb")) else operator.add)
        for _, name, start, end, _ in tr["spans"]:
            add(name + ".s", end - start)
    for ratio, (hits, calls) in RATIOS.items():
        values[ratio] = values.get(hits, 0) / values[calls] if values.get(calls) else 0.0
    return values


def per_layer(untraced, traced, workload, seed):
    """Counts and ratios from the first traced pass (they repeat exactly),
    times as medians over the traced passes."""
    values = [layer_values([r["trace"] for r in p]) for p in traced]
    overhead = (statistics.median(sum(r["wall"] for r in p) for p in traced)
                - statistics.median(sum(r["wall"] for r in p) for p in untraced))
    metrics = {}
    for name, unit, _ in layer_metrics():
        if name == "trace.overhead_s":
            value = overhead
        elif unit == "s":
            value = statistics.median(v.get(name, 0.0) for v in values)
        else:
            value = values[0].get(name, 0)
            if unit == "count" and any(v.get(name, 0) != value for v in values[1:]):
                print("warning: %s differs between traced passes" % name)
        metrics[name] = {"value": value, "unit": unit}
    path = os.path.join(OUT, "trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "span_fields": ["id", "name", "start", "end", "parent"],
                   "invocations": [{"args": r["args"], "spans": r["trace"]["spans"]}
                                   for r in traced[0]]}, fh)
    print("spans of the first traced pass: %s" % os.path.relpath(path, ROOT))
    return metrics


def run_record(env):
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True).stdout.strip() or None
    except OSError:
        sha = None
    src_lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "svjack"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "svjack", name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines,
            "svjack_cache_dir_unset": "SVJACK_CACHE_DIR" not in env,
            "blas_threads": {v: env[v] for v in BLAS_VARS}}


def run_workload(name, spec, args, env, digests):
    """Run one workload; returns (attempted, failed, metrics), or None when a
    traced run failed: tracing must not change any output."""
    invs = invocations(spec, args.seed)
    print("workload %s, seed %d: %d invocations per pass" % (name, args.seed, len(invs)))
    untraced, traced = run_passes(invs, args.seconds, args.trace == 1, env, digests)
    runs = [r for p in untraced + traced for r in p]
    failed = sum(not r["ok"] for r in runs)
    print("passes: %d untraced, %d traced; failed_ratio %d/%d"
          % (len(untraced), len(traced), failed, len(runs)))
    if not args.trace:
        return len(runs), failed, end_to_end(untraced)
    if failed:
        print("a traced or untraced invocation failed under --trace 1", file=sys.stderr)
        return None
    return len(runs), failed, per_layer(untraced, traced, name, args.seed)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.json, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "svjack", "cli.py")):
        print("no svjack sources under %s" % SRC, file=sys.stderr)
        return 2
    spec = load("workloads.json")["workloads"]
    names = list(spec) if args.workload == "all" else [args.workload]
    if not set(names) <= set(spec):
        print("unknown workload %r; one of %s" % (args.workload, ", ".join(spec)),
              file=sys.stderr)
        return 2
    digests = load("digests.json")
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    print("run record: " + json.dumps(run_record(env), sort_keys=True))

    # Compile the sources and load the libraries once, outside the timing.
    subprocess.run([sys.executable, "-c", "import compileall, sys; "
                    "compileall.compile_dir(sys.argv[1], quiet=1); "
                    "import svjack.cli, svjack.selberg", os.path.join(SRC, "svjack")],
                   env=env, cwd=ROOT, check=True)

    attempted, failed, metrics = 0, 0, {}
    for name in names:
        result = run_workload(name, spec[name], args, env, digests)
        if result is None:
            return 1
        attempted += result[0]
        failed += result[1]
        prefix = name + "." if len(names) > 1 else ""
        for metric, value in result[2].items():
            print("%s %s = %r %s" % (name, metric, value["value"], value["unit"]))
            metrics[prefix + metric] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
