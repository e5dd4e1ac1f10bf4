"""Record the sha256 of stdout of every invocation any seed can generate, from
the sources in ./src, into digests.json.

    python3 perfbench/record.py

Run it only at the commit that defines the expected outputs: the benchmark
counts every later mismatch as a failed invocation.
"""

import hashlib
import json
import os
import subprocess
import sys

from run import HERE, ROOT, child_env, load


def all_invocations(spec):
    if "t_samples" in spec:
        return [["verify", "--r", str(r), "--s", str(s), "--t", t]
                for r, s in spec["cases"] for t in spec["t_samples"]]
    return spec["invocations"]


def main():
    env = child_env()
    digests = {}
    for name, spec in load("workloads.json")["workloads"].items():
        for args in all_invocations(spec):
            proc = subprocess.run([sys.executable, "-m", "svjack.cli", "--json"] + args,
                                  stdout=subprocess.PIPE, env=env, cwd=ROOT)
            if proc.returncode != 0:
                sys.exit("%s exited with %d" % (" ".join(args), proc.returncode))
            digests[" ".join(args)] = hashlib.sha256(proc.stdout).hexdigest()
            print(name, " ".join(args), digests[" ".join(args)], flush=True)
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
