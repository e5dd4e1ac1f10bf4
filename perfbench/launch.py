"""Run one svjack CLI invocation in this fresh interpreter, as
``python -m svjack.cli`` would, and report to a file how it went.

    python3 launch.py REPORT TRACE ARG...

REPORT is a path that receives one JSON object when the CLI returns:
``imported`` (time.monotonic() right after ``import svjack.cli``) and, when
TRACE is 1, ``trace`` (the spans and per-function aggregates of tracer.py).  ARG... are the CLI
arguments.  The exit code is the CLI's.
"""

import json
import sys
import time


def main():
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import svjack.cli
    imported = time.monotonic()
    tracer = None
    if trace:
        import tracer as tracer_module
        tracer = tracer_module.install()
    try:
        return svjack.cli.main(argv)
    finally:
        sys.stdout.flush()
        report = {"imported": imported}
        if tracer is not None:
            report["trace"] = tracer.report()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
