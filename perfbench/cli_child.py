"""Run one ``qharm`` subcommand in this fresh process, like the ``qharm``
console script does, optionally timed and with the benchmark's tracer
installed.

    python perfbench/cli_child.py [--time OUT.json] [--trace OUT.json --op NAME] SUBCOMMAND ARGS...

With --time, the wall time of ``qharm.cli.main`` (the command's work,
not the interpreter's start or the imports) and the mean of the
yardstick times right before and right after it are written to
OUT.json.  With --trace, the tracer's summary and spans are written to
OUT.json before the process exits with the command's status.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    time_path = trace_path = op_name = None
    if argv[:1] == ["--time"]:
        time_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--trace"]:
        trace_path, op_name, argv = argv[1], argv[3], argv[4:]
    tracer = None
    if trace_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.measuring = True  # a cold process has no set-up phase of its own
        tracer.begin_op(op_name)
    import qharm.cli
    import yardstick

    yardstick.time_once()  # the first call also fills numpy's FFT plan cache
    before = yardstick.time_once()
    t0 = time.perf_counter()
    try:
        return qharm.cli.main(argv)
    finally:
        seconds = time.perf_counter() - t0
        if time_path:
            after = yardstick.time_once()
            with open(time_path, "w") as fh:
                json.dump({"seconds": seconds, "yard": (before + after) / 2}, fh)
        if tracer is not None:
            tracer.end_op()
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
