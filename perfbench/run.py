"""The qharm benchmark: one workload per run, in this fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It lives in ``perfbench/`` of a source checkout and imports qharm from
that checkout's ``src/``.  Workloads:

  scheme-battery  criterion-3/4 instance checks on L(V, W)
  group-battery   levels, spectra, mixing, set audits, product sets on SL_n(F_q)
  cli-cold        fixed ``qharm`` subcommands, each in a fresh child process

With --trace 0 the result carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a separate traced run.  The last
line of stdout is the result object; the line before it holds the run
settings, the corpus size and the sample counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time

from common import (
    MIN_PASSES,
    OUT_DIR,
    BenchSetupError,
    end_to_end_metrics,
    measure,
    note,
    peak_rss_mb,
    pin_environment,
    run_info,
)

BATTERIES = {"scheme-battery": "scheme_battery", "group-battery": "group_battery"}
WORKLOADS = tuple(BATTERIES) + ("cli-cold",)
# Fresh processes per run whose set-up is timed; setup_s is their median.
SETUP_REPEATS = 3
CLI_IMPORT_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def timed_setup(workload: str):
    """Import qharm and build the workload's caches; returns (module, seconds)."""
    t0 = time.perf_counter()
    mod = importlib.import_module(BATTERIES[workload])
    mod.setup()
    return mod, time.perf_counter() - t0


def child_setup_time(workload: str) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def finish(args, phase, metrics: dict, info: dict) -> int:
    info.update(run_info(args.seed))
    info.update(
        workload=args.workload,
        trace=args.trace,
        raw_run_s=phase.raw_run_s(),
        yardstick_s=phase.yardstick_s(),
        passes=phase.passes,
        op_samples=sum(len(times) for times in phase.samples),
        failures=phase.failures,
    )
    result = {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    op_ms = {name: [round(t * 1000.0, 3) for t in times] for name, times in zip(phase.op_names, phase.samples)}
    op_norm_ms = {
        name: [round(t * 1000.0, 3) for t in times] for name, times in zip(phase.op_names, phase.normalized())
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({"info": info, "result": result, "op_ms": op_ms, "op_norm_ms": op_norm_ms}, fh, indent=1)
    for failure in phase.failures:
        note(f"FAILED {failure}")
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)  # the result is always the last line
    return 0


def trace_metrics(traced_phase, untraced_phase) -> dict:
    traced = traced_phase.run_s()
    untraced = untraced_phase.run_s()
    return {
        "trace.run_s": (traced, "s"),
        "trace.untraced_run_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
    }


def run_battery(args) -> int:
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        try:
            tracer.install()
            mod, _ = timed_setup(args.workload)
            ops = mod.build_ops(args.seed)
            tracer.uninstall()
            untraced = measure(ops, 0.0, 2)
            tracer.install()
            tracer.measuring = True
            phase = measure(ops, args.seconds, MIN_PASSES, tracer, warmup=0)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.json"))
        metrics = layer_metrics(tracer.summary())
        metrics.update(trace_metrics(phase, untraced))
        phase.merge(untraced)
        return finish(args, phase, metrics, {"corpus_ops": len(ops)})

    mod, own = timed_setup(args.workload)
    setup_times = [own] + [child_setup_time(args.workload) for _ in range(SETUP_REPEATS - 1)]
    ops = mod.build_ops(args.seed)
    phase = measure(ops, args.seconds, MIN_PASSES)
    metrics = end_to_end_metrics(phase, setup_times, peak_rss_mb())
    return finish(args, phase, metrics, {"corpus_ops": len(ops), "setup_samples": setup_times})


def run_cli(args) -> int:
    import cli_cold

    setup_times = [cli_cold.import_time() for _ in range(CLI_IMPORT_REPEATS)]
    inputs = cli_cold.Inputs(args.seed)
    info = {"corpus_ops": len(cli_cold.COMMANDS), "setup_samples": setup_times}
    if args.trace:
        from tracing import layer_metrics, merge_summaries

        untraced = measure(cli_cold.build_ops(inputs), 0.0, 1, warmup=0, child_ops=True)
        trace_dir = os.path.join(OUT_DIR, f"trace-cli-cold-s{args.seed}")
        os.makedirs(trace_dir, exist_ok=True)
        phase = measure(cli_cold.build_ops(inputs, trace_dir), 0.0, 1, warmup=0, child_ops=True)
        summaries = []
        for name, _, _ in cli_cold.COMMANDS:
            with open(os.path.join(trace_dir, f"{name}.json")) as fh:
                summaries.append(json.load(fh)["summary"])
        cli_times = dict(zip(phase.op_names, phase.op_times()))
        metrics = layer_metrics(merge_summaries(summaries), cli_times)
        metrics.update(trace_metrics(phase, untraced))
        phase.merge(untraced)
        return finish(args, phase, metrics, info)

    # no warm-up pass: every command starts cold anyway
    phase = measure(cli_cold.build_ops(inputs), args.seconds, MIN_PASSES, warmup=0, child_ops=True)
    metrics = end_to_end_metrics(phase, setup_times, peak_rss_mb(children=True))
    return finish(args, phase, metrics, info)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pin_environment()
    except BenchSetupError as e:
        note(f"error: {e}")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_only:
        _, seconds = timed_setup(args.workload)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "cli-cold":
        return run_cli(args)
    return run_battery(args)


if __name__ == "__main__":
    sys.exit(main())
