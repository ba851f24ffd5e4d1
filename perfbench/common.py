"""Shared pieces of the benchmark: checkout layout, pinned settings,
the measured-phase loop and the result line.

The benchmark lives in ``perfbench/`` of a source checkout and imports
qharm from that checkout's ``src/`` and from nowhere else, so a
directory that lacks the sources fails at start-up instead of measuring
an installed copy.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Callable, NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# One BLAS thread in every workload process and every child: the level
# build is a BLAS-bound Gram-Schmidt whose time depends on the thread
# count, and one thread never exceeds nproc.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every op is timed in at least this many passes; its time is the median
# over the passes.
MIN_PASSES = 5


class BenchSetupError(RuntimeError):
    """The checkout has no qharm sources to benchmark."""


def pin_environment() -> None:
    """Pin BLAS threads and point imports at the checkout's sources.

    Must run before numpy is imported; child processes inherit the
    settings through os.environ.
    """
    if not os.path.isfile(os.path.join(SRC, "qharm", "__init__.py")):
        raise BenchSetupError(f"no qharm sources under {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def run_info(seed: int) -> dict:
    """Settings and versions that a result depends on."""
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def git_sha() -> str:
    """The checkout's commit, or 'unknown' when the checkout is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def quantile(values: list[float], pct: int) -> float:
    """pct-th percentile (1..99), interpolated between the nearest values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Op(NamedTuple):
    """One benchmark operation: a timed call into qharm plus an untimed oracle.

    ``run`` returns the output; ``check`` returns None when the output is
    right and a short reason string when it is wrong.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


class PhaseResult:
    def __init__(self, ops: list[Op]):
        self.op_names = [op.name for op in ops]
        # per op, one entry per pass: the op's time and the mean of the
        # yardstick times right before and right after it
        self.samples: list[list[float]] = [[] for _ in ops]
        self.yard: list[list[float]] = [[] for _ in ops]
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def normalized(self) -> list[list[float]]:
        """Per op, its time in each pass at the yardstick's reference speed."""
        from yardstick import REF_S

        return [[t / y * REF_S for t, y in zip(times, yard)] for times, yard in zip(self.samples, self.yard)]

    def op_times(self) -> list[float]:
        """Each op's time at the reference speed, median over passes."""
        return [statistics.median(times) for times in self.normalized()]

    def run_s(self) -> float:
        """Time of one pass over the op list at the reference speed."""
        return sum(self.op_times())

    def yardstick_s(self) -> float:
        """Median yardstick time over the measured phase."""
        return statistics.median(y for yard in self.yard for y in yard)

    def raw_run_s(self) -> float:
        """Time of one pass, each op at its median raw time."""
        return sum(statistics.median(times) for times in self.samples)

    def merge(self, other: "PhaseResult") -> None:
        """Count another phase's attempts and failures (not its times) in this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures

    def add_failure(self, name: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {reason}")


def call_op(op: Op, phase: PhaseResult, tracer=None, op_index: int = 0):
    """Run one op's qharm call; returns (output, exception or None, seconds)."""
    phase.attempted += 1
    if tracer is not None:
        tracer.begin_op(f"{op_index}:{op.name}")
    t0 = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as e:  # an op that raises is a failed op, not a crash
        out, error = None, e
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    return out, error, dt


def judge_op(op: Op, phase: PhaseResult, out, error) -> None:
    """Check one op's output against its oracle; never raises."""
    if error is not None:
        traceback.print_exception(error, limit=3, file=sys.stderr)
        reason = f"{type(error).__name__}: {error}"
    else:
        try:
            reason = op.check(out)
        except Exception as e:
            reason = f"oracle raised {type(e).__name__}: {e}"
    if reason is not None:
        phase.add_failure(op.name, reason)


def run_op(op: Op, phase: PhaseResult) -> float:
    """Run one op and check it; returns its time."""
    out, error, dt = call_op(op, phase)
    judge_op(op, phase, out, error)
    return dt


def measure(
    ops: list[Op], seconds: float, min_passes: int, tracer=None, warmup: int = 1, child_ops: bool = False
) -> PhaseResult:
    """Run `warmup` untimed passes, then whole passes over the op list
    until `seconds` of op time have been measured in at least
    `min_passes` passes.  Every op of every pass is checked.

    The yardstick runs between every two ops, before the oracle, so each
    op time has a yardstick time from right before and right after it.
    Ops that run a child process (`child_ops`) return a
    ``cli_cold.ChildRun``: the child timed its command between two
    yardstick runs of its own, which pair more closely than runs in this
    process around the whole child.
    """
    import yardstick

    phase = PhaseResult(ops)
    for _ in range(warmup):
        for op in ops:
            run_op(op, phase)
    spent = 0.0
    index = 0
    before = None if child_ops else yardstick.time_once()
    while True:
        for i, op in enumerate(ops):
            out, error, dt = call_op(op, phase, tracer, index)
            if not child_ops:
                after = yardstick.time_once()
                yard = (before + after) / 2
                before = after
            elif error is None:
                dt, yard = out.seconds, out.yard
            else:
                yard = yardstick.REF_S
            judge_op(op, phase, out, error)
            index += 1
            phase.samples[i].append(dt)
            phase.yard[i].append(yard)
            spent += dt
        phase.passes += 1
        if spent >= seconds and phase.passes >= min_passes:
            return phase


def end_to_end_metrics(phase: PhaseResult, setup_times: list[float], rss_mb: float) -> dict:
    """The end-to-end metrics.  An op's latency is its median normalized
    time over the passes, and the percentiles are taken over the ops of
    one pass: single samples of the child-process ops scatter by 20 %
    in a slow period.  Set-up times are scaled by the measured
    phase's median yardstick time, taken right after them: a set-up is
    one long call, or a child process, that no yardstick can bracket
    closely."""
    from yardstick import REF_S

    op_ms = [t * 1000.0 for t in phase.op_times()]
    ok_share = (phase.attempted - phase.failed) / phase.attempted
    run_s = phase.run_s()
    return {
        "setup_s": (statistics.median(setup_times) * REF_S / phase.yardstick_s(), "s"),
        "run_s": (run_s, "s"),
        "ops_per_s": (len(phase.samples) * ok_share / run_s, "1/s"),
        "op_p50_ms": (quantile(op_ms, 50), "ms"),
        "op_p90_ms": (quantile(op_ms, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_ratio": (ok_share, "ratio"),
    }


def note(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
