"""cli-cold: fixed ``qharm`` subcommands, each in a fresh child process.

Users of the CLI pay every cache build on every invocation, so work a
change moves from the ops into set-up shows here as a loss.  It is also
the only workload with large transforms (N = 65536 and 19683) and with
CSV/JSON I/O.  The command list is short (a pass takes about 4.5 s) so
that every command runs in several passes spread over the run.  Each
child times its own command (``cli_child.py``); the interpreter's start
and the imports are the workload's set-up.  The seeded input files are
written before timing starts; each command's outputs are read back and
compared with an in-process oracle afterwards.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from functools import partial
from typing import NamedTuple

import numpy as np

import qharm.bogolyubov as bogolyubov
import qharm.cli as cli
import qharm.globality as globality
import qharm.groups as groups
import qharm.scheme as scheme

from common import BENCH_DIR, OUT_DIR, Op

CHILD = os.path.join(BENCH_DIR, "cli_child.py")
SCHEME_FILES = {(2, 4, 4): "f_2_4_4.csv", (3, 3, 3): "f_3_3_3.csv", (2, 3, 3): "f_2_3_3.csv"}
GROUP = ("sl", 2, 5)  # of isotypic
SET_GROUP = ("sl", 3, 2)  # of bogolyubov


def import_time() -> float:
    """Wall time of a fresh child that imports qharm.cli and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qharm.cli"], check=True, timeout=120)
    return time.perf_counter() - t0


class Inputs:
    """Seeded input files plus what the oracles need to judge the outputs."""

    def __init__(self, seed: int):
        self.dir = os.path.join(OUT_DIR, f"cli-cold-s{seed}")
        os.makedirs(self.dir, exist_ok=True)
        rng = np.random.default_rng([seed, 7])
        self.functions = {}
        for (q, n, m), fname in SCHEME_FILES.items():
            size = q ** (n * m)
            if (q, n, m) == (2, 3, 3):
                vals = (rng.random(size) < 0.25).astype(np.complex128)
            else:
                vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            self.functions[(q, n, m)] = vals
            cli.write_function_csv(os.path.join(self.dir, fname), vals)
        self.group = groups.get_group(*GROUP)
        self.set_group = g = groups.get_group(*SET_GROUP)
        self.a = np.sort(rng.choice(g.size, size=int(rng.integers(g.size // 4, g.size // 2)), replace=False))
        cli.write_set_file(os.path.join(self.dir, "a.txt"), g, self.a)


def _read_function(path: str):
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([complex(float(r[1]), float(r[2])) for r in rows])


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_fourier(inputs: Inputs, out: str, status: int, key):
    ctx = scheme.get_scheme(*key)
    f = inputs.functions[key]
    spec = _read_function(os.path.join(out, "spectrum.csv"))
    if spec.shape != f.shape:
        return "spectrum has the wrong length"
    parseval = abs(float(np.sum(np.abs(spec) ** 2)) - float(np.mean(np.abs(f) ** 2)))
    inversion = float(np.max(np.abs(ctx.fourier_inverse(spec) - f)))
    in_process = float(np.max(np.abs(spec - ctx.fourier_forward(f))))
    if not (parseval < 1e-9 and inversion < 1e-9 and in_process < 1e-9):
        return f"Parseval {parseval:.1e}, inversion {inversion:.1e}, vs in-process {in_process:.1e}"
    return None


def check_projection(inputs: Inputs, out: str, status: int, key, d: int):
    ctx = scheme.get_scheme(*key)
    got = _read_function(os.path.join(out, f"degree_cumulative_{d}.csv"))
    want = scheme.degree_project(ctx.table(inputs.functions[key]), d, "cumulative").values
    if got.shape != want.shape or not np.max(np.abs(got - want)) < 1e-9:
        return "degree projection differs from the in-process result"
    return None


def check_influence(inputs: Inputs, out: str, status: int):
    ctx = scheme.get_scheme(2, 3, 3)
    rep = globality.influence_audit(ctx.table(inputs.functions[(2, 3, 3)]), 1)
    with open(os.path.join(out, "influence_audit.csv")) as fh:
        rows = list(csv.DictReader(fh))
    if status != (0 if rep.passed else 1):
        return f"exit status {status} but the in-process verdict is {'pass' if rep.passed else 'fail'}"
    if len(rows) != len(rep.rows) or any(
        abs(float(r["max"]) - row.value) > 1e-9 for r, row in zip(rows, rep.rows)
    ):
        return "influence maxima differ from the in-process audit"
    return None


def check_isotypic(inputs: Inputs, out: str, status: int):
    data = _read_json(os.path.join(out, "isotypic.json"))
    g = inputs.group
    dims = [d for v in data["component_dims"].values() for d in v]
    if sum(d * d for d in dims) != g.size or len(dims) != g.class_count():
        return f"isotypic dims {data['component_dims']} do not fit |G|={g.size}"
    return None


def check_bogolyubov(inputs: Inputs, out: str, status: int):
    data = _read_json(os.path.join(out, "bogolyubov.json"))
    g = inputs.set_group
    res = bogolyubov.bogolyubov_search(bogolyubov.GroupSet(g, inputs.a))
    if abs(data["mu_A"] - inputs.a.size / g.size) > 1e-12 or abs(data["contained_density"] - res.density) > 1e-9:
        return "groumvirate density differs from the in-process search"
    return None


# (metric name, qharm arguments, oracle); {dir} is the run's input directory
COMMANDS = [
    ("fourier_q2n4m4", "fourier --q 2 --n 4 --m 4 --input {dir}/f_2_4_4.csv",
     partial(check_fourier, key=(2, 4, 4))),
    ("fourier_q3n3m3", "fourier --q 3 --n 3 --m 3 --input {dir}/f_3_3_3.csv",
     partial(check_fourier, key=(3, 3, 3))),
    ("project-degree_q3n3m3", "project-degree --q 3 --n 3 --m 3 --input {dir}/f_3_3_3.csv --d 1 --mode cumulative",
     partial(check_projection, key=(3, 3, 3), d=1)),
    ("influence-audit_q2n3m3", "influence-audit --q 2 --n 3 --m 3 --input {dir}/f_2_3_3.csv --dmax 1",
     check_influence),
    ("isotypic_sl2q5", "isotypic --q 5 --n 2 --group sl", check_isotypic),
    ("bogolyubov_sl3q2", "bogolyubov --q 2 --n 3 --group sl --set {dir}/a.txt", check_bogolyubov),
]


class ChildRun(NamedTuple):
    """A finished command: the process, the wall time of its
    ``qharm.cli.main`` call and the child's yardstick time around it."""

    proc: subprocess.CompletedProcess
    seconds: float
    yard: float


def build_ops(inputs: Inputs, trace_dir: str | None = None) -> list[Op]:
    """One op per command: run the child, then judge its exit status and outputs.

    Exit status 1 from an audit subcommand is a verdict, judged against
    the oracle; any other non-zero status is a failure.
    """
    ops = []
    for name, template, oracle in COMMANDS:
        out = os.path.join(inputs.dir, name)
        argv = template.format(dir=inputs.dir).split() + ["-o", out]
        time_path = os.path.join(inputs.dir, f"{name}.time.json")
        prefix = ["--time", time_path]
        if trace_dir:
            prefix += ["--trace", os.path.join(trace_dir, f"{name}.json"), "--op", name]
        cmd = [sys.executable, CHILD] + prefix + argv
        statuses = (0, 1) if argv[0].endswith("-audit") else (0,)

        def run(cmd=cmd, time_path=time_path):
            if os.path.exists(time_path):
                os.remove(time_path)
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
            if not os.path.exists(time_path):  # the child died before its command ran
                raise RuntimeError(f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}")
            with open(time_path) as fh:
                timing = json.load(fh)
            return ChildRun(proc, timing["seconds"], timing["yard"])

        def check(child, oracle=oracle, out=out, statuses=statuses):
            proc = child.proc
            if proc.returncode not in statuses:
                return f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return oracle(inputs, out, proc.returncode)

        ops.append(Op(name, run, check))
    return ops
