"""Tests of the benchmark itself.

    python -m pytest perfbench/tests

A deliberately wrong output must count as a failed op, and a tiny run
of each workload must print every metric that BENCHMARK.json names.
"""

from __future__ import annotations

import json
import os
import subprocess

import numpy as np
import pytest

import cli_cold
import common
import group_battery
import run
import scheme_battery
from qharm.errors import ConsistencyError

BENCHMARK = os.path.join(os.path.dirname(common.BENCH_DIR), "BENCHMARK.json")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a handful of ops and one set-up."""
    monkeypatch.setattr(scheme_battery, "DOMAINS", {(2, 2, 2): ((2, 3), 1, 1)})
    monkeypatch.setattr(group_battery, "GROUPS", {("sl", 2, 3): 1, ("sl", 3, 2): 1})
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "CLI_IMPORT_REPEATS", 1)


def _run_ops(ops):
    phase = common.PhaseResult(ops)
    for op in ops:
        common.run_op(op, phase)
    return phase


def test_perturbed_spectrum_is_a_failed_op(tiny, monkeypatch):
    scheme_battery.setup()
    ops = scheme_battery.build_ops(1)
    assert _run_ops(ops).failed == 0

    import qharm.scheme as scheme

    real = scheme.fourier_forward

    def perturbed(f):
        spec = real(f)
        spec.coefficients[3] += 1e-6
        return spec

    monkeypatch.setattr(scheme, "fourier_forward", perturbed)
    phase = _run_ops(ops)
    assert phase.failed == len(ops)
    assert "character matrix" in phase.failures[0]


def test_violated_row_is_a_failed_op(tiny):
    scheme_battery.setup()
    op = scheme_battery.build_ops(2)[0]
    rows, spectrum = op.run()
    rows[0] = dict(rows[0], holds=False)
    assert "violated" in op.check((rows, spectrum))


def test_perturbed_convolution_is_a_failed_op(tiny, monkeypatch):
    group_battery.setup()
    ops = group_battery.build_ops(1)
    assert _run_ops(ops).failed == 0

    import qharm.groups as groups

    real = groups.convolve

    def perturbed(f, g):
        out = real(f, g)
        out.values[0] += 1e-9
        return out

    monkeypatch.setattr(groups, "convolve", perturbed)
    phase = _run_ops(ops)
    assert phase.failed == len(ops)
    assert "double loop" in phase.failures[0]


def test_exception_is_a_failed_op_not_a_crash():
    def boom():
        raise ConsistencyError("realizations disagree")

    phase = _run_ops([common.Op("boom", boom, lambda out: None)])
    assert (phase.attempted, phase.failed) == (1, 1)
    assert "ConsistencyError" in phase.failures[0]


def test_op_times_are_normalized_by_the_yardstick():
    from yardstick import REF_S

    phase = common.PhaseResult([common.Op("op", lambda: None, lambda out: None)])
    phase.samples = [[0.2, 0.4, 0.3]]
    phase.yard = [[0.01, 0.02, 0.01]]  # ratios 20, 20, 30: the op ran at half speed in pass 2
    assert phase.op_times() == pytest.approx([20 * REF_S])
    assert phase.run_s() == pytest.approx(20 * REF_S)
    assert phase.raw_run_s() == pytest.approx(0.3)


def test_warmup_pass_is_checked_but_not_timed():
    calls = []
    op = common.Op("op", lambda: calls.append(1), lambda out: None)
    phase = common.measure([op], 0.0, 2, warmup=1)
    assert len(calls) == phase.attempted == 3
    assert phase.passes == 2 and len(phase.samples[0]) == len(phase.yard[0]) == 2


def test_cli_exit_status_two_is_a_failed_op():
    ops = {op.name: op for op in cli_cold.build_ops(cli_cold.Inputs(3))}
    crashed = cli_cold.ChildRun(subprocess.CompletedProcess([], 2, "", "error: bad input"), 0.1, 0.005)
    assert "exit status 2" in ops["isotypic_sl2q5"].check(crashed)
    # exit status 1 is an audit verdict, judged against the oracle's verdict
    assert "exit status 2" in ops["influence-audit_q2n3m3"].check(crashed)


def _declared(kind: str) -> set[str]:
    with open(BENCHMARK) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _smoke(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    return result["metrics"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(tiny, capsys, workload):
    metrics = _smoke(capsys, workload, 0)
    assert set(metrics) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    layers = _smoke(capsys, workload, 1)
    assert set(layers) == _declared("per_layer")
    if workload != "cli-cold":  # set-up must hold all construction
        for name in ("scheme.site_cosets.misses", "calculus.masks.misses", "groups.get_levels.misses"):
            assert layers[name]["value"] == 0, name


def test_tracer_restores_every_function():
    import qharm.calculus as calculus
    import qharm.fqlin as fqlin
    import qharm.scheme as scheme

    from tracing import Tracer

    before = (fqlin.rref, calculus.rref, scheme.SchemeCtx.fourier_forward)
    tracer = Tracer()
    tracer.install()
    assert calculus.rref is fqlin.rref is not before[0]
    ctx = scheme.get_scheme(2, 1, 2)
    ctx.fourier_forward(np.ones(ctx.size))
    tracer.uninstall()
    assert (fqlin.rref, calculus.rref, scheme.SchemeCtx.fourier_forward) == before
    assert tracer.calls["scheme.transform"] == 1
