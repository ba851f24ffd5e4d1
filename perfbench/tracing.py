"""Spans and counters for the traced run, recorded from outside qharm.

``Tracer.install`` replaces public qharm functions with timing wrappers.
A module-level function is replaced in every qharm module that holds it
under some name (``calculus`` imports ``rref`` by name, for example);
methods are replaced on their class.  ``uninstall`` restores every
original.

Each wrapped call belongs to a layer group such as ``calculus.masks``.
Self time is a call's duration minus the time of the wrapped calls it
made.  Hot leaf groups (``rref``, transforms, cached-builder lookups)
are aggregated as a count and summed time; the other groups also record
one span each: name, start, end, parent span and op id.  Spans stay in
memory until ``write``.

A cached builder counts a miss when it returns an object it has not
returned before: qharm's caches hand back the same object on every hit.
Misses are counted in the measured phase only, so construction that
leaves set-up shows up there.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

import numpy as np

from cli_cold import COMMANDS

# (module, attribute, group, records spans, counts cache misses)
TARGETS = [
    ("qharm.fqlin", "rref", "fqlin.rref", False, False),
    ("qharm.fqlin", "Subspace.contains", "fqlin.contains", False, False),
    ("qharm.scheme", "SchemeCtx.fourier_forward", "scheme.transform", False, False),
    ("qharm.scheme", "SchemeCtx.fourier_inverse", "scheme.transform", False, False),
    ("qharm.scheme", "SchemeCtx.rank_table_dual", "scheme.rank_table", False, False),
    ("qharm.scheme", "SchemeCtx.site_cosets", "scheme.site_cosets", False, True),
    ("qharm.scheme", "SchemeCtx.restriction_embedding", "scheme.restriction_embedding", False, False),
    ("qharm.calculus", "laplacian_mask", "calculus.masks", False, True),
    ("qharm.calculus", "quotient_mask", "calculus.masks", False, True),
    ("qharm.calculus", "vector_avg_factors", "calculus.masks", False, True),
    ("qharm.calculus", "dual_avg_factors", "calculus.masks", False, True),
    ("qharm.calculus", "laplacian", "calculus.laplacian", False, False),
    ("qharm.calculus", "avg_quotient", "calculus.averaging", False, False),
    ("qharm.calculus", "avg_vector", "calculus.averaging", False, False),
    ("qharm.calculus", "avg_dual", "calculus.averaging", False, False),
    ("qharm.globality", "global_audit", "globality.global_audit", True, False),
    ("qharm.globality", "influence_audit", "globality.influence_audit", True, False),
    ("qharm.globality", "lp_global_audit", "globality.lp_global_audit", True, False),
    ("qharm.globality", "max_refining_restriction", "globality.max_refining_restriction", True, False),
    ("qharm.globality", "set_global_audit", "globality.set_global_audit", True, False),
    ("qharm.groups", "get_group", "groups.get_group", False, False),
    ("qharm.groups", "get_levels", "groups.get_levels", False, True),
    ("qharm.groups", "get_isotypic", "groups.isotypic", True, False),
    ("qharm.groups", "isotypic_refine", "groups.isotypic", True, False),
    ("qharm.groups", "level_project", "groups.level_project", False, False),
    ("qharm.groups", "level_project_eq", "groups.level_project", False, False),
    ("qharm.groups", "convolve", "groups.convolve", False, False),
    ("qharm.groups", "convolve_batch", "groups.convolve", False, False),
    ("qharm.spectra", "sarnak_xue_check", "spectra.sarnak_xue", True, False),
    ("qharm.spectra", "mixing_experiment", "spectra.mixing", True, False),
    ("qharm.spectra", "product_mixing", "spectra.mixing", True, False),
    ("qharm.spectra", "SchemeInstanceChecks.*", "spectra.scheme_checks", True, False),
    ("qharm.spectra", "GroupInstanceChecks.*", "spectra.group_checks", True, False),
    ("qharm.bogolyubov", "bogolyubov_search", "bogolyubov", True, False),
    ("qharm.bogolyubov", "density_bogolyubov", "bogolyubov", True, False),
    ("qharm.bogolyubov", "easy_set_cover", "bogolyubov", True, False),
    ("qharm.bogolyubov", "pigeonhole_check", "bogolyubov", True, False),
    ("qharm.cli", "read_function_csv", "cli.io", True, False),
    ("qharm.cli", "write_function_csv", "cli.io", True, False),
    ("qharm.cli", "read_set_file", "cli.io", True, False),
    ("qharm.cli", "write_report_csv", "cli.io", True, False),
    ("qharm.cli", "write_manifest", "cli.io", True, False),
    ("qharm.cli", "write_json", "cli.io", True, False),
]

MODULES = sorted({t[0] for t in TARGETS})


def _digest(values) -> bytes:
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    return hashlib.blake2b(arr.tobytes(), digest_size=12).digest() + repr(arr.shape).encode()


class Tracer:
    def __init__(self):
        self.measuring = False  # False during set-up, True in the measured phase
        self.op_id = "setup"
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.misses: dict[str, int] = {}
        self.counters: dict[str, int] = {
            "scheme.transform.elements": 0,
            "scheme.transform.forward": 0,
            "scheme.transform.forward_repeats": 0,
            "globality.influence_audit.repeats": 0,
            "calculus.consistency_errors": 0,
        }
        self._stack: list[list] = []  # open calls: [child seconds, span index]
        self._returned: dict[str, dict[int, object]] = {}
        self._op_digests: dict[str, set] = {}
        self._op_span = -1
        self._patches: list[tuple] = []
        self._consistency_error = None

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.op_id = op_id
        self._op_digests = {}
        self._op_span = len(self.spans)
        self.spans.append(["op", time.perf_counter(), None, -1, op_id])
        self._stack.append([0.0, self._op_span])

    def end_op(self) -> None:
        self._stack.clear()
        self.spans[self._op_span][2] = time.perf_counter()
        self._op_span = -1
        self.op_id = "between-ops"

    # -- wrappers -----------------------------------------------------------------

    def _seen_in_op(self, bucket: str, key) -> bool:
        seen = self._op_digests.setdefault(bucket, set())
        if key in seen:
            return True
        seen.add(key)
        return False

    def _note_result(self, group: str, result) -> None:
        returned = self._returned.setdefault(group, {})
        if id(result) not in returned:
            returned[id(result)] = result  # held so the id stays unique
            if self.measuring:
                self.misses[group] = self.misses.get(group, 0) + 1

    def _count_inputs(self, group: str, forward: bool, args, kwargs) -> None:
        if group == "scheme.transform":  # args[0] is the SchemeCtx
            values = args[1] if len(args) > 1 else next(iter(kwargs.values()))
            self.counters["scheme.transform.elements"] += int(np.size(values))
            if forward:
                self.counters["scheme.transform.forward"] += 1
                if self._seen_in_op("forward", _digest(values)):
                    self.counters["scheme.transform.forward_repeats"] += 1
        elif group == "globality.influence_audit":
            f = args[0] if args else kwargs["f"]
            dmax = args[1] if len(args) > 1 else kwargs.get("dmax")
            if self._seen_in_op(group, (_digest(f.values), dmax)):
                self.counters["globality.influence_audit.repeats"] += 1

    def wrap(self, fn, group: str, record_span: bool, count_misses: bool, forward: bool = False):
        tracer = self
        consistency_error = self._consistency_error
        is_calculus = group.startswith("calculus.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            tracer._count_inputs(group, forward, args, kwargs)
            if record_span:
                span_index = len(tracer.spans)
                tracer.spans.append([group, 0.0, None, parent, tracer.op_id])
            else:
                span_index = parent
            frame = [0.0, span_index]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except consistency_error as e:
                if is_calculus and not getattr(e, "_bench_counted", False):
                    e._bench_counted = True
                    tracer.counters["calculus.consistency_errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                duration = end - start
                tracer.calls[group] = tracer.calls.get(group, 0) + 1
                tracer.self_s[group] = tracer.self_s.get(group, 0.0) + duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if record_span:
                    tracer.spans[span_index][1] = start
                    tracer.spans[span_index][2] = end
            if count_misses:
                tracer._note_result(group, result)
            return result

        return wrapper

    # -- install / uninstall --------------------------------------------------------

    def install(self) -> None:
        for name in MODULES:
            importlib.import_module(name)
        self._consistency_error = importlib.import_module("qharm.errors").ConsistencyError
        qharm_mods = [m for name, m in sys.modules.items() if name == "qharm" or name.startswith("qharm.")]
        for modname, attr, group, span, misses in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                names = [m for m in vars(cls) if m == "__init__" or m.startswith("check_")] if meth == "*" else [meth]
                for name in names:
                    orig = vars(cls)[name]
                    forward = group == "scheme.transform" and name == "fourier_forward"
                    setattr(cls, name, self.wrap(orig, group, span, misses, forward))
                    self._patches.append((cls, name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(orig, group, span, misses)
            for m in qharm_mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapper)
                        self._patches.append((m, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # -- output -------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "misses": dict(self.misses),
            "counters": dict(self.counters),
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"summary": self.summary(), "spans": self.spans}, fh)


def merge_summaries(summaries: list[dict]) -> dict:
    out = {"calls": {}, "self_s": {}, "misses": {}, "counters": {}}
    for s in summaries:
        for part in out:
            for k, v in s[part].items():
                out[part][k] = out[part].get(k, 0) + v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, cli_times: dict[str, float] | None = None) -> dict:
    """Per-layer metrics by their BENCHMARK.json names, as (value, unit)."""
    calls, self_s, misses, c = summary["calls"], summary["self_s"], summary["misses"], summary["counters"]

    def n(group):
        return (calls.get(group, 0), "count")

    def s(group):
        return (self_s.get(group, 0.0), "s")

    def miss(group):
        return (misses.get(group, 0), "count")

    out = {
        "fqlin.rref.calls": n("fqlin.rref"),
        "fqlin.rref.self_s": s("fqlin.rref"),
        "fqlin.contains.calls": n("fqlin.contains"),
        "scheme.transform.calls": n("scheme.transform"),
        "scheme.transform.self_s": s("scheme.transform"),
        "scheme.transform.elements": (c["scheme.transform.elements"], "count"),
        "scheme.transform.repeat_ratio": (
            _ratio(c["scheme.transform.forward_repeats"], c["scheme.transform.forward"]),
            "ratio",
        ),
        "scheme.rank_table.self_s": s("scheme.rank_table"),
        "scheme.site_cosets.calls": n("scheme.site_cosets"),
        "scheme.site_cosets.misses": miss("scheme.site_cosets"),
        "scheme.site_cosets.self_s": s("scheme.site_cosets"),
        "scheme.restriction_embedding.self_s": s("scheme.restriction_embedding"),
        "calculus.masks.calls": n("calculus.masks"),
        "calculus.masks.misses": miss("calculus.masks"),
        "calculus.masks.self_s": s("calculus.masks"),
        "calculus.laplacian.calls": n("calculus.laplacian"),
        "calculus.laplacian.self_s": s("calculus.laplacian"),
        "calculus.averaging.calls": n("calculus.averaging"),
        "calculus.averaging.self_s": s("calculus.averaging"),
        "calculus.consistency_errors": (c["calculus.consistency_errors"], "count"),
        "globality.global_audit.calls": n("globality.global_audit"),
        "globality.global_audit.self_s": s("globality.global_audit"),
        "globality.influence_audit.calls": n("globality.influence_audit"),
        "globality.influence_audit.self_s": s("globality.influence_audit"),
        "globality.influence_audit.repeat_ratio": (
            _ratio(c["globality.influence_audit.repeats"], calls.get("globality.influence_audit", 0)),
            "ratio",
        ),
        "globality.lp_global_audit.self_s": s("globality.lp_global_audit"),
        "globality.max_refining_restriction.calls": n("globality.max_refining_restriction"),
        "globality.max_refining_restriction.self_s": s("globality.max_refining_restriction"),
        "globality.set_global_audit.calls": n("globality.set_global_audit"),
        "globality.set_global_audit.self_s": s("globality.set_global_audit"),
        "groups.get_group.self_s": s("groups.get_group"),
        "groups.get_levels.misses": miss("groups.get_levels"),
        "groups.get_levels.self_s": s("groups.get_levels"),
        "groups.isotypic.self_s": s("groups.isotypic"),
        "groups.level_project.calls": n("groups.level_project"),
        "groups.level_project.self_s": s("groups.level_project"),
        "groups.convolve.calls": n("groups.convolve"),
        "groups.convolve.self_s": s("groups.convolve"),
        "spectra.sarnak_xue.self_s": s("spectra.sarnak_xue"),
        "spectra.mixing.self_s": s("spectra.mixing"),
        "spectra.scheme_checks.self_s": s("spectra.scheme_checks"),
        "spectra.group_checks.self_s": s("spectra.group_checks"),
        "bogolyubov.calls": n("bogolyubov"),
        "bogolyubov.self_s": s("bogolyubov"),
        "cli.io.self_s": s("cli.io"),
    }
    for name, _, _ in COMMANDS:
        out[f"cli.{name}.s"] = ((cli_times or {}).get(name, 0.0), "s")
    return out
